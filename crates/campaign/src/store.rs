//! Resumable on-disk result stores.
//!
//! One campaign = one JSONL file: each line is a record keyed by its
//! spec's content hash. The store machinery is generic over the record
//! type ([`JsonlStore`]): the scenario sweep engine stores
//! [`ScenarioRecord`]s ([`ResultStore`]) and the fault-injection
//! engine stores `InjectionRecord`s, both under the same journaling,
//! crash-recovery and finalize-ordering contract. A store is written
//! twice over a campaign's life:
//!
//! 1. **Journal phase** — the executor appends each record as it
//!    completes (and flushes), so an interrupted sweep loses at most
//!    the in-flight scenarios. A torn final line from a crash is
//!    detected on open and truncated away before the next append.
//! 2. **Finalize phase** — once every scenario is done the file is
//!    rewritten atomically (temp file + rename) in canonical grid
//!    order. Scenario results are themselves deterministic, so the
//!    finalized store is byte-identical no matter how many worker
//!    threads ran or how work interleaved — and identical between a
//!    clean run and an interrupted-then-resumed one.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dnnlife_core::experiment::PolicySpec;
use dnnlife_core::{ExperimentResult, ExperimentSpec, ShardPolicy, SimulatorBackend};
use serde::{Deserialize, Serialize};

/// What a record type must provide to live in a [`JsonlStore`]: a
/// stored key and a way to recompute it from the record's content, so
/// a record whose spec was edited (or written by a binary with a
/// different hash scheme) can't silently satisfy a pending scenario.
pub trait StoreRecord: Serialize + Deserialize + Clone {
    /// The key the record was stored under.
    fn key(&self) -> &str;
    /// The key recomputed from the record's content.
    fn computed_key(&self) -> String;
}

/// One completed scenario: the spec, its store key, and the result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// [`ExperimentSpec::content_key`] of `spec` (stored redundantly so
    /// tools can filter lines without re-hashing).
    pub key: String,
    /// The scenario that ran.
    pub spec: ExperimentSpec,
    /// What it produced.
    pub result: ExperimentResult,
    /// The word-shard policy the result was computed under — recorded
    /// **only** for shard-sensitive scenarios (exact backend ×
    /// stochastic DNN-Life policy, where the shard count selects the
    /// TRBG stream assignment), `None` everywhere else. Resume compares
    /// this against the running sweep's policy and re-runs mismatches
    /// instead of silently mixing two stream-deals in one store.
    pub shards: Option<String>,
}

impl ScenarioRecord {
    /// Builds a record, deriving the key from the spec (no shard
    /// annotation — see [`ScenarioRecord::annotated`]).
    pub fn new(spec: ExperimentSpec, result: ExperimentResult) -> Self {
        Self {
            key: spec.content_key(),
            spec,
            result,
            shards: None,
        }
    }

    /// [`ScenarioRecord::new`] with the shard annotation the executor
    /// stores: [`shard_annotation`] of the spec under `shards`.
    pub fn annotated(spec: ExperimentSpec, result: ExperimentResult, shards: ShardPolicy) -> Self {
        let annotation = shard_annotation(&spec, shards);
        Self {
            shards: annotation,
            ..Self::new(spec, result)
        }
    }
}

impl StoreRecord for ScenarioRecord {
    fn key(&self) -> &str {
        &self.key
    }

    fn computed_key(&self) -> String {
        self.spec.content_key()
    }
}

/// The shard annotation a record of `spec` carries when swept under
/// `shards`: the policy's display name iff the scenario is
/// shard-sensitive (exact backend × DNN-Life — different shard counts
/// deal different TRBG streams), `None` otherwise (deterministic
/// policies and the analytic backend are bit-identical at every shard
/// count, so annotating them would only break store byte-identity
/// across `--shards` values).
pub fn shard_annotation(spec: &ExperimentSpec, shards: ShardPolicy) -> Option<String> {
    (spec.backend == SimulatorBackend::Exact && matches!(spec.policy, PolicySpec::DnnLife { .. }))
        .then(|| shards.display_name())
}

// Hand-rolled (de)serialization, mirroring `ExperimentSpec`'s pattern:
// the `shards` annotation is omitted when `None`, so records of
// shard-insensitive scenarios keep the exact bytes (and parseability)
// they had before the field existed.
impl Serialize for ScenarioRecord {
    fn to_value(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("key".to_string(), self.key.to_value()),
            ("spec".to_string(), self.spec.to_value()),
            ("result".to_string(), self.result.to_value()),
        ];
        if let Some(shards) = &self.shards {
            fields.push(("shards".to_string(), shards.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ScenarioRecord {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = value.as_object_named("ScenarioRecord")?;
        let shards = pairs
            .iter()
            .find(|(key, _)| key == "shards")
            .map(|(_, v)| String::from_value(v))
            .transpose()?;
        Ok(ScenarioRecord {
            key: serde::field(pairs, "key")?,
            spec: serde::field(pairs, "spec")?,
            result: serde::field(pairs, "result")?,
            shards,
        })
    }
}

/// A JSONL record store bound to one file path, generic over the
/// record type.
#[derive(Debug)]
pub struct JsonlStore<R> {
    path: PathBuf,
    records: BTreeMap<String, R>,
    /// Byte length of the valid prefix of the file on open (a torn
    /// final line is cut off before the first append).
    valid_len: u64,
    writer: Option<BufWriter<File>>,
}

/// The scenario-sweep store (`dnnlife sweep` / `report` / `compare`).
pub type ResultStore = JsonlStore<ScenarioRecord>;

impl<R: StoreRecord> JsonlStore<R> {
    /// Opens (or creates the notion of) a store at `path`, loading any
    /// records already on disk. A torn final line — the signature of a
    /// killed journal append — is ignored and later truncated; corrupt
    /// content anywhere else is an error.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let mut records = BTreeMap::new();
        let mut valid_len = 0u64;
        if path.exists() {
            // Bytes, not text: a tail torn inside a multi-byte character
            // is not UTF-8 and must still read as a torn tail.
            let bytes = std::fs::read(&path)?;
            let mut offset = 0usize;
            for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
                let parsed = std::str::from_utf8(line)
                    .map_err(|e| serde::Error::new(e.to_string()))
                    .and_then(|text| serde_json::from_str::<R>(text.trim_end_matches('\n')));
                match parsed {
                    Ok(record) if line.ends_with(b"\n") => {
                        // The key is stored redundantly; verify it so a
                        // record whose spec was edited (or written by a
                        // binary with a different hash scheme) can't
                        // silently satisfy a pending scenario.
                        if record.key() != record.computed_key() {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                format!(
                                    "{}: record on line {} has key {} but its spec hashes to {}",
                                    path.display(),
                                    i + 1,
                                    record.key(),
                                    record.computed_key()
                                ),
                            ));
                        }
                        offset += line.len();
                        records.insert(record.key().to_string(), record);
                    }
                    Ok(_) | Err(_) if offset + line.len() == bytes.len() => {
                        // Unterminated or unparsable final line: torn
                        // journal append. Drop it.
                        break;
                    }
                    Ok(_) => unreachable!("split_inclusive: only the last line lacks \\n"),
                    Err(e) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("{}: corrupt record on line {}: {e}", path.display(), i + 1),
                        ));
                    }
                }
            }
            valid_len = offset as u64;
        }
        Ok(Self {
            path,
            records,
            valid_len,
            writer: None,
        })
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of stored scenarios.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether a scenario is already stored.
    pub fn contains(&self, key: &str) -> bool {
        self.records.contains_key(key)
    }

    /// Looks up a scenario by key.
    pub fn get(&self, key: &str) -> Option<&R> {
        self.records.get(key)
    }

    /// All records, in key order.
    pub fn records(&self) -> impl Iterator<Item = &R> {
        self.records.values()
    }

    /// Appends one record to the journal and flushes it to disk.
    pub fn append(&mut self, record: R) -> std::io::Result<()> {
        if self.writer.is_none() {
            if let Some(parent) = self.path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            // Not `truncate(true)`: existing journaled records must
            // survive. `set_len` below cuts only a torn final line.
            let file = OpenOptions::new()
                .create(true)
                .truncate(false)
                .write(true)
                .open(&self.path)?;
            file.set_len(self.valid_len)?;
            let mut writer = BufWriter::new(file);
            writer.seek(SeekFrom::End(0))?;
            self.writer = Some(writer);
        }
        let writer = self.writer.as_mut().expect("writer just initialised");
        let line = serde_json::to_string(&record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        self.valid_len += line.len() as u64 + 1;
        self.records.insert(record.key().to_string(), record);
        Ok(())
    }

    /// Keys held by the store that are not in `keys` — records left
    /// over from a sweep with different parameters (seed, stride,
    /// grid). The executor reports these before [`JsonlStore::finalize`]
    /// drops them.
    pub fn stale_keys(&self, keys: &[String]) -> Vec<String> {
        let keep: std::collections::BTreeSet<&String> = keys.iter().collect();
        self.records
            .keys()
            .filter(|k| !keep.contains(k))
            .cloned()
            .collect()
    }

    /// Atomically rewrites the file with exactly the stored records
    /// named by `order`, in that order; everything else (stale records
    /// from a sweep with different parameters) is dropped from both
    /// the file and memory. This is what makes a finished store a pure
    /// function of the grid — byte-identical across thread counts,
    /// interruptions and parameter changes.
    pub fn finalize(&mut self, order: &[String]) -> std::io::Result<()> {
        self.writer = None;
        let tmp_path = self.path.with_extension("jsonl.tmp");
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        {
            let mut writer = BufWriter::new(File::create(&tmp_path)?);
            let mut written = std::collections::BTreeSet::new();
            for key in order {
                if let Some(record) = self.records.get(key) {
                    if written.insert(key.clone()) {
                        write_line(&mut writer, record)?;
                    }
                }
            }
            writer.flush()?;
            self.records.retain(|key, _| written.contains(key));
        }
        std::fs::rename(&tmp_path, &self.path)?;
        self.valid_len = std::fs::metadata(&self.path)?.len();
        Ok(())
    }
}

/// Advisory inter-process lock guarding a store file's write phase.
///
/// Two sweeps journaling into the same path would interleave positioned
/// writes and corrupt the file mid-line — an unrecoverable state (only
/// torn *tails* are recoverable). The lock is an OS advisory lock
/// (`File::try_lock`) on a `<store>.lock` sibling file, so the kernel
/// releases it the instant the holder exits — a sweep killed with
/// SIGKILL leaves no stale lock and the documented kill-then-`--resume`
/// flow needs no manual cleanup, and there is no check-then-remove
/// window for two processes to race through. The holder's PID is
/// written into the file purely for the contention error message; the
/// (unlocked) file itself is deliberately left on disk on drop, since
/// unlinking it would detach the inode future contenders lock against.
#[derive(Debug)]
pub struct StoreLock {
    /// Held open for the lock's lifetime; the OS lock dies with it.
    _file: File,
}

impl StoreLock {
    /// Acquires the lock for `store_path`, erroring if another live
    /// process holds it.
    pub fn acquire(store_path: &Path) -> std::io::Result<Self> {
        let path = PathBuf::from(format!("{}.lock", store_path.display()));
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {
                file.set_len(0)?;
                let _ = write!(file, "{}", std::process::id());
                let _ = file.flush();
                Ok(Self { _file: file })
            }
            Err(std::fs::TryLockError::WouldBlock) => {
                let mut holder = String::new();
                let _ = file.read_to_string(&mut holder);
                Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    format!(
                        "store {} is locked by a running sweep (pid {}); wait for it to finish",
                        store_path.display(),
                        holder.trim()
                    ),
                ))
            }
            Err(std::fs::TryLockError::Error(e)) => Err(e),
        }
    }
}

fn write_line<R: Serialize>(writer: &mut BufWriter<File>, record: &R) -> std::io::Result<()> {
    let line = serde_json::to_string(record)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")
}
