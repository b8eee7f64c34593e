//! Parallel campaign executor: one driver for scenario sweeps and
//! fault-injection campaigns.
//!
//! Items run as jobs on [`dnnlife_nn::exec::run_jobs`], the
//! workspace's one thread pool: idle workers claim the next pending
//! item from its shared queue (runtimes vary by orders of magnitude
//! between networks, so a static partition would idle cores), run it,
//! and journal the record to the store themselves, one append and
//! flush at a time under a lock, so every completion is durable as
//! soon as it finishes. The store is then finalized in canonical grid
//! order.
//!
//! When a grid has fewer pending items than budgeted threads,
//! `run_jobs` splits the leftover threads evenly over its workers, and
//! each item hands its share to the simulator (analytic cell shards /
//! exact word shards / injection trials) instead of letting it idle.
//!
//! Determinism: each item's result depends only on its spec plus the
//! (deterministic) shard policy — never on the thread count — and the
//! finalize pass orders the file by the grid, so the finished store is
//! **byte-identical for any worker count** and for
//! interrupted-then-resumed runs.
//!
//! Aborts are prompt: when a journal append fails — or an external
//! cancellation token (Ctrl-C) is raised — a shared flag cancels
//! in-flight **exact** simulations at block granularity (within one
//! inference — the backend whose scenarios run for minutes) and their
//! partial results are discarded, not journaled. Analytic scenarios
//! poll the flag only between memory units; their closed forms are
//! orders of magnitude shorter, so the flag exists to stop the
//! expensive backend, not the cheap one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dnnlife_core::experiment::{run_experiment_with, RunOptions, ShardPolicy};
use dnnlife_nn::exec::{self, run_jobs, thread_count};
use dnnlife_telemetry::{Instrumentation, SpanId};
use serde::Serialize;

use crate::grid::CampaignGrid;
use crate::store::{shard_annotation, JsonlStore, ScenarioRecord, StoreLock, StoreRecord};

/// Executor knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignOptions<'a> {
    /// Total thread budget (0 = all available cores), split evenly
    /// over the scenario workers; a worker's share goes to the
    /// simulator of the scenario it runs.
    pub threads: usize,
    /// Skip scenarios already present in the store. When false, an
    /// existing store file is discarded and every scenario re-runs.
    pub resume: bool,
    /// Print per-scenario progress lines to stderr.
    pub verbose: bool,
    /// Exact-backend word-shard policy per scenario. `Auto` (default)
    /// derives a machine-independent count from each memory unit's
    /// sampled word population, so stores stay byte-identical for any
    /// thread count; a `Fixed` count pins the DNN-Life stream split
    /// explicitly (deterministic policies are bit-identical either
    /// way).
    pub shards: ShardPolicy,
    /// External cancellation token (the CLI's Ctrl-C handler): when
    /// raised, idle workers stop at their next claim, in-flight exact
    /// simulations abort within one inference, journaled completions
    /// are kept, and the run returns
    /// [`std::io::ErrorKind::Interrupted`] — re-running with `resume`
    /// picks up exactly the missing scenarios.
    pub cancel: Option<&'a AtomicBool>,
    /// Observability sink: counters, span timings and `events.jsonl`
    /// records flow through `instr.telemetry`, and per-scenario
    /// completions tick `instr.progress`. Never semantic — the finished
    /// store is byte-identical with instrumentation on or off.
    pub instr: Instrumentation<'a>,
}

/// What a campaign run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Scenarios (or cells) executed by this invocation.
    pub executed: usize,
    /// Scenarios (or cells) skipped because the store already held them.
    pub skipped: usize,
    /// Worker threads used (1 when nothing was pending).
    pub threads: usize,
}

/// Runs every scenario of `grid`, journaling into (and finalizing) the
/// store at `store_path`, under `options.cancel` and with
/// `options.instr` observing.
///
/// # Errors
///
/// Propagates store I/O errors (a store locked by another run is
/// [`std::io::ErrorKind::WouldBlock`]), and returns
/// [`std::io::ErrorKind::Interrupted`] when `options.cancel` was raised
/// before every scenario finished. A panic in a worker (a scenario
/// panicking mid-simulation) propagates after in-flight completions
/// have been journaled.
pub fn run_campaign(
    grid: &CampaignGrid,
    store_path: impl Into<PathBuf>,
    options: &CampaignOptions,
) -> std::io::Result<CampaignOutcome> {
    let (shards, instr) = (options.shards, options.instr);
    let campaign = Campaign {
        name: &grid.name,
        noun: "scenario",
        items: &grid.scenarios,
        keys: grid.keys(),
        label: |record: &ScenarioRecord| record.result.label.clone(),
        group: |record| record.spec.policy.display_name(),
    };
    drive(
        &campaign,
        store_path.into(),
        options,
        // A stored record satisfies a scenario only if it was computed
        // under the same word-shard annotation: shard-sensitive records
        // (exact × DNN-Life) journaled by a sweep with a different
        // `--shards` hold a different TRBG stream-deal, and skipping
        // them would silently mix two deals in one store.
        |spec, record| record.shards == shard_annotation(spec, shards),
        |spec, threads, cancel, span| {
            let opts = RunOptions {
                threads,
                shards,
                cancel: Some(cancel),
                telemetry: instr.telemetry,
                parent_span: span,
            };
            run_experiment_with(spec, &opts)
                .map(|result| ScenarioRecord::annotated(spec.clone(), result, shards))
        },
    )
}

/// One campaign as [`drive`] sees it.
pub(crate) struct Campaign<'a, T, R> {
    /// Names the campaign in stderr lines, events and its span.
    pub name: &'a str,
    /// What one item is called (`scenario`, `cell`).
    pub noun: &'static str,
    /// The items, in canonical (finalize) order.
    pub items: &'a [T],
    /// The items' store keys, in the same order.
    pub keys: Vec<String>,
    /// A record's name in progress lines.
    pub label: fn(&R) -> String,
    /// A record's policy, bucketing per-policy throughput in `dnnlife perf`.
    pub group: fn(&R) -> String,
}

/// The driver of both campaign kinds: holds the store's [`StoreLock`]
/// for the whole run, discards the store unless `options.resume`, and
/// runs through [`journal`] every item with no stored record or with
/// one `reusable` rejects (the sweep's `--shards` rule, which the
/// stderr note names). `options.shards` is left to `run`.
pub(crate) fn drive<T: Sync, R: StoreRecord + Send>(
    campaign: &Campaign<'_, T, R>,
    store_path: PathBuf,
    options: &CampaignOptions,
    reusable: impl Fn(&T, &R) -> bool,
    run: impl Fn(&T, usize, &AtomicBool, SpanId) -> Option<R> + Sync,
) -> std::io::Result<CampaignOutcome> {
    let (name, noun, items, keys) = (campaign.name, campaign.noun, campaign.items, &campaign.keys);
    // Held for the whole campaign: a second run journaling into the
    // same file would interleave writes and corrupt it mid-line.
    let _lock = StoreLock::acquire(&store_path)?;
    if !options.resume && store_path.exists() {
        std::fs::remove_file(&store_path)?;
    }
    let mut store = JsonlStore::<R>::open(&store_path)?;

    let stale = store.stale_keys(keys);
    if !stale.is_empty() {
        eprintln!(
            "campaign `{name}`: dropping {} stale record(s) from {} — they were produced \
             by a run with different parameters (seed/stride/inferences/grid)",
            stale.len(),
            store.path().display()
        );
    }
    let pending: Vec<&T> = items
        .iter()
        .zip(keys)
        .filter(|(item, key)| store.get(key).is_none_or(|record| !reusable(item, record)))
        .map(|(item, _)| item)
        .collect();
    let skipped = items.len() - pending.len();
    let rejected = keys.iter().filter(|key| store.contains(key)).count() - skipped;
    if rejected > 0 {
        eprintln!(
            "campaign `{name}`: re-running {rejected} DNN-Life exact record(s) journaled \
             under a different --shards value (their TRBG stream split differs)"
        );
    }

    let budget = thread_count(options.threads);
    let threads = effective_threads(options.threads, pending.len());
    if options.verbose {
        eprintln!(
            "campaign `{name}`: {} {noun}(s) ({} pending, {skipped} already stored), \
             {threads} worker(s), {budget} thread(s) total",
            items.len(),
            pending.len(),
        );
    }
    let executed = journal(campaign, &mut store, &pending, budget, options, run)?;
    Ok(CampaignOutcome {
        executed,
        skipped,
        threads,
    })
}

/// The journaling half of [`drive`]: runs `pending` as [`run_jobs`]
/// jobs, each worker journaling its completed record into `store`
/// (flushing per record) under one lock, reports progress, maps a
/// journal I/O error or a raised cancellation token to an error, and
/// finalizes the store in canonical key order. Returns the number of
/// items journaled by this invocation.
///
/// Observability rides along without touching results: each item's
/// queue wait and run wall time accumulate into `instr.telemetry`'s
/// counters and the `scenario_wall_us`/`scenario_queue_us` latency
/// histograms, `scenario_start`/`scenario_done`/`scenario_discarded`
/// events flow to the journal in completion order, and every journaled
/// record ticks `instr.progress`. The campaign brackets a
/// `campaign:{name}` trace span; each item runs under its own
/// `scenario` child span whose id is handed to `run` as the parent for
/// simulator-level spans.
///
/// # Errors
///
/// The first journal I/O error, or [`std::io::ErrorKind::Interrupted`]
/// when `cancel` was raised before the pending set drained (journaled
/// completions are kept either way — the caller's resume flow picks up
/// the remainder). The interrupted message carries the full
/// cancellation summary: completed / in-flight discarded / never
/// started.
fn journal<T: Sync, R: StoreRecord + Send>(
    campaign: &Campaign<'_, T, R>,
    store: &mut JsonlStore<R>,
    pending: &[&T],
    budget: usize,
    options: &CampaignOptions,
    run: impl Fn(&T, usize, &AtomicBool, SpanId) -> Option<R> + Sync,
) -> std::io::Result<usize> {
    let (name, noun, cancel, instr) = (campaign.name, campaign.noun, options.cancel, options.instr);
    let telemetry = instr.telemetry();
    if let Some(progress) = instr.progress {
        progress.set_total(pending.len());
    }
    let mut done = 0usize;
    let discarded = AtomicUsize::new(0);
    let mut campaign_span = SpanId::NONE;
    if !pending.is_empty() {
        let workers = budget.min(pending.len()).max(1);
        // Absolute wall-clock anchor for the journal. Every other
        // timestamp in the journal is the relative `t_ms` offset from
        // the telemetry epoch; `unix_ms` on `campaign_start` is the
        // only absolute time, letting tooling correlate journals from
        // different runs (e.g. nightly `perf --diff` against the
        // previous night's artifact). Consumers must tolerate its
        // absence: journals written before this field existed lack it.
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        telemetry.emit(
            "campaign_start",
            &[
                ("name", name.to_value()),
                ("noun", noun.to_value()),
                ("pending", (pending.len() as u64).to_value()),
                ("workers", (workers as u64).to_value()),
                ("budget", (budget as u64).to_value()),
                ("unix_ms", unix_ms.to_value()),
            ],
        );
        campaign_span = telemetry.span_start(&format!("campaign:{name}"), SpanId::NONE);
        telemetry.gauge_set(
            "campaign_pending",
            "Scenarios pending at campaign start (after resume skips)",
            pending.len() as u64,
        );
        telemetry.gauge_set(
            "campaign_workers",
            "Item workers the shared pool started with",
            workers as u64,
        );
        // Two abort sources, and the caller's token is never written
        // (a journal error must not masquerade as a Ctrl-C): a failed
        // append raises the *local* flag, the external token is only
        // read. In-flight work polls the external token when there is
        // one (so Ctrl-C cancels at block granularity), the local flag
        // otherwise (so a journal error stops it equally promptly);
        // with a token present, a journal error still stops in-flight
        // items at delivery and idle workers at their next claim.
        let local_abort = AtomicBool::new(false);
        let run_flag: &AtomicBool = cancel.unwrap_or(&local_abort);
        let journal = Mutex::new((&mut *store, 0usize, None::<std::io::Error>));
        let epoch = Instant::now();
        let jobs: Vec<(usize, &T)> = pending.iter().copied().enumerate().collect();
        // `None` when an item was cancelled or could not be journaled;
        // both are read back from the flags and the journal below.
        let _ = run_jobs(jobs, budget, Some(run_flag), |(index, item)| {
            let threads = exec::budget();
            // Queue wait: how long this item sat pending before a
            // worker claimed it. Two clock reads per item — noise next
            // to scenario runtimes (ms to minutes).
            let queue_nanos = epoch.elapsed().as_nanos() as u64;
            telemetry.emit(
                "scenario_start",
                &[
                    ("i", (index as u64).to_value()),
                    ("threads", (threads as u64).to_value()),
                ],
            );
            let span = telemetry.span_start("scenario", campaign_span);
            let started = Instant::now();
            let result = run(item, threads, run_flag, span);
            let wall_nanos = started.elapsed().as_nanos() as u64;
            telemetry.span_end(span);
            let Some(record) = result else {
                // Counted even with telemetry off: the stderr
                // cancellation summary needs it.
                discarded.fetch_add(1, Ordering::Relaxed);
                telemetry.count(
                    "scenarios_discarded",
                    "In-flight scenarios cancelled mid-run and discarded",
                    1,
                );
                telemetry.emit(
                    "scenario_discarded",
                    &[
                        ("i", (index as u64).to_value()),
                        ("wall_ms", (wall_nanos as f64 / 1e6).to_value()),
                    ],
                );
                return None;
            };
            telemetry.count(
                "scenarios_completed",
                "Campaign scenarios (or injection cells) journaled",
                1,
            );
            telemetry.count(
                "queue_wait_nanos",
                "Total time items waited before a worker picked them up",
                queue_nanos,
            );
            telemetry.count(
                "scenario_wall_nanos",
                "Total per-scenario run wall time summed across workers",
                wall_nanos,
            );
            telemetry.observe(
                "scenario_wall_us",
                "Per-scenario run wall time in microseconds",
                wall_nanos / 1_000,
            );
            telemetry.observe(
                "scenario_queue_us",
                "Per-scenario queue wait in microseconds",
                queue_nanos / 1_000,
            );
            let label = (campaign.label)(&record);
            telemetry.emit(
                "scenario_done",
                &[
                    ("i", (index as u64).to_value()),
                    ("label", label.to_value()),
                    ("group", (campaign.group)(&record).to_value()),
                    ("wall_ms", (wall_nanos as f64 / 1e6).to_value()),
                    ("queue_ms", (queue_nanos as f64 / 1e6).to_value()),
                    ("threads", (threads as u64).to_value()),
                ],
            );
            let mut journal = journal.lock().expect("no append panics under the lock");
            let (store, done, error) = &mut *journal;
            if error.is_some() {
                return None; // the journal already failed: drop the record
            }
            if let Err(e) = store.append(record) {
                *error = Some(e);
                local_abort.store(true, Ordering::Relaxed);
                return None;
            }
            *done += 1;
            instr.tick();
            if options.verbose {
                eprintln!("  [{done}/{}] {label}", pending.len());
            }
            Some(())
        });
        let (_, journaled, journal_error) = journal.into_inner().expect("no append panicked");
        done = journaled;
        if let Some(e) = journal_error {
            return Err(e);
        }
        if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            let discarded = discarded.load(Ordering::Relaxed);
            let remaining = pending.len().saturating_sub(done + discarded);
            telemetry.span_end(campaign_span);
            telemetry.emit(
                "campaign_abort",
                &[
                    ("name", name.to_value()),
                    ("completed", (done as u64).to_value()),
                    ("discarded", (discarded as u64).to_value()),
                    ("remaining", (remaining as u64).to_value()),
                ],
            );
            telemetry.emit_counters();
            telemetry.emit_histograms();
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!(
                    "`{name}` interrupted: {done} of {} pending {noun}(s) completed, \
                     {discarded} in-flight discarded, {remaining} never started; \
                     journaled results kept — rerun with --resume",
                    pending.len()
                ),
            ));
        }
    }
    store.finalize(&campaign.keys)?;
    if let Some(progress) = instr.progress {
        progress.finish();
    }
    telemetry.span_end(campaign_span);
    telemetry.emit(
        "campaign_done",
        &[
            ("name", name.to_value()),
            ("completed", (done as u64).to_value()),
        ],
    );
    telemetry.emit_counters();
    telemetry.emit_histograms();
    Ok(done)
}

fn effective_threads(requested: usize, pending: usize) -> usize {
    thread_count(requested).min(pending).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ResultStore;
    use dnnlife_core::experiment::{
        DwellModel, NetworkKind, Platform, PolicySpec, SimulatorBackend,
    };
    use dnnlife_core::ExperimentSpec;
    use std::path::{Path, PathBuf};

    /// A fresh, empty directory under the system temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dnnlife-executor-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
        }
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// Runs `specs` through [`journal`] into a store at `path` on 2
    /// threads, the way [`run_campaign`] does but without the store
    /// lock; `after` sees each finished record before it is journaled.
    fn journal_specs(
        path: &Path,
        specs: &[ExperimentSpec],
        cancel: Option<&AtomicBool>,
        after: impl Fn(&ScenarioRecord) + Sync,
    ) -> (std::io::Result<usize>, ResultStore) {
        let mut store = ResultStore::open(path).expect("open store");
        let campaign = Campaign {
            name: "test",
            noun: "scenario",
            items: specs,
            keys: specs.iter().map(|spec| spec.content_key()).collect(),
            label: |record: &ScenarioRecord| record.result.label.clone(),
            group: |record| record.spec.policy.display_name(),
        };
        let pending: Vec<&ExperimentSpec> = specs.iter().collect();
        let options = CampaignOptions {
            cancel,
            ..CampaignOptions::default()
        };
        let result = journal(
            &campaign,
            &mut store,
            &pending,
            2,
            &options,
            |spec, threads, cancel, _span| {
                let opts = RunOptions {
                    threads,
                    cancel: Some(cancel),
                    ..RunOptions::default()
                };
                let record = ScenarioRecord::annotated(
                    spec.clone(),
                    run_experiment_with(spec, &opts)?,
                    ShardPolicy::Auto,
                );
                after(&record);
                Some(record)
            },
        );
        (result, store)
    }

    #[test]
    fn thread_count_clamps_to_pending_work() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(4, 0), 1);
        assert!(effective_threads(0, usize::MAX) >= 1);
    }

    fn npu_spec(backend: SimulatorBackend, inferences: u64, stride: usize) -> ExperimentSpec {
        ExperimentSpec {
            platform: Platform::TpuLike,
            network: NetworkKind::CustomMnist,
            format: dnnlife_quant::NumberFormat::Int8Symmetric,
            policy: PolicySpec::None,
            inferences,
            years: 7.0,
            seed: 3,
            sample_stride: stride,
            backend,
            dwell: DwellModel::Uniform,
            repair: dnnlife_core::RepairPolicy::None,
            tech: dnnlife_core::MemoryTech::SramNbti,
        }
    }

    /// An exact scenario that would take minutes uncancelled: tens of
    /// thousands of inferences over every 16th word of every FIFO slot.
    /// The policy is DNN-Life because it has no write period — a
    /// periodic policy's run collapses through write-period replay and
    /// finishes in milliseconds, racing the cancellation under test.
    fn slow_spec() -> ExperimentSpec {
        ExperimentSpec {
            policy: PolicySpec::DnnLife {
                bias: 0.5,
                bias_balancing: true,
                m_bits: 4,
            },
            ..npu_spec(SimulatorBackend::Exact, 50_000, 16)
        }
    }

    /// The abort-latency contract: when a journal append fails, the
    /// error is returned, an in-flight exact scenario is cancelled
    /// within one inference (not after minutes of finishing its whole
    /// run), and nothing is journaled.
    #[test]
    fn abort_cancels_in_flight_scenarios_within_one_inference() {
        // One fast analytic scenario and one slow exact scenario, into
        // a store whose parent path is a regular file: the first
        // append cannot create the journal.
        let fast = npu_spec(SimulatorBackend::Analytic, 10, 1024);
        let slow = slow_spec();
        let dir = scratch_dir("journal-error");
        let not_a_dir = dir.join("file");
        std::fs::write(&not_a_dir, b"").expect("write blocker file");

        let started = std::time::Instant::now();
        let (result, store) =
            journal_specs(&not_a_dir.join("store.jsonl"), &[fast, slow], None, |_| {});
        let error = result.expect_err("the append error is returned");
        assert_ne!(error.kind(), std::io::ErrorKind::Interrupted, "{error}");
        assert!(store.is_empty(), "nothing may be journaled");
        assert!(
            started.elapsed().as_secs() < 30,
            "abort took {:?} — in-flight work was not cancelled promptly",
            started.elapsed()
        );
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }

    /// An external cancellation token raised mid-run cancels the
    /// in-flight exact scenario and returns `Interrupted`; the record
    /// that finished before is already durable on disk.
    #[test]
    fn external_cancel_token_aborts_the_pool() {
        let fast = npu_spec(SimulatorBackend::Analytic, 10, 1024);
        let slow = slow_spec();
        let cancel = AtomicBool::new(false);
        let dir = scratch_dir("external-cancel");
        let path = dir.join("store.jsonl");

        let started = std::time::Instant::now();
        // Ctrl-C arrives as soon as the fast scenario finishes, while
        // the slow one is in flight.
        let (result, _) = journal_specs(&path, &[fast.clone(), slow], Some(&cancel), |_| {
            cancel.store(true, Ordering::Relaxed);
        });
        let error = result.expect_err("a raised token interrupts the run");
        assert_eq!(error.kind(), std::io::ErrorKind::Interrupted, "{error}");
        assert!(
            started.elapsed().as_secs() < 30,
            "external cancel took {:?}",
            started.elapsed()
        );
        let reopened = ResultStore::open(&path).expect("reopen store from disk");
        assert_eq!(
            reopened.len(),
            1,
            "exactly the finished record is journaled"
        );
        assert!(reopened.contains(&fast.content_key()));
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }

    /// Budgets wider than the grid hand their leftover threads to the
    /// running scenarios instead of idling them — and the store is the
    /// same bytes as a single-threaded run's.
    #[test]
    fn wide_budget_on_narrow_grid_matches_single_thread_results() {
        let a = npu_spec(SimulatorBackend::Exact, 8, 256);
        let b = ExperimentSpec {
            seed: 4,
            ..a.clone()
        };
        let grid = CampaignGrid {
            name: "wide".into(),
            scenarios: vec![a, b],
        };
        let dir = scratch_dir("wide-budget");
        let store_bytes = |threads: usize| {
            let path = dir.join(format!("threads{threads}.jsonl"));
            let options = CampaignOptions {
                threads,
                shards: ShardPolicy::Fixed(4),
                ..CampaignOptions::default()
            };
            let outcome = run_campaign(&grid, &path, &options).expect("campaign run");
            assert_eq!(outcome.executed, 2);
            std::fs::read(&path).expect("read store")
        };
        let serial = store_bytes(1);
        assert!(!serial.is_empty());
        assert_eq!(
            serial,
            store_bytes(8),
            "spare simulator threads must never be semantic"
        );
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}
