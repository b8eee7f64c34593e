#![warn(missing_docs)]

//! Run-time observability for the DNN-Life stack: named counters,
//! gauges and latency histograms in one registry, span timings, a
//! machine-readable `events.jsonl` journal and its reader, and an
//! opt-in live progress line.
//!
//! The design constraint is the campaign determinism contract: result
//! stores must stay **byte-identical** with telemetry on or off, at any
//! thread or shard count. Everything here therefore only *observes* —
//! a [`Telemetry`] handle owns a metrics registry (a single branch
//! per call when disabled via [`Telemetry::noop`]) plus an optional
//! journal file behind a mutex. Both are touched at coarse
//! per-scenario, per-shard or per-age granularity, never inside
//! simulator inner loops.
//!
//! The journal uses the same torn-line-tolerant journaling as the
//! campaign's `JsonlStore`: every event is one JSON line, appended and
//! flushed; on (re-)open an unterminated trailing line — a crash or
//! power cut mid-write — is truncated away so the next event starts on
//! a clean line. [`read_events`] additionally skips and counts lines
//! that are not UTF-8 or do not parse, so a journal survives anything
//! short of losing the file.
//!
//! | type | role |
//! |------|------|
//! | [`Histogram`] | log-bucketed latency distribution: recorded under the registry lock, journaled, merged; p50/p90/p99/max |
//! | [`SpanId`] | hierarchical trace spans journaled as `span_start`/`span_end` events |
//! | [`Telemetry`] | the metrics registry (counters, gauges, histograms as plain values under one mutex) + spans + the `events.jsonl` journal |
//! | [`read_events`] / [`Event`] | the journal's one reader: byte-safe line split, parse, skip count, typed field access |
//! | [`MetricsSnapshot`] | final registry state, renderable as Prometheus text exposition or JSON |
//! | [`Progress`]  | done/total + throughput + ETA line; live `\r` rewrite on a TTY, periodic plain lines otherwise |
//! | [`Instrumentation`] | the `(telemetry, progress)` pair campaign entry points thread through |
//!
//! Every journal line carries a schema version field `"v":1`; readers
//! tolerate lines without it (pre-versioning journals) and skip event
//! kinds they do not know, so journals mix across binary versions.

use std::fs::OpenOptions;
use std::io::{IsTerminal, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde::Serialize;

/// Schema version stamped into every `events.jsonl` line as `"v"`.
pub const EVENT_SCHEMA_VERSION: u64 = 1;

/// A trace span identifier. `0` is reserved for [`SpanId::NONE`] — the
/// id handed back when telemetry is off or journalless, so span calls
/// stay single-branch no-ops on uninstrumented runs.
///
/// Ids are allocated from a per-handle atomic seeded with the handle's
/// creation time (`unix_ms << 20`), so ids stay globally unique across
/// resumed invocations appending to the same journal — the `dnnlife
/// trace` forest reconstruction never sees a reused id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent span: parent of root spans, and the result of
    /// starting a span on a disabled or journalless handle.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the absent span.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }

    /// The raw id as journaled in `span`/`parent` fields.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Number of histogram buckets: 4 exact unit buckets for values
/// `0..=3`, then 4 log sub-buckets per power-of-two octave up to
/// `u64::MAX` (62 octaves × 4 + 4 = 252).
pub const HISTOGRAM_BUCKETS: usize = 252;

/// A log-bucketed latency histogram (HdrHistogram-style: 4 sub-buckets
/// per power-of-two octave, ~20–25% relative bucket width): dense
/// bucket counts plus count / sum / exact max. The registry records
/// into it under its lock; histograms merge associatively and
/// commutatively (the property the proptests pin), so per-invocation
/// `hist` journal events aggregate across resumes exactly like one
/// histogram recorded across all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::empty()
    }
}

impl Histogram {
    /// The empty histogram (merge identity).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index holding `value`: values `0..=3` land in exact
    /// unit buckets, larger values in one of 4 log sub-buckets per
    /// power-of-two octave.
    pub fn bucket_index(value: u64) -> usize {
        if value < 4 {
            value as usize
        } else {
            let exp = 63 - value.leading_zeros() as usize;
            let sub = ((value >> (exp - 2)) & 3) as usize;
            (exp - 2) * 4 + sub + 4
        }
    }

    /// The smallest value that lands in bucket `index` (the quantile
    /// estimate reported for ranks falling in that bucket).
    pub fn bucket_lower_bound(index: usize) -> u64 {
        if index < 4 {
            index as u64
        } else {
            let oct = (index - 4) / 4;
            let sub = ((index - 4) % 4) as u64;
            (4 + sub) << oct
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Rebuilds a histogram from the sparse `[index, count]` pairs of a
    /// `hist` journal event. Out-of-range indices are ignored (a newer
    /// writer with a finer bucket layout must not crash an old reader).
    pub fn from_sparse(pairs: &[(usize, u64)], sum: u64, max: u64) -> Self {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for &(index, count) in pairs {
            if let Some(slot) = buckets.get_mut(index) {
                *slot += count;
            }
        }
        let count = buckets.iter().sum();
        Self {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Non-empty buckets as `(index, count)` pairs — the journal and
    /// JSON wire form.
    pub fn sparse(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact maximum observed value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds `other` into `self` (bucket-wise add, max of maxes).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile estimate (nearest-rank): the lower bound of the
    /// bucket holding rank `ceil(q·count)`, clamped to the exact max.
    /// Within one log bucket (~25%) of the true sorted-order value;
    /// exact for `q = 1`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // The last non-empty bucket contains the exact max —
                // a strictly better in-bucket estimate than the lower
                // bound (and it makes `quantile(1.0)` exact).
                return if seen == self.count {
                    self.max
                } else {
                    Histogram::bucket_lower_bound(index)
                };
            }
        }
        self.max
    }
}

/// One registered metric's current value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Last-set gauge.
    Gauge(u64),
    /// Full histogram state.
    Histogram(Histogram),
}

/// One named metric inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Registered name (snake_case, un-prefixed).
    pub name: String,
    /// Registered help line.
    pub help: String,
    /// Current value.
    pub value: MetricValue,
}

/// A point-in-time capture of every registered metric, sorted by name
/// ([`Telemetry::metrics_snapshot`]). Renders as Prometheus text
/// exposition (metric names prefixed `dnnlife_`, histogram buckets as
/// cumulative `le` series) or as a JSON object via [`Serialize`] — the
/// `--metrics-out` twin files.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Every registered metric.
    pub metrics: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Renders the Prometheus text exposition format: `# HELP` /
    /// `# TYPE` headers and one `dnnlife_<name>`-prefixed series per
    /// metric. Histograms emit cumulative `_bucket{le="..."}` lines for
    /// non-empty buckets (plus the mandatory `+Inf`), `_sum`, and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            let name = format!("dnnlife_{}", metric.name);
            let kind = match metric.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# HELP {name} {}\n", metric.help));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            match &metric.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (index, count) in h.sparse() {
                        cumulative += count;
                        if index + 1 < HISTOGRAM_BUCKETS {
                            // Inclusive upper bound of bucket `index`.
                            let le = Histogram::bucket_lower_bound(index + 1) - 1;
                            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                        }
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> serde::Value {
        let pairs = self
            .metrics
            .iter()
            .map(|metric| {
                let mut fields: Vec<(String, serde::Value)> = Vec::new();
                match &metric.value {
                    MetricValue::Counter(v) => {
                        fields.push(("kind".into(), "counter".to_value()));
                        fields.push(("value".into(), v.to_value()));
                    }
                    MetricValue::Gauge(v) => {
                        fields.push(("kind".into(), "gauge".to_value()));
                        fields.push(("value".into(), v.to_value()));
                    }
                    MetricValue::Histogram(h) => {
                        fields.push(("kind".into(), "histogram".to_value()));
                        fields.push(("count".into(), h.count().to_value()));
                        fields.push(("sum".into(), h.sum().to_value()));
                        fields.push(("max".into(), h.max().to_value()));
                        fields.push(("p50".into(), h.quantile(0.50).to_value()));
                        fields.push(("p90".into(), h.quantile(0.90).to_value()));
                        fields.push(("p99".into(), h.quantile(0.99).to_value()));
                        fields.push(("buckets".into(), sparse_to_value(&h.sparse())));
                    }
                }
                (metric.name.clone(), serde::Value::Object(fields))
            })
            .collect();
        serde::Value::Object(pairs)
    }
}

/// Sparse `(index, count)` bucket pairs as the JSON `[[i,c],...]` form.
fn sparse_to_value(pairs: &[(usize, u64)]) -> serde::Value {
    serde::Value::Array(
        pairs
            .iter()
            .map(|&(i, c)| serde::Value::Array(vec![(i as u64).to_value(), c.to_value()]))
            .collect(),
    )
}

/// The metrics registry: every metric's name, help line and current
/// value, behind one mutex. A metric appears here, and so in every
/// [`MetricsSnapshot`], from its first update on.
#[derive(Default)]
struct Registry {
    entries: Mutex<Vec<MetricSample>>,
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<MetricSample>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Applies `update` to the value of metric `name`, registering it
    /// as `empty()` first.
    fn update(
        &self,
        name: &str,
        help: &str,
        empty: impl FnOnce() -> MetricValue,
        update: impl FnOnce(&mut MetricValue),
    ) {
        let mut entries = self.lock();
        let index = match entries.iter().position(|e| e.name == name) {
            Some(index) => index,
            None => {
                entries.push(MetricSample {
                    name: name.to_string(),
                    help: help.to_string(),
                    value: empty(),
                });
                entries.len() - 1
            }
        };
        update(&mut entries[index].value);
    }

    /// Captures every registered metric, in registration order.
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self.lock().clone(),
        }
    }
}

/// The panic for an update of `name` as a kind it was not registered as.
fn kind_mismatch(name: &str, kind: &str) -> ! {
    panic!("metric {name:?} already registered as a non-{kind}")
}

/// The `events.jsonl` file: append-only JSON lines, flushed per event,
/// torn trailing lines truncated on open (the `JsonlStore` journaling
/// discipline).
struct Journal {
    file: std::fs::File,
    path: PathBuf,
    /// Set after the first write error; further events are dropped
    /// silently so a full disk degrades observability, not the run.
    failed: bool,
}

impl Journal {
    /// Opens (or creates) the journal for appending, truncating an
    /// unterminated trailing line left by a crash mid-write.
    fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        // Bytes, not text: a corrupt or torn line need not be UTF-8.
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;
        if contents.last().is_some_and(|&b| b != b'\n') {
            // Torn tail: keep everything up to (and including) the last
            // complete line; drop the unterminated remainder.
            let valid = contents
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            file.set_len(valid as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            failed: false,
        })
    }

    fn append(&mut self, line: &str) {
        if self.failed {
            return;
        }
        let write = (|| -> std::io::Result<()> {
            self.file.write_all(line.as_bytes())?;
            self.file.write_all(b"\n")?;
            self.file.flush()
        })();
        if let Err(e) = write {
            self.failed = true;
            eprintln!(
                "telemetry: journal write to {} failed ({e}); further events dropped",
                self.path.display()
            );
        }
    }
}

/// The telemetry handle: the metrics registry, span timings, and the
/// optional events journal. Cheap to share by reference across worker
/// threads (all interior mutability is atomic or mutex-guarded); the
/// campaign plumbing carries it as `Option<&Telemetry>` inside
/// `RunOptions`.
///
/// Telemetry only observes: enabling it never changes any computed
/// result (the campaign regression tests pin stores byte-identical
/// with telemetry on and off).
pub struct Telemetry {
    enabled: bool,
    registry: Registry,
    journal: Option<Mutex<Journal>>,
    epoch: Instant,
    /// Next span id; seeded from wall-clock ms so ids stay unique
    /// across resumed invocations appending to one journal.
    next_span: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("journaling", &self.journal.is_some())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    fn build(enabled: bool, journal: Option<Journal>) -> Self {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        Self {
            enabled,
            registry: Registry::default(),
            journal: journal.map(Mutex::new),
            epoch: Instant::now(),
            next_span: AtomicU64::new((unix_ms << 20) | 1),
        }
    }

    /// An in-memory handle: counters and spans collected, no journal.
    pub fn in_memory() -> Self {
        Self::build(true, None)
    }

    /// A handle journaling events to `path` (created if missing; a
    /// torn trailing line from a previous crash is truncated away, and
    /// new events append after the surviving complete lines).
    ///
    /// # Errors
    ///
    /// Propagates journal open/create I/O errors.
    pub fn with_journal(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::build(true, Some(Journal::open(path.as_ref())?)))
    }

    /// The shared disabled handle: every instrumented call is a single
    /// branch on `enabled` and returns immediately. This is what the
    /// instrumentation sites substitute when no handle was provided.
    pub fn noop() -> &'static Telemetry {
        static NOOP: OnceLock<Telemetry> = OnceLock::new();
        NOOP.get_or_init(|| Telemetry::build(false, None))
    }

    /// Adds `n` to the named monotonic counter, registering it at its
    /// first non-zero increment (a single branch when disabled). Like
    /// [`observe`], the lookup takes a short mutex: call per scenario,
    /// shard or age, never per word.
    ///
    /// [`observe`]: Telemetry::observe
    #[inline]
    pub fn count(&self, name: &str, help: &str, n: u64) {
        if self.enabled && n != 0 {
            self.registry.update(
                name,
                help,
                || MetricValue::Counter(0),
                |value| match value {
                    MetricValue::Counter(total) => *total = total.wrapping_add(n),
                    _ => kind_mismatch(name, "counter"),
                },
            );
        }
    }

    /// Times `f` and adds its wall time in nanoseconds to the named
    /// counter (a `*_nanos` name by convention). When disabled, runs
    /// `f` without reading the clock.
    pub fn time<R>(&self, name: &str, help: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.count(name, help, start.elapsed().as_nanos() as u64);
        result
    }

    /// Appends one event line to the journal:
    /// `{"ev":"<kind>","v":1,"t_ms":<since handle creation>,<fields...>}`.
    /// A no-op without a journal; write errors are reported once and
    /// then dropped (observability must never fail the run).
    pub fn emit(&self, kind: &str, fields: &[(&str, serde::Value)]) {
        let Some(journal) = &self.journal else {
            return;
        };
        let mut pairs: Vec<(String, serde::Value)> = Vec::with_capacity(fields.len() + 3);
        pairs.push(("ev".to_string(), kind.to_value()));
        pairs.push(("v".to_string(), EVENT_SCHEMA_VERSION.to_value()));
        pairs.push((
            "t_ms".to_string(),
            (self.epoch.elapsed().as_millis() as u64).to_value(),
        ));
        for (name, value) in fields {
            pairs.push(((*name).to_string(), value.clone()));
        }
        let line = serde_json::to_string(&serde::Value::Object(pairs))
            .expect("event value tree always serializes");
        journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .append(&line);
    }

    /// Emits the `counters` roll-up event: every registry counter (all
    /// non-zero, as [`count`] registers none at zero) as a
    /// `"name":value` field, in name order.
    ///
    /// [`count`]: Telemetry::count
    pub fn emit_counters(&self) {
        let snapshot = self.metrics_snapshot();
        let fields: Vec<(&str, serde::Value)> = snapshot
            .metrics
            .iter()
            .filter_map(|metric| match metric.value {
                MetricValue::Counter(value) => Some((metric.name.as_str(), value.to_value())),
                _ => None,
            })
            .collect();
        self.emit("counters", &fields);
    }

    /// Records `value` into the named histogram (get-or-register; a
    /// single branch when disabled). The update takes the registry's
    /// short mutex — call at per-scenario granularity.
    pub fn observe(&self, name: &str, help: &str, value: u64) {
        if self.enabled {
            self.registry.update(
                name,
                help,
                || MetricValue::Histogram(Histogram::empty()),
                |metric| match metric {
                    MetricValue::Histogram(h) => h.record(value),
                    _ => kind_mismatch(name, "histogram"),
                },
            );
        }
    }

    /// Sets the named gauge (get-or-register; a no-op when disabled).
    pub fn gauge_set(&self, name: &str, help: &str, value: u64) {
        if self.enabled {
            self.registry.update(
                name,
                help,
                || MetricValue::Gauge(0),
                |metric| match metric {
                    MetricValue::Gauge(g) => *g = value,
                    _ => kind_mismatch(name, "gauge"),
                },
            );
        }
    }

    /// Captures every registered metric, sorted by name — the
    /// `--metrics-out` payload. Worker threads register metrics in a
    /// run-dependent order; sorting keeps these files and the
    /// `counters`/`hist` roll-ups in the same order on every run.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.registry.snapshot();
        snapshot.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot
    }

    /// Starts a hierarchical trace span and journals its `span_start`
    /// event (fields: `span`, `parent` when non-root, `label`, and a
    /// microsecond `t_us` timestamp). Returns [`SpanId::NONE`] — and
    /// emits nothing — when disabled or journalless, so uninstrumented
    /// runs stay byte-identical.
    pub fn span_start(&self, label: &str, parent: SpanId) -> SpanId {
        if !self.enabled || self.journal.is_none() {
            return SpanId::NONE;
        }
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let t_us = (self.epoch.elapsed().as_micros() as u64).to_value();
        if parent.is_none() {
            self.emit(
                "span_start",
                &[
                    ("span", id.0.to_value()),
                    ("label", label.to_value()),
                    ("t_us", t_us),
                ],
            );
        } else {
            self.emit(
                "span_start",
                &[
                    ("span", id.0.to_value()),
                    ("parent", parent.0.to_value()),
                    ("label", label.to_value()),
                    ("t_us", t_us),
                ],
            );
        }
        id
    }

    /// Ends a span (journals `span_end` with the closing `t_us`). A
    /// no-op for [`SpanId::NONE`].
    pub fn span_end(&self, span: SpanId) {
        if span.is_none() {
            return;
        }
        self.emit(
            "span_end",
            &[
                ("span", span.0.to_value()),
                ("t_us", (self.epoch.elapsed().as_micros() as u64).to_value()),
            ],
        );
    }

    /// Emits one `hist` roll-up event per non-empty registered
    /// histogram: `{"ev":"hist","name":...,"buckets":[[i,c],...],
    /// "count":N,"sum":S,"max":M}` — the journal's durable form of the
    /// latency distributions, merged across invocations by `dnnlife
    /// perf`. [`Event::histogram`] below is its decoder.
    pub fn emit_histograms(&self) {
        if self.journal.is_none() {
            return;
        }
        for metric in self.metrics_snapshot().metrics {
            let MetricValue::Histogram(h) = metric.value else {
                continue;
            };
            if h.count() == 0 {
                continue;
            }
            self.emit(
                "hist",
                &[
                    ("name", metric.name.to_value()),
                    ("buckets", sparse_to_value(&h.sparse())),
                    ("count", h.count().to_value()),
                    ("sum", h.sum().to_value()),
                    ("max", h.max().to_value()),
                ],
            );
        }
    }
}

/// One well-formed `events.jsonl` line: a JSON object with a string
/// `ev` field naming its kind. The typed accessors return `None` for a
/// missing field or one of another JSON type.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    value: serde::Value,
}

impl Event {
    /// Decodes a `hist` event, the [`Telemetry::emit_histograms`] wire
    /// form, into its metric name and snapshot. `None` for a line
    /// without a name; malformed bucket pairs are dropped.
    pub fn histogram(&self) -> Option<(&str, Histogram)> {
        let pairs: Vec<(usize, u64)> = match self.value.get("buckets") {
            Some(serde::Value::Array(buckets)) => buckets
                .iter()
                .filter_map(|bucket| {
                    let serde::Value::Array(pair) = bucket else {
                        return None;
                    };
                    let index = number(pair.first())?.as_u64()?;
                    Some((index as usize, number(pair.get(1))?.as_u64()?))
                })
                .collect(),
            _ => Vec::new(),
        };
        let snapshot = Histogram::from_sparse(
            &pairs,
            self.u64("sum").unwrap_or(0),
            self.u64("max").unwrap_or(0),
        );
        Some((self.str("name")?, snapshot))
    }

    /// The event kind (`campaign_start`, `span_end`, `hist`, ...).
    pub fn kind(&self) -> &str {
        self.str("ev").unwrap_or_default()
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.value.get(key) {
            Some(serde::Value::String(s)) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer field.
    pub fn u64(&self, key: &str) -> Option<u64> {
        number(self.value.get(key))?.as_u64()
    }

    /// A numeric field as `f64`.
    pub fn f64(&self, key: &str) -> Option<f64> {
        number(self.value.get(key)).map(serde::Number::as_f64)
    }

    /// Every field in line order, `ev`, `v` and `t_ms` included.
    pub fn fields(&self) -> &[(String, serde::Value)] {
        match &self.value {
            serde::Value::Object(pairs) => pairs,
            _ => &[],
        }
    }
}

fn number(value: Option<&serde::Value>) -> Option<serde::Number> {
    match value {
        Some(serde::Value::Number(n)) => Some(*n),
        _ => None,
    }
}

/// The one reader of an `events.jsonl` journal: splits its bytes on
/// `\n`, trims each line, ignores blank ones and yields every
/// well-formed [`Event`] in order. A line that is not UTF-8, not JSON,
/// or has no string `ev` field adds one to `skipped`, so a torn tail or
/// a corrupt byte never rejects the rest of the journal.
pub fn read_events<'a>(bytes: &'a [u8], skipped: &'a mut u64) -> impl Iterator<Item = Event> + 'a {
    bytes.split(|&b| b == b'\n').filter_map(move |line| {
        let Ok(line) = std::str::from_utf8(line) else {
            *skipped += 1;
            return None;
        };
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let event = serde_json::from_str(line)
            .ok()
            .map(|value| Event { value })
            .filter(|event| event.str("ev").is_some());
        *skipped += u64::from(event.is_none());
        event
    })
}

/// How a [`Progress`] handle reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressStyle {
    /// stderr is a TTY: one line rewritten in place with `\r`.
    Live,
    /// stderr is not a TTY (CI logs, pipes): periodic plain lines,
    /// each newline-terminated, no carriage returns.
    Periodic,
}

/// A done/total progress reporter with throughput and ETA. On a TTY it
/// rewrites one stderr line in place; redirected (CI logs, pipes) it
/// degrades to a plain newline-terminated line every few seconds so
/// logs stay readable — never a `\r` in that mode.
pub struct Progress {
    label: String,
    total: AtomicUsize,
    done: AtomicUsize,
    start: Instant,
    style: ProgressStyle,
    /// Minimum interval between prints (rate-limits the TTY rewrite,
    /// paces the periodic plain lines).
    period: Duration,
    last: Mutex<Option<Instant>>,
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Progress")
            .field("label", &self.label)
            .field("style", &self.style)
            .finish_non_exhaustive()
    }
}

impl Progress {
    /// A reporter writing to stderr, picking [`ProgressStyle::Live`]
    /// iff stderr is a terminal.
    pub fn stderr(label: impl Into<String>, total: usize) -> Self {
        let style = if std::io::stderr().is_terminal() {
            ProgressStyle::Live
        } else {
            ProgressStyle::Periodic
        };
        Self::with_style(label, total, style)
    }

    /// A reporter with an explicit style (tests pin the non-TTY
    /// degradation without needing a pseudo-terminal).
    pub fn with_style(label: impl Into<String>, total: usize, style: ProgressStyle) -> Self {
        Self {
            label: label.into(),
            total: AtomicUsize::new(total),
            done: AtomicUsize::new(0),
            start: Instant::now(),
            style,
            period: match style {
                ProgressStyle::Live => Duration::from_millis(100),
                // Off-tty (CI logs): one plain line per ~2s, however
                // fast items complete — long campaigns must not flood
                // the log with a line per tick.
                ProgressStyle::Periodic => Duration::from_secs(2),
            },
            last: Mutex::new(None),
        }
    }

    /// The reporting style in effect.
    pub fn style(&self) -> ProgressStyle {
        self.style
    }

    /// The minimum interval between printed lines.
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Re-targets the total (the campaign entry point learns the
    /// *pending* count — after resume skips — only once the store has
    /// been read).
    pub fn set_total(&self, total: usize) {
        self.total.store(total, Ordering::Relaxed);
    }

    /// Items completed so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Records one completed item and prints when due (time
    /// rate-limited at [`period`]; the final item always prints).
    ///
    /// [`period`]: Progress::period
    pub fn tick(&self) {
        if let Some(line) = self.tick_line() {
            match self.style {
                ProgressStyle::Live => eprint!("\r{line}\x1b[K"),
                ProgressStyle::Periodic => eprintln!("{line}"),
            }
        }
    }

    /// The rate-limiting core of [`tick`]: records the completion and
    /// returns the line to print iff one is due now.
    ///
    /// [`tick`]: Progress::tick
    fn tick_line(&self) -> Option<String> {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let total = self.total.load(Ordering::Relaxed);
        let now = Instant::now();
        {
            let mut last = self
                .last
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let due = done >= total || last.is_none_or(|t| now.duration_since(t) >= self.period);
            if !due {
                return None;
            }
            *last = Some(now);
        }
        Some(self.line(done, total))
    }

    /// Ends the live line (moves the cursor off it). A no-op in
    /// periodic mode — plain lines are already newline-terminated.
    pub fn finish(&self) {
        if self.style == ProgressStyle::Live && self.done() > 0 {
            eprintln!();
        }
    }

    /// Renders the `label: done/total (rate, ETA)` line.
    fn line(&self, done: usize, total: usize) -> String {
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        let eta = if done == 0 || done >= total {
            0.0
        } else {
            (total - done) as f64 / rate
        };
        format!(
            "{}: {done}/{total} ({rate:.2}/s, ETA {eta:.0}s)",
            self.label
        )
    }
}

/// The observability pair the campaign entry points thread through:
/// both sides optional, both borrowed — `Default` is fully off.
#[derive(Debug, Clone, Copy, Default)]
pub struct Instrumentation<'a> {
    /// Counters / spans / events journal.
    pub telemetry: Option<&'a Telemetry>,
    /// Live progress reporting.
    pub progress: Option<&'a Progress>,
}

impl<'a> Instrumentation<'a> {
    /// The telemetry handle, or the shared no-op when absent.
    pub fn telemetry(&self) -> &'a Telemetry {
        self.telemetry.unwrap_or_else(|| Telemetry::noop())
    }

    /// Ticks the progress reporter, when present.
    pub fn tick(&self) {
        if let Some(progress) = self.progress {
            progress.tick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dnnlife-telemetry-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join("events.jsonl")
    }

    /// A registered counter's value; `None` when never registered.
    fn counter(tel: &Telemetry, name: &str) -> Option<u64> {
        tel.metrics_snapshot()
            .metrics
            .into_iter()
            .find(|m| m.name == name)
            .map(|m| match m.value {
                MetricValue::Counter(v) => v,
                other => panic!("{name} is not a counter: {other:?}"),
            })
    }

    #[test]
    fn counters_accumulate_and_noop_stays_zero() {
        let tel = Telemetry::in_memory();
        tel.count("exact_word_writes", "word writes", 3);
        tel.count("exact_word_writes", "word writes", 4);
        assert_eq!(counter(&tel, "exact_word_writes"), Some(7));
        assert_eq!(tel.metrics_snapshot().metrics.len(), 1);

        let noop = Telemetry::noop();
        noop.count("exact_word_writes", "word writes", 5);
        assert_eq!(counter(noop, "exact_word_writes"), None);
    }

    #[test]
    fn time_accumulates_span_nanos() {
        let tel = Telemetry::in_memory();
        let out = tel.time("shard_merge_nanos", "merge time", || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(counter(&tel, "shard_merge_nanos").is_some_and(|ns| ns >= 1_000_000));
    }

    #[test]
    fn journal_appends_parseable_lines() {
        let path = scratch("emit");
        let tel = Telemetry::with_journal(&path).expect("open journal");
        tel.emit("campaign_start", &[("total", 3u64.to_value())]);
        tel.count("injection_trials", "trials", 9);
        tel.count("untouched", "registered but never incremented", 0);
        tel.emit_counters();
        drop(tel);

        let contents = std::fs::read_to_string(&path).expect("read journal");
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let value: serde::Value = serde_json::from_str(line).expect("line parses");
            assert!(value.get("ev").is_some());
            assert!(value.get("t_ms").is_some());
        }
        let counters: serde::Value = serde_json::from_str(lines[1]).expect("counters line");
        assert_eq!(counters.get("injection_trials"), Some(&9u64.to_value()));
        assert!(
            counters.get("untouched").is_none(),
            "zero counters stay out"
        );
    }

    #[test]
    fn journal_truncates_torn_trailing_line_on_open() {
        let path = scratch("torn");
        {
            let tel = Telemetry::with_journal(&path).expect("open journal");
            tel.emit("campaign_start", &[]);
        }
        // Crash mid-write: an unterminated partial line at the tail.
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("append garbage");
            file.write_all(b"{\"ev\":\"torn").expect("write torn tail");
        }
        let tel = Telemetry::with_journal(&path).expect("reopen journal");
        tel.emit("campaign_done", &[]);
        drop(tel);

        let contents = std::fs::read_to_string(&path).expect("read journal");
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2, "torn tail must be gone: {contents:?}");
        for line in lines {
            let _: serde::Value = serde_json::from_str(line).expect("every line parses");
        }
    }

    #[test]
    fn periodic_progress_never_emits_carriage_returns() {
        // The non-TTY degradation: every rendered line is plain text.
        let progress = Progress::with_style("sweep", 4, ProgressStyle::Periodic);
        assert_eq!(progress.style(), ProgressStyle::Periodic);
        for done in 1..=4 {
            let line = progress.line(done, 4);
            assert!(!line.contains('\r'), "plain line holds a \\r: {line:?}");
            assert!(line.starts_with("sweep: "));
        }
    }

    #[test]
    fn progress_line_reports_done_total_and_eta() {
        let progress = Progress::with_style("inject", 10, ProgressStyle::Live);
        let line = progress.line(5, 10);
        assert!(line.contains("5/10"), "{line}");
        assert!(line.contains("ETA"), "{line}");
        progress.set_total(6);
        progress.tick();
        assert_eq!(progress.done(), 1);
    }

    #[test]
    fn instrumentation_defaults_to_noop() {
        let instr = Instrumentation::default();
        assert!(std::ptr::eq(instr.telemetry(), Telemetry::noop()));
        instr.tick(); // no progress: must not panic
    }

    #[test]
    fn every_event_line_carries_schema_version_one() {
        let path = scratch("schema-version");
        let tel = Telemetry::with_journal(&path).expect("open journal");
        tel.emit("campaign_start", &[("total", 1u64.to_value())]);
        let span = tel.span_start("scenario", SpanId::NONE);
        tel.span_end(span);
        tel.emit_counters();
        drop(tel);

        let contents = std::fs::read_to_string(&path).expect("read journal");
        assert!(contents.lines().count() >= 3);
        for line in contents.lines() {
            let value: serde::Value = serde_json::from_str(line).expect("line parses");
            assert_eq!(
                value.get("v"),
                Some(&EVENT_SCHEMA_VERSION.to_value()),
                "missing v on {line}"
            );
        }
    }

    #[test]
    fn bucket_bounds_round_trip() {
        for index in 0..HISTOGRAM_BUCKETS {
            let lb = Histogram::bucket_lower_bound(index);
            assert_eq!(Histogram::bucket_index(lb), index, "lb({index}) = {lb}");
        }
        for value in [0u64, 1, 3, 4, 7, 8, 9, 100, 1 << 20, u64::MAX] {
            let index = Histogram::bucket_index(value);
            assert!(Histogram::bucket_lower_bound(index) <= value);
            if index + 1 < HISTOGRAM_BUCKETS {
                assert!(Histogram::bucket_lower_bound(index + 1) > value);
            }
        }
    }

    #[test]
    fn histogram_quantiles_track_recorded_values() {
        let snap = snapshot_of(&(1..=1000u64).collect::<Vec<_>>());
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.sum(), 500_500);
        assert_eq!(snap.max(), 1000);
        assert_eq!(snap.quantile(1.0), 1000, "max is exact");
        // Estimates are bucket lower bounds: same bucket as the true
        // nearest-rank value.
        for (q, truth) in [(0.50, 500u64), (0.90, 900), (0.99, 990)] {
            let est = snap.quantile(q);
            assert_eq!(
                Histogram::bucket_index(est),
                Histogram::bucket_index(truth),
                "q={q}: est {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn concurrent_observe_and_count_totals_are_exact() {
        let tel = Telemetry::in_memory();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let tel = &tel;
                scope.spawn(move || {
                    for i in 0..100 {
                        tel.observe("wall_us", "wall time", t * 1000 + i);
                        tel.count("reads", "read ops", t + 1);
                    }
                });
            }
        });
        let snap = tel.metrics_snapshot();
        let MetricValue::Histogram(hist) = &snap.metrics[1].value else {
            panic!("wall_us is a histogram: {snap:?}");
        };
        assert_eq!(hist.count(), 800);
        // Σ_t Σ_i (1000 t + i) = 100 · 1000 · 28 + 8 · 4950.
        assert_eq!(hist.sum(), 2_800_000 + 8 * 4950);
        assert_eq!(hist.max(), 7099);
        // Σ_t 100 (t + 1) = 100 · 36.
        assert_eq!(counter(&tel, "reads"), Some(3600));
    }

    #[test]
    fn snapshot_sparse_round_trips_and_merges() {
        let snap = snapshot_of(&[0, 1, 5, 5, 1000, 123_456]);
        let rebuilt = Histogram::from_sparse(&snap.sparse(), snap.sum(), snap.max());
        assert_eq!(rebuilt, snap);

        let mut merged = Histogram::empty();
        merged.merge(&snap);
        merged.merge(&snap);
        assert_eq!(merged.count(), 2 * snap.count());
        assert_eq!(merged.max(), snap.max());
        assert_eq!(merged.quantile(1.0), 123_456);
    }

    #[test]
    fn registry_reuses_entries_and_snapshots_in_order() {
        let tel = Telemetry::in_memory();
        tel.count("reads", "read ops", 3);
        tel.count("reads", "ignored duplicate help", 4);
        tel.gauge_set("pending", "queue depth", 7);
        tel.observe("wall_us", "wall time", 42);

        let snap = tel.registry.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["reads", "pending", "wall_us"]);
        assert_eq!(snap.metrics[0].help, "read ops");
        assert_eq!(snap.metrics[0].value, MetricValue::Counter(7));
        assert_eq!(snap.metrics[1].value, MetricValue::Gauge(7));
        assert_eq!(
            snap.metrics[2].value,
            MetricValue::Histogram(snapshot_of(&[42]))
        );
    }

    #[test]
    fn telemetry_counters_are_registered_on_the_registry() {
        let tel = Telemetry::in_memory();
        tel.count("exact_word_writes", "word writes", 11);
        let snap = tel.metrics_snapshot();
        let sample = snap
            .metrics
            .iter()
            .find(|m| m.name == "exact_word_writes")
            .expect("counter registered at its first increment");
        assert_eq!(sample.value, MetricValue::Counter(11));
        assert_eq!(snap.metrics.len(), 1, "untouched counters are not listed");
        // Disabled handles never record through count/observe/gauge_set.
        let noop = Telemetry::noop();
        noop.count("exact_word_writes", "", 5);
        noop.observe("wall_us", "", 5);
        noop.gauge_set("pending", "", 5);
        assert!(noop.metrics_snapshot().metrics.is_empty());
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_prefixed() {
        let tel = Telemetry::in_memory();
        tel.count("injection_trials", "trials", 2);
        tel.observe("scenario_wall_us", "scenario wall time", 5);
        tel.observe("scenario_wall_us", "scenario wall time", 5);
        tel.observe("scenario_wall_us", "scenario wall time", 1000);
        let text = tel.metrics_snapshot().render_prometheus();
        assert!(text.contains("# TYPE dnnlife_injection_trials counter"));
        assert!(text.contains("dnnlife_injection_trials 2"));
        assert!(text.contains("# TYPE dnnlife_scenario_wall_us histogram"));
        // Bucket for value 5 covers 5..=5 (le="5"), cumulative 2.
        assert!(
            text.contains("dnnlife_scenario_wall_us_bucket{le=\"5\"} 2"),
            "{text}"
        );
        assert!(text.contains("dnnlife_scenario_wall_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("dnnlife_scenario_wall_us_sum 1010"));
        assert!(text.contains("dnnlife_scenario_wall_us_count 3"));
        // The JSON twin parses and carries the same totals.
        let text = serde_json::to_string(&tel.metrics_snapshot().to_value()).expect("serializes");
        let json: serde::Value = serde_json::from_str(&text).expect("twin parses");
        let wall = json.get("scenario_wall_us").expect("histogram present");
        assert_eq!(wall.get("count"), Some(&3u64.to_value()));
        assert_eq!(wall.get("max"), Some(&1000u64.to_value()));
    }

    #[test]
    fn spans_journal_ids_and_parents() {
        let path = scratch("spans");
        let tel = Telemetry::with_journal(&path).expect("open journal");
        let root = tel.span_start("campaign:test", SpanId::NONE);
        let child = tel.span_start("scenario", root);
        assert!(!root.is_none() && !child.is_none() && root != child);
        tel.span_end(child);
        tel.span_end(root);
        drop(tel);

        let contents = std::fs::read_to_string(&path).expect("read journal");
        let events: Vec<serde::Value> = contents
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses"))
            .collect();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ev"), Some(&"span_start".to_value()));
        assert!(events[0].get("parent").is_none(), "root has no parent");
        assert_eq!(events[1].get("parent"), Some(&root.raw().to_value()));
        assert_eq!(events[1].get("label"), Some(&"scenario".to_value()));
        for event in &events {
            assert!(event.get("t_us").is_some());
            assert!(event.get("span").is_some());
        }
        // Ends close in LIFO order here: child first.
        assert_eq!(events[2].get("span"), Some(&child.raw().to_value()));
    }

    #[test]
    fn spans_are_noops_without_a_journal() {
        let tel = Telemetry::in_memory();
        assert_eq!(tel.span_start("scenario", SpanId::NONE), SpanId::NONE);
        tel.span_end(SpanId::NONE); // must not panic
        let noop = Telemetry::noop();
        assert_eq!(noop.span_start("scenario", SpanId::NONE), SpanId::NONE);
    }

    #[test]
    fn hist_events_round_trip_through_the_journal() {
        let path = scratch("hist-event");
        let tel = Telemetry::with_journal(&path).expect("open journal");
        for v in [10u64, 20, 30, 40_000] {
            tel.observe("scenario_wall_us", "wall", v);
        }
        tel.emit_histograms();
        drop(tel);

        let contents = std::fs::read_to_string(&path).expect("read journal");
        let event: serde::Value =
            serde_json::from_str(contents.lines().next().expect("one line")).expect("parses");
        assert_eq!(event.get("ev"), Some(&"hist".to_value()));
        assert_eq!(event.get("name"), Some(&"scenario_wall_us".to_value()));
        assert_eq!(event.get("count"), Some(&4u64.to_value()));
        assert_eq!(event.get("max"), Some(&40_000u64.to_value()));

        // The reader's decoder inverts the encoder exactly.
        let bytes = std::fs::read(&path).expect("read journal");
        let decoded: Vec<Event> = read_events(&bytes, &mut 0).collect();
        let (name, snapshot) = decoded[0].histogram().expect("hist decodes");
        assert_eq!(name, "scenario_wall_us");
        let live = snapshot_of(&[10, 20, 30, 40_000]);
        assert_eq!(snapshot, live);
    }

    fn snapshot_of(values: &[u64]) -> Histogram {
        let mut hist = Histogram::empty();
        for &v in values {
            hist.record(v);
        }
        hist
    }

    #[test]
    fn journal_reader_skips_and_counts_corrupt_lines() {
        let bytes = b"{\"ev\":\"a\",\"n\":1}\n\xff\xfe\n\n  \n{garbage\n{\"no_ev\":1}\n[1,2]\n\
            {\"ev\":\"b\",\"s\":\"x\",\"f\":2.5}\r\n{\"ev\":\"torn";
        let mut skipped = 0;
        let events: Vec<Event> = read_events(bytes, &mut skipped).collect();
        let kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        assert_eq!(kinds, ["a", "b"]);
        // Non-UTF-8, not JSON, no `ev`, not an object, torn tail.
        assert_eq!(skipped, 5);
        assert_eq!(events[0].u64("n"), Some(1));
        assert_eq!(events[1].str("s"), Some("x"));
        assert_eq!(events[1].f64("f"), Some(2.5));
        assert_eq!(events[1].u64("s"), None, "wrong type reads as absent");
        assert_eq!(events[1].fields().len(), 3);
    }

    #[test]
    fn journal_reopens_past_non_utf8_lines_and_a_torn_character() {
        let path = scratch("non-utf8");
        {
            let tel = Telemetry::with_journal(&path).expect("open journal");
            tel.emit("campaign_start", &[]);
        }
        // A corrupt byte on a complete line, then a tail torn between
        // the two bytes of a `σ`.
        let mut bytes = std::fs::read(&path).expect("read journal");
        bytes.extend_from_slice(b"\xff\n{\"label\":\"\xcf");
        std::fs::write(&path, &bytes).expect("corrupt journal");

        let tel = Telemetry::with_journal(&path).expect("reopen past bad bytes");
        tel.emit("campaign_done", &[]);
        drop(tel);

        let bytes = std::fs::read(&path).expect("read journal");
        assert!(
            bytes.ends_with(b"\n") && !bytes.contains(&0xcf),
            "torn tail cut"
        );
        let mut skipped = 0;
        let kinds: Vec<String> = read_events(&bytes, &mut skipped)
            .map(|e| e.kind().to_string())
            .collect();
        assert_eq!(kinds, ["campaign_start", "campaign_done"]);
        assert_eq!(skipped, 1, "only the \\xff line survives");
    }

    #[test]
    fn periodic_progress_is_time_rate_limited_not_per_tick() {
        let progress = Progress::with_style("sweep", 1000, ProgressStyle::Periodic);
        assert_eq!(progress.period(), Duration::from_secs(2));
        // A burst of fast completions prints at most one line (the
        // first); the rest fall inside the 2s window.
        let printed: usize = (0..100).filter_map(|_| progress.tick_line()).count();
        assert_eq!(printed, 1, "burst must not flood the log");
        // The final item always prints.
        progress.set_total(101);
        assert!(progress.tick_line().is_some());
    }
}
