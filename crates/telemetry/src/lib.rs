#![warn(missing_docs)]

//! Run-time observability for the DNN-Life stack: lock-cheap counters
//! and span timings, a machine-readable `events.jsonl` journal, and an
//! opt-in live progress line.
//!
//! The design constraint is the campaign determinism contract: result
//! stores must stay **byte-identical** with telemetry on or off, at any
//! thread or shard count. Everything here therefore only *observes* —
//! a [`Telemetry`] handle owns an array of relaxed [`AtomicU64`]
//! counters (one add on the instrumented path, a single branch when
//! disabled via [`Telemetry::noop`]) plus an optional journal file
//! behind a mutex that is only touched at coarse per-scenario
//! granularity, never inside simulator inner loops.
//!
//! The journal uses the same torn-line-tolerant journaling as the
//! campaign's `JsonlStore`: every event is one JSON line, appended and
//! flushed; on (re-)open an unterminated trailing line — a crash or
//! power cut mid-write — is truncated away so the next event starts on
//! a clean line. Readers (`dnnlife perf`) additionally skip lines that
//! do not parse, so a journal survives anything short of losing the
//! file.
//!
//! | type | role |
//! |------|------|
//! | [`Counter`] | fixed roster of hot-path counters (executor, exact/analytic simulators, fault injection) |
//! | [`Registry`] | dynamic metrics: named counters, gauges, and log-bucketed [`Histogram`]s |
//! | [`Histogram`] / [`HistogramSnapshot`] | lock-free striped latency recording; mergeable snapshots with p50/p90/p99/max |
//! | [`SpanId`] | hierarchical trace spans journaled as `span_start`/`span_end` events |
//! | [`Telemetry`] | counter array + registry + spans + the `events.jsonl` journal |
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
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde::Serialize;

/// Schema version stamped into every `events.jsonl` line as `"v"`.
pub const EVENT_SCHEMA_VERSION: u64 = 1;

/// The fixed roster of hot-path counters. Each names one monotonically
/// increasing `u64`; `*Nanos` counters accumulate span wall time. The
/// roster is closed (an enum, not string keys) so the instrumented
/// path is one array index + one relaxed atomic add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Campaign scenarios (or injection cells) journaled.
    ScenariosCompleted,
    /// In-flight scenarios cancelled mid-run; their partial results
    /// were discarded, never journaled.
    ScenariosDiscarded,
    /// Total time items waited between pool start and a worker picking
    /// them up.
    QueueWaitNanos,
    /// Total per-scenario run wall time (summed across workers, so it
    /// exceeds campaign wall time under parallelism — the ratio is the
    /// pool occupancy).
    ScenarioWallNanos,
    /// Exact-backend word writes: one per (sampled word, block,
    /// inference) encode.
    ExactWordWrites,
    /// Exact-backend word shards executed.
    ExactShardsRun,
    /// Exact-backend word reads served from the raw-block cache.
    BlockCacheHitWords,
    /// Exact-backend word reads that went to the block source (cache
    /// fill or cache disabled).
    BlockCacheMissWords,
    /// Time concatenating per-shard duty vectors into the final exact
    /// result.
    ShardMergeNanos,
    /// Analytic-backend cells simulated (sampled words × word bits).
    AnalyticCellsSimulated,
    /// Analytic-backend word shards executed.
    AnalyticShardsRun,
    /// Fault-injection trials completed.
    InjectionTrials,
    /// Wall time inside the per-age injection trial fan-out.
    TrialWallNanos,
    /// SECDED word reads fully corrected, summed over trials.
    EccCorrectedWords,
    /// SECDED word reads flagged uncorrectable, summed over trials.
    EccDetectedWords,
    /// SECDED word reads miscorrected (escapes), summed over trials.
    EccEscapedWords,
}

impl Counter {
    /// Every counter, in declaration order (the array layout).
    pub const ALL: [Counter; 16] = [
        Counter::ScenariosCompleted,
        Counter::ScenariosDiscarded,
        Counter::QueueWaitNanos,
        Counter::ScenarioWallNanos,
        Counter::ExactWordWrites,
        Counter::ExactShardsRun,
        Counter::BlockCacheHitWords,
        Counter::BlockCacheMissWords,
        Counter::ShardMergeNanos,
        Counter::AnalyticCellsSimulated,
        Counter::AnalyticShardsRun,
        Counter::InjectionTrials,
        Counter::TrialWallNanos,
        Counter::EccCorrectedWords,
        Counter::EccDetectedWords,
        Counter::EccEscapedWords,
    ];

    /// Stable snake_case name used in the journal's `counters` event
    /// and the `dnnlife perf` tables.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ScenariosCompleted => "scenarios_completed",
            Counter::ScenariosDiscarded => "scenarios_discarded",
            Counter::QueueWaitNanos => "queue_wait_nanos",
            Counter::ScenarioWallNanos => "scenario_wall_nanos",
            Counter::ExactWordWrites => "exact_word_writes",
            Counter::ExactShardsRun => "exact_shards_run",
            Counter::BlockCacheHitWords => "block_cache_hit_words",
            Counter::BlockCacheMissWords => "block_cache_miss_words",
            Counter::ShardMergeNanos => "shard_merge_nanos",
            Counter::AnalyticCellsSimulated => "analytic_cells_simulated",
            Counter::AnalyticShardsRun => "analytic_shards_run",
            Counter::InjectionTrials => "injection_trials",
            Counter::TrialWallNanos => "trial_wall_nanos",
            Counter::EccCorrectedWords => "ecc_corrected_words",
            Counter::EccDetectedWords => "ecc_detected_words",
            Counter::EccEscapedWords => "ecc_escaped_words",
        }
    }

    /// One-line help string for the metrics registry / Prometheus
    /// `# HELP` line.
    pub fn help(self) -> &'static str {
        match self {
            Counter::ScenariosCompleted => "Campaign scenarios (or injection cells) journaled",
            Counter::ScenariosDiscarded => "In-flight scenarios cancelled mid-run and discarded",
            Counter::QueueWaitNanos => "Total time items waited before a worker picked them up",
            Counter::ScenarioWallNanos => "Total per-scenario run wall time summed across workers",
            Counter::ExactWordWrites => {
                "Exact-backend word writes (sampled word x block x inference)"
            }
            Counter::ExactShardsRun => "Exact-backend word shards executed",
            Counter::BlockCacheHitWords => {
                "Exact-backend word reads served from the raw-block cache"
            }
            Counter::BlockCacheMissWords => {
                "Exact-backend word reads that went to the block source"
            }
            Counter::ShardMergeNanos => "Time concatenating per-shard duty vectors",
            Counter::AnalyticCellsSimulated => "Analytic-backend cells simulated",
            Counter::AnalyticShardsRun => "Analytic-backend word shards executed",
            Counter::InjectionTrials => "Fault-injection trials completed",
            Counter::TrialWallNanos => "Wall time inside the per-age injection trial fan-out",
            Counter::EccCorrectedWords => "SECDED word reads fully corrected",
            Counter::EccDetectedWords => "SECDED word reads flagged uncorrectable",
            Counter::EccEscapedWords => "SECDED word reads miscorrected (escapes)",
        }
    }
}

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

/// Concurrency stripes per histogram: recording threads hash onto a
/// stripe so a hot histogram never serializes its writers.
const HISTOGRAM_STRIPES: usize = 16;

fn stripe_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % HISTOGRAM_STRIPES;
    }
    SLOT.with(|s| *s)
}

struct HistogramStripe {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// A lock-free log-bucketed latency histogram (HdrHistogram-style: 4
/// sub-buckets per power-of-two octave, ~20–25% relative bucket width).
/// Recording is one relaxed add into a per-thread stripe plus a
/// `fetch_max` on the shared max — cheap enough to sit on instrumented
/// paths. Reading happens through [`Histogram::snapshot`], which merges
/// the stripes into a [`HistogramSnapshot`].
pub struct Histogram {
    stripes: Vec<HistogramStripe>,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.snapshot().count())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            stripes: (0..HISTOGRAM_STRIPES)
                .map(|_| HistogramStripe {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    sum: AtomicU64::new(0),
                })
                .collect(),
            max: AtomicU64::new(0),
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

    /// Records one observation (relaxed, stripe-local except for the
    /// shared `fetch_max`).
    #[inline]
    pub fn record(&self, value: u64) {
        let stripe = &self.stripes[stripe_slot()];
        stripe.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merges the stripes into a point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        for stripe in &self.stripes {
            for (acc, bucket) in buckets.iter_mut().zip(stripe.buckets.iter()) {
                *acc += bucket.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(stripe.sum.load(Ordering::Relaxed));
        }
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum,
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram state: dense bucket counts plus count / sum /
/// exact max. Snapshots merge associatively and commutatively (the
/// property the proptests pin), so per-invocation `hist` journal events
/// aggregate across resumes exactly like live stripes aggregate across
/// threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// The zero snapshot (merge identity).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Rebuilds a snapshot from the sparse `[index, count]` pairs of a
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
    pub fn merge(&mut self, other: &HistogramSnapshot) {
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
    Histogram(HistogramSnapshot),
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

/// A point-in-time capture of every registered metric, in registration
/// order. Renders as Prometheus text exposition (metric names prefixed
/// `dnnlife_`, histogram buckets as cumulative `le` series) or as a
/// JSON object via [`Serialize`] — the `--metrics-out` twin files.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Every registered metric, in registration order.
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
pub fn sparse_to_value(pairs: &[(usize, u64)]) -> serde::Value {
    serde::Value::Array(
        pairs
            .iter()
            .map(|&(i, c)| serde::Value::Array(vec![(i as u64).to_value(), c.to_value()]))
            .collect(),
    )
}

/// A last-write-wins gauge (relaxed).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct RegistryEntry {
    name: String,
    help: String,
    metric: Metric,
}

/// A dynamic metrics registry: get-or-register named counters, gauges,
/// and histograms. Registration takes a mutex (do it once, outside hot
/// loops, and keep the returned `Arc`); recording through the returned
/// handles is lock-free. The fixed [`Counter`] roster is re-registered
/// here by `Telemetry::build`, so a [`MetricsSnapshot`] covers both
/// the closed hot-path roster and any dynamically added series.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<RegistryEntry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.snapshot().metrics.len())
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<RegistryEntry>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get_or_register(&self, name: &str, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut entries = self.lock();
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            return entry.metric.clone();
        }
        let metric = make();
        entries.push(RegistryEntry {
            name: name.to_string(),
            help: help.to_string(),
            metric: metric.clone(),
        });
        metric
    }

    /// Gets or registers a monotonic counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<AtomicU64> {
        match self.get_or_register(name, help, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} already registered as a non-counter"),
        }
    }

    /// Gets or registers a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_register(name, help, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered as a non-gauge"),
        }
    }

    /// Gets or registers a histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.get_or_register(name, help, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered as a non-histogram"),
        }
    }

    /// Captures every registered metric, in registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self
            .lock()
            .iter()
            .map(|entry| MetricSample {
                name: entry.name.clone(),
                help: entry.help.clone(),
                value: match &entry.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { metrics }
    }
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
        let mut contents = String::new();
        file.read_to_string(&mut contents)?;
        if !contents.is_empty() && !contents.ends_with('\n') {
            // Torn tail: keep everything up to (and including) the last
            // complete line; drop the unterminated remainder.
            let valid = contents.rfind('\n').map_or(0, |i| i + 1);
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

/// The telemetry handle: counters, span timings, and the optional
/// events journal. Cheap to share by reference across worker threads
/// (all interior mutability is atomic or mutex-guarded); the campaign
/// plumbing carries it as `Option<&Telemetry>` inside `RunOptions`.
///
/// Telemetry only observes: enabling it never changes any computed
/// result (the campaign regression tests pin stores byte-identical
/// with telemetry on and off).
pub struct Telemetry {
    enabled: bool,
    /// The fixed hot-path roster, shared with `registry` (the same
    /// atomics back both views, so `snapshot()` and
    /// `metrics_snapshot()` can never disagree).
    counters: [Arc<AtomicU64>; Counter::ALL.len()],
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
            .field("journal", &self.journal_path())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    fn build(enabled: bool, journal: Option<Journal>) -> Self {
        let registry = Registry::new();
        // Re-register the closed hot-path roster on the dynamic
        // registry: the same Arc<AtomicU64> backs the array (one index,
        // one relaxed add) and the named registry entry.
        let counters = std::array::from_fn(|i| {
            registry.counter(Counter::ALL[i].name(), Counter::ALL[i].help())
        });
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        Self {
            enabled,
            counters,
            registry,
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

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The journal file path, when journaling.
    pub fn journal_path(&self) -> Option<PathBuf> {
        self.journal.as_ref().map(|j| {
            j.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .path
                .clone()
        })
    }

    /// Adds `n` to a counter (relaxed; a no-op when disabled).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if self.enabled {
            self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Times `f` and accumulates its wall time into a `*Nanos`
    /// counter. When disabled, runs `f` without reading the clock.
    #[inline]
    pub fn time<R>(&self, counter: Counter, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.add(counter, start.elapsed().as_nanos() as u64);
        result
    }

    /// Non-zero counters as `(name, value)` pairs, in roster order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.get(c)))
            .filter(|&(_, v)| v != 0)
            .collect()
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

    /// Emits the `counters` roll-up event (every non-zero counter),
    /// the journal's machine-readable equivalent of [`snapshot`].
    ///
    /// [`snapshot`]: Telemetry::snapshot
    pub fn emit_counters(&self) {
        let fields: Vec<(&str, serde::Value)> = self
            .snapshot()
            .into_iter()
            .map(|(name, value)| (name, value.to_value()))
            .collect();
        self.emit("counters", &fields);
    }

    /// The dynamic metrics registry behind this handle. Registration is
    /// live even when disabled (the handles just never get recorded
    /// into through [`observe`]/[`gauge_set`]).
    ///
    /// [`observe`]: Telemetry::observe
    /// [`gauge_set`]: Telemetry::gauge_set
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records `value` into the named histogram (get-or-register; a
    /// single branch when disabled). The registry lookup takes a short
    /// mutex — call at per-scenario granularity, or hold the
    /// [`Registry::histogram`] `Arc` yourself for per-item loops.
    pub fn observe(&self, name: &str, help: &str, value: u64) {
        if self.enabled {
            self.registry.histogram(name, help).record(value);
        }
    }

    /// Sets the named gauge (get-or-register; a no-op when disabled).
    pub fn gauge_set(&self, name: &str, help: &str, value: u64) {
        if self.enabled {
            self.registry.gauge(name, help).set(value);
        }
    }

    /// Captures every registered metric — the `--metrics-out` payload.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Emits one `hist` roll-up event per non-empty registered
    /// histogram: `{"ev":"hist","name":...,"buckets":[[i,c],...],
    /// "count":N,"sum":S,"max":M}` — the journal's durable form of the
    /// latency distributions, merged across invocations by `dnnlife
    /// perf`.
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

    #[test]
    fn counters_accumulate_and_noop_stays_zero() {
        let tel = Telemetry::in_memory();
        tel.add(Counter::ExactWordWrites, 3);
        tel.add(Counter::ExactWordWrites, 4);
        assert_eq!(tel.get(Counter::ExactWordWrites), 7);
        assert_eq!(tel.snapshot(), vec![("exact_word_writes", 7)]);

        let noop = Telemetry::noop();
        noop.add(Counter::ExactWordWrites, 5);
        assert_eq!(noop.get(Counter::ExactWordWrites), 0);
        assert!(!noop.is_enabled());
    }

    #[test]
    fn time_accumulates_span_nanos() {
        let tel = Telemetry::in_memory();
        let out = tel.time(Counter::ShardMergeNanos, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(tel.get(Counter::ShardMergeNanos) >= 1_000_000);
    }

    #[test]
    fn journal_appends_parseable_lines() {
        let path = scratch("emit");
        let tel = Telemetry::with_journal(&path).expect("open journal");
        tel.emit("campaign_start", &[("total", 3u64.to_value())]);
        tel.add(Counter::InjectionTrials, 9);
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
        assert!(!instr.telemetry().is_enabled());
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
        let hist = Histogram::new();
        for v in 1..=1000u64 {
            hist.record(v);
        }
        let snap = hist.snapshot();
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
    fn histogram_stripes_merge_across_threads() {
        let hist = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let hist = &hist;
                scope.spawn(move || {
                    for i in 0..100 {
                        hist.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 800);
        assert_eq!(snap.max(), 7099);
    }

    #[test]
    fn snapshot_sparse_round_trips_and_merges() {
        let hist = Histogram::new();
        for v in [0u64, 1, 5, 5, 1000, 123_456] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let rebuilt = HistogramSnapshot::from_sparse(&snap.sparse(), snap.sum(), snap.max());
        assert_eq!(rebuilt, snap);

        let mut merged = HistogramSnapshot::empty();
        merged.merge(&snap);
        merged.merge(&snap);
        assert_eq!(merged.count(), 2 * snap.count());
        assert_eq!(merged.max(), snap.max());
        assert_eq!(merged.quantile(1.0), 123_456);
    }

    #[test]
    fn registry_reuses_entries_and_snapshots_in_order() {
        let registry = Registry::new();
        let a = registry.counter("reads", "read ops");
        let b = registry.counter("reads", "ignored duplicate help");
        a.fetch_add(3, Ordering::Relaxed);
        b.fetch_add(4, Ordering::Relaxed);
        registry.gauge("pending", "queue depth").set(7);
        registry.histogram("wall_us", "wall time").record(42);

        let snap = registry.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["reads", "pending", "wall_us"]);
        assert_eq!(snap.metrics[0].value, MetricValue::Counter(7));
        assert_eq!(snap.metrics[1].value, MetricValue::Gauge(7));
    }

    #[test]
    fn telemetry_counters_are_registered_on_the_registry() {
        let tel = Telemetry::in_memory();
        tel.add(Counter::ExactWordWrites, 11);
        let snap = tel.metrics_snapshot();
        let sample = snap
            .metrics
            .iter()
            .find(|m| m.name == "exact_word_writes")
            .expect("roster counter registered");
        assert_eq!(sample.value, MetricValue::Counter(11));
        assert_eq!(snap.metrics.len(), Counter::ALL.len());
        // Disabled handles never record through observe/gauge_set.
        let noop = Telemetry::noop();
        noop.observe("wall_us", "", 5);
        noop.gauge_set("pending", "", 5);
        assert_eq!(noop.metrics_snapshot().metrics.len(), Counter::ALL.len());
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_prefixed() {
        let tel = Telemetry::in_memory();
        tel.add(Counter::InjectionTrials, 2);
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
