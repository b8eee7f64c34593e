//! The `dnnlife perf` profiler: renders performance tables from one
//! telemetry `events.jsonl` journal and diffs two journals to flag
//! regressions.
//!
//! The journal is read through [`read_events`], so corrupt lines (a
//! torn tail from a killed run, a hand-edited file, stray non-UTF-8
//! bytes) are skipped and counted, never fatal. A journal may span
//! several campaign invocations (resume runs append to the same file):
//! per-invocation `counters` roll-ups sum, scenario events concatenate,
//! and the campaign wall clock is the sum over invocations.

use dnnlife_telemetry::{read_events, Histogram};
use serde::{Serialize, Value};

/// One `scenario_done` event: a completed item's identity and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPerf {
    /// Pending-set index within its campaign invocation.
    pub index: u64,
    /// Record label (network/policy/backend descriptor).
    pub label: String,
    /// Throughput bucket (the mitigation policy's display name).
    pub group: String,
    /// Run wall time, milliseconds.
    pub wall_ms: f64,
    /// Time from pool start until a worker claimed the item,
    /// milliseconds.
    pub queue_ms: f64,
    /// Simulator threads the item ran on (its worker's share of the
    /// thread budget).
    pub threads: u64,
}

/// Everything `dnnlife perf` aggregates out of one events journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfSummary {
    /// Campaign names seen (`campaign_start` events), in order.
    pub campaigns: Vec<String>,
    /// Every completed scenario, in journal (completion) order.
    pub scenarios: Vec<ScenarioPerf>,
    /// Items whose in-flight partials were discarded by an abort.
    pub discarded: u64,
    /// Summed counter roll-ups, keyed by counter name.
    pub counters: Vec<(String, u64)>,
    /// Total campaign wall time (start → done/abort), summed over the
    /// journal's invocations, milliseconds.
    pub campaign_wall_ms: f64,
    /// Thread budget of the widest invocation.
    pub budget: u64,
    /// Journal lines skipped as unparsable (torn tail, corruption).
    pub skipped_lines: u64,
    /// Absolute wall-clock anchor: the `unix_ms` field of the first
    /// `campaign_start` event that carries one (milliseconds since the
    /// Unix epoch). Every other journal timestamp is the relative
    /// `t_ms` offset; this is the only absolute time, so tooling can
    /// order journals from different runs. `None` for journals written
    /// before the field existed — its absence is never an error.
    pub anchor_unix_ms: Option<u64>,
    /// Latency histograms from `hist` roll-up events, keyed by metric
    /// name (`scenario_wall_us`, `scenario_queue_us`, ...), merged
    /// across the journal's invocations.
    pub hists: Vec<(String, Histogram)>,
}

/// Percentile view of a microsecond latency histogram, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyMs {
    /// Samples recorded into the histogram.
    pub count: u64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Exact maximum latency, milliseconds.
    pub max_ms: f64,
}

/// Aggregates one events journal's raw bytes.
pub fn summarize(journal: &[u8]) -> PerfSummary {
    let mut out = PerfSummary::default();
    // `t_ms` is relative to each invocation's Telemetry handle, so the
    // wall clock closes per invocation: a campaign_done/abort pairs
    // with the latest campaign_start.
    let mut open_start_ms: Option<f64> = None;
    let mut skipped = 0;
    for event in read_events(journal, &mut skipped) {
        match event.kind() {
            "campaign_start" => {
                if let Some(name) = event.str("name") {
                    out.campaigns.push(name.to_string());
                }
                out.budget = out.budget.max(event.u64("budget").unwrap_or(0));
                if out.anchor_unix_ms.is_none() {
                    out.anchor_unix_ms = event.u64("unix_ms");
                }
                open_start_ms = event.f64("t_ms");
            }
            "campaign_done" | "campaign_abort" => {
                if let (Some(start), Some(end)) = (open_start_ms.take(), event.f64("t_ms")) {
                    out.campaign_wall_ms += (end - start).max(0.0);
                }
            }
            "scenario_done" => {
                out.scenarios.push(ScenarioPerf {
                    index: event.u64("i").unwrap_or(0),
                    label: event.str("label").unwrap_or("?").to_string(),
                    group: event.str("group").unwrap_or("?").to_string(),
                    wall_ms: event.f64("wall_ms").unwrap_or(0.0),
                    queue_ms: event.f64("queue_ms").unwrap_or(0.0),
                    threads: event.u64("threads").unwrap_or(1),
                });
            }
            "scenario_discarded" => out.discarded += 1,
            "hist" => {
                let Some((name, snap)) = event.histogram() else {
                    out.skipped_lines += 1;
                    continue;
                };
                match out.hists.iter_mut().find(|(k, _)| k == name) {
                    Some((_, total)) => total.merge(&snap),
                    None => out.hists.push((name.to_string(), snap)),
                }
            }
            "counters" => {
                for (name, value) in event.fields() {
                    if name == "ev" || name == "t_ms" || name == "v" {
                        continue;
                    }
                    let Value::Number(n) = value else { continue };
                    let Some(n) = (*n).as_u64() else { continue };
                    match out.counters.iter_mut().find(|(k, _)| k == name) {
                        Some((_, total)) => *total += n,
                        None => out.counters.push((name.clone(), n)),
                    }
                }
            }
            _ => {} // forward compatibility: unknown events are fine
        }
    }
    out.skipped_lines += skipped;
    out
}

impl PerfSummary {
    /// A summed counter by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Exact-backend simulation throughput: word writes per second of
    /// scenario wall time. `None` when the journal holds no exact work
    /// (or no timing). This is the number the CI smoke check guards.
    pub fn exact_words_per_sec(&self) -> Option<f64> {
        let words = self.counter("exact_word_writes");
        let wall_secs = self.counter("scenario_wall_nanos") as f64 / 1e9;
        (words > 0 && wall_secs > 0.0).then(|| words as f64 / wall_secs)
    }

    /// Mean worker-pool occupancy: scenario wall time divided by
    /// campaign wall time × thread budget. 1.0 = every budgeted thread
    /// busy for the whole campaign. `None` without a closed campaign
    /// span.
    pub fn thread_utilization(&self) -> Option<f64> {
        let busy_ms = self.counter("scenario_wall_nanos") as f64 / 1e6;
        let capacity_ms = self.campaign_wall_ms * self.budget.max(1) as f64;
        (capacity_ms > 0.0).then(|| busy_ms / capacity_ms)
    }

    /// Per-group (policy) roll-up: `(group, completed, total wall ms,
    /// mean wall ms)`, sorted by total wall descending.
    pub fn group_rollup(&self) -> Vec<(String, usize, f64, f64)> {
        let mut rows: Vec<(String, usize, f64)> = Vec::new();
        for s in &self.scenarios {
            match rows.iter_mut().find(|(g, _, _)| *g == s.group) {
                Some((_, n, wall)) => {
                    *n += 1;
                    *wall += s.wall_ms;
                }
                None => rows.push((s.group.clone(), 1, s.wall_ms)),
            }
        }
        let mut rows: Vec<(String, usize, f64, f64)> = rows
            .into_iter()
            .map(|(g, n, wall)| (g, n, wall, wall / n.max(1) as f64))
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        rows
    }

    /// A merged latency histogram by metric name, `None` when the
    /// journal carries no `hist` events for it.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
            .filter(|h| h.count() > 0)
    }

    /// p50/p90/p99/max of a microsecond latency histogram, reported in
    /// milliseconds.
    pub fn latency_ms(&self, name: &str) -> Option<LatencyMs> {
        let hist = self.hist(name)?;
        Some(LatencyMs {
            count: hist.count(),
            p50_ms: hist.quantile(0.50) as f64 / 1e3,
            p90_ms: hist.quantile(0.90) as f64 / 1e3,
            p99_ms: hist.quantile(0.99) as f64 / 1e3,
            max_ms: hist.max() as f64 / 1e3,
        })
    }

    /// The `top` slowest completed scenarios, wall-time descending.
    pub fn slowest(&self, top: usize) -> Vec<&ScenarioPerf> {
        let mut sorted: Vec<&ScenarioPerf> = self.scenarios.iter().collect();
        sorted.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        sorted.truncate(top);
        sorted
    }

    /// The human-readable `dnnlife perf` report: slowest cells,
    /// per-policy throughput, thread utilization, counter totals.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== Perf: {} — {} completed, {} discarded, {} skipped line(s) ===\n",
            if self.campaigns.is_empty() {
                "<no campaign events>".to_string()
            } else {
                self.campaigns.join(", ")
            },
            self.scenarios.len(),
            self.discarded,
            self.skipped_lines,
        ));
        if let Some(anchor) = self.anchor_unix_ms {
            out.push_str(&format!("journal anchor: unix epoch {anchor} ms\n"));
        }
        if self.campaign_wall_ms > 0.0 {
            out.push_str(&format!(
                "campaign wall {:.2}s on a {}-thread budget",
                self.campaign_wall_ms / 1e3,
                self.budget
            ));
            if let Some(util) = self.thread_utilization() {
                out.push_str(&format!(", {:.0}% thread utilization", util * 100.0));
            }
            out.push('\n');
        }
        if let Some(wps) = self.exact_words_per_sec() {
            out.push_str(&format!("exact backend: {wps:.0} word writes/s\n"));
        }

        let latency: Vec<(&str, LatencyMs)> = [
            ("scenario wall", "scenario_wall_us"),
            ("scenario queue", "scenario_queue_us"),
        ]
        .into_iter()
        .filter_map(|(label, name)| self.latency_ms(name).map(|l| (label, l)))
        .collect();
        if !latency.is_empty() {
            out.push_str("\n--- Latency percentiles (ms) ---\n");
            out.push_str(&format!(
                "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                "metric", "count", "p50", "p90", "p99", "max"
            ));
            for (label, l) in latency {
                out.push_str(&format!(
                    "{label:<16} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                    l.count, l.p50_ms, l.p90_ms, l.p99_ms, l.max_ms
                ));
            }
        }

        let slowest = self.slowest(10);
        if !slowest.is_empty() {
            out.push_str("\n--- Slowest cells ---\n");
            out.push_str(&format!(
                "{:>4}  {:>10}  {:>9}  {:>7}  label\n",
                "#", "wall ms", "queue ms", "threads"
            ));
            for (rank, s) in slowest.iter().enumerate() {
                out.push_str(&format!(
                    "{:>4}  {:>10.1}  {:>9.1}  {:>7}  {}\n",
                    rank + 1,
                    s.wall_ms,
                    s.queue_ms,
                    s.threads,
                    s.label
                ));
            }
        }

        let groups = self.group_rollup();
        if !groups.is_empty() {
            let width = groups
                .iter()
                .map(|(g, ..)| g.chars().count())
                .max()
                .unwrap_or(0)
                .max("policy".len());
            out.push_str("\n--- Per-policy throughput ---\n");
            out.push_str(&format!(
                "{:<width$} {:>6} {:>12} {:>12}\n",
                "policy", "done", "total ms", "mean ms"
            ));
            for (group, n, total, mean) in &groups {
                out.push_str(&format!(
                    "{group:<width$} {n:>6} {total:>12.1} {mean:>12.1}\n"
                ));
            }
        }

        if !self.counters.is_empty() {
            out.push_str("\n--- Counters ---\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<28} {value}\n"));
            }
        }
        out
    }
}

impl Serialize for PerfSummary {
    fn to_value(&self) -> Value {
        let scenarios: Vec<Value> = self
            .scenarios
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("i".to_string(), s.index.to_value()),
                    ("label".to_string(), s.label.to_value()),
                    ("group".to_string(), s.group.to_value()),
                    ("wall_ms".to_string(), s.wall_ms.to_value()),
                    ("queue_ms".to_string(), s.queue_ms.to_value()),
                    ("threads".to_string(), s.threads.to_value()),
                ])
            })
            .collect();
        let counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), value.to_value()))
            .collect();
        let mut pairs = vec![
            ("campaigns".to_string(), self.campaigns.to_value()),
            (
                "completed".to_string(),
                (self.scenarios.len() as u64).to_value(),
            ),
            ("discarded".to_string(), self.discarded.to_value()),
            (
                "campaign_wall_ms".to_string(),
                self.campaign_wall_ms.to_value(),
            ),
            ("budget".to_string(), self.budget.to_value()),
            ("skipped_lines".to_string(), self.skipped_lines.to_value()),
            ("counters".to_string(), Value::Object(counters)),
            ("scenarios".to_string(), Value::Array(scenarios)),
        ];
        let latency: Vec<(String, Value)> = self
            .hists
            .iter()
            .filter_map(|(name, _)| {
                let l = self.latency_ms(name)?;
                Some((
                    name.clone(),
                    Value::Object(vec![
                        ("count".to_string(), l.count.to_value()),
                        ("p50_ms".to_string(), l.p50_ms.to_value()),
                        ("p90_ms".to_string(), l.p90_ms.to_value()),
                        ("p99_ms".to_string(), l.p99_ms.to_value()),
                        ("max_ms".to_string(), l.max_ms.to_value()),
                    ]),
                ))
            })
            .collect();
        if !latency.is_empty() {
            pairs.push(("latency".to_string(), Value::Object(latency)));
        }
        if let Some(wps) = self.exact_words_per_sec() {
            pairs.insert(6, ("exact_words_per_sec".to_string(), wps.to_value()));
        }
        if let Some(util) = self.thread_utilization() {
            pairs.insert(6, ("thread_utilization".to_string(), util.to_value()));
        }
        if let Some(anchor) = self.anchor_unix_ms {
            pairs.insert(1, ("anchor_unix_ms".to_string(), anchor.to_value()));
        }
        Value::Object(pairs)
    }
}

/// Wall-time change of one metric between two journals.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric name.
    pub metric: String,
    /// Value in journal A (the "before").
    pub before: f64,
    /// Value in journal B (the "after").
    pub after: f64,
    /// `after / before` (∞ when before is 0, 0 when B lacks the
    /// metric).
    pub ratio: f64,
    /// Whether the change crosses the regression threshold in the
    /// slow direction.
    pub regressed: bool,
    /// True when journal A reports this metric but journal B doesn't —
    /// rendered as an explicit `MISSING` row and always treated as a
    /// regression (a silently vanished metric must fail the gate, not
    /// pass it).
    pub missing: bool,
}

/// A↔B journal comparison: per-metric ratios plus the regression
/// verdicts `dnnlife perf --diff` renders.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfDiff {
    /// One row per comparable metric.
    pub rows: Vec<DiffRow>,
    /// Ratio past which a slow-direction change is flagged.
    pub threshold: f64,
}

/// Default slow-direction ratio before a diff row is flagged: 25%.
pub const DIFF_THRESHOLD: f64 = 1.25;

/// Compares two journals. `threshold` is the slow-direction ratio that
/// flags a row (e.g. 1.25 = 25% slower); lower-is-better metrics
/// (wall, queue) regress when `after/before > threshold`,
/// higher-is-better metrics (throughput) when
/// `before/after > threshold`.
pub fn diff(a: &PerfSummary, b: &PerfSummary, threshold: f64) -> PerfDiff {
    let mut rows = Vec::new();
    let mut lower_is_better = |metric: &str, before: f64, after: f64| {
        if before <= 0.0 && after <= 0.0 {
            return;
        }
        if before > 0.0 && after <= 0.0 {
            // The metric vanished from B (no scenarios, no closed
            // campaign span) — that must flag, not read as "0 ms".
            rows.push(DiffRow {
                metric: metric.to_string(),
                before,
                after: 0.0,
                ratio: 0.0,
                regressed: true,
                missing: true,
            });
            return;
        }
        let ratio = if before > 0.0 {
            after / before
        } else {
            f64::INFINITY
        };
        rows.push(DiffRow {
            metric: metric.to_string(),
            before,
            after,
            ratio,
            regressed: ratio > threshold,
            missing: false,
        });
    };
    lower_is_better("campaign_wall_ms", a.campaign_wall_ms, b.campaign_wall_ms);
    let mean_wall = |s: &PerfSummary| {
        if s.scenarios.is_empty() {
            0.0
        } else {
            s.scenarios.iter().map(|x| x.wall_ms).sum::<f64>() / s.scenarios.len() as f64
        }
    };
    lower_is_better("mean_scenario_wall_ms", mean_wall(a), mean_wall(b));
    let mean_queue = |s: &PerfSummary| {
        if s.scenarios.is_empty() {
            0.0
        } else {
            s.scenarios.iter().map(|x| x.queue_ms).sum::<f64>() / s.scenarios.len() as f64
        }
    };
    lower_is_better("mean_queue_wait_ms", mean_queue(a), mean_queue(b));
    match (a.exact_words_per_sec(), b.exact_words_per_sec()) {
        (Some(before), Some(after)) => rows.push(DiffRow {
            metric: "exact_words_per_sec".to_string(),
            before,
            after,
            ratio: if before > 0.0 {
                after / before
            } else {
                f64::INFINITY
            },
            regressed: after > 0.0 && before / after > threshold,
            missing: false,
        }),
        // A measured exact throughput, B has none: the journal that was
        // supposed to prove throughput can't — an explicit MISSING row
        // that fails the gate (previously this arm emitted nothing and
        // the diff silently passed).
        (Some(before), None) => rows.push(DiffRow {
            metric: "exact_words_per_sec".to_string(),
            before,
            after: 0.0,
            ratio: 0.0,
            regressed: true,
            missing: true,
        }),
        // A metric newly appearing in B is informational, not a
        // regression.
        (None, Some(after)) => rows.push(DiffRow {
            metric: "exact_words_per_sec".to_string(),
            before: 0.0,
            after,
            ratio: f64::INFINITY,
            regressed: false,
            missing: false,
        }),
        (None, None) => {}
    }
    PerfDiff { rows, threshold }
}

impl PerfDiff {
    /// Whether any row crossed the threshold in the slow direction
    /// (includes [`DiffRow::missing`] rows).
    pub fn has_regression(&self) -> bool {
        self.rows.iter().any(|row| row.regressed)
    }

    /// Whether journal A reports a metric that journal B lacks — the
    /// condition `dnnlife perf --diff` must fail on (exit non-zero),
    /// since a vanished metric means B cannot demonstrate the
    /// performance A did.
    pub fn has_missing(&self) -> bool {
        self.rows.iter().any(|row| row.missing)
    }

    /// The human-readable diff table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== Perf diff (B vs A, flag past {:.2}x) ===\n",
            self.threshold
        ));
        out.push_str(&format!(
            "{:<24} {:>14} {:>14} {:>8}\n",
            "metric", "A", "B", "B/A"
        ));
        for row in &self.rows {
            if row.missing {
                out.push_str(&format!(
                    "{:<24} {:>14.1} {:>14} {:>8}  << MISSING IN B\n",
                    row.metric, row.before, "MISSING", "-"
                ));
                continue;
            }
            out.push_str(&format!(
                "{:<24} {:>14.1} {:>14.1} {:>8.3}{}\n",
                row.metric,
                row.before,
                row.after,
                row.ratio,
                if row.regressed { "  << REGRESSED" } else { "" }
            ));
        }
        if self.rows.is_empty() {
            out.push_str("(no comparable metrics)\n");
        }
        out
    }
}

impl Serialize for PerfDiff {
    fn to_value(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|row| {
                Value::Object(vec![
                    ("metric".to_string(), row.metric.to_value()),
                    ("before".to_string(), row.before.to_value()),
                    ("after".to_string(), row.after.to_value()),
                    ("ratio".to_string(), row.ratio.to_value()),
                    ("regressed".to_string(), row.regressed.to_value()),
                    ("missing".to_string(), row.missing.to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("threshold".to_string(), self.threshold.to_value()),
            ("regressed".to_string(), self.has_regression().to_value()),
            ("missing_metrics".to_string(), self.has_missing().to_value()),
            ("rows".to_string(), Value::Array(rows)),
        ])
    }
}

/// The CI smoke check: compares the journal's exact-backend throughput
/// against a committed baseline. Returns the measured words/sec, or an
/// error describing the regression (or why the journal can't be
/// checked).
///
/// # Errors
///
/// When the journal has no exact-backend work, or throughput fell
/// below `baseline / max_regression`.
pub fn check_baseline(
    summary: &PerfSummary,
    baseline_words_per_sec: f64,
    max_regression: f64,
) -> Result<f64, String> {
    let measured = summary
        .exact_words_per_sec()
        .ok_or("journal holds no exact-backend scenario work to check")?;
    let floor = baseline_words_per_sec / max_regression;
    if measured < floor {
        return Err(format!(
            "exact backend regressed: {measured:.0} words/s < floor {floor:.0} \
             (baseline {baseline_words_per_sec:.0} / {max_regression:.1}x)"
        ));
    }
    Ok(measured)
}

/// The CI latency gate: compares the journal's scenario-wall p99 (from
/// `hist` events) against a committed ceiling in milliseconds. Returns
/// the measured p99 in ms, or an error when it exceeds
/// `ceiling * max_regression` — or when the gate is configured but the
/// journal carries no histogram to measure.
///
/// # Errors
///
/// When the journal has no `scenario_wall_us` histogram events, or the
/// measured p99 exceeds the allowed ceiling.
pub fn check_wall_p99(
    summary: &PerfSummary,
    ceiling_ms: f64,
    max_regression: f64,
) -> Result<f64, String> {
    let latency = summary.latency_ms("scenario_wall_us").ok_or(
        "scenario_wall_p99_ms gate is set but the journal holds no \
         scenario_wall_us histogram events — run with telemetry enabled",
    )?;
    let allowed = ceiling_ms * max_regression;
    if latency.p99_ms > allowed {
        return Err(format!(
            "scenario wall p99 regressed: {:.1} ms > ceiling {allowed:.1} \
             (baseline {ceiling_ms:.1} x {max_regression:.1})",
            latency.p99_ms
        ));
    }
    Ok(latency.p99_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> String {
        [
            r#"{"ev":"campaign_start","t_ms":0,"name":"fig9","noun":"scenario","pending":3,"workers":2,"budget":4}"#,
            r#"{"ev":"scenario_start","t_ms":1,"i":0,"threads":2}"#,
            r#"{"ev":"scenario_done","t_ms":120,"i":0,"label":"lenet/none","group":"none","wall_ms":100.0,"queue_ms":2.0,"threads":2}"#,
            r#"{"ev":"scenario_done","t_ms":250,"i":1,"label":"lenet/dnnlife","group":"dnn-life","wall_ms":200.0,"queue_ms":4.0,"threads":2}"#,
            r#"{"ev":"scenario_discarded","t_ms":260,"i":2,"wall_ms":10.0}"#,
            r#"{"ev":"counters","t_ms":270,"scenarios_completed":2,"exact_word_writes":3000000,"scenario_wall_nanos":300000000}"#,
            r#"{"ev":"campaign_abort","t_ms":280,"name":"fig9","completed":2,"discarded":1,"remaining":0}"#,
            r#"{"ev":"future_event_kind","t_ms":281,"whatever":true}"#,
            "this line is torn and does not par",
        ]
        .join("\n")
    }

    #[test]
    fn summarize_aggregates_and_tolerates_garbage() {
        let s = summarize(journal().as_bytes());
        assert_eq!(s.campaigns, vec!["fig9".to_string()]);
        assert_eq!(s.scenarios.len(), 2);
        assert_eq!(s.discarded, 1);
        assert_eq!(s.skipped_lines, 1, "only the torn line is skipped");
        assert_eq!(s.budget, 4);
        assert_eq!(s.counter("exact_word_writes"), 3_000_000);
        assert!((s.campaign_wall_ms - 280.0).abs() < 1e-9);
        // 3e6 words over 0.3s of scenario wall.
        let wps = s.exact_words_per_sec().expect("has exact work");
        assert!((wps - 10_000_000.0).abs() < 1.0, "{wps}");
    }

    #[test]
    fn unix_ms_anchor_is_captured_and_tolerated_when_absent() {
        // Pre-anchor journals (no unix_ms on campaign_start) summarize
        // exactly as before, with no anchor.
        let old = summarize(journal().as_bytes());
        assert_eq!(old.anchor_unix_ms, None);
        assert!(!old.render_text().contains("journal anchor"));

        // An anchored journal surfaces the first campaign_start's
        // unix_ms in the summary, text render and JSON output.
        let anchored = journal().replace(
            r#"{"ev":"campaign_start","t_ms":0,"#,
            r#"{"ev":"campaign_start","t_ms":0,"unix_ms":1754650000123,"#,
        );
        let s = summarize(anchored.as_bytes());
        assert_eq!(s.anchor_unix_ms, Some(1_754_650_000_123));
        assert!(s
            .render_text()
            .contains("journal anchor: unix epoch 1754650000123 ms"));
        let json = s.to_value();
        assert_eq!(
            json.get("anchor_unix_ms"),
            Some(&1_754_650_000_123u64.to_value()),
            "anchor must appear in --json output"
        );
        assert_eq!(
            old.to_value().get("anchor_unix_ms"),
            None,
            "unanchored journals must not invent the field"
        );

        // The anchor identifies the journal's first invocation; later
        // invocations (e.g. --resume appends) don't overwrite it.
        let second = journal().replace(
            r#"{"ev":"campaign_start","t_ms":0,"#,
            r#"{"ev":"campaign_start","t_ms":0,"unix_ms":1754650999999,"#,
        );
        let resumed = summarize(format!("{anchored}\n{second}").as_bytes());
        assert_eq!(resumed.anchor_unix_ms, Some(1_754_650_000_123));

        // Diffing an anchored journal against an unanchored one is not
        // a regression — the anchor is metadata, not a metric.
        let d = diff(&s, &old, DIFF_THRESHOLD);
        assert!(!d.has_regression() && !d.has_missing());
    }

    #[test]
    fn render_text_names_the_slowest_cell_first() {
        let s = summarize(journal().as_bytes());
        let text = s.render_text();
        let slow = text.find("lenet/dnnlife").expect("slow cell listed");
        let fast = text.find("lenet/none").expect("fast cell listed");
        assert!(slow < fast, "slowest first:\n{text}");
        assert!(text.contains("Per-policy throughput"));
        assert!(text.contains("exact backend"));
    }

    #[test]
    fn counters_sum_across_invocations() {
        let two_runs = format!("{}\n{}", journal(), journal());
        let s = summarize(two_runs.as_bytes());
        assert_eq!(s.counter("exact_word_writes"), 6_000_000);
        assert_eq!(s.scenarios.len(), 4);
        assert!((s.campaign_wall_ms - 560.0).abs() < 1e-9);
    }

    #[test]
    fn diff_flags_slow_direction_only() {
        let a = summarize(journal().as_bytes());
        let mut b = a.clone();
        for s in &mut b.scenarios {
            s.wall_ms *= 2.0; // B is 2x slower
        }
        let d = diff(&a, &b, DIFF_THRESHOLD);
        assert!(d.has_regression());
        let improved = diff(&b, &a, DIFF_THRESHOLD);
        assert!(
            !improved
                .rows
                .iter()
                .filter(|r| r.metric == "mean_scenario_wall_ms")
                .any(|r| r.regressed),
            "a speedup must not be flagged"
        );
        assert!(d.render_text().contains("REGRESSED"));
    }

    /// The same journal minus its `counters` roll-up: scenarios ran but
    /// no exact throughput can be computed.
    fn journal_without_counters() -> String {
        journal()
            .lines()
            .filter(|l| !l.contains(r#""ev":"counters""#))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn diff_emits_missing_row_when_b_lacks_exact_throughput() {
        let a = summarize(journal().as_bytes());
        let b = summarize(journal_without_counters().as_bytes());
        let d = diff(&a, &b, DIFF_THRESHOLD);
        let row = d
            .rows
            .iter()
            .find(|r| r.metric == "exact_words_per_sec")
            .expect("a MISSING row must be emitted, not silence");
        assert!(row.missing && row.regressed);
        assert!(d.has_missing() && d.has_regression());
        let text = d.render_text();
        assert!(text.contains("MISSING"), "{text}");
    }

    #[test]
    fn diff_metric_appearing_in_b_is_not_a_regression() {
        let a = summarize(journal_without_counters().as_bytes());
        let b = summarize(journal().as_bytes());
        let d = diff(&a, &b, DIFF_THRESHOLD);
        let row = d
            .rows
            .iter()
            .find(|r| r.metric == "exact_words_per_sec")
            .expect("new metric is still shown");
        assert!(!row.missing && !row.regressed);
        assert!(!d.has_missing());
    }

    #[test]
    fn diff_flags_vanished_wall_metrics() {
        let a = summarize(journal().as_bytes());
        let b = PerfSummary::default(); // empty journal: no scenarios at all
        let d = diff(&a, &b, DIFF_THRESHOLD);
        assert!(d.has_missing(), "an empty B journal must fail the gate");
        for metric in ["campaign_wall_ms", "mean_scenario_wall_ms"] {
            let row = d.rows.iter().find(|r| r.metric == metric).expect(metric);
            assert!(row.missing && row.regressed, "{metric} must flag");
        }
    }

    #[test]
    fn diff_json_carries_missing_flags() {
        let a = summarize(journal().as_bytes());
        let d = diff(&a, &PerfSummary::default(), DIFF_THRESHOLD);
        let json = serde_json::to_string(&d.to_value()).expect("serializes");
        let back: Value = serde_json::from_str(&json).expect("round trips");
        assert_eq!(back.get("missing_metrics"), Some(&Value::Bool(true)));
    }

    #[test]
    fn baseline_check_floors_at_the_allowed_regression() {
        let s = summarize(journal().as_bytes()); // 10M words/s
        assert!(check_baseline(&s, 10_000_000.0, 2.0).is_ok());
        assert!(
            check_baseline(&s, 10_000_000.0, 1.01).is_ok(),
            "equal is ok"
        );
        let err = check_baseline(&s, 50_000_000.0, 2.0).expect_err("regressed");
        assert!(err.contains("regressed"), "{err}");
        assert!(
            check_baseline(&PerfSummary::default(), 1.0, 2.0).is_err(),
            "empty journal cannot pass the smoke check"
        );
    }

    #[test]
    fn json_rendering_is_parseable_and_carries_the_headline_numbers() {
        let s = summarize(journal().as_bytes());
        let json = serde_json::to_string(&s.to_value()).expect("serializes");
        let back: Value = serde_json::from_str(&json).expect("round trips");
        assert_eq!(back.get("completed"), Some(&2u64.to_value()));
        assert_eq!(back.get("discarded"), Some(&1u64.to_value()));
        assert!(matches!(
            back.get("exact_words_per_sec"),
            Some(Value::Number(_))
        ));
    }

    /// A `hist` event line exactly as `Telemetry::emit_histograms`
    /// writes it, built from real `Histogram` recordings so the sparse
    /// bucket pairs match production output.
    fn hist_line(name: &str, values: &[u64]) -> String {
        let mut snap = Histogram::empty();
        for &v in values {
            snap.record(v);
        }
        let pairs: Vec<String> = snap
            .sparse()
            .iter()
            .map(|(i, c)| format!("[{i},{c}]"))
            .collect();
        format!(
            r#"{{"ev":"hist","v":1,"t_ms":275,"name":"{name}","buckets":[{}],"count":{},"sum":{},"max":{}}}"#,
            pairs.join(","),
            snap.count(),
            snap.sum(),
            snap.max()
        )
    }

    #[test]
    fn hist_events_merge_and_reconstruct_percentiles() {
        // Two invocations each flush their own hist roll-up; the
        // summary merges them and its percentiles stay within one
        // bucket of the scalar-sorted reference over both streams.
        let a: Vec<u64> = (1..=60).map(|i| i * 1_000).collect(); // 1..60 ms
        let b: Vec<u64> = vec![250_000, 500_000, 900_000]; // heavy tail
        let text = format!(
            "{}\n{}\n{}",
            journal(),
            hist_line("scenario_wall_us", &a),
            hist_line("scenario_wall_us", &b)
        );
        let s = summarize(text.as_bytes());
        let hist = s.hist("scenario_wall_us").expect("hist merged");
        assert_eq!(hist.count(), 63);

        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.sort_unstable();
        for (q, l) in [(0.5, None), (0.9, None), (0.99, None), (1.0, Some(()))] {
            let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
            let truth = all[rank - 1];
            let est = hist.quantile(q);
            if l.is_some() {
                assert_eq!(est, truth, "q=1.0 must be the exact max");
            } else {
                let (eb, tb) = (
                    Histogram::bucket_index(est) as i64,
                    Histogram::bucket_index(truth) as i64,
                );
                assert!((eb - tb).abs() <= 1, "q={q}: {est} vs {truth}");
            }
        }

        // The latency view, text render and JSON all surface it.
        let lat = s.latency_ms("scenario_wall_us").expect("latency view");
        assert!((lat.max_ms - 900.0).abs() < 1e-9);
        let rendered = s.render_text();
        assert!(rendered.contains("Latency percentiles"), "{rendered}");
        assert!(rendered.contains("scenario wall"), "{rendered}");
        let json = s.to_value();
        let latency = json.get("latency").expect("latency in json");
        let wall = latency.get("scenario_wall_us").expect("wall entry");
        assert_eq!(wall.get("count"), Some(&63u64.to_value()));
        assert!(matches!(wall.get("p99_ms"), Some(Value::Number(_))));
    }

    #[test]
    fn mixed_version_journals_summarize_without_skips() {
        // Satellite 1: a journal mixing pre-"v" lines (the fixture),
        // "v":1 lines, an unknown future kind with "v":2, and hist
        // events must all summarize; only the torn line is skipped,
        // and "v" never leaks into the counter table.
        let text = format!(
            "{}\n{}\n{}",
            journal(),
            r#"{"ev":"counters","v":1,"t_ms":300,"exact_word_writes":500}"#,
            r#"{"ev":"hologram","v":2,"t_ms":301,"payload":[1,2,3]}"#,
        );
        let s = summarize(text.as_bytes());
        assert_eq!(s.skipped_lines, 1, "only the torn line");
        assert_eq!(s.counter("exact_word_writes"), 3_000_500);
        assert_eq!(s.counter("v"), 0, "schema version is not a counter");
    }

    #[test]
    fn wall_p99_gate_floors_and_demands_histograms() {
        let text = format!(
            "{}\n{}",
            journal(),
            hist_line("scenario_wall_us", &[40_000, 50_000, 60_000])
        );
        let s = summarize(text.as_bytes());
        // p99 lands in the 60ms bucket; a 100ms ceiling passes.
        let p99 = check_wall_p99(&s, 100.0, 1.5).expect("within ceiling");
        assert!((40.0..=100.0).contains(&p99), "{p99}");
        let err = check_wall_p99(&s, 10.0, 1.5).expect_err("over ceiling");
        assert!(err.contains("p99 regressed"), "{err}");
        // Gate configured but no histograms in the journal: hard error,
        // not a silent pass.
        let bare = summarize(journal().as_bytes());
        let err = check_wall_p99(&bare, 100.0, 1.5).expect_err("no hist");
        assert!(err.contains("no "), "{err}");
    }
}
