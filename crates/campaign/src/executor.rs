//! Parallel campaign executor.
//!
//! Scenarios are sharded across a std-only worker pool: workers pull
//! the next pending scenario index from a shared atomic counter (work
//! stealing without queues — scenario runtimes vary by orders of
//! magnitude between networks, so static partitioning would idle
//! cores), run it, and send the record back over a channel. The main
//! thread journals each completion to the [`ResultStore`] immediately,
//! then finalizes the store in canonical grid order.
//!
//! The thread budget is **two-level**: when a grid has fewer pending
//! scenarios than budgeted threads, the leftover threads are pooled
//! and each worker claims a fair share of them when it starts a
//! scenario, handing them to the simulator (analytic cell shards /
//! exact word shards) instead of letting them idle — one exact
//! scenario no longer monopolizes a single core while the rest of the
//! pool waits.
//!
//! The pool itself (`execute_shared_pool`) is generic over the work
//! item: the scenario sweep, the cross-validation fan-out and the
//! fault-injection campaign all run on it, so every subsystem shares
//! the same budget arithmetic and the same cancellation story.
//!
//! Determinism: each scenario's result depends only on its spec plus
//! the (deterministic) shard policy — never on the thread count — and
//! the finalize pass orders the file by the grid, so the finished
//! store is **byte-identical for any worker count** and for
//! interrupted-then-resumed runs.
//!
//! Aborts are prompt: when the completion callback declines further
//! results — or an external cancellation token (Ctrl-C) is raised — a
//! shared flag cancels in-flight **exact** simulations at block
//! granularity (within one inference — the backend whose scenarios run
//! for minutes) and their partial results are discarded, not
//! journaled. Analytic scenarios poll the flag only between memory
//! units; their closed forms are orders of magnitude shorter, so the
//! flag exists to stop the expensive backend, not the cheap one.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use dnnlife_core::experiment::{run_experiment_with, RunOptions, ShardPolicy};
use dnnlife_telemetry::{Counter, Instrumentation, SpanId};
use serde::Serialize;

use crate::grid::CampaignGrid;
use crate::store::{ResultStore, ScenarioRecord, StoreLock};

/// Executor knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignOptions<'a> {
    /// Total thread budget: scenario workers plus the spare threads
    /// handed to in-flight simulators (0 = all available cores).
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
    /// Scenarios executed by this invocation.
    pub executed: usize,
    /// Scenarios skipped because the store already held them.
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
/// Propagates store I/O errors, and returns
/// [`std::io::ErrorKind::Interrupted`] when `options.cancel` was raised
/// before every scenario finished. A panic in a worker (a scenario
/// panicking mid-simulation) propagates after in-flight completions
/// have been journaled.
pub fn run_campaign(
    grid: &CampaignGrid,
    store_path: impl Into<std::path::PathBuf>,
    options: &CampaignOptions,
) -> std::io::Result<CampaignOutcome> {
    let store_path = store_path.into();
    // Held for the whole campaign: a second sweep journaling into the
    // same file would interleave writes and corrupt it mid-line.
    let _lock = StoreLock::acquire(&store_path)?;
    if !options.resume && store_path.exists() {
        std::fs::remove_file(&store_path)?;
    }
    let mut store = ResultStore::open(&store_path)?;

    let keys = grid.keys();
    let stale = store.stale_keys(&keys);
    if !stale.is_empty() {
        eprintln!(
            "campaign `{}`: dropping {} stale record(s) from {} — they were produced \
             by a sweep with different parameters (seed/stride/inferences/grid)",
            grid.name,
            stale.len(),
            store.path().display()
        );
    }
    // A stored record satisfies a scenario only if it was computed
    // under the same word-shard annotation: shard-sensitive records
    // (exact × DNN-Life) journaled by a sweep with a different
    // `--shards` hold a different TRBG stream-deal, and skipping them
    // would silently mix two deals in one store.
    let mut shard_stale = 0usize;
    let pending: Vec<usize> = (0..grid.scenarios.len())
        .filter(|&i| match store.get(&keys[i]) {
            None => true,
            Some(record) => {
                let stale = record.shards
                    != crate::store::shard_annotation(&grid.scenarios[i], options.shards);
                shard_stale += usize::from(stale);
                stale
            }
        })
        .collect();
    if shard_stale > 0 {
        eprintln!(
            "campaign `{}`: re-running {shard_stale} DNN-Life exact record(s) journaled \
             under a different --shards value (their TRBG stream split differs)",
            grid.name,
        );
    }
    let skipped = grid.scenarios.len() - pending.len();

    let budget = requested_threads(options.threads);
    let threads = effective_threads(options.threads, pending.len());
    if options.verbose {
        eprintln!(
            "campaign `{}`: {} scenarios ({} pending, {} already stored), {} worker(s), \
             {} thread(s) total",
            grid.name,
            grid.scenarios.len(),
            pending.len(),
            skipped,
            threads,
            budget
        );
    }

    let specs: Vec<&dnnlife_core::ExperimentSpec> =
        pending.iter().map(|&i| &grid.scenarios[i]).collect();
    let (shards, instr) = (options.shards, options.instr);
    let done = journal_into_store(
        &grid.name,
        "scenario",
        &mut store,
        &keys,
        &specs,
        budget,
        options.cancel,
        options.verbose,
        instr,
        |record| record.result.label.clone(),
        |record| record.spec.policy.display_name().to_string(),
        |spec, threads, cancel, span| {
            let opts = RunOptions {
                threads,
                shards,
                cancel: Some(cancel),
                telemetry: instr.telemetry,
                parent_span: span,
            };
            run_experiment_with(spec, &opts)
                .map(|result| ScenarioRecord::annotated((*spec).clone(), result, shards))
        },
    )?;
    Ok(CampaignOutcome {
        executed: done,
        skipped,
        threads,
    })
}

/// The common tail of the scenario and injection campaign drivers:
/// fans `pending` through the shared pool, journals every completed
/// record into `store` (flushing per record), reports progress, maps a
/// journal I/O error or a raised cancellation token to an error, and
/// finalizes the store in canonical `keys` order. Returns the number
/// of items journaled by this invocation.
///
/// Observability rides along without touching results: each item's
/// queue wait and run wall time accumulate into `instr.telemetry`'s
/// counters and the `scenario_wall_us`/`scenario_queue_us` latency
/// histograms, `scenario_start`/`scenario_done`/`scenario_discarded`
/// events flow to the journal in completion order, and every journaled
/// record ticks `instr.progress`. The campaign brackets a
/// `campaign:{name}` trace span; each item runs under its own
/// `scenario` child span whose id is handed to `run` as the parent for
/// simulator-level spans. `label` names a record for progress lines;
/// `group` buckets it for per-policy throughput in `dnnlife perf`.
///
/// # Errors
///
/// The first journal I/O error, or [`std::io::ErrorKind::Interrupted`]
/// when `cancel` was raised before the pending set drained (journaled
/// completions are kept either way — the caller's resume flow picks up
/// the remainder). The interrupted message carries the full
/// cancellation summary: completed / in-flight discarded / never
/// started.
#[allow(clippy::too_many_arguments)]
pub(crate) fn journal_into_store<T, R, RunF>(
    name: &str,
    noun: &str,
    store: &mut crate::store::JsonlStore<R>,
    keys: &[String],
    pending: &[&T],
    budget: usize,
    cancel: Option<&AtomicBool>,
    verbose: bool,
    instr: Instrumentation<'_>,
    label: fn(&R) -> String,
    group: fn(&R) -> String,
    run: RunF,
) -> std::io::Result<usize>
where
    T: Sync,
    R: crate::store::StoreRecord + Send,
    RunF: Fn(&&T, usize, &AtomicBool, SpanId) -> Option<R> + Sync,
{
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
        let epoch = Instant::now();
        let mut journal_error = None;
        execute_shared_pool(
            pending,
            budget,
            cancel,
            |item, index, threads, run_flag| {
                // Queue wait: how long this item sat pending before a
                // worker claimed it. Two clock reads per item — noise
                // next to scenario runtimes (ms to minutes).
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
                match result {
                    Some(record) => {
                        telemetry.add(Counter::ScenariosCompleted, 1);
                        telemetry.add(Counter::QueueWaitNanos, queue_nanos);
                        telemetry.add(Counter::ScenarioWallNanos, wall_nanos);
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
                        telemetry.emit(
                            "scenario_done",
                            &[
                                ("i", (index as u64).to_value()),
                                ("label", label(&record).to_value()),
                                ("group", group(&record).to_value()),
                                ("wall_ms", (wall_nanos as f64 / 1e6).to_value()),
                                ("queue_ms", (queue_nanos as f64 / 1e6).to_value()),
                                ("threads", (threads as u64).to_value()),
                            ],
                        );
                        Some(record)
                    }
                    None => {
                        // Counted even with telemetry off: the stderr
                        // cancellation summary needs it.
                        discarded.fetch_add(1, Ordering::Relaxed);
                        telemetry.add(Counter::ScenariosDiscarded, 1);
                        telemetry.emit(
                            "scenario_discarded",
                            &[
                                ("i", (index as u64).to_value()),
                                ("wall_ms", (wall_nanos as f64 / 1e6).to_value()),
                            ],
                        );
                        None
                    }
                }
            },
            |_, record| {
                let label = label(&record);
                if let Err(e) = store.append(record) {
                    journal_error = Some(e);
                    return false;
                }
                done += 1;
                instr.tick();
                if verbose {
                    eprintln!("  [{done}/{}] {label}", pending.len());
                }
                true
            },
        );
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
    store.finalize(keys)?;
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

/// Runs every scenario of `grid` on a `threads`-sized budget (0 = all
/// cores) without touching disk, returning records in grid order. This
/// is the path report harnesses use when they only need the in-memory
/// fold.
pub fn run_scenarios(grid: &CampaignGrid, threads: usize) -> Vec<ScenarioRecord> {
    let specs: Vec<&dnnlife_core::ExperimentSpec> = grid.scenarios.iter().collect();
    let mut slots: Vec<Option<ScenarioRecord>> = vec![None; specs.len()];
    execute_shared_pool(
        &specs,
        requested_threads(threads),
        None,
        |spec, _index, threads, cancel| {
            let opts = RunOptions {
                threads,
                shards: ShardPolicy::default(),
                cancel: Some(cancel),
                ..RunOptions::default()
            };
            run_experiment_with(spec, &opts).map(|result| {
                ScenarioRecord::annotated((*spec).clone(), result, ShardPolicy::default())
            })
        },
        |index, record| {
            slots[index] = Some(record);
            true
        },
    );
    slots
        .into_iter()
        .map(|slot| slot.expect("execute_shared_pool completes every scenario"))
        .collect()
}

/// Shared worker pool with a two-level thread budget: `budget` threads
/// total, `min(budget, |items|)` of them item workers pulling indices
/// from an atomic counter, the remainder pooled as *spare* simulator
/// threads. A worker starting an item claims a fair share of the spare
/// pool and runs the item on `1 + share` simulator threads (returning
/// the share afterwards), so a wide machine is not wasted on a narrow
/// grid.
///
/// `run` executes one item — `(item, index, threads, cancel)` — on the
/// given thread count under the shared cancellation flag, returning
/// `None` iff the item was cancelled mid-run (a cancelled partial
/// result is discarded, never delivered). The item's index lets
/// instrumented callers join start/done telemetry events without
/// threading state through the result type. The calling thread
/// observes each `(index, result)` completion in completion order;
/// `on_complete` returning `false` — or an external `cancel` token
/// being raised — stops the pool: idle workers stop at their next
/// claim, and in-flight work observes the flag through `run`'s cancel
/// argument (the exact simulator polls it at block granularity, within
/// one inference).
pub(crate) fn execute_shared_pool<T, R, RunF, DoneF>(
    items: &[T],
    budget: usize,
    cancel: Option<&AtomicBool>,
    run: RunF,
    mut on_complete: DoneF,
) where
    T: Sync,
    R: Send,
    RunF: Fn(&T, usize, usize, &AtomicBool) -> Option<R> + Sync,
    DoneF: FnMut(usize, R) -> bool,
{
    let workers = budget.min(items.len()).max(1);
    let spare = AtomicUsize::new(budget.saturating_sub(workers));
    // Two abort sources, never written into the caller's token (a
    // journal error must not masquerade as a Ctrl-C): `on_complete`
    // declining raises the *local* flag; the external token is only
    // read. In-flight work polls `run_flag` — the external token when
    // provided (so Ctrl-C cancels at block granularity), the local
    // flag otherwise (so an in-process abort stays equally prompt);
    // a local abort with an external token present still stops
    // in-flight items at delivery (the dropped receiver fails their
    // send) and idle workers at their next claim.
    let local_abort = AtomicBool::new(false);
    let run_flag: &AtomicBool = cancel.unwrap_or(&local_abort);
    let aborted = || local_abort.load(Ordering::Relaxed) || run_flag.load(Ordering::Relaxed);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, spare, run, aborted) = (&next, &spare, &run, &aborted);
            scope.spawn(move || loop {
                if aborted() {
                    break;
                }
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(slot) else {
                    break;
                };
                let extra = claim_spare(spare, items.len() - slot);
                let result = run(item, slot, 1 + extra, run_flag);
                if extra > 0 {
                    spare.fetch_add(extra, Ordering::AcqRel);
                }
                let Some(result) = result else {
                    break; // cancelled mid-item: discard the partial
                };
                if tx.send((slot, result)).is_err() {
                    break; // receiver gone: abort requested
                }
            });
        }
        drop(tx);
        for (index, result) in rx {
            if !on_complete(index, result) {
                // Raise the local flag *and* drop the receiver: idle
                // workers stop at their next claim, in-flight
                // simulations stop within one inference (or, with an
                // external token present, at delivery).
                local_abort.store(true, Ordering::Relaxed);
                break;
            }
        }
    });
}

/// Claims this worker's share of the spare-thread pool: an even split
/// over the items not yet claimed (`remaining` ≥ 1 counts the one
/// being started), so early claimers don't starve the rest of the
/// grid, and the last item takes everything still pooled.
fn claim_spare(spare: &AtomicUsize, remaining: usize) -> usize {
    let mut take = 0;
    let _ = spare.fetch_update(Ordering::AcqRel, Ordering::Acquire, |pooled| {
        take = pooled.div_ceil(remaining.max(1)).min(pooled);
        Some(pooled - take)
    });
    take
}

/// The requested total thread budget (0 = all available cores).
pub(crate) fn requested_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

pub(crate) fn effective_threads(requested: usize, pending: usize) -> usize {
    requested_threads(requested).min(pending).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnlife_core::experiment::{
        DwellModel, NetworkKind, Platform, PolicySpec, SimulatorBackend,
    };
    use dnnlife_core::ExperimentSpec;

    fn run_pool_of_specs<F>(specs: &[&ExperimentSpec], budget: usize, shards: ShardPolicy, f: F)
    where
        F: FnMut(usize, ScenarioRecord) -> bool,
    {
        execute_shared_pool(
            specs,
            budget,
            None,
            |spec, _index, threads, cancel| {
                let opts = RunOptions {
                    threads,
                    shards,
                    cancel: Some(cancel),
                    ..RunOptions::default()
                };
                run_experiment_with(spec, &opts)
                    .map(|r| ScenarioRecord::annotated((*spec).clone(), r, shards))
            },
            f,
        );
    }

    #[test]
    fn thread_count_clamps_to_pending_work() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(4, 0), 1);
        assert!(effective_threads(0, usize::MAX) >= 1);
    }

    #[test]
    fn spare_claims_split_fairly_and_drain_on_the_tail() {
        let spare = AtomicUsize::new(5);
        assert_eq!(claim_spare(&spare, 3), 2);
        assert_eq!(claim_spare(&spare, 2), 2);
        assert_eq!(claim_spare(&spare, 1), 1, "last scenario takes the rest");
        assert_eq!(claim_spare(&spare, 4), 0, "empty pool claims nothing");
        let spare = AtomicUsize::new(7);
        assert_eq!(claim_spare(&spare, 1), 7, "sole scenario takes everything");
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

    /// The abort-latency contract: after `on_complete` declines, an
    /// in-flight exact scenario is cancelled within one inference (not
    /// after minutes of finishing its whole run), and its partial
    /// result is discarded — `on_complete` never sees it.
    #[test]
    fn abort_cancels_in_flight_scenarios_within_one_inference() {
        // One fast analytic scenario and one exact scenario that would
        // take on the order of minutes uncancelled (tens of thousands
        // of inferences over every word of every FIFO slot).
        let fast = npu_spec(SimulatorBackend::Analytic, 10, 1024);
        let slow = npu_spec(SimulatorBackend::Exact, 50_000, 16);
        let specs: Vec<&ExperimentSpec> = vec![&fast, &slow];

        let started = std::time::Instant::now();
        let mut delivered = 0usize;
        run_pool_of_specs(&specs, 2, ShardPolicy::Auto, |_, _| {
            delivered += 1;
            false // abort after the first completion
        });
        assert_eq!(
            delivered, 1,
            "the cancelled partial result must be discarded, not delivered"
        );
        assert!(
            started.elapsed().as_secs() < 30,
            "abort took {:?} — in-flight work was not cancelled promptly",
            started.elapsed()
        );
    }

    /// An external cancellation token raised mid-run stops the pool the
    /// same way `on_complete` declining does.
    #[test]
    fn external_cancel_token_aborts_the_pool() {
        let fast = npu_spec(SimulatorBackend::Analytic, 10, 1024);
        let slow = npu_spec(SimulatorBackend::Exact, 50_000, 16);
        let specs: Vec<&ExperimentSpec> = vec![&fast, &slow];
        let cancel = AtomicBool::new(false);

        let started = std::time::Instant::now();
        let mut delivered = 0usize;
        execute_shared_pool(
            &specs,
            2,
            Some(&cancel),
            |spec, _index, threads, cancel| {
                let opts = RunOptions {
                    threads,
                    shards: ShardPolicy::Auto,
                    cancel: Some(cancel),
                    ..RunOptions::default()
                };
                run_experiment_with(spec, &opts).map(|r| ScenarioRecord::new((*spec).clone(), r))
            },
            |_, _| {
                delivered += 1;
                // Simulate Ctrl-C arriving while the slow scenario is
                // in flight.
                cancel.store(true, Ordering::Relaxed);
                true // the callback itself keeps accepting
            },
        );
        assert_eq!(delivered, 1, "the cancelled scenario must not deliver");
        assert!(
            started.elapsed().as_secs() < 30,
            "external cancel took {:?}",
            started.elapsed()
        );
    }

    /// Budgets wider than the grid hand their leftover threads to the
    /// running scenarios instead of idling them — and results are the
    /// same as a single-threaded pool.
    #[test]
    fn wide_budget_on_narrow_grid_matches_single_thread_results() {
        let a = npu_spec(SimulatorBackend::Exact, 8, 256);
        let mut b = a.clone();
        b.seed = 4;
        let specs: Vec<&ExperimentSpec> = vec![&a, &b];
        let run = |budget: usize| {
            let mut out: Vec<Option<ScenarioRecord>> = vec![None; specs.len()];
            run_pool_of_specs(&specs, budget, ShardPolicy::Fixed(4), |i, r| {
                out[i] = Some(r);
                true
            });
            out
        };
        assert_eq!(
            run(1),
            run(8),
            "spare simulator threads must never be semantic"
        );
    }
}
