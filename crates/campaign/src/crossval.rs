//! Matched analytic↔exact cross-validation over a campaign grid.
//!
//! For every scenario, [`dnnlife_core::cross_validate_with`] runs the
//! closed-form analytic simulator (uniform dwell — paper assumption
//! (b)) and the event-driven exact simulator (the scenario's dwell
//! model) on the same memory plan with the same derived seed, and
//! reports per-cell duty divergence. Under uniform dwell this is a
//! correctness check of the closed forms; under a non-uniform dwell
//! model the divergence quantifies how much assumption (b) distorts
//! that scenario. This module fans the pairs out across the shared
//! campaign worker pool, keeping results in scenario order.
//!
//! The fan-out honours the campaign cancellation token: a raised token
//! (the CLI's Ctrl-C handler) aborts in-flight pairs *mid-scenario* —
//! the exact side polls the flag at block granularity — instead of
//! letting a minutes-long pair run to completion first.

use std::sync::atomic::Ordering;

use dnnlife_core::{cross_validate_with, CrossValidation, ExperimentSpec, RunOptions};

use crate::executor::{execute_shared_pool, requested_threads, CampaignOptions};

/// Runs [`dnnlife_core::cross_validate_with`] for every scenario,
/// returning results in scenario order. The knobs are the campaign
/// executor's: `options.threads` workers (0 = all cores), the
/// `options.shards` exact-backend shard policy (the documented
/// tolerances hold for every shard count, so the nightly tier runs
/// `--shards 4` to keep the sharded exact path under the same contract
/// as the serial one), the `options.cancel` token and the
/// `options.instr` observability sink (the analytic/exact simulator
/// counters of every pair accumulate into `instr.telemetry`, each
/// finished pair ticks `instr.progress`; never semantic). `resume` has
/// no store to act on here, and `verbose` prints nothing.
///
/// Returns `None` iff `options.cancel` was raised before every pair
/// finished. Completed pairs are discarded in that case — a
/// cross-validation report is only meaningful over the whole grid.
pub fn validate_scenarios(
    scenarios: &[ExperimentSpec],
    options: &CampaignOptions,
) -> Option<Vec<CrossValidation>> {
    let (shards, cancel, instr) = (options.shards, options.cancel, options.instr);
    let budget = requested_threads(options.threads);
    if let Some(progress) = instr.progress {
        progress.set_total(scenarios.len());
    }
    let mut slots: Vec<Option<CrossValidation>> = vec![None; scenarios.len()];
    execute_shared_pool(
        scenarios,
        budget,
        cancel,
        // Each pair runs single-threaded internally (matched pairs are
        // plentiful on real grids); the pool-level fan-out is the
        // parallelism. The shared flag still reaches the exact
        // simulator through `cross_validate_with`'s cancel option.
        |spec, _index, _threads, cancel| {
            let opts = RunOptions {
                threads: 1,
                shards,
                cancel: Some(cancel),
                telemetry: instr.telemetry,
                ..RunOptions::default()
            };
            cross_validate_with(spec, &opts)
        },
        |index, cv| {
            slots[index] = Some(cv);
            instr.tick();
            true
        },
    );
    if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
        return None;
    }
    Some(
        slots
            .into_iter()
            .map(|slot| slot.expect("every scenario validated"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{CampaignGrid, SweepOptions};
    use dnnlife_core::SimulatorBackend;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn validate_preserves_scenario_order_and_tolerances() {
        let grid = CampaignGrid::fig11(SweepOptions {
            sample_stride: 1024,
            inferences: 8,
            backend: SimulatorBackend::Exact,
            ..SweepOptions::default()
        });
        let subset: Vec<_> = grid.scenarios.into_iter().take(4).collect();
        let options = CampaignOptions {
            threads: 2,
            ..CampaignOptions::default()
        };
        let results = validate_scenarios(&subset, &options).expect("no cancel token");
        assert_eq!(results.len(), subset.len());
        for (spec, cv) in subset.iter().zip(&results) {
            assert!(cv.label.contains(spec.network.display_name()));
            assert!(cv.within_tolerance(), "{}: {cv:?}", cv.label);
        }
    }

    #[test]
    fn pre_raised_cancel_aborts_validation_promptly() {
        // Scenario pairs whose exact side would run for minutes; a
        // pre-raised token must return None near-instantly.
        let grid = CampaignGrid::fig11(SweepOptions {
            sample_stride: 4,
            inferences: 50_000,
            backend: SimulatorBackend::Exact,
            ..SweepOptions::default()
        });
        let flag = AtomicBool::new(true);
        let started = std::time::Instant::now();
        let options = CampaignOptions {
            threads: 2,
            cancel: Some(&flag),
            ..CampaignOptions::default()
        };
        let result = validate_scenarios(&grid.scenarios, &options);
        assert!(result.is_none());
        assert!(
            started.elapsed().as_secs() < 30,
            "cancelled validation took {:?}",
            started.elapsed()
        );
    }
}
