//! Analytic↔exact cross-validation at the campaign layer — the
//! contract that makes the exact backend a drop-in scenario axis:
//!
//! * under the uniform dwell model the two simulators agree within the
//!   documented tolerances for **every mitigation policy × number
//!   format combination** in the grid (exactly for deterministic
//!   policies, statistically for DNN-Life);
//! * store content hashes change **iff** the backend/dwell axes
//!   change, while scenario *coordinates* (and hence derived seeds and
//!   `compare` matching) normalise the backend away;
//! * an exact-backend sweep journals and resumes like any other.

use dnnlife_campaign::grid::{CampaignGrid, GridAxes, SweepOptions};
use dnnlife_campaign::{run_campaign, validate_scenarios, CampaignOptions, ResultStore};
use dnnlife_core::experiment::{
    fig11_policies, fig9_policies, NetworkKind, Platform, PolicySpec, RunOptions,
    CROSSVAL_STOCHASTIC_MEAN_TOL,
};
use dnnlife_core::{
    cross_validate_with, run_experiment_with, CrossValidation, DwellModel, ExperimentSpec,
    ShardPolicy, SimulatorBackend,
};
use dnnlife_quant::NumberFormat;

mod util;

/// Cross-validates every scenario on all cores under `shards`.
fn validate(scenarios: &[ExperimentSpec], shards: ShardPolicy) -> Vec<CrossValidation> {
    let options = CampaignOptions {
        shards,
        ..CampaignOptions::default()
    };
    validate_scenarios(scenarios, &options).expect("no cancel token")
}

/// Documented mean-SNM agreement tolerance (percentage points) between
/// the finished analytic and exact aggregation tables for the
/// stochastic DNN-Life policy; deterministic policies must match to
/// floating-point noise. Mirrors the README's "documented tolerance".
const TABLE_SNM_TOL_PP: f64 = 0.25;
const TABLE_SNM_DETERMINISTIC_TOL_PP: f64 = 1e-9;

fn run_options(base_seed: u64, backend: SimulatorBackend) -> SweepOptions {
    SweepOptions {
        base_seed,
        sample_stride: 256,
        inferences: 20,
        backend,
        ..SweepOptions::default()
    }
}

/// Every policy × format combination the paper's grids span, on memory
/// units small enough for the event-driven simulator in debug CI: the
/// custom network on the baseline accelerator (all three formats ×
/// the six Fig. 9 policies) and on the NPU (the four Fig. 11
/// policies).
fn crossval_axes(backend: SimulatorBackend, base_seed: u64) -> (GridAxes, GridAxes) {
    let baseline = GridAxes {
        platforms: vec![Platform::Baseline],
        networks: vec![NetworkKind::CustomMnist],
        formats: NumberFormat::all().to_vec(),
        policies: fig9_policies(),
        lifetimes_years: vec![7.0],
        backends: vec![backend],
        dwells: vec![DwellModel::Uniform],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: run_options(base_seed, backend),
    };
    let npu = GridAxes {
        platforms: vec![Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
        policies: fig11_policies(),
        lifetimes_years: vec![7.0],
        backends: vec![backend],
        dwells: vec![DwellModel::Uniform],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: run_options(base_seed, backend),
    };
    (baseline, npu)
}

fn sweep_to_store(grid: &CampaignGrid, dir: &std::path::Path, name: &str) -> ResultStore {
    let path = dir.join(format!("{name}.jsonl"));
    run_campaign(grid, &path, &CampaignOptions::default()).expect("campaign run");
    ResultStore::open(&path).expect("reopen store")
}

/// The acceptance contract: an exact-backend sweep's aggregation
/// numbers match the analytic backend's within the documented
/// tolerance for every policy × format cell, matched on
/// backend-normalised coordinates.
#[test]
fn exact_store_tables_match_analytic_within_tolerance() {
    let dir = util::scratch_dir("crossval-tables");
    for (which, analytic_axes, exact_axes) in [
        (
            "baseline",
            crossval_axes(SimulatorBackend::Analytic, 7).0,
            { crossval_axes(SimulatorBackend::Exact, 7).0 },
        ),
        ("npu", crossval_axes(SimulatorBackend::Analytic, 7).1, {
            crossval_axes(SimulatorBackend::Exact, 7).1
        }),
    ] {
        let analytic_grid = analytic_axes.build(format!("crossval-{which}-analytic"));
        let exact_grid = exact_axes.build(format!("crossval-{which}-exact"));
        assert_eq!(analytic_grid.len(), exact_grid.len());
        let analytic = sweep_to_store(&analytic_grid, &dir, &format!("{which}-analytic"));
        let exact = sweep_to_store(&exact_grid, &dir, &format!("{which}-exact"));

        let mut matched = 0usize;
        for a in analytic.records() {
            let twin = exact
                .records()
                .find(|e| e.spec.coordinate_key() == a.spec.coordinate_key())
                .unwrap_or_else(|| panic!("no exact twin for {}", a.result.label));
            assert_eq!(a.spec.seed, twin.spec.seed, "matched pairs share seeds");
            let delta = (twin.result.snm.mean() - a.result.snm.mean()).abs();
            let tol = if matches!(a.spec.policy, PolicySpec::DnnLife { .. }) {
                TABLE_SNM_TOL_PP
            } else {
                TABLE_SNM_DETERMINISTIC_TOL_PP
            };
            assert!(
                delta < tol,
                "{}: mean SNM differs by {delta:.4} pp (tol {tol})",
                a.result.label
            );
            assert_eq!(a.result.cells, twin.result.cells);
            matched += 1;
        }
        assert_eq!(matched, analytic_grid.len());
    }
}

/// Per-cell cross-validation over every policy × format combination:
/// deterministic policies agree cell-for-cell, DNN-Life agrees on the
/// mean within the documented tolerance.
#[test]
fn per_cell_duties_agree_for_every_policy_and_format() {
    let (baseline, npu) = crossval_axes(SimulatorBackend::Exact, 11);
    let mut scenarios: Vec<ExperimentSpec> = baseline.build("cv-baseline").scenarios;
    scenarios.extend(npu.build("cv-npu").scenarios);
    assert_eq!(scenarios.len(), 3 * 6 + 4);

    let results = validate(&scenarios, ShardPolicy::Auto);
    for cv in &results {
        assert!(cv.uniform_dwell);
        assert!(
            cv.within_tolerance(),
            "{}: max|Δ|={:.3e}, mean(a)={:.4}, mean(e)={:.4}",
            cv.label,
            cv.max_abs_duty,
            cv.mean_duty_analytic,
            cv.mean_duty_exact
        );
        if cv.stochastic {
            assert!(
                (cv.mean_duty_exact - cv.mean_duty_analytic).abs() < CROSSVAL_STOCHASTIC_MEAN_TOL
            );
        } else {
            assert!(
                cv.max_abs_duty < 1e-12,
                "{}: closed forms are exact, got {:.3e}",
                cv.label,
                cv.max_abs_duty
            );
        }
    }
}

/// Non-uniform dwell models produce a *measured* divergence from the
/// uniform closed forms — the assumption-(b) gap the validate
/// subcommand reports — and different dwell models are distinct
/// scenarios.
#[test]
fn nonuniform_dwell_reports_assumption_b_gap() {
    let mut spec = ExperimentSpec::fig11(NetworkKind::CustomMnist, PolicySpec::None, 3);
    spec.sample_stride = 256;
    spec.inferences = 10;
    spec.backend = SimulatorBackend::Exact;
    for dwell in [
        DwellModel::LayerProportional,
        DwellModel::Zipf { exponent: 1.0 },
        DwellModel::Custom {
            factors: vec![8.0, 4.0, 1.0, 1.0],
        },
    ] {
        spec.dwell = dwell.clone();
        let cv = cross_validate_with(&spec, &RunOptions::default()).expect("no cancel token");
        assert!(!cv.uniform_dwell);
        assert!(
            cv.max_abs_duty > 1e-3,
            "{}: dwell model {} produced no divergence",
            cv.label,
            dwell.display_name()
        );
    }
}

/// Store content hashes (and therefore store keys) change iff the
/// backend or dwell axis changes; coordinates and derived seeds ignore
/// the backend but track the dwell model.
#[test]
fn store_keys_change_iff_backend_or_dwell_changes() {
    let base_options = run_options(21, SimulatorBackend::Analytic);
    let analytic = CampaignGrid::fig11(base_options.clone());
    let analytic_again = CampaignGrid::fig11(base_options);
    let exact = CampaignGrid::fig11(run_options(21, SimulatorBackend::Exact));
    let zipf = CampaignGrid::fig11(SweepOptions {
        dwell: DwellModel::Zipf { exponent: 1.0 },
        ..run_options(21, SimulatorBackend::Exact)
    });

    // Same axes → same keys (hash is a pure function of the spec).
    assert_eq!(analytic.keys(), analytic_again.keys());
    // Backend axis changes every key, but not the coordinates/seeds.
    for (a, e) in analytic.scenarios.iter().zip(&exact.scenarios) {
        assert_ne!(a.content_key(), e.content_key());
        assert_eq!(a.coordinate_key(), e.coordinate_key());
        assert_eq!(a.seed, e.seed);
    }
    // Dwell axis changes keys *and* coordinates (it is physical).
    for (e, z) in exact.scenarios.iter().zip(&zipf.scenarios) {
        assert_ne!(e.content_key(), z.content_key());
        assert_ne!(e.coordinate_key(), z.coordinate_key());
    }
}

/// A mixed-backend store holds analytic/exact twins at the *same*
/// coordinate; `compare` must pair each record with its same-backend
/// counterpart instead of collapsing the twins (regression test for
/// the coordinate-normalisation change).
#[test]
fn compare_pairs_backend_twins_in_mixed_stores() {
    let dir = util::scratch_dir("crossval-compare-mixed");
    let mixed_axes = GridAxes {
        platforms: vec![Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
        policies: vec![
            PolicySpec::None,
            PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits: 4,
            },
        ],
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Analytic, SimulatorBackend::Exact],
        dwells: vec![DwellModel::Uniform],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: run_options(13, SimulatorBackend::Analytic),
    };
    let grid = mixed_axes.build("mixed");
    assert_eq!(grid.len(), 4, "2 policies × 2 backends");
    let store = sweep_to_store(&grid, &dir, "mixed");

    // Self-comparison: every record must pair with *itself* (delta
    // +0.000), including the stochastic DNN-Life rows whose analytic
    // and exact twins hold different numbers.
    let report = dnnlife_campaign::aggregate::compare_stores(&store, &store);
    assert!(
        report.contains("shared=4 only-in-A=0 only-in-B=0"),
        "twin collapse: {report}"
    );
    for line in report.lines().filter(|l| l.contains(" pp")) {
        assert!(
            line.contains("+0.000 pp") || line.contains("-0.000 pp"),
            "self-comparison row must be zero: {line}"
        );
    }
    // The exact rows keep their qualifier, so both twins are visible.
    assert_eq!(report.matches("[exact]").count(), 2, "{report}");

    // Asymmetric case: mixed store vs an exact-only store. The exact
    // twins must claim the exact records (same backend wins regardless
    // of iteration order); the analytic twins are then unmatched —
    // never silently paired cross-backend while a same-backend match
    // existed.
    let exact_grid = GridAxes {
        backends: vec![SimulatorBackend::Exact],
        ..mixed_axes
    }
    .build("exact-only");
    let exact_store = sweep_to_store(&exact_grid, &dir, "exact-only");
    let report = dnnlife_campaign::aggregate::compare_stores(&store, &exact_store);
    assert!(
        report.contains("shared=2 only-in-A=2 only-in-B=0"),
        "cross-backend fallback stole a same-backend match: {report}"
    );
    for line in report.lines().filter(|l| l.contains(" pp")) {
        assert!(
            line.contains("[exact]") && (line.contains("+0.000") || line.contains("-0.000")),
            "only exact-exact self-pairs may match here: {line}"
        );
    }
}

/// An exact-backend sweep journals per scenario and resumes to the
/// same bytes as a clean run — the resumable-store contract holds on
/// the new axis.
#[test]
fn exact_sweep_is_resumable() {
    let dir = util::scratch_dir("crossval-resume");
    let (_, npu) = crossval_axes(SimulatorBackend::Exact, 31);
    let grid = npu.build("exact-resume");

    let clean_path = dir.join("clean.jsonl");
    run_campaign(&grid, &clean_path, &CampaignOptions::default()).expect("clean run");
    let clean = std::fs::read_to_string(&clean_path).expect("read clean store");

    let keep = 2usize;
    let partial: String = clean.lines().take(keep).map(|l| format!("{l}\n")).collect();
    let resumed_path = dir.join("resumed.jsonl");
    std::fs::write(&resumed_path, partial).expect("write partial store");
    let outcome = run_campaign(
        &grid,
        &resumed_path,
        &CampaignOptions {
            threads: 2,
            resume: true,
            verbose: false,
            ..CampaignOptions::default()
        },
    )
    .expect("resumed run");
    assert_eq!(outcome.skipped, keep);
    assert_eq!(outcome.executed, grid.len() - keep);
    let resumed = std::fs::read_to_string(&resumed_path).expect("read resumed store");
    assert_eq!(resumed, clean, "resumed exact store differs from clean run");
}

/// Resuming an exact sweep under a different `--shards` value must
/// not mix two TRBG stream-deals in one store: shard-sensitive
/// DNN-Life records journaled under the old policy are re-run, the
/// shard-insensitive rest are skipped, and the finalized store is
/// byte-identical to a clean run at the new policy.
#[test]
fn resume_with_different_shards_reruns_dnn_life_records() {
    let dir = util::scratch_dir("crossval-shards-resume");
    let (_, npu) = crossval_axes(SimulatorBackend::Exact, 37);
    let grid = npu.build("shards-resume");
    let dnn_life = grid
        .scenarios
        .iter()
        .filter(|s| matches!(s.policy, PolicySpec::DnnLife { .. }))
        .count();
    assert!(dnn_life >= 1, "grid must hold a shard-sensitive scenario");

    let sweep = |path: &std::path::Path, shards: ShardPolicy, resume: bool| {
        run_campaign(
            &grid,
            path,
            &CampaignOptions {
                resume,
                shards,
                ..CampaignOptions::default()
            },
        )
        .expect("campaign run")
    };
    let clean2 = dir.join("clean-shards2.jsonl");
    sweep(&clean2, ShardPolicy::Fixed(2), false);

    let mixed = dir.join("mixed.jsonl");
    sweep(&mixed, ShardPolicy::Fixed(8), false);
    let outcome = sweep(&mixed, ShardPolicy::Fixed(2), true);
    assert_eq!(
        outcome.executed, dnn_life,
        "exactly the shard-sensitive records must re-run"
    );
    assert_eq!(outcome.skipped, grid.len() - dnn_life);
    assert_eq!(
        std::fs::read(&mixed).expect("read resumed store"),
        std::fs::read(&clean2).expect("read clean store"),
        "resumed store must match a clean run at the new shard policy"
    );

    // Same policy resumed: nothing re-runs.
    let again = sweep(&mixed, ShardPolicy::Fixed(2), true);
    assert_eq!(again.executed, 0);
}

/// Sharded DNN-Life stays inside the cross-validation contract: for
/// every shard count, the mean duty of a word-sharded exact run agrees
/// with the unsharded run within the documented stochastic tolerance
/// (each shard's seed-derived TRBG stream is identically distributed),
/// while the per-cell draws genuinely change — sharding is a stream
/// re-deal, not a no-op.
#[test]
fn sharded_dnn_life_agrees_with_unsharded_within_tolerance() {
    let mut spec = ExperimentSpec::fig11(
        NetworkKind::CustomMnist,
        PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: true,
            m_bits: 4,
        },
        9,
    );
    spec.backend = SimulatorBackend::Exact;
    spec.sample_stride = 64;
    spec.inferences = 20;

    let run = |shards: ShardPolicy| {
        run_experiment_with(
            &spec,
            &RunOptions {
                threads: 1,
                shards,
                cancel: None,
                ..RunOptions::default()
            },
        )
        .expect("not cancelled")
    };
    let unsharded = run(ShardPolicy::Fixed(1));
    for shards in [2usize, 4, 8] {
        let sharded = run(ShardPolicy::Fixed(shards));
        assert_eq!(sharded.cells, unsharded.cells);
        assert_ne!(
            sharded.duty, unsharded.duty,
            "{shards} shards must re-deal the TRBG streams"
        );
        let delta = (sharded.duty.mean() - unsharded.duty.mean()).abs();
        assert!(
            delta < CROSSVAL_STOCHASTIC_MEAN_TOL,
            "{shards} shards: mean duty moved by {delta:.4}"
        );
    }
}

/// The analytic↔exact contract holds when the exact side runs
/// word-sharded: every policy × format cell of the fast-tier grids
/// cross-validates at `--shards 3` within the same tolerances as the
/// serial exact simulator.
#[test]
fn per_cell_duties_agree_under_sharded_exact_backend() {
    let (_, npu) = crossval_axes(SimulatorBackend::Exact, 11);
    let scenarios = npu.build("cv-npu-sharded").scenarios;
    let results = validate(&scenarios, ShardPolicy::Fixed(3));
    for cv in &results {
        assert!(
            cv.within_tolerance(),
            "{}: max|Δ|={:.3e}, mean(a)={:.4}, mean(e)={:.4}",
            cv.label,
            cv.max_abs_duty,
            cv.mean_duty_analytic,
            cv.mean_duty_exact
        );
        if !cv.stochastic {
            assert!(cv.max_abs_duty < 1e-12, "{}", cv.label);
        }
    }
}

/// Slow tier (`cargo test -- --ignored`): the full cross-validation at
/// a finer stride and more inferences, plus the AlexNet baseline
/// memory (117 fills) through the exact simulator — the configuration
/// the fast tier is too small to exercise.
#[test]
#[ignore = "slow cross-validation tier: run with `cargo test -- --ignored` (CI nightly job)"]
fn slow_crossval_finer_stride_and_alexnet_baseline() {
    let (mut baseline, mut npu) = crossval_axes(SimulatorBackend::Exact, 47);
    baseline.options.sample_stride = 64;
    baseline.options.inferences = 40;
    npu.options.sample_stride = 64;
    npu.options.inferences = 40;
    let mut scenarios = baseline.build("slow-baseline").scenarios;
    scenarios.extend(npu.build("slow-npu").scenarios);

    // AlexNet on the 512 KB baseline: K = 117 fills per inference.
    let mut alex = ExperimentSpec::fig9(NumberFormat::Int8Symmetric, PolicySpec::Inversion, 5);
    alex.sample_stride = 4096;
    alex.inferences = 10;
    alex.backend = SimulatorBackend::Exact;
    scenarios.push(alex);

    let results = validate(&scenarios, ShardPolicy::Auto);
    for cv in &results {
        assert!(
            cv.within_tolerance(),
            "{}: max|Δ|={:.3e}, mean(a)={:.4}, mean(e)={:.4}",
            cv.label,
            cv.max_abs_duty,
            cv.mean_duty_analytic,
            cv.mean_duty_exact
        );
    }
}

/// Slow tier (`cargo test -- --ignored`, CI nightly): the same
/// cross-validation suite with the exact side split across four word
/// shards — the sharded simulator must satisfy the documented
/// tolerances at finer strides too, including on the AlexNet-scale
/// baseline memory where the shards are thousands of words wide.
#[test]
#[ignore = "slow cross-validation tier: run with `cargo test -- --ignored` (CI nightly job)"]
fn slow_crossval_with_four_shards() {
    let (mut baseline, mut npu) = crossval_axes(SimulatorBackend::Exact, 53);
    baseline.options.sample_stride = 64;
    baseline.options.inferences = 40;
    npu.options.sample_stride = 64;
    npu.options.inferences = 40;
    let mut scenarios = baseline.build("slow-baseline-4s").scenarios;
    scenarios.extend(npu.build("slow-npu-4s").scenarios);

    let mut alex = ExperimentSpec::fig9(NumberFormat::Int8Symmetric, PolicySpec::Inversion, 5);
    alex.sample_stride = 4096;
    alex.inferences = 10;
    alex.backend = SimulatorBackend::Exact;
    scenarios.push(alex);

    let results = validate(&scenarios, ShardPolicy::Fixed(4));
    for cv in &results {
        assert!(
            cv.within_tolerance(),
            "{} [4 shards]: max|Δ|={:.3e}, mean(a)={:.4}, mean(e)={:.4}",
            cv.label,
            cv.max_abs_duty,
            cv.mean_duty_analytic,
            cv.mean_duty_exact
        );
    }
}
