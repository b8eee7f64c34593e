//! Cross-validation: the analytic simulator must agree with the
//! event-driven reference — exactly for deterministic policies,
//! statistically for DNN-Life.

use dnnlife_accel::{
    simulate_analytic, simulate_exact_sharded, AcceleratorConfig, AnalyticPolicy,
    AnalyticSimConfig, BlockSource, ExactShardConfig, FifoSlotMemory, FlatWeightMemory,
};
use dnnlife_mitigation::{
    AgingController, BarrelShifter, DnnLife, Passthrough, PeriodicInversion, PseudoTrbg,
    WriteTransducer,
};
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::NumberFormat;

fn tiny_flat(format: NumberFormat) -> FlatWeightMemory {
    let mut cfg = AcceleratorConfig::baseline();
    cfg.weight_memory_bytes = 2048;
    FlatWeightMemory::new(&cfg, &NetworkSpec::custom_mnist(), format, 11)
}

/// The event-driven reference: every word, one shard (the serial TRBG
/// stream of `policy`).
fn run_exact(mem: &dyn BlockSource, policy: &dyn WriteTransducer, inferences: u64) -> Vec<f64> {
    simulate_exact_sharded(mem, policy, inferences, 1, &ExactShardConfig::default())
        .expect("not cancelled")
}

fn analytic_cfg(inferences: u64) -> AnalyticSimConfig {
    AnalyticSimConfig {
        inferences,
        sample_stride: 1,
        threads: 2,
        shards: 0,
    }
}

#[test]
fn passthrough_matches_exactly() {
    let mem = tiny_flat(NumberFormat::Int8Symmetric);
    let transducer = Passthrough::new(8);
    let exact = run_exact(&mem, &transducer, 4);
    let analytic = simulate_analytic(&mem, &AnalyticPolicy::Passthrough, &analytic_cfg(4));
    assert_eq!(exact.len(), analytic.len());
    for (i, (e, a)) in exact.iter().zip(&analytic).enumerate() {
        assert!((e - a).abs() < 1e-12, "cell {i}: exact {e}, analytic {a}");
    }
}

#[test]
fn inversion_matches_exactly() {
    let mem = tiny_flat(NumberFormat::Int8Symmetric);
    let transducer = PeriodicInversion::new(8, mem.geometry().words);
    let exact = run_exact(&mem, &transducer, 5);
    let analytic = simulate_analytic(&mem, &AnalyticPolicy::PeriodicInversion, &analytic_cfg(5));
    for (i, (e, a)) in exact.iter().zip(&analytic).enumerate() {
        assert!((e - a).abs() < 1e-12, "cell {i}: exact {e}, analytic {a}");
    }
}

#[test]
fn barrel_matches_exactly() {
    let mem = tiny_flat(NumberFormat::Int8Symmetric);
    let transducer = BarrelShifter::new(8, mem.geometry().words);
    let exact = run_exact(&mem, &transducer, 5);
    let analytic = simulate_analytic(&mem, &AnalyticPolicy::BarrelShifter, &analytic_cfg(5));
    for (i, (e, a)) in exact.iter().zip(&analytic).enumerate() {
        assert!((e - a).abs() < 1e-12, "cell {i}: exact {e}, analytic {a}");
    }
}

#[test]
fn barrel_matches_exactly_fp32() {
    // 32-bit words exercise the gcd/lcm arithmetic differently.
    let mem = tiny_flat(NumberFormat::Fp32);
    let transducer = BarrelShifter::new(32, mem.geometry().words);
    let exact = run_exact(&mem, &transducer, 3);
    let analytic = simulate_analytic(&mem, &AnalyticPolicy::BarrelShifter, &analytic_cfg(3));
    for (i, (e, a)) in exact.iter().zip(&analytic).enumerate() {
        assert!((e - a).abs() < 1e-12, "cell {i}: exact {e}, analytic {a}");
    }
}

#[test]
fn npu_slots_match_exactly_for_inversion() {
    for slot in
        FifoSlotMemory::all_slots(&NetworkSpec::custom_mnist(), NumberFormat::Int8Symmetric, 3)
    {
        if slot.block_count() == 0 {
            continue;
        }
        let transducer = PeriodicInversion::new(8, slot.geometry().words);
        let exact = run_exact(&slot, &transducer, 4);
        let analytic =
            simulate_analytic(&slot, &AnalyticPolicy::PeriodicInversion, &analytic_cfg(4));
        for (i, (e, a)) in exact.iter().zip(&analytic).enumerate() {
            assert!((e - a).abs() < 1e-12, "cell {i}: exact {e}, analytic {a}");
        }
    }
}

/// Mean and deviation statistics agree between the exact simulator
/// (with a real TRBG) and the analytic binomial collapse.
#[test]
fn dnn_life_matches_statistically() {
    let mem = tiny_flat(NumberFormat::Int8Symmetric);
    let inferences = 20u64;

    let controller = AgingController::new(PseudoTrbg::new(5, 0.7), 4);
    let transducer = DnnLife::new(8, controller);
    let exact = run_exact(&mem, &transducer, inferences);

    let policy = AnalyticPolicy::DnnLife {
        bias: 0.7,
        bias_balancing: Some(4),
        seed: 5,
    };
    let analytic = simulate_analytic(&mem, &policy, &analytic_cfg(inferences));

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let dev = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
    };
    let (me, ma) = (mean(&exact), mean(&analytic));
    let (de, da) = (dev(&exact), dev(&analytic));
    assert!(
        (me - ma).abs() < 0.01,
        "mean duty mismatch: exact {me}, analytic {ma}"
    );
    assert!(
        (de - da).abs() < 0.02,
        "duty deviation mismatch: exact {de}, analytic {da}"
    );
    // Both should hover near the balanced point despite the 0.7 bias.
    assert!((me - 0.5).abs() < 0.02);
}

/// Without bias balancing a 0.7-biased TRBG pushes duties off 0.5 in
/// both simulators consistently.
#[test]
fn dnn_life_bias_unbalanced_consistency() {
    let mem = tiny_flat(NumberFormat::Int8Symmetric);
    let inferences = 20u64;

    let controller = AgingController::without_balancing(PseudoTrbg::new(6, 0.7));
    let transducer = DnnLife::new(8, controller);
    let exact = run_exact(&mem, &transducer, inferences);

    let policy = AnalyticPolicy::DnnLife {
        bias: 0.7,
        bias_balancing: None,
        seed: 6,
    };
    let analytic = simulate_analytic(&mem, &policy, &analytic_cfg(inferences));

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let dev = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
    };
    let (me, ma) = (mean(&exact), mean(&analytic));
    assert!((me - ma).abs() < 0.01, "exact {me} vs analytic {ma}");

    // The biased-no-balancing failure mode: duty = bias − (2·bias − 1)·b̄,
    // so per-cell block-bit means spread into a wider duty distribution
    // than the balanced case (where duty concentrates at 0.5 regardless
    // of the data).
    let balanced = simulate_analytic(
        &mem,
        &AnalyticPolicy::DnnLife {
            bias: 0.5,
            bias_balancing: Some(4),
            seed: 6,
        },
        &analytic_cfg(inferences),
    );
    let (du, db) = (dev(&analytic), dev(&balanced));
    assert!(
        du > 1.2 * db,
        "unbalanced spread {du} should exceed balanced spread {db}"
    );
}

/// Sampling a strided subset leaves per-cell values identical to the
/// full run (same cells, same seeds).
#[test]
fn stride_sampling_is_consistent() {
    let mem = tiny_flat(NumberFormat::Int8Symmetric);
    let full = simulate_analytic(&mem, &AnalyticPolicy::Passthrough, &analytic_cfg(4));
    let strided = simulate_analytic(
        &mem,
        &AnalyticPolicy::Passthrough,
        &AnalyticSimConfig {
            inferences: 4,
            sample_stride: 4,
            threads: 1,
            shards: 0,
        },
    );
    let width = 8usize;
    for (si, chunk) in strided.chunks(width).enumerate() {
        let word = si * 4;
        assert_eq!(chunk, &full[word * width..(word + 1) * width]);
    }
}

/// Thread count must not change results.
#[test]
fn thread_count_invariance() {
    let mem = tiny_flat(NumberFormat::Int8Symmetric);
    let policy = AnalyticPolicy::DnnLife {
        bias: 0.5,
        bias_balancing: Some(4),
        seed: 42,
    };
    let one = simulate_analytic(
        &mem,
        &policy,
        &AnalyticSimConfig {
            inferences: 10,
            sample_stride: 1,
            threads: 1,
            shards: 0,
        },
    );
    let many = simulate_analytic(
        &mem,
        &policy,
        &AnalyticSimConfig {
            inferences: 10,
            sample_stride: 1,
            threads: 7,
            shards: 0,
        },
    );
    assert_eq!(one, many);
}

/// Residency ablation (§III-C): compute-weighted dwell changes the
/// unmitigated duty distribution, but DNN-Life's balanced 0.5 duty is
/// residency-invariant — randomised inversion balances *time*, not
/// writes, as long as inversion is equally likely on every write.
#[test]
fn compute_weighted_residency_ablation() {
    let spec = NetworkSpec::custom_mnist();
    let mut cfg = AcceleratorConfig::baseline();
    cfg.weight_memory_bytes = 2048;
    let equal = FlatWeightMemory::new(&cfg, &spec, NumberFormat::Int8Symmetric, 11);
    let weighted = FlatWeightMemory::new(&cfg, &spec, NumberFormat::Int8Symmetric, 11)
        .with_compute_weighted_residency(&spec);

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    // Unmitigated: the weighted run emphasises conv-layer fills, so the
    // duty distribution shifts measurably.
    let equal_duties = run_exact(&equal, &Passthrough::new(8), 2);
    let weighted_duties = run_exact(&weighted, &Passthrough::new(8), 2);
    let shift: f64 = equal_duties
        .iter()
        .zip(&weighted_duties)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / equal_duties.len() as f64;
    assert!(shift > 0.01, "residency weighting had no effect: {shift}");

    // DNN-Life: balanced at 0.5 under both residency models.
    let controller = AgingController::new(PseudoTrbg::new(5, 0.5), 4);
    let wde = DnnLife::new(8, controller);
    let mitigated = run_exact(&weighted, &wde, 30);
    let m = mean(&mitigated);
    assert!(
        (m - 0.5).abs() < 0.01,
        "DNN-Life mean duty {m} under weighted residency"
    );
}

/// The analytic simulator refuses non-uniform dwell instead of silently
/// ignoring it.
#[test]
fn analytic_rejects_weighted_residency() {
    let spec = NetworkSpec::custom_mnist();
    let mut cfg = AcceleratorConfig::baseline();
    cfg.weight_memory_bytes = 2048;
    let weighted = FlatWeightMemory::new(&cfg, &spec, NumberFormat::Int8Symmetric, 11)
        .with_compute_weighted_residency(&spec);
    let result = std::panic::catch_unwind(|| {
        simulate_analytic(&weighted, &AnalyticPolicy::Passthrough, &analytic_cfg(2))
    });
    assert!(result.is_err());
}
