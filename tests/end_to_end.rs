//! Cross-crate integration tests on the facade API.

use dnn_life::accel::{
    simulate_analytic, AcceleratorConfig, AnalyticPolicy, AnalyticSimConfig, BlockSource,
    FlatWeightMemory,
};
use dnn_life::core::experiment::{
    cross_validate_with, fig9_policies, run_experiment_with, DwellModel, ExperimentResult,
    ExperimentSpec, NetworkKind, Platform, PolicySpec, RunOptions, SimulatorBackend,
};
use dnn_life::mitigation::transducer::WriteTransducer;
use dnn_life::mitigation::{AgingController, DnnLife, PseudoTrbg};
use dnn_life::nn::weights::WeightRange;
use dnn_life::nn::zoo::build_custom_mnist;
use dnn_life::nn::Tensor;
use dnn_life::numerics::duty_cycle_tail_probability;
use dnn_life::quant::{NumberFormat, Quantizer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn run(spec: &ExperimentSpec) -> ExperimentResult {
    run_experiment_with(spec, &RunOptions::default()).expect("no cancel token")
}

/// The headline correctness property: routing quantized weights through
/// the DNN-Life WDE/RDD changes *nothing* about inference.
#[test]
fn mitigation_is_bit_transparent_to_inference() {
    let data_seed = 99u64;
    let mut plain = build_custom_mnist(7);
    let mut mitigated = build_custom_mnist(7);

    // Quantize both networks identically; route only the second through
    // the encoder/decoder pair.
    let quantize = |net: &mut dnn_life::nn::Sequential, with_wde: bool| {
        let controller = AgingController::new(PseudoTrbg::new(5, 0.7), 4);
        let mut wde = DnnLife::new(8, controller);
        net.visit_params(&mut |p| {
            if !p.name.ends_with(".weight") {
                return;
            }
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &w in p.value.iter() {
                lo = lo.min(w);
                hi = hi.max(w);
            }
            let q = Quantizer::calibrate(
                NumberFormat::Int8Symmetric,
                &WeightRange {
                    min: lo,
                    max: hi,
                    sampled: p.value.len() as u64,
                },
            );
            for (addr, w) in p.value.iter_mut().enumerate() {
                let bits = u64::from(q.encode(*w));
                let bits = if with_wde {
                    let (stored, meta) = wde.encode(addr as u64, bits);
                    wde.decode(stored, meta)
                } else {
                    bits
                };
                *w = q.decode(bits as u32);
            }
            wde.new_block();
        });
    };
    quantize(&mut plain, false);
    quantize(&mut mitigated, true);

    let mut rng = StdRng::seed_from_u64(data_seed);
    let images = Tensor::from_fn(&[4, 1, 28, 28], |_| rng.random::<f32>());
    let a = plain.forward(&images);
    let b = mitigated.forward(&images);
    assert_eq!(a.data(), b.data(), "logits must match bit-exactly");
}

/// Eq. 1 must agree with a Monte-Carlo simulation of cells receiving K
/// independent Bernoulli bits.
#[test]
fn eq1_matches_monte_carlo() {
    let (k, rho, b) = (20u64, 0.5f64, 6u64);
    let analytic = duty_cycle_tail_probability(k, b, rho);
    let mut rng = StdRng::seed_from_u64(31);
    let cells = 60_000u32;
    let mut hits = 0u32;
    for _ in 0..cells {
        let ones: u64 = (0..k).filter(|_| rng.random::<f64>() < rho).count() as u64;
        if ones <= b || ones >= k - b {
            hits += 1;
        }
    }
    let empirical = f64::from(hits) / f64::from(cells);
    // 4-sigma Monte-Carlo band.
    let sigma = (analytic * (1.0 - analytic) / f64::from(cells)).sqrt();
    assert!(
        (empirical - analytic).abs() < 4.0 * sigma + 1e-9,
        "analytic {analytic}, empirical {empirical}"
    );
}

/// The DNN-Life duty distribution produced by the full simulator stack
/// matches its binomial theory: variance ≈ 1/(4T) around 0.5.
#[test]
fn simulator_duty_variance_matches_theory() {
    let mut cfg = AcceleratorConfig::baseline();
    cfg.weight_memory_bytes = 4096;
    let mem = FlatWeightMemory::new(
        &cfg,
        &NetworkKind::CustomMnist.spec(),
        NumberFormat::Int8Symmetric,
        3,
    );
    let inferences = 50u64;
    let duties = simulate_analytic(
        &mem,
        &AnalyticPolicy::DnnLife {
            bias: 0.5,
            bias_balancing: Some(4),
            seed: 11,
        },
        &AnalyticSimConfig {
            inferences,
            sample_stride: 1,
            threads: 2,
            shards: 0,
        },
    );
    let t = inferences as f64 * mem.block_count() as f64;
    let mean = duties.iter().sum::<f64>() / duties.len() as f64;
    let var = duties.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / duties.len() as f64;
    assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    let theory = 1.0 / (4.0 * t);
    assert!(
        (var / theory - 1.0).abs() < 0.15,
        "variance {var} vs theory {theory}"
    );
}

/// A scaled-down Fig. 9 pipeline: orderings the paper reports must hold.
#[test]
fn fig9_policy_ordering_smoke() {
    let mut results = Vec::new();
    for policy in fig9_policies() {
        let spec = ExperimentSpec {
            platform: Platform::TpuLike,
            network: NetworkKind::CustomMnist,
            format: NumberFormat::Int8Symmetric,
            policy,
            inferences: 100,
            years: 7.0,
            seed: 42,
            sample_stride: 64,
            backend: SimulatorBackend::Analytic,
            dwell: DwellModel::Uniform,
            repair: dnnlife_core::RepairPolicy::None,
            tech: dnnlife_core::MemoryTech::SramNbti,
        };
        results.push((policy, run(&spec)));
    }
    let mean = |p: &PolicySpec| {
        results
            .iter()
            .find(|(q, _)| q == p)
            .map(|(_, r)| r.snm.mean())
            .expect("policy present")
    };
    let none = mean(&PolicySpec::None);
    let balanced = mean(&PolicySpec::DnnLife {
        bias: 0.5,
        bias_balancing: true,
        m_bits: 4,
    });
    let biased_unbalanced = mean(&PolicySpec::DnnLife {
        bias: 0.7,
        bias_balancing: false,
        m_bits: 4,
    });
    let biased_balanced = mean(&PolicySpec::DnnLife {
        bias: 0.7,
        bias_balancing: true,
        m_bits: 4,
    });
    // DNN-Life (both balanced variants) beats no mitigation.
    assert!(balanced < none);
    assert!(biased_balanced < none);
    // Bias balancing recovers what the biased TRBG loses.
    assert!(biased_balanced < biased_unbalanced);
    // Balanced-bias and corrected-bias land in the same place.
    assert!((balanced - biased_balanced).abs() < 0.3);
}

/// The experiment runner is deterministic for a fixed seed and invariant
/// to the sampling stride only in distribution (mean within noise).
#[test]
fn experiments_are_reproducible() {
    let spec = ExperimentSpec::fig11(
        NetworkKind::CustomMnist,
        PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: true,
            m_bits: 4,
        },
        123,
    );
    let mut spec = spec;
    spec.sample_stride = 32;
    let a = run(&spec);
    let b = run(&spec);
    assert_eq!(a.histogram.counts(), b.histogram.counts());
    assert_eq!(a.snm.mean(), b.snm.mean());
}

/// The exact backend is reachable through the facade and its uniform-
/// dwell duties agree with the analytic closed forms per cell for a
/// deterministic policy — the cross-validation contract end to end.
#[test]
fn exact_backend_cross_validates_through_facade() {
    let mut spec = ExperimentSpec::fig11(NetworkKind::CustomMnist, PolicySpec::BarrelShifter, 7);
    spec.sample_stride = 512;
    spec.inferences = 8;
    let cv = cross_validate_with(&spec, &RunOptions::default()).expect("no cancel token");
    assert!(
        cv.within_tolerance(),
        "max |Δduty| = {} over {} cells",
        cv.max_abs_duty,
        cv.cells
    );

    // The exact backend also honours a non-uniform residency model the
    // analytic simulator cannot express: relaxing assumption (b) moves
    // the unmitigated duty distribution.
    spec.policy = PolicySpec::None;
    spec.backend = SimulatorBackend::Exact;
    spec.dwell = DwellModel::LayerProportional;
    let weighted = run(&spec);
    spec.dwell = DwellModel::Uniform;
    let uniform = run(&spec);
    assert_eq!(weighted.cells, uniform.cells);
    assert!(
        (weighted.duty.mean() - uniform.duty.mean()).abs() > 1e-4,
        "residency weighting changed nothing: {} vs {}",
        weighted.duty.mean(),
        uniform.duty.mean()
    );
}
