//! Bit pins for `WeightCellDuties::compute`: the memory image the
//! injection pipeline ages, per platform, repair and wear-level policy.
//!
//! The inject goldens cover few platform × repair × policy cells;
//! these pins hash what the injector reads from `compute` weight-major
//! (stored word width, then every weight's global word and that word's
//! per-bit duty bit patterns, then the per-layer quantizers) on
//! untrained custom-MNIST tables, so the flat-memory path, SECDED
//! widening and the wear-level final-epoch addressing are byte-pinned
//! too. One ReRAM case pins the stuck-cell masks at every weight's
//! word. A contract test checks the resident-only duties and the
//! per-level failure probabilities against a whole-memory simulation.

use dnnlife_accel::{simulate_analytic, AnalyticSimConfig};
use dnnlife_core::experiment::{memory_units, ExperimentSpec, NetworkKind, Platform, PolicySpec};
use dnnlife_core::{DwellModel, RepairPolicy, SimulatorBackend};
use dnnlife_faultsim::WeightCellDuties;
use dnnlife_nn::zoo::{build_custom_mnist, extract_layer_weights};
use dnnlife_quant::{NumberFormat, Quantizer};
use dnnlife_sram::lifetime::ReadFailureModel;
use dnnlife_sram::snm::{CalibratedSnmModel, SnmModel};
use dnnlife_sram::{MemoryTech, ReramEnduranceLifetime};

/// FNV-1a, folded one little-endian `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn scenario(platform: Platform, policy: PolicySpec, repair: RepairPolicy) -> ExperimentSpec {
    ExperimentSpec {
        platform,
        network: NetworkKind::CustomMnist,
        format: NumberFormat::Int8Symmetric,
        policy,
        inferences: 4,
        years: 7.0,
        seed: 11,
        sample_stride: 1,
        backend: SimulatorBackend::Analytic,
        dwell: DwellModel::Uniform,
        repair,
        tech: MemoryTech::SramNbti,
    }
}

/// Folds the per-layer quantizers into `h`.
fn hash_quantizers(h: &mut Fnv, quantizers: &[Quantizer]) {
    for q in quantizers {
        match *q {
            Quantizer::Fp32 => h.word(0),
            Quantizer::Int8Symmetric { scale } => {
                h.word(1);
                h.word(u64::from(scale.to_bits()));
            }
            Quantizer::Int8Asymmetric { scale, zero_point } => {
                h.word(2);
                h.word(u64::from(scale.to_bits()));
                h.word(u64::from(zero_point));
            }
        }
    }
}

/// Weight-major hash of what the injector reads from `compute`: the
/// stored word width, then for every weight in layer order its global
/// word index and the bit patterns of its word's per-bit duties, then
/// the quantizers. Padding words no weight lands in do not enter it.
fn weight_duty_hash(scenario: &ExperimentSpec, tables: &[Vec<f32>]) -> u64 {
    let (duties, quantizers) = WeightCellDuties::compute(scenario, tables, 1, 0);
    let mut h = Fnv::new();
    h.word(u64::from(duties.word_bits));
    for (li, layer) in duties.weight_slots.iter().enumerate() {
        for w in 0..layer.len() {
            h.word(u64::from(duties.weight_word(li, w)));
            for d in duties.weight_word_duties(li, w) {
                h.word(d.to_bits());
            }
        }
    }
    hash_quantizers(&mut h, &quantizers);
    h.0
}

/// Weight-major hash of the ReRAM stuck-cell masks at every weight's
/// word, on one fixed die at age 7.
fn stuck_mask_hash(scenario: &ExperimentSpec, tables: &[Vec<f32>]) -> (u64, u64) {
    let (duties, _) = WeightCellDuties::compute(scenario, tables, 1, 0);
    let stuck = duties.stuck_masks(&ReramEnduranceLifetime::new(0xD1E5_EED5), 7.0);
    let mut h = Fnv::new();
    let mut stuck_cells = 0;
    for layer in &duties.weight_slots {
        for &slot in layer {
            let (mask, value) = stuck[slot as usize];
            h.word(mask);
            h.word(value);
            stuck_cells += u64::from(mask.count_ones());
        }
    }
    (h.0, stuck_cells)
}

fn cases() -> Vec<(Platform, PolicySpec, RepairPolicy)> {
    let (plain, secded) = (RepairPolicy::None, RepairPolicy::Secded { interleave: 1 });
    let dnn_life = PolicySpec::DnnLife {
        bias: 0.5,
        bias_balancing: true,
        m_bits: 4,
    };
    let wear = PolicySpec::WearLevel { epochs: 4 };
    let (baseline, crossbar, npu) = (Platform::Baseline, Platform::Crossbar, Platform::TpuLike);
    vec![
        (baseline, PolicySpec::None, plain),
        (baseline, dnn_life, secded),
        (crossbar, PolicySpec::Inversion, plain),
        (crossbar, wear, plain),
        (npu, PolicySpec::BarrelShifter, plain),
        (npu, wear, plain),
        (npu, dnn_life, plain),
        (npu, PolicySpec::None, secded),
    ]
}

#[test]
fn weight_resident_duties_are_bit_pinned() {
    let tables = extract_layer_weights(&mut build_custom_mnist(5));
    let expected = [
        0x51e3_a781_19f9_f604,
        0x4783_8dca_125d_2535,
        0x70b0_f78e_f1a8_abb4,
        0xa8b2_7754_cff6_7495,
        0xdff4_7709_6223_c0e1,
        0x6c94_181d_de09_4a99,
        0x0f93_dbd7_6c38_ccec,
        0xba7a_4825_ecf6_ec84,
    ];
    for ((platform, policy, repair), expected) in cases().into_iter().zip(expected) {
        let hash = weight_duty_hash(&scenario(platform, policy, repair), &tables);
        assert_eq!(
            hash, expected,
            "weight-resident duties moved for {platform:?} / {policy:?} / {repair:?}: {hash:#018x}"
        );
    }
}

/// The ReRAM case: wear-leveled flat memory on the endurance model.
fn reram_scenario() -> ExperimentSpec {
    let mut scenario = scenario(
        Platform::Baseline,
        PolicySpec::WearLevel { epochs: 4 },
        RepairPolicy::None,
    );
    scenario.tech = MemoryTech::ReramEndurance;
    scenario
}

#[test]
fn reram_stuck_masks_are_bit_pinned() {
    let tables = extract_layer_weights(&mut build_custom_mnist(5));
    let (hash, stuck_cells) = stuck_mask_hash(&reram_scenario(), &tables);
    assert!(stuck_cells > 0, "the pin must cover stuck cells");
    assert_eq!(
        hash, 0x7d11_b950_80c0_a8f3,
        "ReRAM stuck masks moved: {hash:#018x} ({stuck_cells} stuck)"
    );
}

/// Simulating only the resident words changes no duty, and the level
/// table reproduces the per-cell failure chain. Over every pinned case
/// plus ReRAM: each resident cell's duty equals the stride-1
/// simulation of its whole memory unit at that word, bit for bit; and
/// each level's probability equals `failure_probability` of the
/// level's duty, bit for bit (every cell of a level carries that exact
/// duty, so this covers every resident cell).
#[test]
fn resident_duties_and_level_probabilities_match_whole_memory_simulation() {
    let tables = extract_layer_weights(&mut build_custom_mnist(5));
    let snm = CalibratedSnmModel::paper();
    let model = ReadFailureModel {
        noise_sigma_mv: 65.0,
        ..ReadFailureModel::default_65nm()
    };
    let scenarios = cases()
        .into_iter()
        .map(|(platform, policy, repair)| scenario(platform, policy, repair))
        .chain([reram_scenario()]);
    for scenario in scenarios {
        let (duties, _) = WeightCellDuties::compute(&scenario, &tables, 2, 3);
        let policy = scenario.policy.analytic(scenario.policy_seed());
        let cfg = AnalyticSimConfig {
            inferences: scenario.inferences,
            sample_stride: 1,
            threads: 1,
            shards: 1,
        };
        let whole: Vec<f64> = memory_units(&scenario, Some(&tables))
            .iter()
            .flat_map(|unit| simulate_analytic(unit.as_ref(), &policy, &cfg))
            .collect();
        let bits = duties.word_bits as usize;
        assert!(
            duties.resident_words.windows(2).all(|p| p[0] < p[1]),
            "resident words ascend"
        );
        assert_eq!(duties.cell_levels.len(), duties.resident_words.len() * bits);
        for (slot, &gw) in duties.resident_words.iter().enumerate() {
            for (b, &level) in duties.slot_levels(slot).iter().enumerate() {
                let resident = duties.levels[level as usize].to_bits();
                let full = whole[gw as usize * bits + b].to_bits();
                assert_eq!(
                    resident, full,
                    "{:?} / {:?}: word {gw} bit {b} duty differs from the whole-memory run",
                    scenario.platform, scenario.policy
                );
            }
        }
        for years in [0.0, 7.0] {
            let probs = duties.failure_probabilities(&snm, &model, years);
            assert_eq!(probs.len(), duties.levels.len());
            for (&duty, &p) in duties.levels.iter().zip(&probs) {
                let chain = model.failure_probability(snm.degradation_percent(duty, years));
                assert_eq!(p.to_bits(), chain.to_bits(), "duty {duty} at {years}y");
            }
        }
    }
}
