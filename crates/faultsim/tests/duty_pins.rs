//! Bit pins for `WeightCellDuties::compute`: the memory image the
//! injection pipeline ages, per platform, repair and wear-level policy.
//!
//! The inject goldens only cover the NPU without repair or
//! wear-leveling; these pins hash everything `compute` returns (stored
//! word width, every per-word duty's bit pattern, the weight → word
//! map and the per-layer quantizers) on untrained custom-MNIST tables,
//! so the flat-memory path, SECDED widening and the wear-level
//! final-epoch addressing are byte-pinned too.

use dnnlife_core::experiment::{ExperimentSpec, NetworkKind, Platform, PolicySpec};
use dnnlife_core::{DwellModel, RepairPolicy, SimulatorBackend};
use dnnlife_faultsim::WeightCellDuties;
use dnnlife_nn::zoo::{build_custom_mnist, extract_layer_weights};
use dnnlife_quant::{NumberFormat, Quantizer};
use dnnlife_sram::MemoryTech;

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

/// Hash of everything `compute` returns for `scenario`.
fn duty_hash(scenario: &ExperimentSpec, tables: &[Vec<f32>]) -> u64 {
    let (duties, quantizers) = WeightCellDuties::compute(scenario, tables, 1, 0);
    let mut h = Fnv::new();
    h.word(u64::from(duties.word_bits));
    h.word(duties.word_duties.len() as u64);
    for d in &duties.word_duties {
        h.word(d.to_bits());
    }
    for layer in &duties.weight_words {
        h.word(layer.len() as u64);
        for &w in layer {
            h.word(u64::from(w));
        }
    }
    for q in &quantizers {
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
    h.0
}

#[test]
fn weight_cell_duties_are_bit_pinned() {
    let tables = extract_layer_weights(&mut build_custom_mnist(5));
    let (plain, secded) = (RepairPolicy::None, RepairPolicy::Secded { interleave: 1 });
    let dnn_life = PolicySpec::DnnLife {
        bias: 0.5,
        bias_balancing: true,
        m_bits: 4,
    };
    let wear = PolicySpec::WearLevel { epochs: 4 };
    let (baseline, crossbar, npu) = (Platform::Baseline, Platform::Crossbar, Platform::TpuLike);
    let cases = [
        (baseline, PolicySpec::None, plain, 0xf441_9e9a_407b_9260),
        (baseline, dnn_life, secded, 0x783a_e927_cfd3_5458),
        (
            crossbar,
            PolicySpec::Inversion,
            plain,
            0x3977_3798_4e4f_315c,
        ),
        (crossbar, wear, plain, 0xb96e_df21_e805_cd65),
        (npu, PolicySpec::BarrelShifter, plain, 0x6402_b434_a9b5_f665),
        (npu, wear, plain, 0x0e9a_c241_f15e_55b5),
        (npu, dnn_life, plain, 0x8722_9ffc_0ae8_e805),
        (npu, PolicySpec::None, secded, 0xbace_492b_6dde_4a81),
    ];
    for (platform, policy, repair, expected) in cases {
        let hash = duty_hash(&scenario(platform, policy, repair), &tables);
        assert_eq!(
            hash, expected,
            "WeightCellDuties::compute moved for {platform:?} / {policy:?} / {repair:?}: {hash:#018x}"
        );
    }
}
