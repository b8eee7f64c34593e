//! Byte-level pins of the analytic simulator's duties.
//!
//! Each case hashes the `to_bits()` of every duty `simulate_analytic`
//! returns (FNV-1a, little-endian bytes) for one plan and one policy,
//! over 100 and 7 inferences. The literals were generated by the
//! word-at-a-time simulator that preceded the block-major kernel, so any
//! change to a duty's last bit — for any policy, odd or even `K`,
//! `gcd(K, W) > 1`, 8/13/39-bit words, wear-level remapping or
//! table-backed weights — fails here.

use dnnlife_accel::{
    simulate_analytic, AcceleratorConfig, AnalyticPolicy, AnalyticSimConfig, BlockSource,
    FifoSlotMemory, FlatWeightMemory, RemappedMemory,
};
use dnnlife_nn::weights::LayerWeightGen;
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::{NumberFormat, RepairPolicy};

fn policies() -> [AnalyticPolicy; 5] {
    [
        AnalyticPolicy::Passthrough,
        AnalyticPolicy::PeriodicInversion,
        AnalyticPolicy::BarrelShifter,
        AnalyticPolicy::DnnLife {
            bias: 0.7,
            bias_balancing: None,
            seed: 5,
        },
        AnalyticPolicy::DnnLife {
            bias: 0.7,
            bias_balancing: Some(4),
            seed: 5,
        },
    ]
}

fn fnv1a(hash: u64, duties: &[f64]) -> u64 {
    duties
        .iter()
        .flat_map(|d| d.to_bits().to_le_bytes())
        .fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// One digest per policy, each over the 100- and 7-inference runs.
fn digests(source: &dyn BlockSource, stride: usize) -> Vec<u64> {
    policies()
        .iter()
        .map(|policy| {
            [100, 7]
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |h, &inferences| {
                    let cfg = AnalyticSimConfig {
                        inferences,
                        sample_stride: stride,
                        threads: 1,
                        shards: 3,
                    };
                    fnv1a(h, &simulate_analytic(source, policy, &cfg))
                })
        })
        .collect()
}

fn check(name: &str, source: &dyn BlockSource, k: u64, stride: usize, want: [u64; 5]) {
    assert_eq!(source.block_count(), k, "{name}: K");
    let got = digests(source, stride);
    assert_eq!(
        got,
        want,
        "{name}: analytic duty bytes moved; got [{}]",
        got.iter()
            .map(|d| format!("0x{d:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[test]
fn baseline_alexnet_int8() {
    let mem = FlatWeightMemory::new(
        &AcceleratorConfig::baseline(),
        &NetworkSpec::alexnet(),
        NumberFormat::Int8Symmetric,
        42,
    );
    check(
        "alexnet int8",
        &mem,
        117,
        4099,
        [
            0x7331c28aac99be65,
            0xe7afecb67507aff4,
            0x76daa8d9dd9ca658,
            0x9125ced3e0b6f7b9,
            0x7fb9d009c75c7435,
        ],
    );
}

#[test]
fn baseline_alexnet_fp32_secded() {
    let mem = FlatWeightMemory::new(
        &AcceleratorConfig::baseline(),
        &NetworkSpec::alexnet(),
        NumberFormat::Fp32,
        42,
    )
    .with_repair(&RepairPolicy::Secded { interleave: 1 });
    assert_eq!(mem.geometry().word_bits, 39);
    check(
        "alexnet fp32+secded",
        &mem,
        466,
        2053,
        [
            0x99f1859f432e2135,
            0x40f7f88fb2098715,
            0xd9a4e1ffa7fcf778,
            0x6bed08364ac61d76,
            0x8aad9e80863321f2,
        ],
    );
}

#[test]
fn npu_vgg16_slots_0_and_1() {
    let slots = FifoSlotMemory::all_slots(&NetworkSpec::vgg16(), NumberFormat::Int8Symmetric, 42);
    check(
        "vgg16 slot 0",
        &slots[0],
        531,
        1031,
        [
            0xe6e9c5bec3262a95,
            0x188bd9143934161d,
            0xdf4a64d1662c77a1,
            0xb6fde01ac0f005a3,
            0x89a49b48427c4244,
        ],
    );
    check(
        "vgg16 slot 1",
        &slots[1],
        530,
        1031,
        [
            0x89c2155b61d8e009,
            0xf1a9fc5f6885a439,
            0xb40227871e66f712,
            0x251e13ac4b0d5f15,
            0xeb63598eaca7ba8b,
        ],
    );
}

#[test]
fn npu_alexnet_slot_0() {
    let slots =
        FifoSlotMemory::all_slots(&NetworkSpec::alexnet(), NumberFormat::Int8Asymmetric, 42);
    check(
        "alexnet slot 0",
        &slots[0],
        236,
        1031,
        [
            0x2d745cb956c14a25,
            0x156575faa571a7a5,
            0xaf3a1271c633a5cd,
            0xc07a4cfd5f8806ff,
            0x69c756c35a1adf29,
        ],
    );
}

#[test]
fn remapped_secded_crossbar() {
    // 13-bit interleaved codewords under a 3-epoch row rotation.
    let inner = FlatWeightMemory::new(
        &AcceleratorConfig::crossbar(),
        &NetworkSpec::custom_mnist(),
        NumberFormat::Int8Symmetric,
        42,
    )
    .with_repair(&RepairPolicy::Secded { interleave: 5 });
    let mem = RemappedMemory::new(inner, 16, 3);
    assert_eq!(mem.geometry().word_bits, 13);
    check(
        "remapped crossbar",
        &mem,
        6,
        1021,
        [
            0x3c553c02274847d5,
            0x6aafa2239dbe0ff9,
            0xb14bf478f05cca47,
            0xedcf0e1988826fe9,
            0x5126ea0f54bbe1fd,
        ],
    );
}

#[test]
fn table_backed_flat_plan() {
    // Small memory, many blocks, and enough sampled words to span
    // several kernel chunks and shards.
    let spec = NetworkSpec::custom_mnist();
    let tables: Vec<Vec<f32>> = (0..spec.layers().len())
        .map(|li| LayerWeightGen::new(&spec, li, 42).iter().collect())
        .collect();
    let mut hw = AcceleratorConfig::baseline();
    hw.weight_memory_bytes = 2048;
    let mem =
        FlatWeightMemory::with_weight_tables(&hw, &spec, NumberFormat::Int8Asymmetric, &tables);
    check(
        "table-backed",
        &mem,
        114,
        3,
        [
            0xa7f485bd2e8989c9,
            0xb8fb89a5d113ef69,
            0x37a53561a4bea2bb,
            0xc092e8ee1939d356,
            0xb8f96ef45aba2ec1,
        ],
    );
}
