//! Byte-level pins of `BlockSource::fill`.
//!
//! Each case hashes (FNV-1a, little-endian bytes) the words one plan
//! fills for a fixed address list over its first, second, middle and
//! last blocks. The list strides the whole memory and then revisits it
//! in descending order, so it crosses layer boundaries, padded lanes
//! and unsorted addresses. The cases are the Fig. 9 baseline plan
//! (AlexNet on the 512 KB weight buffer) in fp32, int8 symmetric, int8
//! asymmetric and with SECDED on, and all four Fig. 11 VGG16 FIFO
//! slots. The literals were recorded by the encode-every-weight fill
//! that preceded the 8-bit draw→code step tables, so any change to the
//! fill that moves a stored bit fails here.

use dnnlife_accel::{AcceleratorConfig, BlockSource, FifoSlotMemory, FlatWeightMemory};
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::{NumberFormat, RepairPolicy};

const SEED: u64 = 42;

/// The fixed address list: every 61st word, the last word, then every
/// 4099th word from the top down.
fn addresses(words: usize) -> Vec<usize> {
    let mut list: Vec<usize> = (0..words).step_by(61).collect();
    list.push(words - 1);
    list.extend((0..words).rev().step_by(4099));
    list
}

/// FNV-1a over the fills of blocks `0, 1, K/2, K − 1` of `source`.
fn digest(hash: u64, source: &dyn BlockSource) -> u64 {
    let list = addresses(source.geometry().words);
    let mut out = vec![0u64; list.len()];
    let k = source.block_count();
    [0, 1, k / 2, k - 1].iter().fold(hash, |h, &block| {
        source.fill(block, &list, &mut out);
        out.iter().flat_map(|w| w.to_le_bytes()).fold(h, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: fill bytes moved; got 0x{got:016x}");
}

fn fig9_plan(format: NumberFormat) -> FlatWeightMemory {
    FlatWeightMemory::new(
        &AcceleratorConfig::baseline(),
        &NetworkSpec::alexnet(),
        format,
        SEED,
    )
}

#[test]
fn fig9_baseline_fp32_fill_is_pinned() {
    check(
        "fp32",
        digest(FNV_OFFSET, &fig9_plan(NumberFormat::Fp32)),
        0xd9be_a347_bc9c_bedc,
    );
}

#[test]
fn fig9_baseline_int8_symmetric_fill_is_pinned() {
    check(
        "int8 symmetric",
        digest(FNV_OFFSET, &fig9_plan(NumberFormat::Int8Symmetric)),
        0x881a_ddf4_a984_9816,
    );
}

#[test]
fn fig9_baseline_int8_asymmetric_fill_is_pinned() {
    check(
        "int8 asymmetric",
        digest(FNV_OFFSET, &fig9_plan(NumberFormat::Int8Asymmetric)),
        0x1fa1_1b93_7154_bfe5,
    );
}

#[test]
fn fig9_baseline_secded_fill_is_pinned() {
    let secded = RepairPolicy::Secded { interleave: 5 };
    let int8 = fig9_plan(NumberFormat::Int8Symmetric).with_repair(&secded);
    let fp32 = fig9_plan(NumberFormat::Fp32).with_repair(&RepairPolicy::Secded { interleave: 1 });
    assert_eq!(int8.geometry().word_bits, 13);
    assert_eq!(fp32.geometry().word_bits, 39);
    check(
        "int8 secded:5",
        digest(FNV_OFFSET, &int8),
        0x21f9_df89_10b9_4af6,
    );
    check(
        "fp32 secded",
        digest(FNV_OFFSET, &fp32),
        0x694c_bf9a_1ffc_be56,
    );
}

#[test]
fn fig11_vgg16_fifo_slot_fills_are_pinned() {
    for (format, want) in [
        (
            NumberFormat::Int8Symmetric,
            [
                0xb5d7_a216_6dc8_fac8,
                0x81fc_916e_0029_2055,
                0x9493_c44b_e6f9_35b8,
                0x6ee4_3d11_b0ed_c0a7,
            ],
        ),
        (
            NumberFormat::Int8Asymmetric,
            [
                0x29fa_65ad_e261_edd3,
                0x46d1_5492_5b56_69b7,
                0x497e_85dc_1a6d_aa68,
                0x687b_94ed_480e_7a92,
            ],
        ),
    ] {
        let slots = FifoSlotMemory::all_slots(&NetworkSpec::vgg16(), format, SEED);
        for (slot, want) in slots.iter().zip(want) {
            check(&slot.label(), digest(FNV_OFFSET, slot), want);
        }
    }
}
