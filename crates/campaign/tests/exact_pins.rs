//! Store-hash pins of the exact backend over the cells the golden
//! fixtures leave out.
//!
//! `exact_golden.rs` pins deterministic policies at int8 only. These
//! pins add the DNN-Life policy (bias 0.5 with bias balancing, bias 0.7
//! without), every deterministic policy at fp32 and int8, each with and
//! without SECDED (stored word widths 8, 13, 32 and 39), the NPU's
//! four FIFO slots at int8, and one non-uniform-dwell cell (the scalar
//! duty recorder), at one and at three word shards. Each case hashes
//! (FNV-1a) the finalized store bytes of one sweep; the sweep runs at
//! one and at two worker threads, which must agree. The literals were
//! recorded by the simulator that encoded one `u64` per word and packed
//! the image per block, so any change that moves a stored byte of
//! these cells fails here.

use std::path::Path;

use dnnlife_campaign::grid::{CampaignGrid, GridAxes, SweepOptions};
use dnnlife_campaign::{run_campaign, CampaignOptions, ShardPolicy};
use dnnlife_core::experiment::{DwellModel, NetworkKind, Platform, PolicySpec, SimulatorBackend};
use dnnlife_quant::{NumberFormat, RepairPolicy};

mod util;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::DnnLife {
            bias: 0.5,
            bias_balancing: true,
            m_bits: 4,
        },
        PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: false,
            m_bits: 4,
        },
        PolicySpec::BarrelShifter,
        PolicySpec::Inversion,
        PolicySpec::WearLevel { epochs: 4 },
    ]
}

fn options(sample_stride: usize) -> SweepOptions {
    SweepOptions {
        base_seed: 42,
        sample_stride,
        inferences: 7,
        ..SweepOptions::default()
    }
}

/// Baseline flat memory: fp32 and int8, each plain and with SECDED.
fn baseline_grid() -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::Baseline],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Fp32, NumberFormat::Int8Symmetric],
        policies: policies(),
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Exact],
        dwells: vec![DwellModel::Uniform],
        repairs: vec![RepairPolicy::None, RepairPolicy::Secded { interleave: 1 }],
        techs: Vec::new(),
        options: options(97),
    }
    .build("exact-pins-baseline")
}

/// The NPU's weight FIFO at int8.
fn npu_grid() -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
        policies: policies(),
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Exact],
        dwells: vec![DwellModel::Uniform],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: options(61),
    }
    .build("exact-pins-npu")
}

/// One non-uniform-dwell cell: fp32 has several fills per inference on
/// the baseline memory, so layer-proportional dwell is not uniform and
/// the scalar recorder runs.
fn dwell_grid() -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::Baseline],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Fp32],
        policies: vec![PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: true,
            m_bits: 4,
        }],
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Exact],
        dwells: vec![DwellModel::LayerProportional],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: options(97),
    }
    .build("exact-pins-dwell")
}

fn store_hash(dir: &Path, grid: &CampaignGrid, threads: usize, shards: usize) -> u64 {
    let path = dir.join(format!("t{threads}-s{shards}.jsonl"));
    let outcome = run_campaign(
        grid,
        &path,
        &CampaignOptions {
            threads,
            shards: ShardPolicy::Fixed(shards),
            ..CampaignOptions::default()
        },
    )
    .expect("campaign run");
    assert_eq!(outcome.executed, grid.len());
    fnv1a(&std::fs::read(&path).expect("read store"))
}

/// Runs `grid` at each shard count of `want` (one and three), at one
/// and two threads, and checks every store hash.
fn check(tag: &str, grid: &CampaignGrid, cells: usize, want: [(usize, u64); 2]) {
    assert_eq!(grid.len(), cells, "{tag}: cell count");
    let dir = util::scratch_dir(tag);
    for (shards, want) in want {
        for threads in [1usize, 2] {
            let got = store_hash(&dir, grid, threads, shards);
            assert_eq!(
                got, want,
                "{tag}: shards={shards} threads={threads}: store bytes moved; got 0x{got:016x}"
            );
        }
    }
}

#[test]
fn baseline_fp32_int8_plain_and_secded_stores_are_pinned() {
    check(
        "exact-pins-baseline",
        &baseline_grid(),
        20,
        [(1, 0x5d02_d4b7_4815_1e38), (3, 0x957c_06cc_cd95_e0c1)],
    );
}

#[test]
fn npu_int8_stores_are_pinned() {
    check(
        "exact-pins-npu",
        &npu_grid(),
        5,
        [(1, 0x3792_b503_686d_3ad3), (3, 0x07f0_4988_6b66_e32f)],
    );
}

#[test]
fn non_uniform_dwell_store_is_pinned() {
    check(
        "exact-pins-dwell",
        &dwell_grid(),
        1,
        [(1, 0xe028_78f0_e4ec_b92b), (3, 0x78ca_6143_51d7_1269)],
    );
}
