//! Campaign determinism property: the finalized result store is
//! byte-identical regardless of worker thread count — and, for the
//! deterministic mitigation policies, regardless of the exact
//! backend's word-shard count.

use std::path::PathBuf;

use dnnlife_campaign::grid::{CampaignGrid, GridAxes, SweepOptions};
use dnnlife_campaign::{run_campaign, CampaignOptions, ShardPolicy};
use dnnlife_core::experiment::{DwellModel, NetworkKind, Platform, PolicySpec, SimulatorBackend};
use dnnlife_quant::NumberFormat;

mod util;

/// A grid cheap enough for debug-mode CI: the custom network on the
/// NPU, four policies × two lifetimes × both simulator backends,
/// heavily strided — so the determinism contract covers the exact
/// backend's store records too.
fn test_grid() -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
        policies: vec![
            PolicySpec::None,
            PolicySpec::BarrelShifter,
            PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits: 4,
            },
            PolicySpec::DnnLife {
                bias: 0.5,
                bias_balancing: false,
                m_bits: 2,
            },
        ],
        lifetimes_years: vec![2.0, 7.0],
        backends: vec![SimulatorBackend::Analytic, SimulatorBackend::Exact],
        dwells: vec![DwellModel::Uniform],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: SweepOptions {
            base_seed: 42,
            sample_stride: 256,
            inferences: 20,
            ..SweepOptions::default()
        },
    }
    .build("determinism-test")
}

fn sweep_bytes(dir: &std::path::Path, threads: usize) -> Vec<u8> {
    let path: PathBuf = dir.join(format!("threads{threads}.jsonl"));
    let outcome = run_campaign(
        &test_grid(),
        &path,
        &CampaignOptions {
            threads,
            resume: false,
            verbose: false,
            ..CampaignOptions::default()
        },
    )
    .expect("campaign run");
    assert_eq!(outcome.executed, test_grid().len());
    assert_eq!(outcome.skipped, 0);
    std::fs::read(&path).expect("read store")
}

#[test]
fn store_bytes_identical_across_1_2_8_threads() {
    let dir = util::scratch_dir("determinism");
    let bytes_1 = sweep_bytes(&dir, 1);
    let bytes_2 = sweep_bytes(&dir, 2);
    let bytes_8 = sweep_bytes(&dir, 8);
    assert!(!bytes_1.is_empty());
    assert_eq!(bytes_1, bytes_2, "1-thread vs 2-thread stores differ");
    assert_eq!(bytes_1, bytes_8, "1-thread vs 8-thread stores differ");
}

/// Every deterministic policy × number-format cell the paper's grids
/// span, under the exact backend: the baseline accelerator covers all
/// three formats, the NPU its 8-bit one. DNN-Life is deliberately
/// absent — its per-shard TRBG streams make the shard count semantic.
fn deterministic_exact_grid() -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::Baseline, Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: NumberFormat::all().to_vec(),
        policies: vec![
            PolicySpec::None,
            PolicySpec::Inversion,
            PolicySpec::BarrelShifter,
        ],
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Exact],
        dwells: vec![DwellModel::Uniform],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: SweepOptions {
            base_seed: 42,
            sample_stride: 256,
            inferences: 10,
            ..SweepOptions::default()
        },
    }
    .build("shard-determinism-test")
}

/// The tentpole's merge guard, end to end: a word-sharded exact sweep
/// journals byte-identical stores for `--shards 1` and `--shards 8`
/// (per-shard duty vectors concatenate in shard-index order, and the
/// deterministic policies' per-address state makes the partition
/// invisible), at every deterministic policy × format cell.
#[test]
fn store_bytes_identical_across_shard_counts_for_deterministic_policies() {
    let dir = util::scratch_dir("shard-determinism");
    let grid = deterministic_exact_grid();
    assert_eq!(
        grid.len(),
        3 * 3 + 2 * 3,
        "baseline 3 formats × 3 policies + NPU 2 eight-bit formats × 3 policies"
    );
    let sweep = |shards: ShardPolicy, tag: &str| -> Vec<u8> {
        let path = dir.join(format!("{tag}.jsonl"));
        run_campaign(
            &grid,
            &path,
            &CampaignOptions {
                threads: 2,
                shards,
                ..CampaignOptions::default()
            },
        )
        .expect("campaign run");
        std::fs::read(&path).expect("read store")
    };
    let unsharded = sweep(ShardPolicy::Fixed(1), "shards1");
    let sharded = sweep(ShardPolicy::Fixed(8), "shards8");
    let auto = sweep(ShardPolicy::Auto, "auto");
    assert!(!unsharded.is_empty());
    assert_eq!(unsharded, sharded, "1-shard vs 8-shard stores differ");
    assert_eq!(unsharded, auto, "1-shard vs auto-shard stores differ");
}

#[test]
fn rerun_over_existing_store_skips_everything() {
    let dir = util::scratch_dir("determinism-skip");
    let grid = test_grid();
    let path = dir.join("store.jsonl");
    run_campaign(&grid, &path, &CampaignOptions::default()).expect("first run");
    let second = run_campaign(
        &grid,
        &path,
        &CampaignOptions {
            threads: 0,
            resume: true,
            verbose: false,
            ..CampaignOptions::default()
        },
    )
    .expect("second run");
    assert_eq!(second.executed, 0, "resume re-executed stored scenarios");
    assert_eq!(second.skipped, grid.len());
}
