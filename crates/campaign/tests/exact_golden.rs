//! Byte-identity regression for the exact backend's result stores.
//!
//! The fixtures under `tests/golden/` were generated by the scalar
//! (pre-bit-slicing) simulator. Every combination of worker threads and
//! word shards must finalize a store byte-identical to those fixtures:
//! deterministic policies are partition-invariant, and the bit-sliced
//! duty tracker is required to reproduce the scalar accumulation
//! exactly — uniform dwell in integer arithmetic, non-uniform dwell via
//! per-dwell-value grouping.
//!
//! To bless intentional changes (there should be none for this
//! invariant; a diff here means the simulator's stored bytes moved):
//! `DNNLIFE_UPDATE_GOLDEN=1 cargo test -p dnnlife-campaign --test exact_golden`

use std::path::{Path, PathBuf};

use dnnlife_campaign::grid::{CampaignGrid, GridAxes, SweepOptions};
use dnnlife_campaign::{run_campaign, CampaignOptions, ShardPolicy};
use dnnlife_core::experiment::{DwellModel, NetworkKind, Platform, PolicySpec, SimulatorBackend};
use dnnlife_core::MemoryTech;
use dnnlife_quant::NumberFormat;

mod util;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Exact-backend cells over every deterministic policy, heavily
/// strided so a debug-mode run stays cheap. Both platforms ride along
/// so the FIFO-slot and flat-memory unit paths are pinned.
fn uniform_grid() -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::Baseline, Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
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
            inferences: 12,
            ..SweepOptions::default()
        },
    }
    .build("exact-golden-uniform")
}

/// Non-uniform residency cells: the dwell grouping in the duty tracker
/// must reproduce the scalar accumulation for these too.
fn dwell_grid() -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
        policies: vec![PolicySpec::None, PolicySpec::BarrelShifter],
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Exact],
        dwells: vec![
            DwellModel::LayerProportional,
            DwellModel::Zipf { exponent: 1.0 },
        ],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: SweepOptions {
            base_seed: 42,
            sample_stride: 512,
            inferences: 6,
            ..SweepOptions::default()
        },
    }
    .build("exact-golden-dwell")
}

/// Flat-memory dwell cells plus `Custom` factors on both platforms:
/// every arm of the dwell dispatch that `dwell_grid` leaves out. The
/// baseline cells store fp32: at int8 the custom network fits one
/// 512 KB fill (K = 1), where every dwell model normalizes to 1.0.
fn flat_dwell_grid() -> CampaignGrid {
    let custom = DwellModel::Custom {
        factors: vec![1.0, 2.0, 0.5, 4.0],
    };
    let axes = |platform: Platform, format: NumberFormat, dwells: Vec<DwellModel>| GridAxes {
        platforms: vec![platform],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![format],
        policies: vec![PolicySpec::None, PolicySpec::BarrelShifter],
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Exact],
        dwells,
        repairs: Vec::new(),
        techs: Vec::new(),
        options: SweepOptions {
            base_seed: 42,
            sample_stride: 512,
            inferences: 6,
            ..SweepOptions::default()
        },
    };
    let mut grid = axes(
        Platform::Baseline,
        NumberFormat::Fp32,
        vec![
            DwellModel::LayerProportional,
            DwellModel::Zipf { exponent: 1.0 },
            custom.clone(),
        ],
    )
    .build("exact-golden-dwell-flat");
    let npu = axes(Platform::TpuLike, NumberFormat::Int8Symmetric, vec![custom])
        .build("exact-golden-dwell-flat");
    grid.scenarios.extend(npu.scenarios);
    grid
}

fn sweep_bytes(dir: &Path, grid: &CampaignGrid, threads: usize, shards: ShardPolicy) -> Vec<u8> {
    let path = dir.join(format!("t{threads}-{}.jsonl", shards.display_name()));
    let outcome = run_campaign(
        grid,
        &path,
        &CampaignOptions {
            threads,
            shards,
            ..CampaignOptions::default()
        },
    )
    .expect("campaign run");
    assert_eq!(outcome.executed, grid.len());
    std::fs::read(&path).expect("read store")
}

fn assert_matches_fixture(bytes: &[u8], fixture: &str, combo: &str) {
    let path = golden_dir().join(fixture);
    if std::env::var_os("DNNLIFE_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, bytes).expect("bless fixture");
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("fixture {fixture} unreadable ({e}); bless with DNNLIFE_UPDATE_GOLDEN=1")
    });
    assert!(
        bytes == expected.as_slice(),
        "{combo}: exact store diverged from {fixture} — stored bytes for \
         deterministic policies must not move across simulator rewrites"
    );
}

/// Every thread × shard combination of the deterministic uniform-dwell
/// sweep must reproduce the pre-bit-slicing store bytes.
#[test]
fn uniform_store_is_byte_identical_across_threads_and_shards() {
    let dir = util::scratch_dir("exact-golden-uniform");
    let grid = uniform_grid();
    for threads in [1usize, 8] {
        for shards in [
            ShardPolicy::Fixed(1),
            ShardPolicy::Fixed(8),
            ShardPolicy::Auto,
        ] {
            let combo = format!("threads={threads} shards={}", shards.display_name());
            let bytes = sweep_bytes(&dir, &grid, threads, shards);
            assert_matches_fixture(&bytes, "exact_uniform.jsonl", &combo);
        }
    }
}

/// ReRAM-endurance cells over the crossbar and flat platforms,
/// including the wear-leveling remap. The technology axis rides the
/// same exact simulator and its degradation summary is a deterministic
/// function of per-cell duty, so the stores must be thread- and
/// shard-invariant (the fixture pins the bytes from the axis's
/// introduction).
fn reram_grid() -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::Baseline, Platform::Crossbar],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
        policies: vec![
            PolicySpec::None,
            PolicySpec::Inversion,
            PolicySpec::WearLevel { epochs: 4 },
        ],
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Exact],
        dwells: vec![DwellModel::Uniform],
        repairs: Vec::new(),
        techs: vec![MemoryTech::ReramEndurance],
        options: SweepOptions {
            base_seed: 42,
            sample_stride: 256,
            inferences: 12,
            ..SweepOptions::default()
        },
    }
    .build("exact-golden-reram")
}

/// Every thread × shard combination of the ReRAM sweep must finalize
/// the same store bytes as a clean single-threaded run.
#[test]
fn reram_store_is_byte_identical_across_threads_and_shards() {
    let dir = util::scratch_dir("exact-golden-reram");
    let grid = reram_grid();
    assert!(!grid.is_empty(), "the reram grid must have valid cells");
    for threads in [1usize, 8] {
        for shards in [
            ShardPolicy::Fixed(1),
            ShardPolicy::Fixed(8),
            ShardPolicy::Auto,
        ] {
            let combo = format!("threads={threads} shards={}", shards.display_name());
            let bytes = sweep_bytes(&dir, &grid, threads, shards);
            assert_matches_fixture(&bytes, "exact_reram.jsonl", &combo);
        }
    }
}

/// Non-uniform dwell models are regression-pinned too: the grouped
/// multiply-and-sum must reproduce the scalar f64 accumulation.
#[test]
fn dwell_store_is_byte_identical_across_threads_and_shards() {
    let dir = util::scratch_dir("exact-golden-dwell");
    let grid = dwell_grid();
    for (threads, shards) in [
        (1usize, ShardPolicy::Auto),
        (8, ShardPolicy::Fixed(8)),
        (1, ShardPolicy::Fixed(1)),
    ] {
        let combo = format!("threads={threads} shards={}", shards.display_name());
        let bytes = sweep_bytes(&dir, &grid, threads, shards);
        assert_matches_fixture(&bytes, "exact_dwell.jsonl", &combo);
    }
}

/// The flat-memory and `Custom` dwell cells are pinned the same way.
#[test]
fn flat_dwell_store_is_byte_identical_across_threads_and_shards() {
    let dir = util::scratch_dir("exact-golden-dwell-flat");
    let grid = flat_dwell_grid();
    assert_eq!(grid.len(), 8, "3 flat dwell models + 1 NPU, x 2 policies");
    for (threads, shards) in [(1usize, ShardPolicy::Auto), (8, ShardPolicy::Fixed(8))] {
        let combo = format!("threads={threads} shards={}", shards.display_name());
        let bytes = sweep_bytes(&dir, &grid, threads, shards);
        assert_matches_fixture(&bytes, "exact_dwell_flat.jsonl", &combo);
    }
}
