//! ReRAM-endurance axis throughput: the per-cell fate kernel (lognormal
//! threshold + stuck-value derivation — the hot loop of the injection
//! path's stuck-at mask builder) and the end-to-end overhead the
//! technology axis adds to one analytic duty simulation relative to the
//! SRAM default.
//!
//! Besides the Criterion group, the bench re-times both directly (best
//! of three passes) and writes the measurements to `BENCH_reram.json`
//! (override the path with the `BENCH_JSON_PATH` env var), uploaded by
//! CI with the other bench artifacts.

use criterion::{criterion_group, Criterion};
use dnnlife_core::experiment::{
    run_experiment_with, ExperimentSpec, NetworkKind, Platform, PolicySpec, RunOptions,
    SimulatorBackend,
};
use dnnlife_core::{DwellModel, MemoryTech, RepairPolicy};
use dnnlife_quant::NumberFormat;
use dnnlife_sram::{CellExposure, CellFate, LifetimeModel, ReramEnduranceLifetime};

/// Cells per fate timing pass.
const CELLS: u64 = 1 << 16;

/// Runs the per-cell fate kernel over a synthetic exposure stream at
/// the paper's 7-year checkpoint; returns the stuck-cell count so the
/// work cannot be optimized away.
fn fate_stream(die: &ReramEnduranceLifetime, years: f64) -> u64 {
    let mut stuck = 0u64;
    for cell in 0..CELLS {
        // Duty sweeps [0, 1) deterministically across the stream.
        let duty = (cell % 97) as f64 / 97.0;
        let exposure = CellExposure {
            duty,
            cell_index: cell,
        };
        if matches!(die.cell_fate(exposure, years), CellFate::StuckAt { .. }) {
            stuck += 1;
        }
    }
    stuck
}

fn duty_spec(tech: MemoryTech) -> ExperimentSpec {
    ExperimentSpec {
        platform: Platform::Baseline,
        network: NetworkKind::CustomMnist,
        format: NumberFormat::Int8Symmetric,
        policy: PolicySpec::None,
        inferences: 10,
        years: 7.0,
        seed: 42,
        sample_stride: 4,
        backend: SimulatorBackend::Analytic,
        dwell: DwellModel::Uniform,
        repair: RepairPolicy::None,
        tech,
    }
}

/// One analytic duty simulation under the given technology; returns a
/// checksum over the degradation summary.
fn duty_sim(tech: MemoryTech) -> u64 {
    let result = run_experiment_with(&duty_spec(tech), &RunOptions::default()).expect("no cancel");
    result.snm.mean().to_bits() ^ result.duty.mean().to_bits()
}

fn bench_reram(c: &mut Criterion) {
    let die = ReramEnduranceLifetime::new(42);
    let mut group = c.benchmark_group("reram_endurance");
    group.bench_function("cell_fate_7y", |b| {
        b.iter(|| fate_stream(&die, 7.0));
    });
    group.finish();

    let mut group = c.benchmark_group("tech_duty_sim");
    group.sample_size(10);
    group.bench_function("fig9_baseline_sram", |b| {
        b.iter(|| duty_sim(MemoryTech::SramNbti));
    });
    group.bench_function("fig9_baseline_reram", |b| {
        b.iter(|| duty_sim(MemoryTech::ReramEndurance));
    });
    group.finish();
}

/// Best-of-`passes` wall-clock seconds (one warm pass first).
fn best_of(mut f: impl FnMut() -> u64, passes: usize) -> f64 {
    std::hint::black_box(f());
    (0..passes)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn emit_json() {
    let die = ReramEnduranceLifetime::new(42);
    let fate = best_of(|| fate_stream(&die, 7.0), 3);
    let stuck = fate_stream(&die, 7.0);
    let sram = best_of(|| duty_sim(MemoryTech::SramNbti), 3);
    let reram = best_of(|| duty_sim(MemoryTech::ReramEndurance), 3);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": \"reram\",\n  \"host_cores\": {cores},\n  \
         \"cell_fate\": {{\"mcells_per_s\": {:.3}, \"stuck_fraction_7y\": {:.4}}},\n  \
         \"duty_sim_fig9_baseline\": {{\"sram_s\": {sram:.6}, \"reram_s\": {reram:.6}, \
         \"overhead\": {:.3}}}\n}}\n",
        CELLS as f64 / fate / 1e6,
        stuck as f64 / CELLS as f64,
        reram / sram,
    );
    let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_reram.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
    print!("{json}");
}

criterion_group!(benches, bench_reram);

fn main() {
    benches();
    emit_json();
}
