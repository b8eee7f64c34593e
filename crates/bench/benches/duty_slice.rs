//! Duty-counter micro-bench: the bit-sliced carry-save tracker
//! ([`DutySliceTracker`]) against the scalar per-cell tracker
//! ([`DutyCycleTracker`]) on the exact simulator's hot operation —
//! `record_packed` over a packed cell state. This is the 64-cells-per-
//! u64-op speedup the bit-sliced inner loop exists to provide; on the
//! uniform-dwell path the sliced tracker should clear ~10× the scalar
//! one.
//!
//! Besides the Criterion group, the bench re-times both trackers
//! directly (best of three) and writes cell-updates/sec plus the
//! sliced-over-scalar speedup to `BENCH_duty_slice.json` (override the
//! path with the `BENCH_JSON_PATH` env var), so CI records the duty
//! accumulator's throughput trajectory alongside the end-to-end
//! exact_shards numbers.

use criterion::{criterion_group, Criterion};
use dnnlife_sram::{DutyCycleTracker, DutySliceTracker};

/// One SRAM bank's worth of cells: 64 Ki cells = 1024 packed words —
/// big enough to stream, small enough that a round fits in L1/L2.
const CELLS: usize = 64 * 1024;
const WORDS: usize = CELLS / 64;

/// Rounds per timed pass. 256 rounds crosses the sliced tracker's
/// carry-save spill boundary (255 records) so the spill cost is paid
/// inside the measurement, not hidden outside it.
const ROUNDS: u64 = 256;

/// Deterministic word pattern for round `round`, word `w` (same
/// splitmix-style mix the slice property tests use).
fn pattern(round: u64, w: usize) -> u64 {
    (round ^ w as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left((round % 61) as u32)
}

/// Pre-built packed states, one per round, reused across passes so the
/// generators stay out of the measurement.
fn states() -> Vec<Vec<u64>> {
    (0..ROUNDS)
        .map(|round| (0..WORDS).map(|w| pattern(round, w)).collect())
        .collect()
}

fn run_scalar(states: &[Vec<u64>]) -> f64 {
    let mut tracker = DutyCycleTracker::new(CELLS);
    for state in states {
        tracker.record_packed(state, 1.0);
    }
    tracker.duty(0)
}

fn run_sliced(states: &[Vec<u64>]) -> f64 {
    let mut tracker = DutySliceTracker::new(CELLS);
    for state in states {
        tracker.record_packed(state, 1.0);
    }
    tracker.into_duties()[0]
}

fn bench_duty_slice(c: &mut Criterion) {
    let states = states();
    // Both paths must agree on the result before we time them.
    assert_eq!(run_scalar(&states), run_sliced(&states));
    let mut group = c.benchmark_group("duty_slice_64ki_cells");
    group.sample_size(10);
    group.bench_function("scalar_tracker", |b| b.iter(|| run_scalar(&states)));
    group.bench_function("sliced_tracker", |b| b.iter(|| run_sliced(&states)));
    group.finish();
}

/// Wall-clock seconds for one full pass, best of `passes` (one warm
/// pass first).
fn best_of(states: &[Vec<u64>], run: fn(&[Vec<u64>]) -> f64, passes: usize) -> f64 {
    run(states);
    (0..passes)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(run(std::hint::black_box(states)));
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn emit_json() {
    let states = states();
    let updates = (CELLS as u64 * ROUNDS) as f64;
    let scalar_secs = best_of(&states, run_scalar, 3);
    let sliced_secs = best_of(&states, run_sliced, 3);
    let cores = dnnlife_nn::exec::thread_count(0);
    let json = format!(
        "{{\n  \"bench\": \"duty_slice\",\n  \"cells\": {CELLS},\n  \"rounds\": {ROUNDS},\n  \
         \"host_cores\": {cores},\n  \"results\": [\n    \
         {{\"tracker\": \"scalar\", \"seconds\": {scalar_secs:.6}, \
         \"cell_updates_per_sec\": {:.0}}},\n    \
         {{\"tracker\": \"sliced\", \"seconds\": {sliced_secs:.6}, \
         \"cell_updates_per_sec\": {:.0}, \"speedup_vs_scalar\": {:.3}}}\n  ]\n}}\n",
        updates / scalar_secs,
        updates / sliced_secs,
        scalar_secs / sliced_secs,
    );
    let path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_duty_slice.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
    print!("{json}");
}

criterion_group!(benches, bench_duty_slice);

fn main() {
    benches();
    emit_json();
}
