//! SECDED codec throughput: encode and mask-decode rates at both
//! supported word widths, plus the end-to-end overhead the repair axis
//! adds to one analytic duty simulation of the Fig. 11 custom-network
//! cell.
//!
//! Besides the Criterion group, the bench re-times the codec directly
//! (best of three passes over a fixed word stream) and writes the
//! measurements to `BENCH_ecc.json` (override the path with the
//! `BENCH_JSON_PATH` env var), uploaded by CI with the other bench
//! artifacts.

use criterion::{criterion_group, Criterion};
use dnnlife_accel::{simulate_analytic, AnalyticPolicy, AnalyticSimConfig, FifoSlotMemory};
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::ecc::{RepairPolicy, SecdedCode};
use dnnlife_quant::NumberFormat;

/// Words per codec timing pass.
const STREAM: u64 = 1 << 16;

fn encode_stream(code: &SecdedCode) -> u64 {
    let mask = (1u64 << code.data_bits()) - 1;
    let mut acc = 0u64;
    for w in 0..STREAM {
        acc ^= code.encode(w.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask);
    }
    acc
}

fn decode_stream(code: &SecdedCode) -> u64 {
    let width = code.codeword_bits();
    let mut acc = 0u64;
    for w in 0..STREAM {
        // A mix of clean words, single- and double-bit error masks.
        let mask = match w % 4 {
            0 => 0,
            1 => 1u64 << (w % u64::from(width)),
            _ => (1u64 << (w % u64::from(width))) | 1,
        };
        acc ^= code.decode_mask(mask).residual;
    }
    acc
}

fn duty_sim(repair: &RepairPolicy) -> f64 {
    let slot = FifoSlotMemory::all_slots(
        &NetworkSpec::custom_mnist(),
        NumberFormat::Int8Symmetric,
        42,
    )
    .swap_remove(0)
    .with_repair(repair);
    let duties = simulate_analytic(
        &slot,
        &AnalyticPolicy::PeriodicInversion,
        &AnalyticSimConfig {
            inferences: 10,
            sample_stride: 4,
            threads: 1,
            shards: 1,
        },
    );
    duties.iter().sum()
}

fn bench_ecc(c: &mut Criterion) {
    let mut group = c.benchmark_group("secded_codec");
    for width in [8u32, 32] {
        let code = SecdedCode::for_data_bits(width);
        group.bench_function(format!("encode_{width}"), |b| {
            b.iter(|| encode_stream(&code));
        });
        group.bench_function(format!("decode_mask_{width}"), |b| {
            b.iter(|| decode_stream(&code));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("secded_duty_sim");
    group.sample_size(10);
    group.bench_function("fig11_slot_plain", |b| {
        b.iter(|| duty_sim(&RepairPolicy::None));
    });
    group.bench_function("fig11_slot_secded", |b| {
        b.iter(|| duty_sim(&RepairPolicy::Secded { interleave: 1 }));
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
    let mut results = Vec::new();
    for width in [8u32, 32] {
        let code = SecdedCode::for_data_bits(width);
        let enc = best_of(|| encode_stream(&code), 3);
        let dec = best_of(|| decode_stream(&code), 3);
        let words = STREAM as f64;
        results.push(format!(
            "{{\"width\": {width}, \"encode_mwords_per_s\": {:.3}, \
             \"decode_mwords_per_s\": {:.3}}}",
            words / enc / 1e6,
            words / dec / 1e6,
        ));
    }
    let plain = best_of(|| duty_sim(&RepairPolicy::None) as u64, 3);
    let secded = best_of(
        || duty_sim(&RepairPolicy::Secded { interleave: 1 }) as u64,
        3,
    );
    let cores = dnnlife_nn::exec::thread_count(0);
    let json = format!(
        "{{\n  \"bench\": \"ecc\",\n  \"host_cores\": {cores},\n  \"codec\": [\n    {}\n  ],\n  \
         \"duty_sim_fig11_slot\": {{\"plain_s\": {plain:.6}, \"secded_s\": {secded:.6}, \
         \"overhead\": {:.3}}}\n}}\n",
        results.join(",\n    "),
        secded / plain,
    );
    let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_ecc.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
    print!("{json}");
}

criterion_group!(benches, bench_ecc);

fn main() {
    benches();
    emit_json();
}
