//! Exact-backend shard scaling on the Fig. 11 exact cell (TPU-like
//! NPU, custom MNIST network, int8, DNN-Life policy): the same
//! scenario at 1 / 2 / 4 / 8 word shards, each shard count executed on
//! that many threads. This is the speedup the word-sharded simulator
//! exists to provide — on a ≥4-core box the 4-shard run should be at
//! least ~2× the 1-shard run.
//!
//! Besides the Criterion group, the bench re-times each shard count
//! directly (best of three full runs) and writes the measurements to
//! `BENCH_exact_shards.json` (override the path with the
//! `BENCH_JSON_PATH` env var), so CI can start recording the exact
//! backend's throughput trajectory.
//!
//! The JSON also carries a serial per-policy section on the Fig. 9
//! AlexNet baseline plan at the perfbench sweep's stride and inference
//! count: int8 and fp32 × none / barrel shifter / DNN-Life, one shard
//! on one thread, each as ns per logical word write (best of three
//! runs, cache fill included) and the bytes of its packed raw-block
//! cache.

use criterion::{criterion_group, Criterion};
use dnnlife_accel::{
    simulate_exact_sharded, AcceleratorConfig, BlockSource, ExactShardConfig, FlatWeightMemory,
};
use dnnlife_core::experiment::{
    ExperimentSpec, NetworkKind, PolicySpec, RunOptions, ShardPolicy, SimulatorBackend,
};
use dnnlife_core::run_experiment_with;
use dnnlife_mitigation::packed::image_len;
use dnnlife_mitigation::{
    AgingController, BarrelShifter, DnnLife, Passthrough, PseudoTrbg, WriteTransducer,
};
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::NumberFormat;

/// The Fig. 11 exact cell, sized so one run takes on the order of a
/// hundred milliseconds in release mode: every 4th word of all four
/// FIFO slots, 25 inferences.
fn fig11_exact_cell() -> ExperimentSpec {
    let mut spec = ExperimentSpec::fig11(
        NetworkKind::CustomMnist,
        PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: true,
            m_bits: 4,
        },
        42,
    );
    spec.backend = SimulatorBackend::Exact;
    spec.sample_stride = 4;
    spec.inferences = 25;
    spec
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn run_cell(spec: &ExperimentSpec, shards: usize) {
    let opts = RunOptions {
        threads: shards,
        shards: ShardPolicy::Fixed(shards),
        ..RunOptions::default()
    };
    let result = run_experiment_with(spec, &opts).expect("not cancelled");
    assert!(result.cells > 0);
}

fn bench_exact_shards(c: &mut Criterion) {
    let spec = fig11_exact_cell();
    let mut group = c.benchmark_group("exact_shards_fig11_dnnlife");
    group.sample_size(10);
    for shards in SHARD_COUNTS {
        group.bench_function(format!("shards_{shards}"), |b| {
            b.iter(|| run_cell(&spec, shards));
        });
    }
    group.finish();
}

/// Wall-clock seconds for one full run at `shards` shards, best of
/// `passes` (one warm pass first).
fn best_of(spec: &ExperimentSpec, shards: usize, passes: usize) -> f64 {
    run_cell(spec, shards);
    (0..passes)
        .map(|_| {
            let started = std::time::Instant::now();
            run_cell(spec, shards);
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Sampled-word stride and inferences of the serial per-policy cases
/// (those of the perfbench `sweep-fig9-exact` workload).
const FIG9_STRIDE: usize = 32;
const FIG9_INFERENCES: u64 = 10;

/// The serial per-policy cases: every policy on both formats.
fn fig9_policy_cases() -> Vec<String> {
    let mut results = Vec::new();
    for (label, format) in [
        ("int8", NumberFormat::Int8Symmetric),
        ("fp32", NumberFormat::Fp32),
    ] {
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::alexnet(),
            format,
            42,
        );
        let geo = mem.geometry();
        let width = geo.word_bits;
        let sampled = geo.words.div_ceil(FIG9_STRIDE);
        let writes = sampled as u64 * mem.block_count() * FIG9_INFERENCES;
        let cache_bytes = mem.block_count() as usize * image_len(sampled, width) * 8;
        let policies: [Box<dyn WriteTransducer>; 3] = [
            Box::new(Passthrough::new(width)),
            Box::new(BarrelShifter::new(width, geo.words)),
            Box::new(DnnLife::new(
                width,
                AgingController::new(PseudoTrbg::new(42, 0.5), 4),
            )),
        ];
        for policy in policies {
            let run = || {
                let cfg = ExactShardConfig {
                    threads: 1,
                    ..ExactShardConfig::default()
                };
                let duties = simulate_exact_sharded(
                    &mem,
                    policy.as_ref(),
                    FIG9_INFERENCES,
                    FIG9_STRIDE,
                    &cfg,
                )
                .expect("not cancelled");
                assert_eq!(duties.len(), sampled * width as usize);
            };
            run();
            let seconds = (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    run();
                    started.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            results.push(format!(
                "{{\"format\": \"{}\", \"policy\": \"{}\", \"word_bits\": {width}, \
                 \"sampled_words\": {sampled}, \"blocks\": {}, \"word_writes\": {writes}, \
                 \"ns_per_word_write\": {:.3}, \"raw_cache_bytes\": {cache_bytes}}}",
                label,
                policy.name(),
                mem.block_count(),
                seconds * 1e9 / writes as f64
            ));
        }
    }
    results
}

fn emit_json() {
    let spec = fig11_exact_cell();
    let seconds: Vec<(usize, f64)> = SHARD_COUNTS
        .iter()
        .map(|&shards| (shards, best_of(&spec, shards, 3)))
        .collect();
    let base = seconds[0].1;
    let results: Vec<String> = seconds
        .iter()
        .map(|(shards, secs)| {
            format!(
                "{{\"shards\": {shards}, \"threads\": {shards}, \"seconds\": {secs:.6}, \
                 \"speedup_vs_1\": {:.3}}}",
                base / secs
            )
        })
        .collect();
    let cores = dnnlife_nn::exec::thread_count(0);
    let json = format!(
        "{{\n  \"bench\": \"exact_shards\",\n  \"cell\": \"fig11/Custom (MNIST)/int8/dnn-life [exact]\",\n  \
         \"sample_stride\": {},\n  \"inferences\": {},\n  \"host_cores\": {cores},\n  \"results\": [\n    {}\n  ],\n  \
         \"fig9_serial\": {{\"plan\": \"Baseline/AlexNet\", \"sample_stride\": {FIG9_STRIDE}, \
         \"inferences\": {FIG9_INFERENCES}, \"shards\": 1, \"threads\": 1, \"results\": [\n    {}\n  ]}}\n}}\n",
        spec.sample_stride,
        spec.inferences,
        results.join(",\n    "),
        fig9_policy_cases().join(",\n    ")
    );
    let path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_exact_shards.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
    print!("{json}");
}

criterion_group!(benches, bench_exact_shards);

fn main() {
    benches();
    emit_json();
}
