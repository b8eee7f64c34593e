//! Fault-injection pipeline throughput on the smoke-sized cell
//! (TPU-like NPU, custom MNIST network, int8, untrained weights): one
//! full `run_injection` per policy — duty simulation, failure-model
//! mapping, seeded trials and held-out evaluation.
//!
//! Besides the Criterion group, the bench re-times each policy
//! directly (best of three full runs) and writes the measurements to
//! `BENCH_faultsim.json` (override the path with the `BENCH_JSON_PATH`
//! env var), so CI records the injection engine's throughput
//! trajectory alongside `BENCH_exact_shards.json`.

use criterion::{criterion_group, Criterion};
use dnnlife_core::experiment::{ExperimentSpec, NetworkKind, PolicySpec};
use dnnlife_core::FaultInjectionSpec;
use dnnlife_faultsim::{run_injection, InjectOptions};

/// Bench-sized injection cell: untrained network (training is a fixed
/// per-campaign cost, not the steady-state path), two checkpoints, a
/// handful of trials.
fn bench_spec(policy: PolicySpec) -> FaultInjectionSpec {
    let mut scenario = ExperimentSpec::fig11(NetworkKind::CustomMnist, policy, 42);
    scenario.inferences = 10;
    let mut spec = FaultInjectionSpec::paper_default(scenario);
    spec.train_steps = 0;
    spec.trials = 3;
    spec.eval_images = 16;
    spec.ages_years = vec![0.0, 7.0];
    spec
}

fn policies() -> Vec<(&'static str, PolicySpec)> {
    vec![
        ("none", PolicySpec::None),
        (
            "dnn-life",
            PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits: 4,
            },
        ),
    ]
}

fn run_cell(spec: &FaultInjectionSpec) {
    let result = run_injection(spec, &InjectOptions::default()).expect("uncancelled");
    assert!(result.weight_bits > 0);
}

fn bench_faultsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("faultsim_fig11_custom_int8");
    group.sample_size(10);
    for (name, policy) in policies() {
        let spec = bench_spec(policy);
        group.bench_function(name, |b| {
            b.iter(|| run_cell(&spec));
        });
    }
    group.finish();
}

/// Wall-clock seconds for one full run, best of `passes` (one warm
/// pass first).
fn best_of(spec: &FaultInjectionSpec, passes: usize) -> f64 {
    run_cell(spec);
    (0..passes)
        .map(|_| {
            let started = std::time::Instant::now();
            run_cell(spec);
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn emit_json() {
    let results: Vec<String> = policies()
        .iter()
        .map(|(name, policy)| {
            let spec = bench_spec(*policy);
            let secs = best_of(&spec, 3);
            format!(
                "{{\"policy\": \"{name}\", \"trials\": {}, \"ages\": {}, \"seconds\": {secs:.6}}}",
                spec.trials,
                spec.ages_years.len(),
            )
        })
        .collect();
    let cores = dnnlife_nn::exec::thread_count(0);
    let json = format!(
        "{{\n  \"bench\": \"faultsim\",\n  \"cell\": \"fig11/Custom (MNIST)/int8/inject\",\n  \
         \"host_cores\": {cores},\n  \"results\": [\n    {}\n  ]\n}}\n",
        results.join(",\n    ")
    );
    let path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_faultsim.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
    print!("{json}");
}

criterion_group!(benches, bench_faultsim);

fn main() {
    benches();
    emit_json();
}
