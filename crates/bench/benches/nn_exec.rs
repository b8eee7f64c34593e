//! im2col executor throughput: the batched GEMM-lowered forward pass
//! that backs the opened zoo — AlexNet at its native 227×227 input and
//! the custom MNIST CNN for scale contrast — measured in images/s and
//! effective GMAC/s under the campaign thread budget.
//!
//! Besides the Criterion group, the bench re-times both directly (best
//! of three passes) and writes the measurements to `BENCH_nn_exec.json`
//! (override the path with the `BENCH_JSON_PATH` env var), uploaded by
//! CI with the other bench artifacts. The JSON also carries the custom
//! network's per-layer serial forward GMAC/s at the fault-injection eval
//! batch ([`EVAL_BATCH`] images), the batch every accuracy score runs.

use criterion::{criterion_group, Criterion};
use dnnlife_nn::data::{adapt_batch, SyntheticMnist};
use dnnlife_nn::exec;
use dnnlife_nn::zoo::{build_network, NetworkSpec};
use dnnlife_nn::Sequential;
use dnnlife_nn::Tensor;

/// Images per forward pass. Small enough that a debug-free release
/// pass finishes in seconds, large enough that the per-image
/// round-robin split at a multi-core budget is exercised.
const BATCH: usize = 4;

/// Images per accuracy score in the CI fault-injection command
/// (`--eval-images 100`).
const EVAL_BATCH: usize = 100;

fn batch_for(spec: &NetworkSpec, images: usize) -> Tensor {
    let (batch, _labels) = SyntheticMnist::new(42).batch(0, images);
    adapt_batch(&batch, spec.input_shape())
}

/// One budgeted batched forward pass; returns a checksum over the
/// logits so the GEMM cannot be optimized away.
fn forward_pass(net: &mut Sequential, images: &Tensor, budget: usize) -> f64 {
    exec::with_budget(budget, || {
        let out = net.forward(images);
        out.data().iter().map(|&v| f64::from(v)).sum()
    })
}

fn bench_nn_exec(c: &mut Criterion) {
    let cores = exec::thread_count(0);
    let cases = [NetworkSpec::custom_mnist(), NetworkSpec::alexnet()];
    let mut group = c.benchmark_group("im2col_forward");
    group.sample_size(10);
    for spec in &cases {
        let mut net = build_network(spec, 42);
        let images = batch_for(spec, BATCH);
        group.bench_function(format!("{}_b{BATCH}", spec.name()), |b| {
            b.iter(|| forward_pass(&mut net, &images, cores));
        });
    }
    group.finish();
}

/// Best-of-`passes` wall-clock seconds (one warm pass first).
fn best_of(mut f: impl FnMut() -> f64, passes: usize) -> f64 {
    std::hint::black_box(f());
    (0..passes)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Serial forward GMAC/s of each weight layer of `spec` on an
/// `EVAL_BATCH`-image batch, timed through `Sequential::layer_mut` on the
/// layer's own input activations, as `"name": gmacs` JSON fields.
fn layer_gmacs(spec: &NetworkSpec) -> Vec<String> {
    let mut net = build_network(spec, 42);
    let images = batch_for(spec, EVAL_BATCH);
    let acts = net.forward_trace(&images);
    let mut fields = Vec::new();
    for i in 0..net.len() {
        let name = net.layer_mut(i).name().to_string();
        let Some(layer) = spec.layers().iter().find(|l| l.name() == name) else {
            continue;
        };
        let input = if i == 0 { &images } else { &acts[i - 1] };
        let secs = best_of(
            || {
                let out = net.layer_mut(i).forward(input);
                out.data().iter().map(|&v| f64::from(v)).sum()
            },
            3,
        );
        let gmacs = layer.macs() as f64 * EVAL_BATCH as f64 / 1e9;
        fields.push(format!("\"{name}\": {:.3}", gmacs / secs));
    }
    fields
}

fn emit_json() {
    let cores = exec::thread_count(0);
    let mut fields = Vec::new();
    for spec in [NetworkSpec::custom_mnist(), NetworkSpec::alexnet()] {
        let mut net = build_network(&spec, 42);
        let images = batch_for(&spec, BATCH);
        let parallel = best_of(|| forward_pass(&mut net, &images, cores), 3);
        let serial = best_of(|| forward_pass(&mut net, &images, 1), 3);
        let macs = spec.macs() as f64 * BATCH as f64;
        fields.push(format!(
            "  \"{}\": {{\"images_per_s\": {:.3}, \"gmacs_per_s\": {:.3}, \
             \"serial_images_per_s\": {:.3}, \"parallel_speedup\": {:.3}}}",
            spec.name(),
            BATCH as f64 / parallel,
            macs / parallel / 1e9,
            BATCH as f64 / serial,
            serial / parallel,
        ));
    }
    let custom = NetworkSpec::custom_mnist();
    fields.push(format!(
        "  \"{}_layers_b{EVAL_BATCH}\": {{\"serial_gmacs_per_s\": {{{}}}}}",
        custom.name(),
        layer_gmacs(&custom).join(", "),
    ));
    let json = format!(
        "{{\n  \"bench\": \"nn_exec\",\n  \"host_cores\": {cores},\n  \
         \"batch\": {BATCH},\n{}\n}}\n",
        fields.join(",\n"),
    );
    let path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_nn_exec.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
    print!("{json}");
}

criterion_group!(benches, bench_nn_exec);

fn main() {
    benches();
    emit_json();
}
