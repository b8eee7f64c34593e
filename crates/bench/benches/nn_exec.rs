//! im2col executor throughput: the batched GEMM-lowered forward pass
//! that backs the opened zoo — AlexNet at its native 227×227 input and
//! the custom MNIST CNN for scale contrast — measured in images/s and
//! effective GMAC/s under the campaign thread budget.
//!
//! Besides the Criterion group, the bench re-times both directly (best
//! of three passes) and writes the measurements to `BENCH_nn_exec.json`
//! (override the path with the `BENCH_JSON_PATH` env var), uploaded by
//! CI with the other bench artifacts. The JSON also carries, for the
//! custom network:
//!
//! * each weight layer's serial forward GMAC/s at the fault-injection
//!   eval batch ([`EVAL_BATCH`] images), the batch every accuracy score
//!   runs;
//! * every layer's serial forward ms at that batch, ReLU, max-pool and
//!   flatten included;
//! * every layer's serial backward ms at the training batch
//!   ([`TRAIN_BATCH`] images), on the gradients one real training step
//!   hands it (cross-entropy at the initial weights), so ReLU and
//!   max-pool leave the upstream gradient as sparse as training sees it.

use criterion::{criterion_group, Criterion};
use dnnlife_faultsim::network::TRAIN_BATCH;
use dnnlife_nn::data::{adapt_batch, SyntheticMnist};
use dnnlife_nn::exec;
use dnnlife_nn::loss::softmax_cross_entropy;
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
    labelled_batch_for(spec, images).0
}

fn labelled_batch_for(spec: &NetworkSpec, images: usize) -> (Tensor, Vec<usize>) {
    let (batch, labels) = SyntheticMnist::new(42).batch(0, images);
    (adapt_batch(&batch, spec.input_shape()), labels)
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

/// Serial forward seconds of every layer of `spec` on an
/// `EVAL_BATCH`-image batch (best of three), timed through
/// `Sequential::layer_mut` on the layer's own input activations, with
/// the layer's name.
fn layer_forward_secs(spec: &NetworkSpec) -> Vec<(String, f64)> {
    let mut net = build_network(spec, 42);
    let images = batch_for(spec, EVAL_BATCH);
    let acts = net.forward_trace(&images);
    (0..net.len())
        .map(|i| {
            let input = if i == 0 { &images } else { &acts[i - 1] };
            let secs = best_of(
                || {
                    let out = net.layer_mut(i).forward(input);
                    out.data().iter().map(|&v| f64::from(v)).sum()
                },
                3,
            );
            (net.layer_mut(i).name().to_string(), secs)
        })
        .collect()
}

/// A JSON key for layer `i` of a network: its index, so the repeated
/// `relu` and `maxpool` names stay distinct, then its name.
fn layer_key(i: usize, name: &str) -> String {
    format!("{i:02}_{name}")
}

/// Serial backward ms of every layer of `spec` on a `TRAIN_BATCH`-image
/// batch (best of three). One forward pass caches every layer's input;
/// the cross-entropy gradient is then walked back once to record the
/// gradient each layer receives, and each layer's backward is re-timed
/// on its own. Backward leaves the forward caches in place (parameter
/// gradients only accumulate), so the repeats see the same inputs.
fn layer_backward_ms(spec: &NetworkSpec) -> Vec<String> {
    let mut net = build_network(spec, 42);
    let (images, labels) = labelled_batch_for(spec, TRAIN_BATCH);
    let logits = net.forward(&images);
    let (_loss, mut grad) = softmax_cross_entropy(&logits, &labels);
    let mut grads = Vec::with_capacity(net.len());
    for i in (0..net.len()).rev() {
        let upstream = net.layer_mut(i).backward(&grad);
        grads.push(std::mem::replace(&mut grad, upstream));
    }
    grads.reverse();
    (0..net.len())
        .map(|i| {
            let secs = best_of(
                || {
                    let out = net.layer_mut(i).backward(&grads[i]);
                    out.data().iter().map(|&v| f64::from(v)).sum()
                },
                3,
            );
            let key = layer_key(i, net.layer_mut(i).name());
            format!("\"{key}\": {:.3}", secs * 1e3)
        })
        .collect()
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
    let forward = layer_forward_secs(&custom);
    let gmacs: Vec<String> = forward
        .iter()
        .filter_map(|(name, secs)| {
            let layer = custom.layers().iter().find(|l| l.name() == name)?;
            let gmacs = layer.macs() as f64 * EVAL_BATCH as f64 / 1e9;
            Some(format!("\"{name}\": {:.3}", gmacs / secs))
        })
        .collect();
    let forward_ms: Vec<String> = forward
        .iter()
        .enumerate()
        .map(|(i, (name, secs))| format!("\"{}\": {:.3}", layer_key(i, name), secs * 1e3))
        .collect();
    fields.push(format!(
        "  \"{}_layers_b{EVAL_BATCH}\": {{\"serial_gmacs_per_s\": {{{}}}}}",
        custom.name(),
        gmacs.join(", "),
    ));
    fields.push(format!(
        "  \"{}_layers_forward_b{EVAL_BATCH}\": {{\"serial_ms\": {{{}}}}}",
        custom.name(),
        forward_ms.join(", "),
    ));
    fields.push(format!(
        "  \"{}_layers_backward_b{TRAIN_BATCH}\": {{\"serial_ms\": {{{}}}}}",
        custom.name(),
        layer_backward_ms(&custom).join(", "),
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
