//! Bit-identity pins for the custom MNIST network's training and
//! scoring, the two forward-heavy paths fault injection runs.
//!
//! Each case trains `build_network(custom-mnist, seed)` for 60 SGD steps
//! with the fault-injection recipe (batch 24, LR 0.05, momentum 0.9,
//! weight decay 1e-4, batch `step · 24` of the procedural digits that
//! `MnistSource::from_env(seed)` selects by default), then scores the
//! 100-image holdout batch at sample `1 << 20`. Two FNV-1a digests over
//! the little-endian `f32::to_bits` bytes are pinned: every parameter
//! tensor in `visit_params` order, and the holdout logits. Any change to
//! a layer's f32 accumulation order moves them.
//!
//! The literals were generated by the row-at-a-time dot-loop executor
//! that preceded the tiled GEMM kernel (print them with
//! `cargo test -p dnnlife-nn --release --test forward_pins -- --nocapture`).

use dnnlife_nn::data::SyntheticMnist;
use dnnlife_nn::train::Sgd;
use dnnlife_nn::zoo::{build_network, NetworkSpec};

const STEPS: u64 = 60;
const BATCH: usize = 24;
const HOLDOUT: u64 = 1 << 20;
const HOLDOUT_IMAGES: usize = 100;

/// `(seed, params digest, logits digest)`.
const PINS: [(u64, u64, u64); 3] = [
    (3, 0xf68f_73a6_ddc2_4bec, 0x283f_2e74_3c4e_95a5),
    (11, 0xba4d_39bf_90c9_2f4f, 0x5315_9979_bb04_4525),
    (42, 0x0f18_003c_63f3_3e7f, 0xff45_08ec_ddb0_1acd),
];

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Trains one seed and returns its `(params, logits)` digests.
fn digests(seed: u64) -> (u64, u64) {
    let data = SyntheticMnist::new(seed);
    let mut net = build_network(&NetworkSpec::custom_mnist(), seed);
    let mut sgd = Sgd::new(0.05, 0.9, 1e-4);
    for step in 0..STEPS {
        let (images, labels) = data.batch(step * BATCH as u64, BATCH);
        let _ = sgd.step(&mut net, &images, &labels);
    }
    let mut params = Vec::new();
    net.visit_params(&mut |p| params.extend_from_slice(p.value));
    let (holdout, _) = data.batch(HOLDOUT, HOLDOUT_IMAGES);
    let logits = net.forward(&holdout);
    (fnv1a(&params), fnv1a(logits.data()))
}

#[test]
fn trained_parameters_and_holdout_logits_are_bit_pinned() {
    for (seed, params, logits) in PINS {
        let (got_params, got_logits) = digests(seed);
        println!("seed {seed}: params {got_params:016x}, logits {got_logits:016x}");
        assert_eq!(
            (got_params, got_logits),
            (params, logits),
            "seed {seed}: got params {got_params:016x}, logits {got_logits:016x}"
        );
    }
}
