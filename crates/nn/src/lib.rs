#![warn(missing_docs)]

//! Minimal-but-real deep-learning substrate for the DNN-Life reproduction.
//!
//! The paper evaluates aging of DNN weight memories for three workloads:
//! AlexNet, VGG-16 and a small custom CNN for MNIST — all three are
//! executable end-to-end here via the im2col batched executor. This
//! crate provides everything those roles need, implemented from scratch:
//!
//! * [`tensor`] — a dense row-major `f32` tensor with the small set of
//!   shape utilities the layers need.
//! * [`layers`] — `Conv2d` (im2col, stride / padding / groups), `Dense`,
//!   `ReLU` and `MaxPool2d` (overlapping strides) with full forward
//!   *and* backward passes.
//! * [`exec`] — the thread budget the campaign layer hands down and the
//!   one job runner every parallel loop uses, byte-identical at any
//!   thread count.
//! * [`loss`] — fused softmax + cross-entropy.
//! * [`network`] — a `Sequential` container and prediction helpers.
//! * [`train`] — SGD (momentum + weight decay) and accuracy evaluation.
//! * [`data`] — a procedural MNIST-like dataset (hermetic CI default)
//!   plus an IDX-format loader for real MNIST, selected by environment
//!   (see DESIGN.md substitution #2).
//! * [`zoo`] — architecture descriptors with exact parameter counts for
//!   AlexNet (60,954,656 weights), VGG-16 (138,344,128 weights) and the
//!   paper's custom MNIST network (227,760 weights), each buildable as
//!   an executable network with trained-like weights.
//! * [`weights`] — deterministic synthetic "trained-like" weight streams
//!   (zero-mean Laplace, He-scaled per layer; DESIGN.md substitution #1)
//!   that the quantization analysis and the memory simulator consume
//!   without materialising 138M-parameter tensors.

pub mod data;
pub mod exec;
pub mod layers;
pub mod loss;
pub mod network;
pub mod tensor;
pub mod train;
pub mod weights;
pub mod zoo;

pub use network::{nan_tolerant_argmax, Sequential};
pub use tensor::Tensor;
pub use zoo::{LayerSpec, NetworkSpec};
