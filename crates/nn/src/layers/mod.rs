//! Trainable layers: convolution, dense, activation and pooling.
//!
//! Every layer implements [`Layer`] with a caching `forward` and a
//! gradient-producing `backward`, which is all the SGD trainer in
//! [`crate::train`] needs. `Conv2d` lowers to an im2col GEMM (patches
//! gathered by run copies) fanned over the batch within the
//! [`crate::exec`] thread budget, and `Dense` runs its batch through the
//! same register-tiled kernel, so the full zoo — the paper's custom
//! MNIST CNN *and* the ImageNet-class AlexNet/VGG stacks built by
//! [`crate::zoo`] — executes end to end. The backward passes skip zero
//! upstream gradients and add each remaining one's products over
//! contiguous runs: `Conv2d` over tap × input-channel runs, `Dense` over
//! whole rows. `ReLU` is one branch-free select each way and `MaxPool2d`
//! a select-based running max. Every
//! kernel adds each accumulator's terms in the textbook loop's order, so
//! results are bit-identical to the direct loops (`tests/exec_props.rs`).

mod activation;
mod conv;
mod dense;
mod gemm;
mod pool;

pub use activation::ReLU;
pub use conv::Conv2d;
pub use dense::{Dense, Flatten};
pub use pool::MaxPool2d;

use crate::tensor::Tensor;

/// A mutable view over one parameter tensor and its gradient, handed to
/// optimizers via [`Layer::visit_params`].
#[derive(Debug)]
pub struct ParamView<'a> {
    /// Human-readable parameter name, e.g. `"conv1.weight"`.
    pub name: &'a str,
    /// Parameter values (updated in place by the optimizer).
    pub value: &'a mut [f32],
    /// Accumulated gradient (zeroed by the optimizer after each step).
    pub grad: &'a mut [f32],
}

/// A differentiable network layer.
///
/// `forward` caches whatever `backward` needs; `backward` consumes the
/// gradient w.r.t. the layer output and returns the gradient w.r.t. the
/// layer input while *accumulating* parameter gradients internally.
/// Layers are plain data: `Send + Sync`, and cloneable through
/// [`LayerClone`], so a built network can be copied instead of rebuilt.
pub trait Layer: std::fmt::Debug + Send + Sync + LayerClone {
    /// Layer instance name (used in parameter names and debugging).
    fn name(&self) -> &str;

    /// Runs the layer on `input`, caching activations for `backward`.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// returning the gradient w.r.t. the layer's input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every `(value, grad)` parameter pair. Parameter-free layers
    /// use the default empty implementation.
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(ParamView<'_>)) {}

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }
}

/// Clones a boxed [`Layer`]; implemented for every `Layer + Clone`.
pub trait LayerClone {
    /// A boxed copy of this layer.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by the layer tests.

    use super::*;

    /// Verifies `layer.backward` against central finite differences of a
    /// scalar loss `L = sum(forward(x) * probe)`.
    pub fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let out = layer.forward(input);
        // Probe vector fixed by a cheap deterministic pattern.
        let probe: Vec<f32> = (0..out.len())
            .map(|i| ((i % 7) as f32 - 3.0) * 0.25)
            .collect();
        let grad_out = Tensor::from_vec(out.shape(), probe.clone());
        let analytic = layer.backward(&grad_out);

        let eps = 1e-2f32;
        for i in (0..input.len()).step_by((input.len() / 17).max(1)) {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let lp: f32 = layer
                .forward(&plus)
                .data()
                .iter()
                .zip(&probe)
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = layer
                .forward(&minus)
                .data()
                .iter()
                .zip(&probe)
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let got = analytic.data()[i];
            assert!(
                (got - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "input grad mismatch at {i}: analytic {got}, numeric {numeric}"
            );
        }
    }

    /// Verifies parameter gradients the same way.
    pub fn check_param_gradients(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let out = layer.forward(input);
        let probe: Vec<f32> = (0..out.len())
            .map(|i| ((i % 5) as f32 - 2.0) * 0.5)
            .collect();
        let grad_out = Tensor::from_vec(out.shape(), probe.clone());
        // Reset gradients, then accumulate once.
        layer.visit_params(&mut |p| p.grad.fill(0.0));
        let _ = layer.backward(&grad_out);

        // Snapshot analytic gradients.
        let mut analytic: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |p| analytic.push(p.grad.to_vec()));

        let eps = 1e-2f32;
        // Finite differences over a sample of each parameter tensor.
        for (pi, grads) in analytic.iter().enumerate() {
            let len = grads.len();
            fn nudge(layer: &mut dyn Layer, pi: usize, i: usize, delta: f32) {
                let mut idx = 0;
                layer.visit_params(&mut |p| {
                    if idx == pi {
                        p.value[i] += delta;
                    }
                    idx += 1;
                });
            }
            for i in (0..len).step_by((len / 13).max(1)) {
                nudge(layer, pi, i, eps);
                let lp: f32 = layer
                    .forward(input)
                    .data()
                    .iter()
                    .zip(&probe)
                    .map(|(a, b)| a * b)
                    .sum();
                nudge(layer, pi, i, -2.0 * eps);
                let lm: f32 = layer
                    .forward(input)
                    .data()
                    .iter()
                    .zip(&probe)
                    .map(|(a, b)| a * b)
                    .sum();
                nudge(layer, pi, i, eps); // restore
                let numeric = (lp - lm) / (2.0 * eps);
                let got = grads[i];
                assert!(
                    (got - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "param {pi} grad mismatch at {i}: analytic {got}, numeric {numeric}"
                );
            }
        }
    }
}
