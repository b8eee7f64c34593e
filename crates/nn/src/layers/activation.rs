//! Elementwise activation layers.

use super::Layer;
use crate::tensor::Tensor;

/// Rectified linear unit, `y = max(0, x)`, applied elementwise to any
/// tensor shape. `−0.0` and NaN map to `+0.0` and block the gradient,
/// as `x = 0` does.
///
/// # Example
///
/// ```
/// use dnnlife_nn::layers::{Layer, ReLU};
/// use dnnlife_nn::Tensor;
///
/// let mut relu = ReLU::new();
/// let out = relu.forward(&Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]));
/// assert_eq!(out.data(), &[0.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        // One select pass writes the output and the mask. `x > 0.0` is
        // false for −0.0 and NaN, so both leave as +0.0.
        let mut out = Tensor::zeros(input.shape());
        let mut mask = vec![false; input.len()];
        for ((o, m), &x) in out.data_mut().iter_mut().zip(&mut mask).zip(input.data()) {
            let keep = x > 0.0;
            *m = keep;
            *o = if keep { x } else { 0.0 };
        }
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("ReLU::backward called before forward");
        assert_eq!(
            mask.len(),
            grad_out.len(),
            "ReLU::backward: gradient length mismatch"
        );
        let mut grad_in = Tensor::zeros(grad_out.shape());
        for ((g, &keep), &go) in grad_in.data_mut().iter_mut().zip(mask).zip(grad_out.data()) {
            *g = if keep { go } else { 0.0 };
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let out = relu.forward(&Tensor::from_vec(&[4], vec![-2.0, -0.0, 0.5, 3.0]));
        assert_eq!(out.data(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = ReLU::new();
        let _ = relu.forward(&Tensor::from_vec(&[4], vec![-1.0, 1.0, -3.0, 2.0]));
        let grad = relu.backward(&Tensor::from_vec(&[4], vec![10.0, 10.0, 10.0, 10.0]));
        assert_eq!(grad.data(), &[0.0, 10.0, 0.0, 10.0]);
    }

    #[test]
    fn zero_input_blocks_gradient() {
        // x = 0 is in the non-passing region (subgradient choice 0).
        let mut relu = ReLU::new();
        let _ = relu.forward(&Tensor::from_vec(&[1], vec![0.0]));
        let grad = relu.backward(&Tensor::from_vec(&[1], vec![5.0]));
        assert_eq!(grad.data(), &[0.0]);
    }
}
