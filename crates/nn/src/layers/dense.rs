//! Fully-connected (dense) layer and the flattening adapter.

use super::gemm::{axpy, gemm_acc};
use super::{Layer, ParamView};
use crate::tensor::Tensor;

/// A fully-connected layer computing `y = W x + b` over `[n, in]`
/// batches, with `W` stored `[out, in]` row-major — the same order the
/// paper's FC weight blocks are streamed to the weight memory.
///
/// The forward pass runs the whole batch through the layer's
/// register-tiled GEMM kernel, with rows = outputs and columns =
/// images. Each output is its bias plus the products added in
/// ascending input order, the same f32 chain as a per-image dot loop.
///
/// # Example
///
/// ```
/// use dnnlife_nn::layers::{Dense, Layer};
/// use dnnlife_nn::Tensor;
///
/// let mut fc = Dense::new("fc", 4, 2);
/// let out = fc.forward(&Tensor::zeros(&[3, 4]));
/// assert_eq!(out.shape(), &[3, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    name: String,
    weight_name: String,
    bias_name: String,
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with zero-initialised parameters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(name: &str, in_features: usize, out_features: usize) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "Dense: dimensions must be > 0"
        );
        let weight = Tensor::zeros(&[out_features, in_features]);
        let bias = Tensor::zeros(&[out_features]);
        Self {
            weight_name: format!("{name}.weight"),
            bias_name: format!("{name}.bias"),
            name: name.to_string(),
            in_features,
            out_features,
            grad_weight: weight.clone(),
            grad_bias: bias.clone(),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Replaces the weight matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn set_weights(&mut self, weight: Tensor) {
        assert_eq!(
            weight.shape(),
            self.weight.shape(),
            "Dense::set_weights: shape mismatch"
        );
        self.weight = weight;
    }

    /// Immutable access to the weight matrix.
    pub fn weights(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable access to the weight matrix (used by initialisers).
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Dense: input must be [n, features]");
        let (n, f) = (input.shape()[0], input.shape()[1]);
        assert_eq!(f, self.in_features, "Dense {}: feature mismatch", self.name);
        let outs = self.out_features;
        // GEMM with rows = outputs and columns = images: the batch goes
        // in as `[in][n]`, each output row starts from its bias, and the
        // `[out][n]` result is written back as `[n, out]`.
        let mut x_t = vec![0.0f32; f * n];
        for (img, x) in input.data().chunks_exact(f).enumerate() {
            for (t, &v) in x.iter().enumerate() {
                x_t[t * n + img] = v;
            }
        }
        let mut y_t = vec![0.0f32; outs * n];
        for (row, &b) in y_t.chunks_exact_mut(n).zip(self.bias.data()) {
            row.fill(b);
        }
        gemm_acc(self.weight.data(), &x_t, &mut y_t, f, n);
        let mut out = Tensor::zeros(&[n, outs]);
        for (img, y) in out.data_mut().chunks_exact_mut(outs).enumerate() {
            for (o, v) in y.iter_mut().enumerate() {
                *v = y_t[o * n + img];
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        let (n, f) = (input.shape()[0], input.shape()[1]);
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_features],
            "Dense::backward: grad shape mismatch"
        );
        let mut grad_in = Tensor::zeros(input.shape());
        for img in 0..n {
            let x = &input.data()[img * f..(img + 1) * f];
            for o in 0..self.out_features {
                let go = grad_out.data()[img * self.out_features + o];
                if go == 0.0 {
                    continue;
                }
                self.grad_bias.data_mut()[o] += go;
                let w_row = &self.weight.data()[o * f..(o + 1) * f];
                axpy(&mut grad_in.data_mut()[img * f..(img + 1) * f], go, w_row);
                axpy(&mut self.grad_weight.data_mut()[o * f..(o + 1) * f], go, x);
            }
        }
        grad_in
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamView<'_>)) {
        visitor(ParamView {
            name: &self.weight_name,
            value: self.weight.data_mut(),
            grad: self.grad_weight.data_mut(),
        });
        visitor(ParamView {
            name: &self.bias_name,
            value: self.bias.data_mut(),
            grad: self.grad_bias.data_mut(),
        });
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// Reshapes `[n, c, h, w]` activations to `[n, c*h*w]` for the first FC
/// layer, and restores the shape on the way back.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flattening adapter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let shape = input.shape().to_vec();
        assert!(
            shape.len() >= 2,
            "Flatten: input must have a batch dimension"
        );
        let n = shape[0];
        let rest: usize = shape[1..].iter().product();
        self.cached_shape = Some(shape);
        input.clone().reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("Flatten::backward called before forward");
        grad_out.clone().reshape(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn forward_known_values() {
        let mut fc = Dense::new("fc", 2, 2);
        fc.set_weights(Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let out = fc.forward(&Tensor::from_vec(&[1, 2], vec![10.0, 20.0]));
        // [1*10 + 2*20, 3*10 + 4*20] = [50, 110]
        assert_eq!(out.data(), &[50.0, 110.0]);
    }

    #[test]
    fn batched_forward() {
        let mut fc = Dense::new("fc", 3, 1);
        fc.set_weights(Tensor::from_vec(&[1, 3], vec![1.0, 1.0, 1.0]));
        let input = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = fc.forward(&input);
        assert_eq!(out.data(), &[6.0, 15.0]);
    }

    #[test]
    fn gradient_check_input_and_params() {
        let mut fc = Dense::new("fc", 6, 4);
        fc.set_weights(Tensor::from_fn(&[4, 6], |i| ((i % 7) as f32 - 3.0) * 0.1));
        let input = Tensor::from_fn(&[3, 6], |i| ((i % 5) as f32 - 2.0) * 0.3);
        gradcheck::check_input_gradient(&mut fc, &input, 1e-2);
        gradcheck::check_param_gradients(&mut fc, &input, 1e-2);
    }

    #[test]
    fn param_count() {
        let fc = Dense::new("fc", 800, 256);
        // The paper's custom network FC(256, 800): 204,800 weights + 256 bias.
        assert_eq!(fc.param_count(), 205_056);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let input = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        let out = fl.forward(&input);
        assert_eq!(out.shape(), &[2, 60]);
        let back = fl.backward(&out);
        assert_eq!(back.shape(), &[2, 3, 4, 5]);
        assert_eq!(back.data(), input.data());
    }

    #[test]
    #[should_panic(expected = "called before forward")]
    fn backward_requires_forward() {
        let mut fc = Dense::new("fc", 2, 2);
        let _ = fc.backward(&Tensor::zeros(&[1, 2]));
    }
}
