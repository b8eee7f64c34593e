//! Sequential network container.

use crate::layers::{Layer, ParamView};
use crate::tensor::Tensor;

/// An ordered stack of layers executed front to back.
///
/// # Example
///
/// ```
/// use dnnlife_nn::layers::{Dense, ReLU};
/// use dnnlife_nn::{Sequential, Tensor};
///
/// let mut net = Sequential::new("mlp");
/// net.push(Dense::new("fc1", 4, 8));
/// net.push(ReLU::new());
/// net.push(Dense::new("fc2", 8, 2));
/// let out = net.forward(&Tensor::zeros(&[1, 4]));
/// assert_eq!(out.shape(), &[1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            layers: Vec::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the layers (for weight inspection).
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|b| b.as_ref())
    }

    /// Mutable access to layer `idx` (for loading weights).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn layer_mut(&mut self, idx: usize) -> &mut dyn Layer {
        self.layers[idx].as_mut()
    }

    /// Runs all layers on `input` (caching for a subsequent backward).
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Runs all layers, returning every layer's output in order (the
    /// activation stream an accelerator would spill to its activation
    /// buffer). The last element equals [`Sequential::forward`]'s
    /// result.
    pub fn forward_trace(&mut self, input: &Tensor) -> Vec<Tensor> {
        let mut x = input.clone();
        let mut trace = Vec::with_capacity(self.layers.len());
        for layer in &mut self.layers {
            x = layer.forward(&x);
            trace.push(x.clone());
        }
        trace
    }

    /// Back-propagates through all layers in reverse, returning the
    /// gradient w.r.t. the network input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Visits all parameters of all layers in a stable order.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamView<'_>)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Class predictions (argmax over the final logits) for a batch.
    ///
    /// The argmax is NaN-tolerant and total: raw IEEE faults in the
    /// weights (the fault-injection path) can drive logits to NaN or
    /// ±∞, and classification must stay deterministic rather than
    /// panic. NaN logits are treated as smaller than every real value
    /// (they can never win), an all-NaN row deterministically predicts
    /// class 0, ±∞ compare normally, and exact ties resolve to the
    /// highest tied index (the tie rule `Iterator::max_by` applied
    /// before NaNs were tolerated, so fault-free predictions are
    /// bit-identical to the historical behaviour).
    pub fn predict(&mut self, input: &Tensor) -> Vec<usize> {
        let logits = self.forward(input);
        assert_eq!(
            logits.shape().len(),
            2,
            "predict: output must be [n, classes]"
        );
        let (n, classes) = (logits.shape()[0], logits.shape()[1]);
        (0..n)
            .map(|img| nan_tolerant_argmax(&logits.data()[img * classes..(img + 1) * classes]))
            .collect()
    }
}

/// Index of the largest logit, total over every IEEE value: NaNs lose
/// to everything, all-NaN rows predict 0, ties go to the highest tied
/// index. See [`Sequential::predict`].
///
/// # Panics
///
/// Panics on an empty row.
pub fn nan_tolerant_argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of an empty class row");
    let mut best = 0usize;
    let mut best_value = f32::NAN;
    for (i, &v) in row.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        if best_value.is_nan() || v >= best_value {
            best = i;
            best_value = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, ReLU};

    fn two_layer() -> Sequential {
        let mut net = Sequential::new("t");
        let mut fc1 = Dense::new("fc1", 2, 3);
        fc1.set_weights(Tensor::from_vec(
            &[3, 2],
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        ));
        let mut fc2 = Dense::new("fc2", 3, 2);
        fc2.set_weights(Tensor::from_vec(
            &[2, 3],
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        ));
        net.push(fc1);
        net.push(ReLU::new());
        net.push(fc2);
        net
    }

    #[test]
    fn forward_composes_layers() {
        let mut net = two_layer();
        let out = net.forward(&Tensor::from_vec(&[1, 2], vec![2.0, 3.0]));
        // fc1 → [2, 3, 5], relu keeps all, fc2 selects the first two.
        assert_eq!(out.data(), &[2.0, 3.0]);
    }

    #[test]
    fn backward_chains_layers() {
        let mut net = two_layer();
        let _ = net.forward(&Tensor::from_vec(&[1, 2], vec![2.0, 3.0]));
        let gin = net.backward(&Tensor::from_vec(&[1, 2], vec![1.0, 0.0]));
        // Gradient of out[0] = x[0] (through fc1 row 0 and fc2 row 0).
        assert_eq!(gin.data(), &[1.0, 0.0]);
    }

    #[test]
    fn param_visitation_is_stable() {
        let mut net = two_layer();
        let mut names = Vec::new();
        net.visit_params(&mut |p| names.push(p.name.to_string()));
        assert_eq!(names, ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]);
        assert_eq!(net.param_count(), 6 + 3 + 6 + 2);
    }

    #[test]
    fn predict_argmax() {
        let mut net = two_layer();
        let preds = net.predict(&Tensor::from_vec(&[2, 2], vec![5.0, 0.0, 0.0, 5.0]));
        assert_eq!(preds, vec![0, 1]);
    }

    #[test]
    fn argmax_tolerates_every_ieee_edge_case() {
        // Ordinary rows.
        assert_eq!(nan_tolerant_argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(nan_tolerant_argmax(&[7.0]), 0);
        // NaNs can never win, wherever they sit.
        assert_eq!(nan_tolerant_argmax(&[f32::NAN, 1.0, 0.5]), 1);
        assert_eq!(nan_tolerant_argmax(&[1.0, f32::NAN, 0.5]), 0);
        assert_eq!(nan_tolerant_argmax(&[-1.0, -2.0, f32::NAN]), 0);
        // All-NaN rows deterministically predict class 0.
        assert_eq!(nan_tolerant_argmax(&[f32::NAN, f32::NAN, f32::NAN]), 0);
        // Infinities compare normally; +∞ beats everything real, and a
        // row of -∞ behaves like an all-tied row.
        assert_eq!(nan_tolerant_argmax(&[1.0, f32::INFINITY, 2.0]), 1);
        assert_eq!(nan_tolerant_argmax(&[f32::NEG_INFINITY, -1.0]), 1);
        assert_eq!(
            nan_tolerant_argmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]),
            1,
            "ties resolve to the highest tied index"
        );
        // Exact ties: highest tied index, matching the pre-hardening
        // `max_by` behaviour bit for bit.
        assert_eq!(nan_tolerant_argmax(&[2.0, 2.0, 1.0]), 1);
        assert_eq!(nan_tolerant_argmax(&[0.0, -0.0]), 1, "-0.0 ties +0.0");
        // Deterministic: repeated evaluation agrees.
        let row = [f32::NAN, 3.0, 3.0, f32::NEG_INFINITY];
        assert_eq!(nan_tolerant_argmax(&row), nan_tolerant_argmax(&row));
        assert_eq!(nan_tolerant_argmax(&row), 2);
    }

    #[test]
    #[should_panic(expected = "empty class row")]
    fn argmax_rejects_empty_rows() {
        let _ = nan_tolerant_argmax(&[]);
    }

    #[test]
    fn forward_trace_matches_forward() {
        let mut net = two_layer();
        let input = Tensor::from_vec(&[1, 2], vec![2.0, 3.0]);
        let out = net.forward(&input);
        let trace = net.forward_trace(&input);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.last().unwrap().data(), out.data());
        // First layer output is the fc1 result before ReLU.
        assert_eq!(trace[0].data(), &[2.0, 3.0, 5.0]);
    }

    #[test]
    fn mixed_shapes_through_flatten() {
        let mut net = Sequential::new("m");
        net.push(Flatten::new());
        net.push(Dense::new("fc", 12, 2));
        let out = net.forward(&Tensor::zeros(&[2, 3, 2, 2]));
        assert_eq!(out.shape(), &[2, 2]);
    }
}
