//! SGD training loop for the executable networks.

use crate::loss::softmax_cross_entropy;
use crate::network::Sequential;
use crate::tensor::Tensor;

/// Stochastic gradient descent with classical momentum and L2 weight
/// decay.
///
/// Momentum state is keyed by parameter visitation order, which
/// [`Sequential::visit_params`] guarantees to be stable.
///
/// # Example
///
/// ```
/// use dnnlife_nn::layers::Dense;
/// use dnnlife_nn::train::Sgd;
/// use dnnlife_nn::{Sequential, Tensor};
///
/// let mut net = Sequential::new("n");
/// net.push(Dense::new("fc", 2, 2));
/// let mut sgd = Sgd::new(0.1, 0.9, 0.0);
/// let loss = sgd.step(&mut net, &Tensor::zeros(&[4, 2]), &[0, 1, 0, 1]);
/// assert!(loss > 0.0);
/// ```
#[derive(Debug)]
pub struct Sgd {
    learning_rate: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate <= 0`, or momentum/weight decay are
    /// outside `[0, 1)`.
    pub fn new(learning_rate: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(learning_rate > 0.0, "Sgd: learning rate must be > 0");
        assert!(
            (0.0..1.0).contains(&momentum),
            "Sgd: momentum must be in [0,1)"
        );
        assert!(
            (0.0..1.0).contains(&weight_decay),
            "Sgd: weight decay must be in [0,1)"
        );
        Self {
            learning_rate,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Runs one forward/backward/update step on a batch, returning the
    /// batch loss.
    pub fn step(&mut self, net: &mut Sequential, images: &Tensor, labels: &[usize]) -> f32 {
        let logits = net.forward(images);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        // Gradients accumulate in the layers; clear before backward.
        net.visit_params(&mut |p| p.grad.fill(0.0));
        let _ = net.backward(&grad);
        self.apply(net);
        loss
    }

    /// Applies the accumulated gradients (visible for tests; `step` is the
    /// normal entry point).
    pub fn apply(&mut self, net: &mut Sequential) {
        let (lr, mu, wd) = (self.learning_rate, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        net.visit_params(&mut |p| {
            if velocity.len() == idx {
                velocity.push(vec![0.0; p.value.len()]);
            }
            let v = &mut velocity[idx];
            assert_eq!(
                v.len(),
                p.value.len(),
                "Sgd: parameter {} changed size between steps",
                p.name
            );
            for ((value, grad), vel) in p.value.iter_mut().zip(p.grad.iter()).zip(v.iter_mut()) {
                let g = grad + wd * *value;
                *vel = mu * *vel - lr * g;
                *value += *vel;
            }
            idx += 1;
        });
    }
}

/// Fraction of correct argmax predictions on a labelled batch.
///
/// # Panics
///
/// Panics if the label count differs from the batch size.
pub fn accuracy(net: &mut Sequential, images: &Tensor, labels: &[usize]) -> f64 {
    let preds = net.predict(images);
    assert_eq!(preds.len(), labels.len(), "accuracy: batch size mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, ReLU};

    /// A linearly separable toy problem: class = (x0 > x1).
    fn toy_batch(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        // Simple deterministic LCG so this test has no RNG dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = next();
            let b = next();
            data.push(a);
            data.push(b);
            labels.push(usize::from(a > b));
        }
        (Tensor::from_vec(&[n, 2], data), labels)
    }

    fn toy_net() -> Sequential {
        let mut net = Sequential::new("toy");
        let mut fc1 = Dense::new("fc1", 2, 8);
        fc1.set_weights(Tensor::from_fn(&[8, 2], |i| ((i % 5) as f32 - 2.0) * 0.3));
        let mut fc2 = Dense::new("fc2", 8, 2);
        fc2.set_weights(Tensor::from_fn(&[2, 8], |i| ((i % 7) as f32 - 3.0) * 0.2));
        net.push(fc1);
        net.push(ReLU::new());
        net.push(fc2);
        net
    }

    #[test]
    fn sgd_reduces_loss_and_learns() {
        let mut net = toy_net();
        let mut sgd = Sgd::new(0.05, 0.9, 1e-4);
        let (images, labels) = toy_batch(128, 7);
        let first = sgd.step(&mut net, &images, &labels);
        let mut last = first;
        for _ in 0..60 {
            last = sgd.step(&mut net, &images, &labels);
        }
        assert!(
            last < first * 0.5,
            "loss did not drop: first {first}, last {last}"
        );
        assert!(accuracy(&mut net, &images, &labels) > 0.9);
    }

    #[test]
    fn momentum_accumulates() {
        // With momentum and constant gradient the second update is larger.
        let mut net = Sequential::new("m");
        net.push(Dense::new("fc", 1, 2));
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        let images = Tensor::from_vec(&[1, 1], vec![1.0]);
        let mut weights = Vec::new();
        for _ in 0..3 {
            let _ = sgd.step(&mut net, &images, &[0]);
            net.visit_params(&mut |p| {
                if p.name == "fc.weight" {
                    weights.push(p.value[0]);
                }
            });
        }
        let d1 = (weights[1] - weights[0]).abs();
        let d0 = weights[0].abs();
        assert!(d1 > d0, "momentum should grow steps: {weights:?}");
    }

    #[test]
    fn accuracy_counts_matches() {
        let mut net = toy_net();
        let (images, labels) = toy_batch(10, 3);
        let acc = accuracy(&mut net, &images, &labels);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    #[should_panic(expected = "learning rate must be > 0")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.9, 0.0);
    }
}
