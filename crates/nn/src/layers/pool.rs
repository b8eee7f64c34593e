//! Spatial pooling layers.

use super::Layer;
use crate::tensor::Tensor;

/// Max pooling over `[n, c, h, w]` tensors, with an optional stride
/// smaller than the window (AlexNet's overlapping 3×3 stride-2 pools).
///
/// # Example
///
/// ```
/// use dnnlife_nn::layers::{Layer, MaxPool2d};
/// use dnnlife_nn::Tensor;
///
/// let mut pool = MaxPool2d::new(2);
/// let out = pool.forward(&Tensor::zeros(&[1, 3, 8, 8]));
/// assert_eq!(out.shape(), &[1, 3, 4, 4]);
///
/// let mut overlapping = MaxPool2d::with_stride(3, 2);
/// let out = overlapping.forward(&Tensor::zeros(&[1, 3, 55, 55]));
/// assert_eq!(out.shape(), &[1, 3, 27, 27]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    /// Flat input index of the argmax for every output element.
    argmax: Option<Vec<u32>>,
    input_shape: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a square `window × window` kernel and
    /// matching stride.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        Self::with_stride(window, window)
    }

    /// Creates a max-pool layer with a square `window × window` kernel and
    /// an explicit stride (`stride < window` gives overlapping pools).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `stride == 0`.
    pub fn with_stride(window: usize, stride: usize) -> Self {
        assert!(window > 0, "MaxPool2d: window must be > 0");
        assert!(stride > 0, "MaxPool2d: stride must be > 0");
        Self {
            window,
            stride,
            argmax: None,
            input_shape: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "maxpool"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 4, "MaxPool2d: input must be [n,c,h,w]");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let k = self.window;
        let s = self.stride;
        assert!(
            h >= k && w >= k && (h - k).is_multiple_of(s) && (w - k).is_multiple_of(s),
            "MaxPool2d: spatial dims ({h}×{w}) must divide the window ({k}) at stride {s}"
        );
        assert!(
            u32::try_from(input.len()).is_ok(),
            "MaxPool2d: input of {} values exceeds the u32 argmax index",
            input.len()
        );
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0u32; out.len()];
        let planes = input.data().chunks_exact(h * w);
        let out_planes = out.data_mut().chunks_exact_mut(oh * ow);
        for (p, ((plane, best), arg)) in planes
            .zip(out_planes)
            .zip(argmax.chunks_exact_mut(oh * ow))
            .enumerate()
        {
            let base = p * h * w;
            // The custom MNIST CNN's 2×2 windows get a constant-`k`
            // instance, so its window loops unroll.
            if k == 2 {
                pool_plane(plane, best, arg, base, 2, s, w, ow);
            } else {
                pool_plane(plane, best, arg, base, k, s, w, ow);
            }
        }
        self.argmax = Some(argmax);
        self.input_shape = Some(input.shape().to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .as_ref()
            .expect("MaxPool2d::backward called before forward");
        let shape = self.input_shape.as_ref().expect("shape cached with argmax");
        assert_eq!(
            argmax.len(),
            grad_out.len(),
            "MaxPool2d::backward: gradient length mismatch"
        );
        let mut grad_in = Tensor::zeros(shape);
        let grad = grad_in.data_mut();
        for (&i_idx, &go) in argmax.iter().zip(grad_out.data()) {
            grad[i_idx as usize] += go;
        }
        grad_in
    }
}

/// Max-pools one `[h][w]` input plane (flat offset `base` in the
/// batch) into `best` and `arg`, `ow` outputs per row.
///
/// Each window is read by slice, one row of `k` taps per kernel row,
/// into a select-based running max: strict `>` keeps the first maximum
/// and never lets NaN win, so a window with no value above −∞ (all NaN
/// or all −∞) outputs −∞ and routes its gradient to its own first tap.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pool_plane(
    plane: &[f32],
    best: &mut [f32],
    arg: &mut [u32],
    base: usize,
    k: usize,
    s: usize,
    w: usize,
    ow: usize,
) {
    let rows = best.chunks_exact_mut(ow).zip(arg.chunks_exact_mut(ow));
    for (oy, (best_row, arg_row)) in rows.enumerate() {
        for (ox, (b, a)) in best_row.iter_mut().zip(arg_row).enumerate() {
            let first = oy * s * w + ox * s;
            let (mut max, mut at) = (f32::NEG_INFINITY, first);
            for ky in 0..k {
                let row = first + ky * w;
                for (kx, &v) in plane[row..][..k].iter().enumerate() {
                    let better = v > max;
                    max = if better { v } else { max };
                    at = if better { row + kx } else { at };
                }
            }
            *b = max;
            *a = (base + at) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_selects_window_max() {
        let mut pool = MaxPool2d::new(2);
        let input = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.0, //
                -3.0, -4.0, 0.0, 9.0,
            ],
        );
        let out = pool.forward(&input);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[4.0, 8.0, -1.0, 9.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let input = Tensor::from_vec(
            &[1, 1, 2, 2],
            vec![
                1.0, 9.0, //
                3.0, 4.0,
            ],
        );
        let _ = pool.forward(&input);
        let grad = pool.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![5.0]));
        assert_eq!(grad.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn windows_without_a_max_route_to_their_first_tap() {
        // Image 1's left window is all NaN and its right window all −∞:
        // both output −∞ and send their gradient to their own first tap,
        // never to flat element 0 (image 0's first pixel).
        let mut pool = MaxPool2d::new(2);
        let mut input = Tensor::zeros(&[2, 1, 2, 4]);
        input.data_mut()[8..].copy_from_slice(&[
            f32::NAN,
            f32::NAN,
            f32::NEG_INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::NAN,
            f32::NEG_INFINITY,
            f32::NEG_INFINITY,
        ]);
        let out = pool.forward(&input);
        assert_eq!(
            out.data(),
            &[0.0, 0.0, f32::NEG_INFINITY, f32::NEG_INFINITY]
        );
        let grad = pool.backward(&Tensor::from_vec(&[2, 1, 1, 2], vec![1.0, 2.0, 3.0, 5.0]));
        let mut want = [0.0; 16];
        want[0] = 1.0; // image 0's windows hold only zeros: first tap
        want[2] = 2.0;
        want[8] = 3.0;
        want[10] = 5.0;
        assert_eq!(grad.data(), &want[..]);
    }

    #[test]
    #[should_panic(expected = "must divide the window")]
    fn rejects_indivisible_input() {
        let mut pool = MaxPool2d::new(3);
        let _ = pool.forward(&Tensor::zeros(&[1, 1, 4, 4]));
    }

    #[test]
    fn overlapping_stride_shapes_and_values() {
        // AlexNet-style 3×3/s2 over 5×5: output 2×2, windows overlap on
        // the centre row/column.
        let mut pool = MaxPool2d::with_stride(3, 2);
        let input = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32);
        let out = pool.forward(&input);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        // Each window's max is its bottom-right element.
        assert_eq!(out.data(), &[12.0, 14.0, 22.0, 24.0]);
    }

    #[test]
    fn overlapping_backward_accumulates_shared_argmax() {
        // 3×3/s2 over 5×5 with the global max at the shared centre: all
        // four windows route their gradient to one input cell.
        let mut pool = MaxPool2d::with_stride(3, 2);
        let mut input = Tensor::zeros(&[1, 1, 5, 5]);
        input.data_mut()[12] = 9.0; // centre (2,2), inside every window
        let _ = pool.forward(&input);
        let grad = pool.backward(&Tensor::from_vec(&[1, 1, 2, 2], vec![1.0; 4]));
        assert_eq!(grad.data()[12], 4.0);
    }

    #[test]
    #[should_panic(expected = "must divide the window")]
    fn rejects_unaligned_stride() {
        let mut pool = MaxPool2d::with_stride(3, 2);
        let _ = pool.forward(&Tensor::zeros(&[1, 1, 6, 6]));
    }

    #[test]
    fn multi_channel_independence() {
        let mut pool = MaxPool2d::new(2);
        let mut input = Tensor::zeros(&[1, 2, 2, 2]);
        input.data_mut()[..4].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        input.data_mut()[4..].copy_from_slice(&[-1.0, -2.0, -3.0, -4.0]);
        let out = pool.forward(&input);
        assert_eq!(out.data(), &[4.0, -1.0]);
    }
}
