//! 2-D convolution with stride, zero padding and channel groups.

use super::gemm::gemm_acc;
use super::{Layer, ParamView};
use crate::tensor::Tensor;

/// A 2-D convolution layer over `[n, c, h, w]` tensors.
///
/// Supports stride, symmetric zero padding and channel groups (AlexNet's
/// two-GPU grouping uses `groups = 2`). Weights are stored in
/// `[out_channels, in_channels / groups, kh, kw]` order — the same
/// canonical order [`crate::weights`] streams weights in, so an executed
/// network and a weight-memory trace see identical data.
///
/// The forward pass is an im2col lowering: each image's input patches
/// are gathered per group into a dense patch-major `patch × positions`
/// matrix (padding as literal zeros), and the layer's register-tiled
/// GEMM kernel multiplies the `[out_channels, patch]` filter matrix
/// into bias-prefilled output rows, several channels × several
/// positions per tile. Each output keeps the direct convolution's
/// ascending-patch f32 chain, so the tiling changes no bit. The batch
/// fans out over the thread budget in [`crate::exec`]; results are
/// byte-identical at every budget. The backward pass stays a direct
/// loop that skips zero upstream gradients.
///
/// # Example
///
/// ```
/// use dnnlife_nn::layers::{Conv2d, Layer};
/// use dnnlife_nn::Tensor;
///
/// let mut conv = Conv2d::new("c1", 1, 4, 3, 1, 0, 1);
/// let out = conv.forward(&Tensor::zeros(&[2, 1, 8, 8]));
/// assert_eq!(out.shape(), &[2, 4, 6, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    weight_name: String,
    bias_name: String,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    groups: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with square kernels and zero-initialised
    /// parameters (use [`Conv2d::set_weights`] or an initialiser to fill
    /// them).
    ///
    /// # Panics
    ///
    /// Panics if `in_channels` or `out_channels` is not divisible by
    /// `groups`, or if any structural parameter is zero.
    pub fn new(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "Conv2d: kernel and stride must be > 0"
        );
        assert!(groups > 0, "Conv2d: groups must be > 0");
        assert!(
            in_channels.is_multiple_of(groups) && out_channels.is_multiple_of(groups),
            "Conv2d: channels ({in_channels} in, {out_channels} out) must divide groups ({groups})"
        );
        let weight = Tensor::zeros(&[out_channels, in_channels / groups, kernel, kernel]);
        let bias = Tensor::zeros(&[out_channels]);
        Self {
            weight_name: format!("{name}.weight"),
            bias_name: format!("{name}.bias"),
            name: name.to_string(),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups,
            grad_weight: weight.clone(),
            grad_bias: bias.clone(),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Replaces the weight tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn set_weights(&mut self, weight: Tensor) {
        assert_eq!(
            weight.shape(),
            self.weight.shape(),
            "Conv2d::set_weights: shape mismatch"
        );
        self.weight = weight;
    }

    /// Immutable access to the weight tensor.
    pub fn weights(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable access to the weight data (used by initialisers).
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Output spatial size for an input of `h × w`.
    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// im2col gather table: for every `(output position, ky, kx)` tap,
    /// the channel-local flat input offset `iy * w + ix`, or `-1` when
    /// the tap lands in the zero padding. The table is shared by every
    /// image and channel, so forward builds it once per batch.
    fn spatial_offsets(&self, h: usize, w: usize, oh: usize, ow: usize) -> Vec<isize> {
        let k = self.kernel;
        let (stride, pad) = (self.stride, self.padding);
        let mut offsets = vec![-1isize; oh * ow * k * k];
        for oy in 0..oh {
            for ox in 0..ow {
                let pos = oy * ow + ox;
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        offsets[(pos * k + ky) * k + kx] = iy * w as isize + ix;
                    }
                }
            }
        }
        offsets
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 4, "Conv2d: input must be [n,c,h,w]");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        assert_eq!(
            c, self.in_channels,
            "Conv2d {}: channel mismatch",
            self.name
        );
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);

        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let k = self.kernel;
        let positions = oh * ow;
        let patch = cin_g * k * k;
        let spatial = self.spatial_offsets(h, w, oh, ow);

        let weight = self.weight.data();
        let bias = self.bias.data();
        let input_data = input.data();
        let (groups, out_channels) = (self.groups, self.out_channels);
        let per_image = out_channels * positions;

        // im2col + GEMM per image, fanned over the batch within the
        // campaign thread budget. The column matrix is patch-major
        // (`[patch][positions]`) with padded taps gathered as literal
        // zeros; each output row starts from its bias and the tiled
        // kernel adds the products in ascending (ic_local, ky, kx) patch
        // order, so every output is the same f32 chain as a direct
        // convolution wherever no padding is involved, and differs from
        // it only by exact `+ 0.0` terms where it is.
        let images: Vec<_> = out.data_mut().chunks_mut(per_image).enumerate().collect();
        crate::exec::run_jobs(images, crate::exec::budget(), None, |(img, out_img)| {
            let mut col = vec![0.0f32; patch * positions];
            for g in 0..groups {
                for ic_local in 0..cin_g {
                    let ic = g * cin_g + ic_local;
                    let channel = &input_data[(img * c + ic) * h * w..][..h * w];
                    let rows = &mut col[ic_local * k * k * positions..][..k * k * positions];
                    for (tap, row) in rows.chunks_exact_mut(positions).enumerate() {
                        for (pos, d) in row.iter_mut().enumerate() {
                            let s = spatial[pos * k * k + tap];
                            *d = if s < 0 { 0.0 } else { channel[s as usize] };
                        }
                    }
                }
                let rows = g * cout_g..(g + 1) * cout_g;
                let out_rows = &mut out_img[rows.start * positions..rows.end * positions];
                for (oc, row) in rows.clone().zip(out_rows.chunks_exact_mut(positions)) {
                    row.fill(bias[oc]);
                }
                let filters = &weight[rows.start * patch..rows.end * patch];
                gemm_acc(filters, &col, out_rows, patch, positions);
            }
            Some(())
        })
        .expect("no cancel flag and no failing job");
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_channels, oh, ow],
            "Conv2d::backward: grad shape mismatch"
        );

        let mut grad_in = Tensor::zeros(input.shape());
        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let k = self.kernel;
        let positions = oh * ow;
        let patch = cin_g * k * k;
        // The same im2col gather table the forward pass uses; `-1` taps
        // are the padded positions the direct loops skipped, so walking
        // the table preserves the exact f32 accumulation order of the
        // original nested loops (training bytes are golden-pinned).
        let spatial = self.spatial_offsets(h, w, oh, ow);

        for img in 0..n {
            for oc in 0..self.out_channels {
                let g = oc / cout_g;
                let w_base = oc * patch;
                for pos in 0..positions {
                    let go = grad_out.data()[(img * self.out_channels + oc) * positions + pos];
                    if go == 0.0 {
                        continue;
                    }
                    self.grad_bias.data_mut()[oc] += go;
                    let taps = &spatial[pos * k * k..(pos + 1) * k * k];
                    for ic_local in 0..cin_g {
                        let ic = g * cin_g + ic_local;
                        let base = (img * c + ic) * h * w;
                        for (t, &s) in taps.iter().enumerate() {
                            if s < 0 {
                                continue;
                            }
                            let w_idx = w_base + ic_local * k * k + t;
                            let i_idx = base + s as usize;
                            self.grad_weight.data_mut()[w_idx] += go * input.data()[i_idx];
                            grad_in.data_mut()[i_idx] += go * self.weight.data()[w_idx];
                        }
                    }
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    fn filled_conv() -> Conv2d {
        let mut conv = Conv2d::new("c", 2, 3, 3, 1, 1, 1);
        let w_len = conv.weights().len();
        conv.set_weights(Tensor::from_fn(&[3, 2, 3, 3], |i| {
            ((i * 31 % 17) as f32 - 8.0) * 0.05
        }));
        assert_eq!(w_len, 54);
        conv
    }

    #[test]
    fn output_shape_stride_padding() {
        let mut conv = Conv2d::new("c", 3, 8, 11, 4, 0, 1);
        let out = conv.forward(&Tensor::zeros(&[1, 3, 227, 227]));
        // AlexNet conv1 geometry: (227 - 11)/4 + 1 = 55.
        assert_eq!(out.shape(), &[1, 8, 55, 55]);

        let mut padded = Conv2d::new("c", 1, 1, 3, 1, 1, 1);
        let out = padded.forward(&Tensor::zeros(&[1, 1, 5, 5]));
        assert_eq!(out.shape(), &[1, 1, 5, 5]);
    }

    #[test]
    fn identity_kernel_passthrough() {
        // A single 1x1 kernel with weight 1 reproduces the input channel.
        let mut conv = Conv2d::new("c", 1, 1, 1, 1, 0, 1);
        conv.set_weights(Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]));
        let input = Tensor::from_fn(&[1, 1, 3, 3], |i| i as f32);
        let out = conv.forward(&input);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 kernel over an all-ones 3x3 input (no padding)
        // produces the single value 9.
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, 1);
        conv.set_weights(Tensor::from_vec(&[1, 1, 3, 3], vec![1.0; 9]));
        let out = conv.forward(&Tensor::from_vec(&[1, 1, 3, 3], vec![1.0; 9]));
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.data()[0], 9.0);
    }

    #[test]
    fn groups_partition_channels() {
        // groups=2: first output channel must ignore the second input
        // channel entirely.
        let mut conv = Conv2d::new("c", 2, 2, 1, 1, 0, 2);
        conv.set_weights(Tensor::from_vec(&[2, 1, 1, 1], vec![1.0, 1.0]));
        let mut input = Tensor::zeros(&[1, 2, 2, 2]);
        for i in 0..4 {
            input.data_mut()[i] = 1.0; // channel 0 = 1s
            input.data_mut()[4 + i] = 5.0; // channel 1 = 5s
        }
        let out = conv.forward(&input);
        assert_eq!(&out.data()[..4], &[1.0; 4]);
        assert_eq!(&out.data()[4..], &[5.0; 4]);
    }

    #[test]
    fn gradient_check_input() {
        let mut conv = filled_conv();
        let input = Tensor::from_fn(&[2, 2, 5, 5], |i| ((i % 11) as f32 - 5.0) * 0.2);
        gradcheck::check_input_gradient(&mut conv, &input, 2e-2);
    }

    #[test]
    fn gradient_check_params() {
        let mut conv = filled_conv();
        let input = Tensor::from_fn(&[2, 2, 5, 5], |i| ((i % 13) as f32 - 6.0) * 0.15);
        gradcheck::check_param_gradients(&mut conv, &input, 2e-2);
    }

    #[test]
    fn grouped_gradient_check() {
        let mut conv = Conv2d::new("c", 4, 4, 3, 2, 1, 2);
        conv.set_weights(Tensor::from_fn(&[4, 2, 3, 3], |i| {
            ((i * 7 % 19) as f32 - 9.0) * 0.03
        }));
        let input = Tensor::from_fn(&[1, 4, 6, 6], |i| ((i % 9) as f32 - 4.0) * 0.1);
        gradcheck::check_input_gradient(&mut conv, &input, 2e-2);
    }

    #[test]
    fn param_count_matches_formula() {
        let conv = Conv2d::new("c", 96, 256, 5, 1, 2, 2);
        // AlexNet conv2: 256 * (96/2) * 5 * 5 + 256 bias.
        assert_eq!(conv.param_count(), 256 * 48 * 25 + 256);
    }

    #[test]
    #[should_panic(expected = "must divide groups")]
    fn rejects_indivisible_groups() {
        Conv2d::new("c", 3, 4, 3, 1, 0, 2);
    }

    #[test]
    fn forward_is_thread_budget_invariant() {
        let input = Tensor::from_fn(&[5, 2, 9, 9], |i| ((i % 23) as f32 - 11.0) * 0.1);
        let run = |threads: usize| {
            crate::exec::with_budget(threads, || {
                let mut conv = filled_conv();
                conv.forward(&input).into_vec()
            })
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            let par = run(threads);
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "budget {threads} changed forward bytes"
            );
        }
    }
}
