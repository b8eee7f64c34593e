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
/// are copied per group into a dense patch-major `patch × positions`
/// matrix, one contiguous (stride 1) or strided copy per (tap, output
/// row) with the padding written as literal zeros, and the layer's
/// register-tiled GEMM kernel multiplies the `[out_channels, patch]`
/// filter matrix into bias-prefilled output rows, several channels ×
/// several positions per tile. Each output keeps the direct
/// convolution's ascending-patch f32 chain, so the tiling changes no
/// bit. The batch fans out over the thread budget in [`crate::exec`];
/// results are byte-identical at every budget.
///
/// The backward pass walks the nonzero upstream gradients (all-zero
/// runs of them are passed over a block at a time) and adds each one's
/// products to whole `(kx, input channel)` runs of a channel-last copy
/// of the input and weights. Every gradient element still receives its
/// terms in the direct loop's order, so the bits match it.
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

    /// For every kernel offset `kk` (`ky` along rows, `kx` along
    /// columns) of an axis `len` input values long with `out` outputs,
    /// the output range `lo..hi` whose tap `o · stride + kk − padding`
    /// lands inside the input; the taps outside it read zero padding.
    fn tap_spans(&self, len: usize, out: usize) -> Vec<(usize, usize)> {
        let (stride, pad) = (self.stride, self.padding);
        (0..self.kernel)
            .map(|kk| {
                let hi = (len + pad)
                    .checked_sub(kk + 1)
                    .map_or(0, |last| (last / stride + 1).min(out));
                let lo = pad.saturating_sub(kk).div_ceil(stride).min(hi);
                (lo, hi)
            })
            .collect()
    }

    /// For every output `o` along an axis `len` input values long, the
    /// kernel offsets `lo..hi` whose tap lands inside the input (the
    /// transpose of [`Conv2d::tap_spans`]).
    fn kernel_spans(&self, len: usize, out: usize) -> Vec<(usize, usize)> {
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        (0..out)
            .map(|o| {
                let lo = pad.saturating_sub(o * stride).min(k);
                let hi = (len + pad).saturating_sub(o * stride).clamp(lo, k);
                (lo, hi)
            })
            .collect()
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
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        let positions = oh * ow;
        let patch = cin_g * k * k;
        let (rows_in, cols_in) = (self.tap_spans(h, oh), self.tap_spans(w, ow));

        let weight = self.weight.data();
        let bias = self.bias.data();
        let input_data = input.data();
        let (groups, out_channels) = (self.groups, self.out_channels);
        let per_image = out_channels * positions;

        // im2col + GEMM per image, fanned over the batch within the
        // campaign thread budget. The column matrix is patch-major
        // (`[patch][positions]`) with padded taps written as literal
        // zeros: each (tap, output row) segment is one contiguous (stride
        // 1) or strided copy of an input row, zero-filled at its clipped
        // ends. Each output row starts from its bias and the tiled
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
                        let (ky, kx) = (tap / k, tap % k);
                        let (lo, hi) = cols_in[kx];
                        for (oy, seg) in row.chunks_exact_mut(ow).enumerate() {
                            if !(rows_in[ky].0..rows_in[ky].1).contains(&oy) {
                                seg.fill(0.0);
                                continue;
                            }
                            let (head, rest) = seg.split_at_mut(lo);
                            let (body, tail) = rest.split_at_mut(hi - lo);
                            head.fill(0.0);
                            tail.fill(0.0);
                            if body.is_empty() {
                                continue;
                            }
                            let iy = oy * stride + ky - pad;
                            let src = &channel[iy * w + lo * stride + kx - pad..];
                            if stride == 1 {
                                body.copy_from_slice(&src[..hi - lo]);
                            } else {
                                for (d, &v) in body.iter_mut().zip(src.iter().step_by(stride)) {
                                    *d = v;
                                }
                            }
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
        let (n, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_channels, oh, ow],
            "Conv2d::backward: grad shape mismatch"
        );

        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let (groups, out_channels) = (self.groups, self.out_channels);
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        let (hw, kk, positions) = (h * w, k * k, oh * ow);
        let (rows_in, cols_in) = (self.kernel_spans(h, oh), self.kernel_spans(w, ow));

        // Channel-last copies — `[img][g][pixel][ic_local]` for the input
        // and its gradient, `[oc][tap][ic_local]` for the weights and
        // theirs — make the taps `kx ∈ lo..hi` of one kernel row a single
        // `(kx, ic_local)` run, so each nonzero upstream gradient updates
        // `ky` long runs instead of one short `kx` run per input channel.
        // The weight gradient accumulates in a copy seeded from it, so
        // backward still accumulates.
        let xs = transposed_blocks(input.data(), cin_g, hw);
        let ws = transposed_blocks(self.weight.data(), cin_g, kk);
        let mut gw = transposed_blocks(self.grad_weight.data(), cin_g, kk);
        let mut gi = vec![0.0f32; input.len()];

        // Every gradient element still receives its terms in the direct
        // loop's order — a weight gradient over (image, position), an
        // input gradient over (output channel, position) — each one
        // `go · v` product added to its own accumulator, and zero
        // upstream gradients contribute nothing, so the bits match the
        // seven-deep loop nest.
        let grad_bias = self.grad_bias.data_mut();
        for (img, go_img) in grad_out
            .data()
            .chunks_exact(out_channels * positions)
            .enumerate()
        {
            for (oc, go_oc) in go_img.chunks_exact(positions).enumerate() {
                let base = (img * groups + oc / cout_g) * cin_g * hw;
                let x_img = &xs[base..][..cin_g * hw];
                let gi_img = &mut gi[base..][..cin_g * hw];
                let w_oc = &ws[oc * cin_g * kk..][..cin_g * kk];
                let gw_oc = &mut gw[oc * cin_g * kk..][..cin_g * kk];
                for (oy, go_row) in go_oc.chunks_exact(ow).enumerate() {
                    let (ky_lo, ky_hi) = rows_in[oy];
                    for (c, eight) in go_row.chunks(8).enumerate() {
                        // One vectorisable test passes over all-zero
                        // (±0.0) blocks, which skip nothing else.
                        if eight.iter().fold(0, |acc, g| acc | (g.to_bits() << 1)) == 0 {
                            continue;
                        }
                        for (j, &go) in eight.iter().enumerate() {
                            if go == 0.0 {
                                continue;
                            }
                            let ox = c * 8 + j;
                            grad_bias[oc] += go;
                            let (kx_lo, kx_hi) = cols_in[ox];
                            let run = (kx_hi - kx_lo) * cin_g;
                            if run == 0 {
                                continue;
                            }
                            let ix = ox * stride + kx_lo - pad;
                            for ky in ky_lo..ky_hi {
                                let iy = oy * stride + ky - pad;
                                let at_x = (iy * w + ix) * cin_g;
                                let at_w = (ky * k + kx_lo) * cin_g;
                                scatter_run(
                                    go,
                                    &x_img[at_x..][..run],
                                    &mut gw_oc[at_w..][..run],
                                    &w_oc[at_w..][..run],
                                    &mut gi_img[at_x..][..run],
                                );
                            }
                        }
                    }
                }
            }
        }

        self.grad_weight
            .data_mut()
            .copy_from_slice(&transposed_blocks(&gw, kk, cin_g));
        Tensor::from_vec(input.shape(), transposed_blocks(&gi, hw, cin_g))
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

/// `gw[i] += go · x[i]` and `gi[i] += go · w[i]` over one tap run.
/// Runs shorter than a vector (one input channel per group: at most
/// `kernel` taps) take a plain scalar loop, which beats the vector
/// loop's set-up at that length.
#[inline(always)]
fn scatter_run(go: f32, x: &[f32], gw: &mut [f32], w: &[f32], gi: &mut [f32]) {
    let n = x.len();
    let (gw, w, gi) = (&mut gw[..n], &w[..n], &mut gi[..n]);
    if n < 8 {
        for i in 0..n {
            gw[i] += go * x[i];
            gi[i] += go * w[i];
        }
        return;
    }
    for ((gw_e, &x_e), (gi_e, &w_e)) in gw.iter_mut().zip(x).zip(gi.iter_mut().zip(w)) {
        *gw_e += go * x_e;
        *gi_e += go * w_e;
    }
}

/// `data` as consecutive row-major `rows × cols` blocks, each
/// transposed to `cols × rows` (a plain copy when `rows` or `cols` is
/// 1, where both layouts are the same).
fn transposed_blocks(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    if rows == 1 || cols == 1 {
        return data.to_vec();
    }
    let mut out = vec![0.0f32; data.len()];
    for (src, dst) in data
        .chunks_exact(rows * cols)
        .zip(out.chunks_exact_mut(rows * cols))
    {
        for (r, row) in src.chunks_exact(cols).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                dst[j * rows + r] = v;
            }
        }
    }
    out
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
