//! Property tests: the layer kernels against textbook loops.
//!
//! The direct implementations below are the seven-deep convolution loop
//! nest, the per-(image, output) dense dot loop, an elementwise ReLU and
//! a branchy window-max loop, written independently of the layer code.
//! Outputs must match bit for bit (`to_bits`, so a `-0.0`/`+0.0` swap
//! fails too): the kernel keeps each output's k-sequential `acc += w · x`
//! chain seeded with the bias, and the only divergence is exact `+ 0.0`
//! terms where zero padding is gathered. The convolution backward
//! gradients must match bit for bit as well, at every thread budget,
//! across odd strides and paddings, for dense and sparse upstream
//! gradients, when a second backward accumulates onto the first, and
//! when ±∞/NaN inputs sit under zero upstream gradients (which must add
//! nothing). The ranges reach full 4 × 8 kernel tiles and ragged edges
//! on both axes, and input channel runs from 1 to 17.

use dnnlife_nn::exec;
use dnnlife_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, ReLU};
use dnnlife_nn::Tensor;
use proptest::prelude::*;

/// Deterministic small-magnitude fill so cases are reproducible from
/// the proptest-chosen `salt` alone.
fn fill(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(salt | 1).wrapping_add(salt >> 3);
            ((x % 41) as f32 - 20.0) * 0.05
        })
        .collect()
}

/// Direct convolution forward: `[n,c,h,w] -> [n,oc,oh,ow]`.
#[allow(clippy::too_many_arguments)]
fn direct_forward(
    input: &Tensor,
    weight: &[f32],
    bias: &[f32],
    out_channels: usize,
    groups: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let cin_g = c / groups;
    let cout_g = out_channels / groups;
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut out = Tensor::zeros(&[n, out_channels, oh, ow]);
    for img in 0..n {
        for oc in 0..out_channels {
            let g = oc / cout_g;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic_local in 0..cin_g {
                        let ic = g * cin_g + ic_local;
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
                                let wv = weight[((oc * cin_g + ic_local) * k + ky) * k + kx];
                                let iv = input.at4(img, ic, iy as usize, ix as usize);
                                acc += wv * iv;
                            }
                        }
                    }
                    out.data_mut()[((img * out_channels + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// Naive dense forward: one dependent chain per `(image, output)`.
fn direct_dense(input: &[f32], weight: &[f32], bias: &[f32], n: usize, f: usize) -> Vec<f32> {
    let outs = bias.len();
    let mut out = vec![0.0f32; n * outs];
    for img in 0..n {
        for o in 0..outs {
            let mut acc = bias[o];
            for t in 0..f {
                acc += weight[o * f + t] * input[img * f + t];
            }
            out[img * outs + o] = acc;
        }
    }
    out
}

/// Values the elementwise and window kernels must treat exactly as the
/// textbook loops do: NaN, ±∞, ±0.0 and repeated finite values (ties).
const PALETTE: [f32; 10] = [
    f32::NAN,
    f32::NEG_INFINITY,
    f32::INFINITY,
    -0.0,
    0.0,
    1.0,
    -1.0,
    2.0,
    0.5,
    -2.5,
];

/// `len` palette values chosen by `salt`. `mode` 1 makes three in four
/// of them NaN; `mode` 2 draws only NaN and −∞, so whole windows hold
/// no value above −∞.
fn palette_fill(len: usize, salt: u64, mode: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            match mode {
                1 if x % 4 < 3 => f32::NAN,
                2 => [f32::NAN, f32::NEG_INFINITY][(x % 2) as usize],
                _ => PALETTE[(x % PALETTE.len() as u64) as usize],
            }
        })
        .collect()
}

/// Textbook max pooling: a branchy running max per window in (ky, kx)
/// order that keeps the first strict maximum, starting from −∞ at the
/// window's first tap. Returns the output and each output's argmax.
fn direct_maxpool(
    input: &[f32],
    planes: usize,
    (h, w): (usize, usize),
    k: usize,
    s: usize,
) -> (Vec<f32>, Vec<usize>) {
    let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
    let (mut out, mut arg) = (Vec::new(), Vec::new());
    for p in 0..planes {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut at = (p * h + oy * s) * w + ox * s;
                for ky in 0..k {
                    for kx in 0..k {
                        let idx = (p * h + oy * s + ky) * w + ox * s + kx;
                        if input[idx] > best {
                            best = input[idx];
                            at = idx;
                        }
                    }
                }
                out.push(best);
                arg.push(at);
            }
        }
    }
    (out, arg)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Direct convolution backward: returns the gradient w.r.t. the input
/// and accumulates the weight and bias gradients into `grad_w`/`grad_b`.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn direct_backward(
    input: &Tensor,
    weight: &[f32],
    grad_out: &Tensor,
    grad_w: &mut [f32],
    grad_b: &mut [f32],
    out_channels: usize,
    groups: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let cin_g = c / groups;
    let cout_g = out_channels / groups;
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut grad_in = Tensor::zeros(input.shape());
    for img in 0..n {
        for oc in 0..out_channels {
            let g = oc / cout_g;
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = grad_out.data()[((img * out_channels + oc) * oh + oy) * ow + ox];
                    if go == 0.0 {
                        continue;
                    }
                    grad_b[oc] += go;
                    for ic_local in 0..cin_g {
                        let ic = g * cin_g + ic_local;
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
                                let w_idx = ((oc * cin_g + ic_local) * k + ky) * k + kx;
                                let i_idx = input.idx4(img, ic, iy as usize, ix as usize);
                                grad_w[w_idx] += go * input.data()[i_idx];
                                grad_in.data_mut()[i_idx] += go * weight[w_idx];
                            }
                        }
                    }
                }
            }
        }
    }
    grad_in
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn im2col_matches_direct_convolution(
        n in 1usize..3,
        cin_g in 1usize..=17,
        cout_g in 1usize..11,
        groups in 1usize..3,
        k in 1usize..5,
        stride in 1usize..4,
        pad in 0usize..3,
        extra_h in 0usize..9,
        extra_w in 0usize..9,
        budget in 1usize..5,
        sparsity in 0usize..40,
        poison in 0usize..4,
        salt in 1u64..u64::MAX,
    ) {
        let cin = cin_g * groups;
        let cout = cout_g * groups;
        // Smallest valid input for this kernel/padding, plus slack.
        let h = k.saturating_sub(2 * pad).max(1) + extra_h;
        let w = k.saturating_sub(2 * pad).max(1) + extra_w;
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);

        let mut input = Tensor::from_vec(&[n, cin, h, w], fill(n * cin * h * w, salt));
        // `poison` 1–3 puts +∞, −∞ or NaN in one pixel of channel 0.
        let (py, px) = ((salt >> 8) as usize % h, (salt >> 16) as usize % w);
        if poison > 0 {
            let idx = input.idx4(0, 0, py, px);
            input.data_mut()[idx] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][poison - 1];
        }
        let weight = fill(cout * cin_g * k * k, salt.rotate_left(17));
        let bias = fill(cout, salt.rotate_left(31));

        let mut conv = Conv2d::new("c", cin, cout, k, stride, pad, groups);
        conv.set_weights(Tensor::from_vec(&[cout, cin_g, k, k], weight.clone()));
        conv.visit_params(&mut |p| {
            if p.name.ends_with(".bias") {
                p.value.copy_from_slice(&bias);
            }
        });

        let out = exec::with_budget(budget, || conv.forward(&input));
        let want = direct_forward(&input, &weight, &bias, cout, groups, k, stride, pad);
        prop_assert_eq!(out.shape(), want.shape());
        for (i, (a, b)) in out.data().iter().zip(want.data()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "forward mismatch at {}", i);
        }

        // Gradient: a mixed-sign pattern with exact zeros, nonzero on one
        // position in `sparsity` (the executor skips zero upstream
        // gradients and all-zero blocks of them; so does direct; half the
        // cases are dense), and zero on every output of image 0
        // whose window reads the poisoned pixel, so ±∞/NaN enter only
        // through zero gradients and the reference stays finite.
        let sparsity = sparsity.saturating_sub(19).max(1);
        let (oh, ow) = (want.shape()[2], want.shape()[3]);
        let reads = |o: usize, p: usize| (o * stride..o * stride + k).contains(&(p + pad));
        let grad_out = Tensor::from_fn(want.shape(), |i| {
            let (oc, pos) = (i / (oh * ow) % cout, i % (oh * ow));
            let shielded = i < cout * oh * ow
                && oc < cout_g
                && reads(pos / ow, py)
                && reads(pos % ow, px);
            if (poison > 0 && shielded) || i % sparsity != 0 {
                0.0
            } else {
                ((i / sparsity % 5) as f32 - 2.0) * 0.5
            }
        });
        // Twice: the second pass must accumulate onto the first's
        // parameter gradients.
        let mut want_w = vec![0.0f32; weight.len()];
        let mut want_b = vec![0.0f32; cout];
        for pass in 0..2 {
            let grad_in = conv.backward(&grad_out);
            let want_in = direct_backward(
                &input, &weight, &grad_out, &mut want_w, &mut want_b, cout, groups, k, stride, pad,
            );
            for (i, (a, b)) in grad_in.data().iter().zip(want_in.data()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "pass {} grad_in mismatch at {}", pass, i);
            }
        }
        if poison > 0 {
            prop_assert!(want_w.iter().all(|v| v.is_finite()), "poison leaked into the reference");
        }
        let mut got_w = Vec::new();
        let mut got_b = Vec::new();
        conv.visit_params(&mut |p| {
            if p.name.ends_with(".weight") {
                got_w = p.grad.to_vec();
            } else {
                got_b = p.grad.to_vec();
            }
        });
        prop_assert_eq!(bits(&got_w), bits(&want_w), "grad_weight mismatch");
        prop_assert_eq!(bits(&got_b), bits(&want_b), "grad_bias mismatch");
    }

    #[test]
    fn tiled_dense_matches_the_naive_dot_loop(
        n in 1usize..=20,
        f in 1usize..=37,
        outs in 1usize..=19,
        salt in 1u64..u64::MAX,
    ) {
        let input = fill(n * f, salt);
        let weight = fill(outs * f, salt.rotate_left(17));
        let bias = fill(outs, salt.rotate_left(31));

        let mut fc = Dense::new("fc", f, outs);
        fc.set_weights(Tensor::from_vec(&[outs, f], weight.clone()));
        fc.visit_params(&mut |p| {
            if p.name.ends_with(".bias") {
                p.value.copy_from_slice(&bias);
            }
        });

        let out = fc.forward(&Tensor::from_vec(&[n, f], input.clone()));
        prop_assert_eq!(out.shape(), &[n, outs]);
        let want = direct_dense(&input, &weight, &bias, n, f);
        prop_assert_eq!(bits(out.data()), bits(&want), "dense forward mismatch");
    }

    #[test]
    fn relu_matches_the_textbook_select(
        len in 1usize..200,
        mode in 0usize..3,
        salt in 1u64..u64::MAX,
    ) {
        let x = palette_fill(len, salt, mode);
        let g = palette_fill(len, salt.rotate_left(29), 0);
        let mut relu = ReLU::new();
        let out = relu.forward(&Tensor::from_vec(&[len], x.clone()));
        let want: Vec<f32> = x.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
        prop_assert_eq!(bits(out.data()), bits(&want), "relu forward mismatch");
        let grad = relu.backward(&Tensor::from_vec(&[len], g.clone()));
        let want: Vec<f32> = x
            .iter()
            .zip(&g)
            .map(|(&v, &gv)| if v > 0.0 { gv } else { 0.0 })
            .collect();
        prop_assert_eq!(bits(grad.data()), bits(&want), "relu backward mismatch");
    }

    #[test]
    fn maxpool_matches_the_textbook_window_loop(
        n in 1usize..3,
        c in 1usize..4,
        shape in 0usize..7,
        oh in 1usize..6,
        ow in 1usize..6,
        mode in 0usize..3,
        salt in 1u64..u64::MAX,
    ) {
        // Disjoint, overlapping (3×3/2, AlexNet's) and dense windows.
        let (k, s) = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)][shape];
        let (h, w) = (k + s * (oh - 1), k + s * (ow - 1));
        let x = palette_fill(n * c * h * w, salt, mode);
        let mut pool = MaxPool2d::with_stride(k, s);
        let out = pool.forward(&Tensor::from_vec(&[n, c, h, w], x.clone()));
        let (want, arg) = direct_maxpool(&x, n * c, (h, w), k, s);
        prop_assert_eq!(out.shape(), &[n, c, oh, ow]);
        prop_assert_eq!(bits(out.data()), bits(&want), "maxpool forward mismatch");
        // Overlapping windows can share an argmax: their gradients add
        // up in output order.
        let g = palette_fill(want.len(), salt.rotate_left(29), 0);
        let grad = pool.backward(&Tensor::from_vec(&[n, c, oh, ow], g.clone()));
        let mut want_in = vec![0.0f32; x.len()];
        for (&at, &gv) in arg.iter().zip(&g) {
            want_in[at] += gv;
        }
        prop_assert_eq!(bits(grad.data()), bits(&want_in), "maxpool backward mismatch");
    }
}
