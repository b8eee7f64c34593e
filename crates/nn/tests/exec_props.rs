//! Property tests: the tiled GEMM executor against textbook loops.
//!
//! The direct implementations below are the seven-deep convolution loop
//! nest and the per-(image, output) dense dot loop, written
//! independently of the layer code. Outputs must match bit for bit
//! (`to_bits`, so a `-0.0`/`+0.0` swap fails too): the kernel keeps each
//! output's k-sequential `acc += w · x` chain seeded with the bias, and
//! the only divergence is exact `+ 0.0` terms where zero padding is
//! gathered. The convolution backward gradients must match bit for bit
//! as well, at every thread budget, across odd strides and paddings.
//! The ranges reach full 4 × 8 kernel tiles and ragged edges on both
//! axes.

use dnnlife_nn::exec;
use dnnlife_nn::layers::{Conv2d, Dense, Layer};
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

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Direct convolution backward: gradients w.r.t. input, weight, bias.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn direct_backward(
    input: &Tensor,
    weight: &[f32],
    grad_out: &Tensor,
    out_channels: usize,
    groups: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> (Tensor, Vec<f32>, Vec<f32>) {
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
    let mut grad_w = vec![0.0f32; weight.len()];
    let mut grad_b = vec![0.0f32; out_channels];
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
    (grad_in, grad_w, grad_b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn im2col_matches_direct_convolution(
        n in 1usize..3,
        cin_g in 1usize..3,
        cout_g in 1usize..11,
        groups in 1usize..3,
        k in 1usize..5,
        stride in 1usize..4,
        pad in 0usize..3,
        extra_h in 0usize..9,
        extra_w in 0usize..9,
        budget in 1usize..5,
        salt in 1u64..u64::MAX,
    ) {
        let cin = cin_g * groups;
        let cout = cout_g * groups;
        // Smallest valid input for this kernel/padding, plus slack.
        let h = k.saturating_sub(2 * pad).max(1) + extra_h;
        let w = k.saturating_sub(2 * pad).max(1) + extra_w;
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);

        let input = Tensor::from_vec(&[n, cin, h, w], fill(n * cin * h * w, salt));
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

        // Gradient: probe with a mixed-sign pattern including exact zeros
        // (the executor skips zero upstream gradients; so does direct).
        let grad_out = Tensor::from_fn(want.shape(), |i| ((i % 5) as f32 - 2.0) * 0.5);
        let grad_in = conv.backward(&grad_out);
        let (want_in, want_w, want_b) =
            direct_backward(&input, &weight, &grad_out, cout, groups, k, stride, pad);
        for (i, (a, b)) in grad_in.data().iter().zip(want_in.data()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "grad_in mismatch at {}", i);
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
}
