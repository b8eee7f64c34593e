//! The register-tiled GEMM kernel behind the `Conv2d` and `Dense`
//! forward passes.
//!
//! [`gemm_acc`] computes `c[r][j] = c[r][j] + Σ_t a[r][t] · b[t][j]` over
//! row-major matrices. It walks `c` in tiles of up to [`MR`] rows ×
//! [`NR`] columns held in registers as independent f32 accumulators;
//! ragged edges use narrower instances of the same tile (rows 2 and 1,
//! columns 4, 2 and 1). Inside a tile every accumulator starts from its
//! `c` value and adds its products in ascending `t`, one multiply then
//! one add per term (no fused multiply-add, no reassociation). Each
//! output is therefore the exact k-sequential chain `acc += a · b` of a
//! textbook dot loop seeded with `c`, bit for bit; the tiling only runs
//! many such chains side by side instead of one after another.

/// Rows per full tile.
const MR: usize = 4;
/// Columns per full tile.
const NR: usize = 8;

/// Accumulates `a · b` into `c`, where `a` is `m × k`, `b` is `k × n` and
/// `c` is `m × n`, all row-major and contiguous (`m = c.len() / n`).
///
/// # Panics
///
/// Panics if `k` or `n` is zero or the slice lengths disagree with the
/// shapes.
pub(crate) fn gemm_acc(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    assert!(k > 0 && n > 0, "gemm_acc: k and n must be > 0");
    let m = c.len() / n;
    assert_eq!(c.len(), m * n, "gemm_acc: c is not m × n");
    assert_eq!(a.len(), m * k, "gemm_acc: a is not m × k");
    assert_eq!(b.len(), k * n, "gemm_acc: b is not k × n");
    let mut packed = vec![0.0f32; MR * k];
    let mut r = 0;
    while r < m {
        let rows = [MR, 2, 1].into_iter().find(|&w| w <= m - r).unwrap_or(1);
        let (a_rows, c_rows) = (&a[r * k..(r + rows) * k], &mut c[r * n..(r + rows) * n]);
        match rows {
            MR => row_panel::<MR>(a_rows, b, c_rows, &mut packed, k, n),
            2 => row_panel::<2>(a_rows, b, c_rows, &mut packed, k, n),
            _ => row_panel::<1>(a_rows, b, c_rows, &mut packed, k, n),
        }
        r += rows;
    }
}

/// One `R`-row panel of `c`: packs the panel's `a` rows `t`-major, so a
/// tile reads its `R` multipliers for step `t` from one contiguous
/// chunk, then sweeps the columns in tiles of width 8, 4, 2 and 1.
fn row_panel<const R: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    packed: &mut [f32],
    k: usize,
    n: usize,
) {
    let packed = &mut packed[..R * k];
    for (t, dst) in packed.chunks_exact_mut(R).enumerate() {
        for (r, d) in dst.iter_mut().enumerate() {
            *d = a[r * k + t];
        }
    }
    let mut j = 0;
    while j < n {
        let cols = [NR, 4, 2, 1].into_iter().find(|&w| w <= n - j).unwrap_or(1);
        match cols {
            NR => tile::<R, NR>(packed, b, c, n, j),
            4 => tile::<R, 4>(packed, b, c, n, j),
            2 => tile::<R, 2>(packed, b, c, n, j),
            _ => tile::<R, 1>(packed, b, c, n, j),
        }
        j += cols;
    }
}

/// The `R × C` tile of `c` at column `j`: load, accumulate every `t` in
/// ascending order, store.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    packed: &[f32],
    b: &[f32],
    c: &mut [f32],
    n: usize,
    j: usize,
) {
    let mut acc = [[0.0f32; C]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * n + j..r * n + j + C]);
    }
    for (a_t, b_row) in packed.chunks_exact(R).zip(b.chunks_exact(n)) {
        let b_t: &[f32; C] = b_row[j..j + C].try_into().expect("tile width");
        for (row, &a_rt) in acc.iter_mut().zip(a_t) {
            for (acc_rj, &b_tj) in row.iter_mut().zip(b_t) {
                *acc_rj += a_rt * b_tj;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * n + j..r * n + j + C].copy_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: one dependent chain per output, seeded with `c`.
    fn naive(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
        for (r, c_row) in c.chunks_exact_mut(n).enumerate() {
            for (j, out) in c_row.iter_mut().enumerate() {
                let mut acc = *out;
                for t in 0..k {
                    acc += a[r * k + t] * b[t * n + j];
                }
                *out = acc;
            }
        }
    }

    fn fill(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7919 + salt * 104_729) % 1013) as f32 / 97.0 - 5.0)
            .collect()
    }

    #[test]
    fn every_edge_shape_matches_the_dot_chain_bit_for_bit() {
        for m in 1..=11 {
            for n in 1..=19 {
                for k in [1, 2, 7, 33] {
                    let (a, b) = (fill(m * k, 1), fill(k * n, 2));
                    let mut got = fill(m * n, 3);
                    let mut want = got.clone();
                    gemm_acc(&a, &b, &mut got, k, n);
                    naive(&a, &b, &mut want, k, n);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "m {m} n {n} k {k}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a is not m × k")]
    fn rejects_mismatched_shapes() {
        gemm_acc(&[0.0; 5], &[0.0; 6], &mut [0.0; 4], 3, 2);
    }
}
