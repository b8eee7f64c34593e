//! The register-tiled GEMM kernel behind the `Conv2d` and `Dense`
//! forward passes, and the axpy behind `Dense::backward`.
//!
//! [`gemm_acc`] computes `c[r][j] = c[r][j] + Σ_t a[r][t] · b[t][j]` over
//! row-major matrices. It walks `c` in tiles of up to [`MR`] rows × `W`
//! columns held in registers as independent f32 accumulators; ragged
//! edges use narrower instances of the same tile (rows 2 and 1, columns
//! 8, 4, 2 and 1). Inside a tile every accumulator starts from its `c`
//! value and adds its products in ascending `t`, one multiply then one
//! add per term (no fused multiply-add, no reassociation). Each output
//! is therefore the exact k-sequential chain `acc += a · b` of a
//! textbook dot loop seeded with `c`, bit for bit; the tiling only runs
//! many such chains side by side instead of one after another.
//!
//! The one portable body is compiled twice:
//!
//! * `Isa::Portable` — as is, with `W` = [`NR`] = 8 columns, for the
//!   baseline target (SSE2 on x86-64);
//! * `Isa::Avx2` — inside a `#[target_feature(enable = "avx2")]`
//!   function, so LLVM may use 8-lane registers, with `W` =
//!   [`NR_AVX2`] = 16 columns (two registers per row, eight
//!   accumulators per 4-row tile).
//!
//! `Isa::detect` picks the AVX2 instance when
//! `is_x86_feature_detected!("avx2")` holds at run time; no build flag
//! or environment variable is involved. The AVX2 variant carries a
//! token only that check can make, so no caller can pick it on a host
//! without AVX2. Only AVX2 is enabled, never FMA, and Rust never
//! contracts `a * b + c`, so both instances round every product and
//! every sum exactly as the scalar chain does and produce the same bits.
//! [`axpy`] (`y += a · x`, element-wise, no reduction) is dispatched the
//! same way.

/// Rows per full tile.
const MR: usize = 4;
/// Columns per full tile of the portable instance.
const NR: usize = 8;
/// Columns per full tile of the AVX2 instance.
#[cfg(target_arch = "x86_64")]
const NR_AVX2: usize = 16;

/// The instruction set a kernel instance is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The baseline target: runs everywhere.
    Portable,
    /// x86-64 with AVX2, carrying the proof that this host has it.
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Detected),
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    /// Proof that this host runs AVX2: its field is private to this
    /// module, so [`Detected::new`] is the only way to make one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Detected(());

    impl Detected {
        /// `Some` iff the running CPU has AVX2.
        pub(super) fn new() -> Option<Self> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Self(()))
        }
    }
}

impl Isa {
    /// The widest instance this host runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = avx2::Detected::new() {
            return Isa::Avx2(detected);
        }
        Isa::Portable
    }
}

/// Accumulates `a · b` into `c`, where `a` is `m × k`, `b` is `k × n` and
/// `c` is `m × n`, all row-major and contiguous (`m = c.len() / n`), on
/// the widest instance this host runs.
///
/// # Panics
///
/// Panics if `k` or `n` is zero or the slice lengths disagree with the
/// shapes.
pub(crate) fn gemm_acc(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    gemm_acc_on(Isa::detect(), a, b, c, k, n);
}

/// [`gemm_acc`] on the instance `isa`.
fn gemm_acc_on(isa: Isa, a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    assert!(k > 0 && n > 0, "gemm_acc: k and n must be > 0");
    let m = c.len() / n;
    assert_eq!(c.len(), m * n, "gemm_acc: c is not m × n");
    assert_eq!(a.len(), m * k, "gemm_acc: a is not m × k");
    assert_eq!(b.len(), k * n, "gemm_acc: b is not k × n");
    match isa {
        Isa::Portable => gemm_body::<NR>(a, b, c, k, n),
        // SAFETY: an `avx2::Detected` exists only on a host that has AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(_) => unsafe { gemm_avx2(a, b, c, k, n) },
    }
}

/// The AVX2 instance of the GEMM body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    gemm_body::<NR_AVX2>(a, b, c, k, n);
}

/// The portable GEMM body with full tiles `W` columns wide.
#[inline(always)]
fn gemm_body<const W: usize>(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let m = c.len() / n;
    let mut packed = vec![0.0f32; MR * k];
    let mut r = 0;
    while r < m {
        let rows = [MR, 2, 1].into_iter().find(|&w| w <= m - r).unwrap_or(1);
        let (a_rows, c_rows) = (&a[r * k..(r + rows) * k], &mut c[r * n..(r + rows) * n]);
        match rows {
            MR => row_panel::<MR, W>(a_rows, b, c_rows, &mut packed, k, n),
            2 => row_panel::<2, W>(a_rows, b, c_rows, &mut packed, k, n),
            _ => row_panel::<1, W>(a_rows, b, c_rows, &mut packed, k, n),
        }
        r += rows;
    }
}

/// One `R`-row panel of `c`: packs the panel's `a` rows `t`-major, so a
/// tile reads its `R` multipliers for step `t` from one contiguous
/// chunk, then sweeps the columns in tiles of width `W`, 8, 4, 2 and 1.
#[inline(always)]
fn row_panel<const R: usize, const W: usize>(
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
        let cols = [W, 8, 4, 2, 1]
            .into_iter()
            .find(|&w| w <= n - j)
            .unwrap_or(1);
        match cols {
            w if w == W => tile::<R, W>(packed, b, c, n, j),
            8 => tile::<R, 8>(packed, b, c, n, j),
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

/// `y[i] += a · x[i]` for every `i`, on the widest instance this host
/// runs. Each element is one multiply then one add, so every instance
/// gives the same bits.
///
/// # Panics
///
/// Panics if `x` and `y` differ in length.
pub(crate) fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    axpy_on(Isa::detect(), y, a, x);
}

/// [`axpy`] on the instance `isa`.
fn axpy_on(isa: Isa, y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    match isa {
        Isa::Portable => axpy_body(y, a, x),
        // SAFETY: an `avx2::Detected` exists only on a host that has AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(_) => unsafe { axpy_avx2(y, a, x) },
    }
}

/// The AVX2 instance of the axpy body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_avx2(y: &mut [f32], a: f32, x: &[f32]) {
    axpy_body(y, a, x);
}

/// The portable axpy body.
#[inline(always)]
fn axpy_body(y: &mut [f32], a: f32, x: &[f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
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

    /// `len` values with random signs, mantissas and magnitudes over
    /// 2^-8 … 2^8, so sums round at every step.
    fn random(len: usize, state: &mut u64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                *state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let bits = *state >> 32;
                let mantissa = (bits & 0xFFFF) as f32 / 65_536.0 + 1.0;
                let scale = 2f32.powi((bits >> 16 & 0xF) as i32 - 8);
                let sign = if bits >> 20 & 1 == 1 { -1.0 } else { 1.0 };
                sign * mantissa * scale
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The instances this host can run; says so when AVX2 is missing.
    fn instances() -> Vec<Isa> {
        let detected = Isa::detect();
        if detected == Isa::Portable {
            eprintln!("no AVX2 on this host: testing the portable instance only");
            vec![Isa::Portable]
        } else {
            vec![Isa::Portable, detected]
        }
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
                    assert_eq!(bits(&got), bits(&want), "m {m} n {n} k {k}");
                }
            }
        }
    }

    #[test]
    fn every_instance_gives_the_same_bits_on_random_ragged_shapes() {
        let mut state = 0x5EED;
        for m in 1..=11 {
            for n in 1..=40 {
                for k in [1, 2, 7, 33, 400] {
                    let (a, b) = (random(m * k, &mut state), random(k * n, &mut state));
                    // Bias-seeded: each row of `c` starts from one value.
                    let bias = random(m, &mut state);
                    let seeded: Vec<f32> = bias
                        .iter()
                        .flat_map(|&v| std::iter::repeat_n(v, n))
                        .collect();
                    let mut want = seeded.clone();
                    naive(&a, &b, &mut want, k, n);
                    for isa in instances() {
                        let mut got = seeded.clone();
                        gemm_acc_on(isa, &a, &b, &mut got, k, n);
                        assert_eq!(bits(&got), bits(&want), "{isa:?} m {m} n {n} k {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_axpy_instance_gives_the_same_bits() {
        let mut state = 0xA8E;
        for len in (0..=40).chain([255, 256, 257, 800]) {
            let (x, y) = (random(len, &mut state), random(len, &mut state));
            let a = random(1, &mut state)[0];
            let want: Vec<f32> = y.iter().zip(&x).map(|(&yi, &xi)| yi + a * xi).collect();
            for isa in instances() {
                let mut got = y.clone();
                axpy_on(isa, &mut got, a, &x);
                assert_eq!(bits(&got), bits(&want), "{isa:?} len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a is not m × k")]
    fn rejects_mismatched_shapes() {
        gemm_acc(&[0.0; 5], &[0.0; 6], &mut [0.0; 4], 3, 2);
    }
}
