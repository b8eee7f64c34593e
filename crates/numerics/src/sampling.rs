//! Seedable samplers for the distributions the reproduction needs.
//!
//! The offline dependency policy of this workspace does not include
//! `rand_distr`, so the normal, Laplace and binomial samplers are
//! implemented here:
//!
//! * normal — polar Box–Muller (exact),
//! * Laplace — inverse CDF (exact),
//! * binomial — exact inverse-CDF search for small variance (through a
//!   per-`p` table of cached rows, kept or used once) and a
//!   continuity-corrected normal approximation for large variance. The
//!   approximation branch is what makes the analytic weight-memory
//!   simulator (the dnnlife-accel crate) tractable at 512 KB × `K`-block scale;
//!   its accuracy is validated against exact tails in the tests.
//!
//! All samplers are deterministic given a seeded [`rand::Rng`].

use rand::{Rng, RngExt};

/// Standard-normal sampler using the polar Box–Muller transform with a
/// one-sample cache.
///
/// # Example
///
/// ```
/// use dnnlife_numerics::NormalSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut normal = NormalSampler::new();
/// let x = normal.sample(&mut rng, 0.0, 1.0);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NormalSampler {
    cached: Option<f64>,
}

impl NormalSampler {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one sample from `N(mean, std^2)`.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, std: f64) -> f64 {
        assert!(
            std.is_finite() && std >= 0.0,
            "NormalSampler: std must be >= 0"
        );
        mean + std * self.sample_standard(rng)
    }

    /// Draws one standard-normal sample.
    pub fn sample_standard<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        loop {
            let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.cached = Some(v * factor);
                return u * factor;
            }
        }
    }
}

/// Laplace (double-exponential) sampler, used by the synthetic trained
/// weight generator: trained CNN layers are empirically closer to Laplace
/// than to Gaussian (heavier tails).
///
/// # Example
///
/// ```
/// use dnnlife_numerics::LaplaceSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let x = LaplaceSampler::new(0.0, 0.02).sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceSampler {
    location: f64,
    scale: f64,
}

impl LaplaceSampler {
    /// Creates a Laplace sampler with the given location and scale `b`
    /// (standard deviation is `b * sqrt(2)`).
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0` or either parameter is not finite.
    pub fn new(location: f64, scale: f64) -> Self {
        assert!(location.is_finite(), "LaplaceSampler: location not finite");
        assert!(
            scale.is_finite() && scale > 0.0,
            "LaplaceSampler: scale must be > 0"
        );
        Self { location, scale }
    }

    /// Location parameter (median).
    pub fn location(&self) -> f64 {
        self.location
    }

    /// Scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Draws one sample via the inverse CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u uniform on (-1/2, 1/2]; inverse CDF is -b * sgn(u) * ln(1-2|u|).
        let u: f64 = rng.random::<f64>() - 0.5;
        let magnitude = (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE);
        self.location - self.scale * u.signum() * magnitude.ln()
    }
}

/// Threshold on `n·p·(1-p)` above which [`sample_binomial`] switches from
/// the exact inverse-CDF search to the normal approximation.
const BINOMIAL_NORMAL_THRESHOLD: f64 = 100.0;

/// Draws one sample from `Binomial(n, p)`.
///
/// For `n·p·(1-p) <= 100` the sample is exact: one uniform `u`, and `k`
/// is the first index whose running pmf sum reaches `u` (see
/// [`BinomialTable`] for the sums). Beyond that a continuity-corrected
/// normal approximation `round(np + z·sqrt(np(1-p)))` clamped to `[0, n]`
/// is used; with variance above 100 the approximation error on any tail
/// probability is far below the Monte-Carlo noise of the simulations that
/// consume it (see the Kolmogorov–Smirnov test in this module).
///
/// One-shot: a [`BinomialTable`] used for a single draw. A caller
/// drawing many samples at one `p` keeps the table, which draws the
/// same `k` from the same stream without rebuilding its rows.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use dnnlife_numerics::sample_binomial;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let k = sample_binomial(&mut rng, 100, 0.5);
/// assert!(k <= 100);
/// ```
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    BinomialTable::new(p).sample(rng, n)
}

/// [`sample_binomial`] for one fixed `p` and many `n`, caching each
/// exact-branch row `cdf[0..=n]` the first time its `n` occurs.
///
/// A draw then costs a binary search over the row instead of a walk of
/// `≈ n·p` dependent multiply-divide steps. The row holds the running
/// sums of the inverse-CDF walk and is non-decreasing, so the first `k`
/// with `u ≤ cdf[k]` is the `k` the walk stops at: a draw from a kept
/// table equals one from a fresh table on the same stream, bit for bit,
/// and consumes the same uniforms. Rows exist only for the `n` values
/// drawn, each at most `100 / (p·(1−p)) + 1` sums long, and stop early
/// once the remaining sums can no longer change.
///
/// # Example
///
/// ```
/// use dnnlife_numerics::{sample_binomial, BinomialTable};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
/// let mut table = BinomialTable::new(0.3);
/// for n in [40, 7, 40, 300] {
///     assert_eq!(table.sample(&mut a, n), sample_binomial(&mut b, n, 0.3));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BinomialTable {
    p: f64,
    /// Every built row's sums, back to back.
    sums: Vec<f64>,
    /// `rows[n]`: row `n` as `(start, len)` in `sums`, `None` until
    /// built; empty when `P(X = 0)` underflows.
    rows: Vec<Option<(u32, u32)>>,
}

impl BinomialTable {
    /// An empty table for success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "sample_binomial: p must be in [0,1], got {p}"
        );
        Self {
            p,
            sums: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Draws one sample from `Binomial(n, p)`, equal to
    /// `sample_binomial(rng, n, p)`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, n: u64) -> u64 {
        let p = self.p;
        if n == 0 || p == 0.0 {
            return 0;
        }
        if p == 1.0 {
            return n;
        }
        // Exploit symmetry to keep p <= 0.5 for the exact branch.
        if p > 0.5 {
            return n - self.draw(rng, n, 1.0 - p);
        }
        self.draw(rng, n, p)
    }

    /// The exact or the normal branch at `p ≤ 0.5`, which is `self.p`
    /// or `1 − self.p` for every call on one table.
    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, n: u64, p: f64) -> u64 {
        let variance = n as f64 * p * (1.0 - p);
        if variance <= BINOMIAL_NORMAL_THRESHOLD {
            self.exact(rng, n, p)
        } else {
            let mean = n as f64 * p;
            let z = NormalSampler::new().sample_standard(rng);
            let k = (mean + z * variance.sqrt()).round();
            k.clamp(0.0, n as f64) as u64
        }
    }

    /// The exact branch: builds row `n` on first use, then finds the
    /// first `k` with `u ≤ cdf[k]` by binary search.
    fn exact<R: Rng + ?Sized>(&mut self, rng: &mut R, n: u64, p: f64) -> u64 {
        let index = n as usize;
        if self.rows.len() <= index {
            self.rows.resize(index + 1, None);
        }
        let sums = &mut self.sums;
        let (start, len) = *self.rows[index].get_or_insert_with(|| {
            let start = sums.len();
            sums.extend(CdfTerms::new(n, p).into_iter().flatten());
            let offset = |at: usize| u32::try_from(at).expect("row sums overflow u32");
            (offset(start), offset(sums.len() - start))
        });
        let row = &self.sums[start as usize..][..len as usize];
        if row.is_empty() {
            // `P(X = 0) = q^n` underflowed: answer the mean. An extremely
            // unlikely guard for huge n with the variance threshold
            // already keeping n·p·q small.
            return (n as f64 * p).round() as u64;
        }
        let u: f64 = rng.random();
        match row.partition_point(|&c| u > c) {
            k if k == row.len() => n,
            k => k as u64,
        }
    }
}

/// The running sums `cdf[0], cdf[1], …, cdf[n]` of `Binomial(n, p)`'s
/// pmf, by the inverse-CDF recurrence: `P(0) = q^n`, computed
/// in log space to survive large n, then `P(k+1) = P(k) · (n−k)/(k+1) ·
/// p/q` and `cdf[k+1] = cdf[k] + P(k+1)`.
///
/// Ends early once every later sum equals the last one: past the mode
/// (`(n−k)/(k+1) · p/q ≤ 1`, and the rounded factor only falls with
/// `k`) each `P(k+1)` is at most the one before, so once adding it
/// leaves the sum unchanged, adding any later one does too. A search
/// that runs off the end therefore answers `n`, as the full walk does.
struct CdfTerms {
    n: u64,
    p_over_q: f64,
    k: u64,
    pmf: f64,
    /// `cdf[k]`, or `None` once the sums are exhausted.
    cdf: Option<f64>,
}

impl CdfTerms {
    /// `None` when `P(X = 0)` underflows to zero.
    fn new(n: u64, p: f64) -> Option<Self> {
        let q = 1.0 - p;
        let pmf = (n as f64 * q.ln()).exp();
        if pmf <= 0.0 {
            return None;
        }
        Some(Self {
            n,
            p_over_q: p / q,
            k: 0,
            pmf,
            cdf: Some(pmf),
        })
    }
}

impl Iterator for CdfTerms {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let cdf = self.cdf?;
        self.cdf = if self.k < self.n {
            let factor = (self.n - self.k) as f64 / (self.k + 1) as f64 * self.p_over_q;
            self.pmf *= factor;
            self.k += 1;
            let next = cdf + self.pmf;
            (factor > 1.0 || next != cdf).then_some(next)
        } else {
            None
        };
        Some(cdf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::Binomial;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut s = NormalSampler::new();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| s.sample(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean={mean}");
        assert!((var - 4.0).abs() < 0.08, "var={var}");
    }

    #[test]
    fn laplace_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(43);
        let s = LaplaceSampler::new(-1.0, 0.5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| s.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean + 1.0).abs() < 0.02, "mean={mean}");
        // Laplace variance = 2 b^2 = 0.5.
        assert!((var - 0.5).abs() < 0.03, "var={var}");
    }

    #[test]
    fn binomial_sampler_exact_branch_distribution() {
        // n·p·q = 50·0.2·0.8 = 8 → exact branch. Chi-square-lite check
        // against the true pmf on the bulk of the support.
        let mut rng = StdRng::seed_from_u64(44);
        let (n, p, draws) = (50u64, 0.2f64, 100_000usize);
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..draws {
            counts[sample_binomial(&mut rng, n, p) as usize] += 1;
        }
        let dist = Binomial::new(n, p);
        for k in 4..=16u64 {
            let expect = dist.pmf(k) * draws as f64;
            let got = counts[k as usize] as f64;
            assert!(
                (got - expect).abs() < 5.0 * expect.sqrt() + 5.0,
                "k={k}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn binomial_sampler_normal_branch_moments() {
        // n·p·q = 40000·0.5·0.5 = 10000 → normal branch.
        let mut rng = StdRng::seed_from_u64(45);
        let (n, p, draws) = (40_000u64, 0.5f64, 50_000usize);
        let samples: Vec<f64> = (0..draws)
            .map(|_| sample_binomial(&mut rng, n, p) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / draws as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws as f64;
        assert!((mean - 20_000.0).abs() < 3.0, "mean={mean}");
        assert!((var / 10_000.0 - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn binomial_sampler_symmetry_reduction() {
        let mut rng = StdRng::seed_from_u64(46);
        // p close to 1: must route through the symmetric branch and stay
        // within the support.
        for _ in 0..1000 {
            let k = sample_binomial(&mut rng, 30, 0.95);
            assert!(k <= 30);
        }
        let mean: f64 = (0..20_000)
            .map(|_| sample_binomial(&mut rng, 30, 0.95) as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 28.5).abs() < 0.1, "mean={mean}");
    }

    /// The sampler as it was before [`BinomialTable`], kept verbatim as
    /// the reference the table must reproduce draw for draw.
    fn reference_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
        if n == 0 || p == 0.0 {
            return 0;
        }
        if p == 1.0 {
            return n;
        }
        if p > 0.5 {
            return n - reference_binomial(rng, n, 1.0 - p);
        }
        let variance = n as f64 * p * (1.0 - p);
        if variance <= BINOMIAL_NORMAL_THRESHOLD {
            reference_inverse(rng, n, p)
        } else {
            let mean = n as f64 * p;
            let z = NormalSampler::new().sample_standard(rng);
            let k = (mean + z * variance.sqrt()).round();
            k.clamp(0.0, n as f64) as u64
        }
    }

    /// The bottom-up inverse-CDF walk of the reference.
    fn reference_inverse<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
        let q = 1.0 - p;
        let mut pmf = (n as f64 * q.ln()).exp();
        if pmf <= 0.0 {
            return (n as f64 * p).round() as u64;
        }
        let mut cdf = pmf;
        let u: f64 = rng.random();
        let mut k = 0u64;
        while u > cdf && k < n {
            pmf *= (n - k) as f64 / (k + 1) as f64 * (p / q);
            k += 1;
            cdf += pmf;
        }
        k
    }

    #[test]
    fn table_and_one_shot_draw_the_reference_sequence() {
        for p in [1e-3, 0.3, 0.5, 0.7, 0.999] {
            let mut table = BinomialTable::new(p);
            let mut streams = [0; 3].map(|_| StdRng::seed_from_u64(49));
            let [reference, tabled, one_shot] = &mut streams;
            // Ascending, then descending: rows are built in both orders
            // and every n is drawn again from a cached row.
            for n in (0..=600u64).chain((0..=600).rev()) {
                for _ in 0..3 {
                    let want = reference_binomial(reference, n, p);
                    assert_eq!(table.sample(tabled, n), want, "table p {p} n {n}");
                    assert_eq!(
                        sample_binomial(one_shot, n, p),
                        want,
                        "one-shot p {p} n {n}"
                    );
                }
            }
            // The streams consumed the same uniforms, normal branch
            // (n·p·q > 100 at p 0.3, 0.5 and 0.7) included.
            let next = streams.map(|mut rng| rng.random::<u64>());
            assert!(next.iter().all(|&x| x == next[0]), "p {p}: streams drifted");
        }
    }

    #[test]
    fn underflowing_rows_fall_back_to_the_mean_without_a_draw() {
        // q^n = 0.5^2000 underflows. The variance threshold keeps the
        // public path away from this row, so call the exact branches
        // directly.
        let (n, p) = (2000u64, 0.5);
        let mut streams = [0; 2].map(|_| StdRng::seed_from_u64(50));
        let [reference, tabled] = &mut streams;
        assert_eq!(reference_inverse(reference, n, p), 1000);
        assert_eq!(BinomialTable::new(p).exact(tabled, n, p), 1000);
        let fresh = StdRng::seed_from_u64(50).random::<u64>();
        assert!(streams.map(|mut rng| rng.random::<u64>()) == [fresh; 2]);
    }

    #[test]
    fn rows_stop_once_the_sums_stop_moving() {
        // Binomial(400, 0.5): the sums reach their final value long
        // before k = 400, and the row ends there.
        let row: Vec<f64> = CdfTerms::new(400, 0.5).expect("no underflow").collect();
        assert!(row.len() < 401, "row not truncated: {}", row.len());
        assert!(
            row.windows(2).all(|w| w[0] <= w[1]),
            "sums must not decrease"
        );
        // The reference walk's sums past the row's end add nothing.
        let (mut pmf, mut cdf) = ((400.0 * 0.5f64.ln()).exp(), 0.0);
        cdf += pmf;
        for k in 0..400u64 {
            pmf *= (400 - k) as f64 / (k + 1) as f64 * (0.5 / 0.5);
            cdf += pmf;
        }
        assert_eq!(*row.last().expect("non-empty"), cdf);
    }

    #[test]
    fn binomial_sampler_edge_cases() {
        let mut rng = StdRng::seed_from_u64(47);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 1.0), 10);
    }
}
