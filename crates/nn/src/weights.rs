//! Deterministic synthetic "trained-like" weight model.
//!
//! Real pre-trained ImageNet weights are unavailable offline, so this
//! module substitutes a statistical model (DESIGN.md substitution #1).
//! Each layer's weights are i.i.d. draws from a *two-sided exponential
//! with asymmetric tails*:
//!
//! * the median sits at a small layer-dependent location near zero, so
//!   the sign distribution is close to balanced — this reproduces the
//!   paper's Fig. 6 observation that **symmetric** int8 quantization of
//!   trained weights yields ≈0.5 probability at every bit position;
//! * the positive and negative tail scales differ by a per-layer
//!   asymmetry ratio (trained layers are rarely range-symmetric), which
//!   is exactly what makes **asymmetric** quantization place its
//!   zero-point away from mid-scale and produce the biased bit
//!   distributions of Fig. 6;
//! * the base scale is `b = sqrt(1 / fan_in)`, giving He-magnitude
//!   weights, with tails clamped at 8 scale units.
//!
//! Crucially the model is **counter-based**: weight `i` of layer `l` is a
//! pure function of `(network_seed, l, i)`. The quantization analysis
//! (sequential scan) and the accelerator dataflow (strided block order)
//! therefore observe *identical* values without ever materialising a
//! 138M-element tensor.
//!
//! The weight is a non-decreasing function of the raw 53-bit draw
//! behind it ([`LayerWeightGen::draw`] then
//! [`LayerWeightGen::weight_of_draw`]). Calibration uses that order to
//! find a layer's range from the extreme draws alone, and the memory
//! plans use it to turn a layer's 8-bit codes into a step function of
//! the draw.

use crate::zoo::NetworkSpec;

/// Counter-based generator for the weights of one layer.
///
/// # Example
///
/// ```
/// use dnnlife_nn::weights::LayerWeightGen;
/// use dnnlife_nn::NetworkSpec;
///
/// let spec = NetworkSpec::custom_mnist();
/// let gen = LayerWeightGen::new(&spec, 0, 42);
/// assert_eq!(gen.len(), 400);
/// // Random access is pure: the same index always gives the same weight.
/// assert_eq!(gen.weight(17), gen.weight(17));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerWeightGen {
    layer_seed: u64,
    count: u64,
    location: f64,
    scale_pos: f64,
    scale_neg: f64,
}

/// Maximum tail length in scale units (trained weight tails are bounded).
const TAIL_CLAMP: f64 = 8.0;

impl LayerWeightGen {
    /// Creates the generator for layer `layer` of `spec` under
    /// `network_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn new(spec: &NetworkSpec, layer: usize, network_seed: u64) -> Self {
        assert!(
            layer < spec.layers().len(),
            "LayerWeightGen: layer {layer} out of range for {}",
            spec.name()
        );
        let ls = &spec.layers()[layer];
        let layer_seed =
            splitmix(splitmix(network_seed ^ 0xD1B5_4A32_D192_ED03).wrapping_add(layer as u64));
        let base_scale = (1.0 / ls.fan_in() as f64).sqrt();
        // Location skew: up to ±5% of the base scale — keeps the sign
        // distribution near balanced while avoiding perfect symmetry.
        let u_loc = unit(splitmix(layer_seed ^ 0xA076_1D64_78BD_642F));
        let location = (u_loc - 0.5) * 0.1 * base_scale;
        // Tail asymmetry ratio in [0.65, 1.55]: positive tail scale is
        // `base·r`, negative is `base/r`, preserving the geometric mean.
        let u_asym = unit(splitmix(layer_seed ^ 0xE703_7ED1_A0B4_28DB));
        let ratio = 0.65 + u_asym * 0.9;
        Self {
            layer_seed,
            count: ls.weight_count(),
            location,
            scale_pos: base_scale * ratio,
            scale_neg: base_scale / ratio,
        }
    }

    /// Number of distinct raw draws: every [`LayerWeightGen::draw`] is
    /// below `2⁵³`.
    pub const DRAWS: u64 = 1 << 53;

    /// Number of weights in the layer.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the layer has no weights (never true for valid specs).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Median of the weight distribution.
    pub fn location(&self) -> f32 {
        self.location as f32
    }

    /// Positive-tail exponential scale.
    pub fn scale_pos(&self) -> f32 {
        self.scale_pos as f32
    }

    /// Negative-tail exponential scale.
    pub fn scale_neg(&self) -> f32 {
        self.scale_neg as f32
    }

    /// Geometric-mean tail scale (`sqrt(1 / fan_in)` by construction).
    pub fn scale(&self) -> f32 {
        (self.scale_pos * self.scale_neg).sqrt() as f32
    }

    /// Distribution mean: `location + (scale_pos − scale_neg) / 2`.
    pub fn mean(&self) -> f32 {
        (self.location + 0.5 * (self.scale_pos - self.scale_neg)) as f32
    }

    /// Distribution variance:
    /// `E[X²] − E[X]²` with `E[(X−loc)²] = b₊² + b₋²` for the two-sided
    /// exponential (ignoring the rare tail clamp).
    pub fn variance(&self) -> f32 {
        let m = 0.5 * (self.scale_pos - self.scale_neg);
        (self.scale_pos.powi(2) + self.scale_neg.powi(2) - m * m) as f32
    }

    /// The value of weight `index` (canonical `[out][in][ky][kx]` /
    /// `[out][in]` order).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `index < self.len()`.
    #[inline]
    pub fn weight(&self, index: u64) -> f32 {
        self.weight_of_draw(self.draw(index))
    }

    /// The raw 53-bit counter draw behind weight `index`: SplitMix64 of
    /// `(layer_seed, index)`, top 53 bits, so always below
    /// [`LayerWeightGen::DRAWS`]. `weight(index)` is
    /// `weight_of_draw(draw(index))`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `index < self.len()`.
    #[inline]
    pub fn draw(&self, index: u64) -> u64 {
        debug_assert!(index < self.count, "weight index out of range");
        splitmix(self.layer_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11
    }

    /// The weight a raw draw maps to. It is a non-decreasing function of
    /// `draw`: the `(d + 0.5)/2⁵³` map, `ln`, the `−TAIL_CLAMP` clamp,
    /// the multiplication by a positive tail scale and the `f32` cast
    /// are all monotone, and the `u < 0.5` branch stays at or below
    /// `location` while the other stays at or above it. Two things rest
    /// on that order: [`LayerWeightGen::range`] maps only the extreme
    /// draws, and a memory plan turns a whole layer's quantized codes
    /// into a step function of the draw.
    #[inline]
    pub fn weight_of_draw(&self, draw: u64) -> f32 {
        // Map to (0, 1) — never exactly 0 or 1.
        let u = (draw as f64 + 0.5) / Self::DRAWS as f64;
        // Two-sided exponential with asymmetric tails: each side carries
        // half of the probability mass, so the median is `location`.
        let x = if u < 0.5 {
            // ln(2u) ∈ (−∞, 0]; clamp the tail.
            self.location + self.scale_neg * (2.0 * u).ln().max(-TAIL_CLAMP)
        } else {
            self.location - self.scale_pos * (2.0 * (1.0 - u)).ln().max(-TAIL_CLAMP)
        };
        x as f32
    }

    /// An estimate of the first draw whose weight, before the `f32`
    /// cast, reaches `w`: the closed-form inverse of
    /// [`LayerWeightGen::weight_of_draw`]'s transform, clamped to
    /// `[0, DRAWS − 1]`. Float rounding puts it within a few draws of
    /// the exact answer, so a search seeded with it must still confirm
    /// the boundary with `weight_of_draw` itself.
    pub fn draw_estimate(&self, w: f64) -> u64 {
        let u = if w < self.location {
            0.5 * ((w - self.location) / self.scale_neg).exp()
        } else {
            1.0 - 0.5 * (-(w - self.location) / self.scale_pos).exp()
        };
        // `as` saturates: NaN and negatives go to 0.
        ((u * Self::DRAWS as f64 - 0.5).ceil() as u64).min(Self::DRAWS - 1)
    }

    /// Iterates over all weights in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        (0..self.count).map(move |i| self.weight(i))
    }

    /// Min/max over the first `limit` weights (or the whole layer if
    /// smaller). `limit = 0` still samples one weight; an empty layer
    /// yields `min = +∞`, `max = −∞`. The quantization calibration uses
    /// this; sub-sampling very large layers changes the range estimate by
    /// well under the quantization step (the distribution tails are
    /// clamped).
    ///
    /// The scan is integer-only: it finds the argmin/argmax of the raw
    /// 53-bit draws and maps just those two through the weight
    /// transform. That gives exactly the min/max of [`weight`] because
    /// the transform is non-decreasing in the draw (see
    /// [`LayerWeightGen::weight_of_draw`]).
    ///
    /// [`weight`]: LayerWeightGen::weight
    pub fn range(&self, limit: u64) -> WeightRange {
        let n = self.count.min(limit.max(1));
        let (lo, hi) = (0..n)
            .map(|i| self.draw(i))
            .fold((u64::MAX, 0), |(lo, hi), d| (lo.min(d), hi.max(d)));
        let (min, max) = if n == 0 {
            (f32::INFINITY, f32::NEG_INFINITY)
        } else {
            (self.weight_of_draw(lo), self.weight_of_draw(hi))
        };
        WeightRange {
            min,
            max,
            sampled: n,
        }
    }
}

/// Observed value range of a (possibly sub-sampled) weight stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightRange {
    /// Smallest observed weight.
    pub min: f32,
    /// Largest observed weight.
    pub max: f32,
    /// Number of weights inspected.
    pub sampled: u64,
}

impl WeightRange {
    /// Largest absolute value of the range.
    pub fn abs_max(&self) -> f32 {
        self.min.abs().max(self.max.abs())
    }
}

/// Uniform in `[0, 1)` from 64 random bits.
#[inline]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64 finaliser.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::NetworkSpec;

    #[test]
    fn deterministic_random_access() {
        let spec = NetworkSpec::alexnet();
        let a = LayerWeightGen::new(&spec, 3, 99);
        let b = LayerWeightGen::new(&spec, 3, 99);
        for i in [0u64, 1, 1000, 663_551] {
            assert_eq!(a.weight(i), b.weight(i));
        }
    }

    #[test]
    fn different_layers_and_seeds_differ() {
        let spec = NetworkSpec::alexnet();
        let l0 = LayerWeightGen::new(&spec, 0, 1);
        let l1 = LayerWeightGen::new(&spec, 1, 1);
        let s2 = LayerWeightGen::new(&spec, 0, 2);
        assert_ne!(l0.weight(5), l1.weight(5));
        assert_ne!(l0.weight(5), s2.weight(5));
    }

    #[test]
    fn distribution_moments_match_model() {
        let spec = NetworkSpec::custom_mnist();
        // fc1: fan_in 800 → geometric-mean scale = sqrt(1/800) ≈ 0.03536.
        let gen = LayerWeightGen::new(&spec, 2, 42);
        assert!((gen.scale() - (1.0f32 / 800.0).sqrt()).abs() < 1e-6);
        let n = gen.len();
        let mean: f64 = gen.iter().map(f64::from).sum::<f64>() / n as f64;
        let var: f64 = gen
            .iter()
            .map(|w| (f64::from(w) - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - f64::from(gen.mean())).abs() < 5e-4,
            "mean {mean} vs model {}",
            gen.mean()
        );
        assert!(
            (var / f64::from(gen.variance()) - 1.0).abs() < 0.05,
            "var {var} vs model {}",
            gen.variance()
        );
    }

    #[test]
    fn median_is_near_location() {
        let spec = NetworkSpec::custom_mnist();
        for layer in 0..4 {
            let gen = LayerWeightGen::new(&spec, layer, 3);
            let below = gen.iter().filter(|&w| w < gen.location()).count();
            let frac = below as f64 / gen.len() as f64;
            assert!(
                (frac - 0.5).abs() < 0.02,
                "layer {layer}: median fraction {frac}"
            );
        }
    }

    #[test]
    fn tails_are_asymmetric() {
        // At least some layers must have a clearly asymmetric range; this
        // is what differentiates asymmetric from symmetric quantization.
        let spec = NetworkSpec::vgg16();
        let mut max_ratio = 0.0f32;
        for layer in 0..spec.layers().len() {
            let gen = LayerWeightGen::new(&spec, layer, 42);
            let ratio = gen.scale_pos() / gen.scale_neg();
            max_ratio = max_ratio.max(ratio.max(1.0 / ratio));
        }
        assert!(max_ratio > 1.5, "tail asymmetry too weak: {max_ratio}");
    }

    #[test]
    fn location_skew_is_bounded() {
        for seed in 0..20u64 {
            let spec = NetworkSpec::vgg16();
            for li in 0..spec.layers().len() {
                let gen = LayerWeightGen::new(&spec, li, seed);
                assert!(
                    gen.location().abs() <= 0.05 * gen.scale() + 1e-9,
                    "seed {seed} layer {li}: skew too large"
                );
            }
        }
    }

    #[test]
    fn range_is_consistent_with_clamp() {
        let spec = NetworkSpec::custom_mnist();
        let gen = LayerWeightGen::new(&spec, 1, 7);
        let range = gen.range(u64::MAX);
        assert_eq!(range.sampled, 20_000);
        let bound =
            (TAIL_CLAMP as f32) * gen.scale_pos().max(gen.scale_neg()) + gen.location().abs();
        assert!(range.abs_max() <= bound);
        assert!(range.min < 0.0 && range.max > 0.0);
    }

    #[test]
    fn sampled_range_close_to_full_range() {
        let spec = NetworkSpec::custom_mnist();
        let gen = LayerWeightGen::new(&spec, 2, 11);
        let full = gen.range(u64::MAX);
        let sampled = gen.range(50_000);
        // The sampled range is within ~15% of the full range for a
        // 200k-weight layer.
        assert!(sampled.abs_max() > 0.85 * full.abs_max());
    }

    /// `range(limit)` must equal the definition — min/max over
    /// `weight(i)` for the first `max(limit, 1)` weights, capped at the
    /// layer — bit for bit. One brute-force prefix scan serves every
    /// limit of a layer: limits are visited in sample-count order and the
    /// running min/max is compared at each.
    fn assert_range_matches_brute_force(
        spec: &NetworkSpec,
        seed: u64,
        layer: usize,
        limits: &[u64],
    ) {
        let gen = LayerWeightGen::new(spec, layer, seed);
        let samples = |limit: u64| gen.len().min(limit.max(1));
        let mut limits = limits.to_vec();
        limits.sort_unstable_by_key(|&limit| samples(limit));
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        let mut scanned = 0;
        for limit in limits {
            let n = samples(limit);
            for i in scanned..n {
                let w = gen.weight(i);
                lo = lo.min(w);
                hi = hi.max(w);
            }
            scanned = n;
            let fast = gen.range(limit);
            assert_eq!(
                (fast.min.to_bits(), fast.max.to_bits(), fast.sampled),
                (lo.to_bits(), hi.to_bits(), n),
                "{} seed {seed} layer {layer} limit {limit}",
                spec.name()
            );
        }
    }

    /// Checks every layer of `spec` under each seed at the edge limits
    /// `{0, 1, 2, 10⁶, count − 1, count, u64::MAX}`, one thread per seed.
    fn assert_every_layer_matches_brute_force(spec: &NetworkSpec, seeds: &[u64]) {
        std::thread::scope(|scope| {
            for &seed in seeds {
                scope.spawn(move || {
                    for layer in 0..spec.layers().len() {
                        let count = LayerWeightGen::new(spec, layer, seed).len();
                        let limits = [0, 1, 2, 1_000_000, count - 1, count, u64::MAX];
                        assert_range_matches_brute_force(spec, seed, layer, &limits);
                    }
                });
            }
        });
    }

    #[test]
    fn range_matches_brute_force_on_every_small_zoo_layer() {
        for spec in [NetworkSpec::custom_mnist(), NetworkSpec::alexnet()] {
            assert_every_layer_matches_brute_force(&spec, &[1, 42, 0xDEAD_BEEF]);
        }
    }

    /// Nightly: every VGG16 layer under 20 seeds.
    #[test]
    #[ignore]
    fn range_matches_brute_force_on_vgg16_across_seeds() {
        let seeds: Vec<u64> = (0..20).collect();
        assert_every_layer_matches_brute_force(&NetworkSpec::vgg16(), &seeds);
    }

    /// Pinned `weight(i)` bit patterns: no change to `draw` or
    /// `weight_of_draw` may move them, since every sweep store (and its
    /// golden) derives from these weights.
    #[test]
    fn weight_bits_are_pinned() {
        /// (seed, layer, index, weight bits).
        type Pin = (u64, usize, u64, u32);
        let pins: [(NetworkSpec, &[Pin]); 3] = [
            (
                NetworkSpec::custom_mnist(),
                &[
                    (42, 0, 0, 0xbea3_3b2d),
                    (7, 1, 19_999, 0xbd35_2f8d),
                    (1, 2, 123_456, 0x3ce1_e1e4),
                    (123_456_789, 3, 1_761, 0x3d4c_c946),
                ],
            ),
            (
                NetworkSpec::alexnet(),
                &[
                    (42, 0, 17, 0xbcf4_898c),
                    (0xDEAD_BEEF, 3, 663_551, 0x3abb_0745),
                    (7, 7, 999_999, 0xbca6_f27f),
                ],
            ),
            (
                NetworkSpec::vgg16(),
                &[
                    (1, 0, 1_727, 0xbca8_1188),
                    (42, 12, 2_000_000, 0x3d5c_49bd),
                    (123_456_789, 15, 40_959, 0x3d2b_1422),
                ],
            ),
        ];
        for (spec, cases) in pins {
            for &(seed, layer, index, bits) in cases {
                let w = LayerWeightGen::new(&spec, layer, seed).weight(index);
                assert_eq!(
                    w.to_bits(),
                    bits,
                    "{} seed {seed} layer {layer} weight {index}: {w}",
                    spec.name()
                );
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any seed × layer × limit on custom-mnist: the draw-extreme
            /// scan equals the brute-force min/max over `weight(i)`.
            #[test]
            fn range_matches_brute_force_for_any_seed_layer_and_limit(
                seed in any::<u64>(),
                layer in 0usize..4,
                limit in 0u64..210_000,
            ) {
                assert_range_matches_brute_force(&NetworkSpec::custom_mnist(), seed, layer, &[limit]);
            }
        }
    }
}
