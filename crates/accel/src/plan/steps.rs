//! Draw→code step tables for generated layers under 8-bit quantizers.
//!
//! A generated weight is `weight_of_draw(draw(index))`, non-decreasing
//! in its 53-bit draw (see [`LayerWeightGen::weight_of_draw`]), and an
//! 8-bit `encode` is non-decreasing in the weight once codes are ranked
//! by [`Quantizer::code_rank`]. So a layer's stored code is a step
//! function of the draw with at most 256 steps. A [`StepTable`] finds
//! the step boundaries once, by a search confirmed on that exact
//! function, and then answers a draw with one lookup on its top bits
//! and a short scan: no `ln` and no quantizer call per word.

use dnnlife_nn::weights::LayerWeightGen;
use dnnlife_quant::Quantizer;

/// Top draw bits that pick a bucket of the index.
const BUCKET_BITS: u32 = 10;
/// Buckets in the index.
const BUCKETS: usize = 1 << BUCKET_BITS;
/// Shift from a draw to its bucket.
const BUCKET_SHIFT: u32 = LayerWeightGen::DRAWS.trailing_zeros() - BUCKET_BITS;

/// Most steps an 8-bit code can take: one per rank.
const STEPS: usize = 256;

/// The codes of one generated layer as a step function of the draw:
/// one fixed-size block, so a table is one allocation.
#[derive(Debug)]
pub(super) struct StepTable {
    /// `first[b]`: the step holding bucket `b`'s lowest draw.
    first: [u8; BUCKETS],
    /// Ascending step boundaries, padded with `u64::MAX`: draw `d` lies
    /// in step `i`, the number of boundaries `≤ d`. At most 255 are
    /// real, so the last entry is always padding and stops every scan.
    bounds: [u64; STEPS],
    /// `codes[i]`: the stored code of step `i`.
    codes: [u8; STEPS],
}

impl StepTable {
    /// The table of `gen` under `quantizer`, or `None` when the
    /// quantizer's codes have no monotone order (fp32, or a scale that
    /// is not finite and positive): such layers encode each weight.
    pub(super) fn build(gen: &LayerWeightGen, quantizer: &Quantizer) -> Option<Self> {
        // A quantizer without a code order ranks no code.
        quantizer.code_rank(0)?;
        let code_of = |d: u64| quantizer.encode(gen.weight_of_draw(d));
        let rank_of = |code: u32| quantizer.code_rank(code).expect("8-bit code rank");
        let last = LayerWeightGen::DRAWS - 1;
        let top_key = f32_key(gen.weight_of_draw(last));
        let top = rank_of(quantizer.encode(f32_of_key(top_key)));
        let mut table = Self {
            first: [0; BUCKETS],
            bounds: [u64::MAX; STEPS],
            codes: [0; STEPS],
        };
        let (mut lo, mut code) = (0, code_of(0));
        // A weight key that ranks like `code` and sits at or below the
        // weight of draw `lo`.
        let mut lo_key = f32_key(gen.weight_of_draw(0));
        table.codes[0] = code as u8;
        let mut steps = 1;
        while rank_of(code) < top {
            let next = rank_of(code) + 1;
            // Seed the draw search: the least f32 weight that ranks
            // `next` (searched from the closed-form half step above the
            // current code), then the inverse transform of the midpoint
            // below it, where the f32 cast starts rounding up to it.
            let near = quantizer.decode(code) + quantizer.max_roundtrip_error();
            let key = first_reaching(lo_key, top_key, f32_key(near), |k| {
                rank_of(quantizer.encode(f32_of_key(k))) >= next
            });
            let midpoint = (f64::from(f32_of_key(key - 1)) + f64::from(f32_of_key(key))) / 2.0;
            lo = first_reaching(lo, last, gen.draw_estimate(midpoint), |d| {
                rank_of(code_of(d)) >= next
            });
            (code, lo_key) = (code_of(lo), key);
            table.bounds[steps - 1] = lo;
            table.codes[steps] = code as u8;
            steps += 1;
        }
        let mut step = 0;
        for (b, first) in table.first.iter_mut().enumerate() {
            while table.bounds[step] <= (b as u64) << BUCKET_SHIFT {
                step += 1;
            }
            *first = step as u8;
        }
        Some(table)
    }

    /// The stored code of a generated weight with raw draw `draw` —
    /// `quantizer.encode(gen.weight_of_draw(draw))`, bit for bit.
    #[inline]
    pub(super) fn code(&self, draw: u64) -> u32 {
        let mut step = self.first[(draw >> BUCKET_SHIFT) as usize & (BUCKETS - 1)];
        while self.bounds[usize::from(step)] <= draw {
            step += 1;
        }
        u32::from(self.codes[usize::from(step)])
    }

    /// The real step boundaries, ascending.
    #[cfg(test)]
    fn boundaries(&self) -> &[u64] {
        let real = self.bounds.partition_point(|&t| t != u64::MAX);
        &self.bounds[..real]
    }
}

/// The least `x` in `(lo, hi]` with `reaches(x)`, for a monotone
/// `reaches` that is false at `lo` and true at `hi`. Gallops out from
/// `guess` in doubling steps until the boundary is bracketed, then
/// bisects, so the cost grows with the log of the guess's error.
fn first_reaching(mut lo: u64, mut hi: u64, guess: u64, reaches: impl Fn(u64) -> bool) -> u64 {
    let guess = guess.clamp(lo + 1, hi);
    let mut step = 1;
    if reaches(guess) {
        hi = guess;
        while hi - lo > step {
            if !reaches(hi - step) {
                lo = hi - step;
                break;
            }
            hi -= step;
            step *= 2;
        }
    } else {
        lo = guess;
        while hi - lo > step {
            if reaches(lo + step) {
                hi = lo + step;
                break;
            }
            lo += step;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// `w`'s position in the total order of f32 values, as an integer.
fn f32_key(w: f32) -> u64 {
    let bits = w.to_bits();
    u64::from(if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    })
}

/// The f32 at key `key` (inverse of [`f32_key`]).
fn f32_of_key(key: u64) -> f32 {
    let key = key as u32;
    f32::from_bits(if key >> 31 == 1 {
        key & !(1 << 31)
    } else {
        !key
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use dnnlife_nn::NetworkSpec;
    use dnnlife_quant::NumberFormat;
    use rand::Rng;

    /// Checks the table of `gen` under `quantizer` against the direct
    /// encode at both ends, one draw either side of every boundary, at
    /// and just below every bucket start, and at 10k random draws.
    fn assert_table_matches_direct(gen: &LayerWeightGen, quantizer: &Quantizer, what: &str) {
        let table = StepTable::build(gen, quantizer).expect("8-bit table");
        let direct = |d: u64| quantizer.encode(gen.weight_of_draw(d));
        let bounds = table.boundaries();
        assert!(!bounds.is_empty(), "{what}: a calibrated layer has steps");
        let mut draws = vec![0, LayerWeightGen::DRAWS - 1];
        for &t in bounds {
            draws.extend([t - 1, t, t + 1]);
            let rank = |d| quantizer.code_rank(direct(d));
            assert!(rank(t - 1) < rank(t), "{what}: {t} is no step");
        }
        draws.extend((1..BUCKETS as u64).flat_map(|b| {
            let start = b << BUCKET_SHIFT;
            [start - 1, start]
        }));
        let mut rng = SplitMix64::new(gen.draw(0));
        draws.extend((0..10_000).map(|_| rng.next_u64() >> 11));
        for d in draws {
            assert_eq!(table.code(d), direct(d), "{what}: draw {d}");
        }
    }

    #[test]
    fn tables_match_direct_encode_on_every_zoo_layer() {
        let formats = [NumberFormat::Int8Symmetric, NumberFormat::Int8Asymmetric];
        for spec in [
            NetworkSpec::custom_mnist(),
            NetworkSpec::alexnet(),
            NetworkSpec::vgg16(),
        ] {
            for seed in [1, 42, 0xDEAD_BEEF] {
                for layer in 0..spec.layers().len() {
                    let gen = LayerWeightGen::new(&spec, layer, seed);
                    let range = gen.range(crate::plan::RANGE_CAP);
                    for format in formats {
                        let quantizer = Quantizer::calibrate(format, &range);
                        let what = format!("{} seed {seed} layer {layer} {format}", spec.name());
                        assert_table_matches_direct(&gen, &quantizer, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn quantizers_without_a_code_order_have_no_table() {
        let gen = LayerWeightGen::new(&NetworkSpec::custom_mnist(), 0, 1);
        for scale in [0.0, -0.5, f32::NAN, f32::INFINITY] {
            assert!(StepTable::build(&gen, &Quantizer::Int8Symmetric { scale }).is_none());
            let asym = Quantizer::Int8Asymmetric {
                scale,
                zero_point: 128,
            };
            assert!(StepTable::build(&gen, &asym).is_none());
        }
        assert!(StepTable::build(&gen, &Quantizer::Fp32).is_none());
    }

    #[test]
    fn first_reaching_finds_the_boundary_from_any_guess() {
        for boundary in [1u64, 2, 7, 1000, 1 << 40] {
            for guess in [
                0,
                1,
                boundary - 1,
                boundary,
                boundary + 3,
                1 << 50,
                u64::MAX,
            ] {
                let found = first_reaching(0, 1 << 50, guess, |x| x >= boundary);
                assert_eq!(found, boundary, "guess {guess}");
            }
        }
    }

    #[test]
    fn f32_keys_follow_the_value_order() {
        let values = [
            f32::NEG_INFINITY,
            -1.5,
            -1e-40,
            -0.0,
            0.0,
            1e-40,
            2.5,
            f32::MAX,
        ];
        for pair in values.windows(2) {
            assert!(f32_key(pair[0]) < f32_key(pair[1]), "{pair:?}");
        }
        for w in values {
            assert_eq!(f32_of_key(f32_key(w)).to_bits(), w.to_bits());
        }
    }
}
