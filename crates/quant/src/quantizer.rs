//! Range-linear quantizers for the paper's three weight formats.

use dnnlife_nn::weights::WeightRange;
use serde::{Deserialize, Serialize};

/// The data representation formats studied in Fig. 6 / Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NumberFormat {
    /// IEEE-754 single precision (stored as its raw 32-bit pattern).
    Fp32,
    /// 8-bit signed integer, symmetric range-linear quantization:
    /// `q = round(w / s)` with `s = max|w| / 127`.
    Int8Symmetric,
    /// 8-bit unsigned integer, asymmetric range-linear quantization:
    /// `q = round(w / s) + z` with `s = (max - min) / 255`.
    Int8Asymmetric,
}

impl NumberFormat {
    /// Stored word width in bits.
    pub fn bits(self) -> usize {
        match self {
            NumberFormat::Fp32 => 32,
            NumberFormat::Int8Symmetric | NumberFormat::Int8Asymmetric => 8,
        }
    }

    /// All formats, in the order the paper's figures present them.
    pub fn all() -> [NumberFormat; 3] {
        [
            NumberFormat::Fp32,
            NumberFormat::Int8Symmetric,
            NumberFormat::Int8Asymmetric,
        ]
    }
}

impl std::fmt::Display for NumberFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumberFormat::Fp32 => write!(f, "32-bit floating point"),
            NumberFormat::Int8Symmetric => write!(f, "8-bit integer (symmetric)"),
            NumberFormat::Int8Asymmetric => write!(f, "8-bit integer (asymmetric)"),
        }
    }
}

/// A calibrated weight encoder/decoder for one layer.
///
/// `encode` produces the *stored bit pattern* (the low
/// [`NumberFormat::bits`] bits of the returned `u32`) — exactly what the
/// weight memory cells hold and what the aging analysis consumes.
///
/// # Example
///
/// ```
/// use dnnlife_quant::{NumberFormat, Quantizer};
/// use dnnlife_nn::weights::WeightRange;
///
/// let range = WeightRange { min: -1.0, max: 1.0, sampled: 100 };
/// let q = Quantizer::calibrate(NumberFormat::Int8Asymmetric, &range);
/// // Asymmetric zero-point of a symmetric range sits at mid-scale.
/// let zero_code = q.encode(0.0);
/// assert!(zero_code == 127 || zero_code == 128);
/// // Zero decodes back to (near) zero.
/// assert!(q.decode(zero_code).abs() <= q.max_roundtrip_error());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Quantizer {
    /// Pass-through to the IEEE-754 bit pattern.
    Fp32,
    /// Symmetric: `q = clamp(round(w / scale), -127, 127)` stored as two's
    /// complement `i8`.
    Int8Symmetric {
        /// Quantization step.
        scale: f32,
    },
    /// Asymmetric: `q = clamp(round(w / scale) + zero_point, 0, 255)`.
    Int8Asymmetric {
        /// Quantization step.
        scale: f32,
        /// The stored code representing the real value 0.
        zero_point: u8,
    },
}

impl Quantizer {
    /// Calibrates a quantizer of the given format from an observed weight
    /// range (range-linear post-training quantization, the paper's ref. 24).
    ///
    /// Degenerate ranges (all-zero layers) fall back to a unit scale so
    /// `encode` stays total.
    pub fn calibrate(format: NumberFormat, range: &WeightRange) -> Self {
        match format {
            NumberFormat::Fp32 => Quantizer::Fp32,
            NumberFormat::Int8Symmetric => {
                let abs_max = range.abs_max();
                let scale = if abs_max > 0.0 { abs_max / 127.0 } else { 1.0 };
                Quantizer::Int8Symmetric { scale }
            }
            NumberFormat::Int8Asymmetric => {
                // The representable range must include 0 so that zero
                // weights are exact (standard asymmetric convention).
                let lo = range.min.min(0.0);
                let hi = range.max.max(0.0);
                let span = hi - lo;
                let scale = if span > 0.0 { span / 255.0 } else { 1.0 };
                let zero_point = (-lo / scale).round().clamp(0.0, 255.0) as u8;
                Quantizer::Int8Asymmetric { scale, zero_point }
            }
        }
    }

    /// The format this quantizer produces.
    pub fn format(&self) -> NumberFormat {
        match self {
            Quantizer::Fp32 => NumberFormat::Fp32,
            Quantizer::Int8Symmetric { .. } => NumberFormat::Int8Symmetric,
            Quantizer::Int8Asymmetric { .. } => NumberFormat::Int8Asymmetric,
        }
    }

    /// Stored word width in bits.
    pub fn bits(&self) -> usize {
        self.format().bits()
    }

    /// Encodes a weight into its stored bit pattern (low `bits()` bits).
    pub fn encode(&self, w: f32) -> u32 {
        match *self {
            Quantizer::Fp32 => w.to_bits(),
            Quantizer::Int8Symmetric { scale } => {
                let q = (w / scale).round().clamp(-127.0, 127.0) as i8;
                u32::from(q as u8)
            }
            Quantizer::Int8Asymmetric { scale, zero_point } => {
                let q = (w / scale).round() + f32::from(zero_point);
                q.clamp(0.0, 255.0) as u32
            }
        }
    }

    /// The rank of stored code `code` in an order that
    /// [`Quantizer::encode`] is non-decreasing in, if there is one: the
    /// code read as an `i8` for symmetric, as a `u8` for asymmetric.
    /// Division by a finite positive scale, `round`, the zero-point add,
    /// `clamp` and the cast are each monotone, so `encode(a) ≤ encode(b)`
    /// in rank whenever `a ≤ b`. `None` for fp32, whose bit patterns
    /// have no such order, and for a scale that is not finite and
    /// positive, which the argument does not cover.
    pub fn code_rank(&self, code: u32) -> Option<i32> {
        match *self {
            Quantizer::Int8Symmetric { scale } if scale.is_finite() && scale > 0.0 => {
                Some(i32::from(code as u8 as i8))
            }
            Quantizer::Int8Asymmetric { scale, .. } if scale.is_finite() && scale > 0.0 => {
                Some(i32::from(code as u8))
            }
            _ => None,
        }
    }

    /// Decodes a stored bit pattern back to a real value.
    ///
    /// For the integer formats this is the usual dequantization
    /// `(q - z) * scale`; for fp32 it reinterprets the bits.
    pub fn decode(&self, bits: u32) -> f32 {
        match *self {
            Quantizer::Fp32 => f32::from_bits(bits),
            Quantizer::Int8Symmetric { scale } => {
                let q = (bits & 0xFF) as u8 as i8;
                f32::from(q) * scale
            }
            Quantizer::Int8Asymmetric { scale, zero_point } => {
                let q = (bits & 0xFF) as u8;
                (f32::from(q) - f32::from(zero_point)) * scale
            }
        }
    }

    /// Decodes a stored bit pattern that may have been corrupted by
    /// memory faults (the fault-injection path).
    ///
    /// For the integer formats this is exactly [`Quantizer::decode`] —
    /// every 8-bit pattern decodes to a finite value. For fp32 a bit
    /// flip can land on a NaN/infinity encoding or a ~1e38 magnitude;
    /// executing a network on those poisons every downstream
    /// activation (and NaN logits make argmax ill-defined), so this
    /// decoder saturates: non-finite decodes become 0.0 and finite
    /// magnitudes clamp to ±[`Quantizer::FP32_FAULT_CLAMP`] — still
    /// catastrophically wrong values, but ones inference arithmetic
    /// stays total on.
    pub fn decode_corrupted(&self, bits: u32) -> f32 {
        let w = self.decode(bits);
        match self {
            Quantizer::Fp32 => {
                if !w.is_finite() {
                    0.0
                } else {
                    w.clamp(-Self::FP32_FAULT_CLAMP, Self::FP32_FAULT_CLAMP)
                }
            }
            _ => w,
        }
    }

    /// Magnitude ceiling applied by [`Quantizer::decode_corrupted`] to
    /// fault-corrupted fp32 weights.
    pub const FP32_FAULT_CLAMP: f32 = 1e30;

    /// Worst-case absolute round-trip error for in-range inputs
    /// (half a quantization step; 0 for fp32).
    pub fn max_roundtrip_error(&self) -> f32 {
        match *self {
            Quantizer::Fp32 => 0.0,
            Quantizer::Int8Symmetric { scale } | Quantizer::Int8Asymmetric { scale, .. } => {
                scale / 2.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(min: f32, max: f32) -> WeightRange {
        WeightRange {
            min,
            max,
            sampled: 1,
        }
    }

    #[test]
    fn fp32_roundtrip_is_exact() {
        let q = Quantizer::calibrate(NumberFormat::Fp32, &range(-1.0, 1.0));
        for w in [-0.123f32, 0.0, 1e-20, 3.5e7, -0.0] {
            assert_eq!(q.decode(q.encode(w)).to_bits(), w.to_bits());
        }
    }

    #[test]
    fn symmetric_scale_from_abs_max() {
        let q = Quantizer::calibrate(NumberFormat::Int8Symmetric, &range(-0.5, 0.25));
        match q {
            Quantizer::Int8Symmetric { scale } => {
                assert!((scale - 0.5 / 127.0).abs() < 1e-9);
            }
            _ => panic!("wrong variant"),
        }
        // Extremes map to ±127 (so the code is symmetric).
        assert_eq!(q.encode(-0.5) as u8 as i8, -127);
        assert_eq!(q.encode(0.5) as u8 as i8, 127);
        assert_eq!(q.encode(0.0), 0);
    }

    #[test]
    fn symmetric_roundtrip_error_bounded() {
        let q = Quantizer::calibrate(NumberFormat::Int8Symmetric, &range(-0.3, 0.3));
        let bound = q.max_roundtrip_error();
        let mut w = -0.3f32;
        while w <= 0.3 {
            let err = (q.decode(q.encode(w)) - w).abs();
            assert!(err <= bound + 1e-7, "w={w} err={err}");
            w += 0.001;
        }
    }

    #[test]
    fn asymmetric_zero_point_and_range() {
        let q = Quantizer::calibrate(NumberFormat::Int8Asymmetric, &range(-0.4, 1.2));
        match q {
            Quantizer::Int8Asymmetric { scale, zero_point } => {
                assert!((scale - 1.6 / 255.0).abs() < 1e-8);
                assert_eq!(zero_point, 64); // -(-0.4)/scale = 63.75 → 64
            }
            _ => panic!("wrong variant"),
        }
        // Zero encodes near the zero point and decodes back to ~0.
        let z = q.encode(0.0);
        assert!((q.decode(z)).abs() <= q.max_roundtrip_error());
        // Range extremes stay in [0, 255].
        assert_eq!(q.encode(-0.4), 0);
        assert_eq!(q.encode(1.2), 255);
    }

    #[test]
    fn asymmetric_positive_only_range_includes_zero() {
        // All-positive weights: the code range must still represent 0.
        let q = Quantizer::calibrate(NumberFormat::Int8Asymmetric, &range(0.1, 0.9));
        match q {
            Quantizer::Int8Asymmetric { zero_point, .. } => assert_eq!(zero_point, 0),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn asymmetric_roundtrip_error_bounded() {
        let q = Quantizer::calibrate(NumberFormat::Int8Asymmetric, &range(-0.2, 0.7));
        let bound = q.max_roundtrip_error();
        let mut w = -0.2f32;
        while w <= 0.7 {
            let err = (q.decode(q.encode(w)) - w).abs();
            assert!(err <= bound + 1e-6, "w={w} err={err}");
            w += 0.001;
        }
    }

    #[test]
    fn clamping_out_of_range() {
        let q = Quantizer::calibrate(NumberFormat::Int8Symmetric, &range(-0.1, 0.1));
        assert_eq!(q.encode(5.0) as u8 as i8, 127);
        assert_eq!(q.encode(-5.0) as u8 as i8, -127);
    }

    #[test]
    fn degenerate_range_fallback() {
        let q = Quantizer::calibrate(NumberFormat::Int8Symmetric, &range(0.0, 0.0));
        assert_eq!(q.encode(0.0), 0);
        let q = Quantizer::calibrate(NumberFormat::Int8Asymmetric, &range(0.0, 0.0));
        let bits = q.encode(0.0);
        assert!((q.decode(bits)).abs() < 1e-6);
    }

    #[test]
    fn encoded_words_fit_width() {
        for fmt in [NumberFormat::Int8Symmetric, NumberFormat::Int8Asymmetric] {
            let q = Quantizer::calibrate(fmt, &range(-1.0, 0.5));
            for i in -100..=100 {
                let bits = q.encode(i as f32 * 0.01);
                assert!(bits < 256, "format {fmt:?} produced wide word {bits}");
            }
        }
    }

    #[test]
    fn corrupted_decode_matches_decode_for_integer_formats() {
        for fmt in [NumberFormat::Int8Symmetric, NumberFormat::Int8Asymmetric] {
            let q = Quantizer::calibrate(fmt, &range(-0.7, 0.4));
            for bits in 0u32..=255 {
                assert_eq!(q.decode_corrupted(bits), q.decode(bits));
            }
        }
    }

    #[test]
    fn corrupted_decode_sanitizes_fp32() {
        let q = Quantizer::Fp32;
        // NaN and infinities saturate to zero.
        assert_eq!(q.decode_corrupted(f32::NAN.to_bits()), 0.0);
        assert_eq!(q.decode_corrupted(f32::INFINITY.to_bits()), 0.0);
        assert_eq!(q.decode_corrupted(f32::NEG_INFINITY.to_bits()), 0.0);
        // Huge finite magnitudes clamp (sign preserved).
        assert_eq!(
            q.decode_corrupted(f32::MAX.to_bits()),
            Quantizer::FP32_FAULT_CLAMP
        );
        assert_eq!(
            q.decode_corrupted((-f32::MAX).to_bits()),
            -Quantizer::FP32_FAULT_CLAMP
        );
        // Ordinary values pass through bit-exactly.
        for w in [-0.123f32, 0.0, 1e-20, 3.5e7] {
            assert_eq!(q.decode_corrupted(w.to_bits()), w);
        }
    }

    /// `encode` never steps down in `code_rank` order along a sweep of
    /// ascending weights that crosses both clamps, zero and the zero
    /// point.
    #[test]
    fn encode_is_monotone_in_code_rank() {
        for fmt in [NumberFormat::Int8Symmetric, NumberFormat::Int8Asymmetric] {
            let q = Quantizer::calibrate(fmt, &range(-0.7, 0.4));
            let mut last = i32::MIN;
            for i in -20_000..=20_000 {
                let rank = q.code_rank(q.encode(i as f32 * 1e-4)).expect("8-bit rank");
                assert!(rank >= last, "{fmt:?}: rank fell at step {i}");
                last = rank;
            }
        }
    }

    #[test]
    fn code_rank_is_none_without_a_monotone_order() {
        assert_eq!(Quantizer::Fp32.code_rank(0), None);
        for scale in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            assert_eq!(Quantizer::Int8Symmetric { scale }.code_rank(0), None);
            let q = Quantizer::Int8Asymmetric {
                scale,
                zero_point: 3,
            };
            assert_eq!(q.code_rank(0), None);
        }
        let q = Quantizer::Int8Symmetric { scale: 0.5 };
        assert_eq!(q.code_rank(0x81), Some(-127));
        let q = Quantizer::Int8Asymmetric {
            scale: 0.5,
            zero_point: 3,
        };
        assert_eq!(q.code_rank(0x81), Some(129));
    }

    #[test]
    fn format_metadata() {
        assert_eq!(NumberFormat::Fp32.bits(), 32);
        assert_eq!(NumberFormat::Int8Symmetric.bits(), 8);
        assert_eq!(NumberFormat::all().len(), 3);
        assert_eq!(
            NumberFormat::Int8Asymmetric.to_string(),
            "8-bit integer (asymmetric)"
        );
    }
}
