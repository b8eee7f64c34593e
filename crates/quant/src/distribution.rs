//! Per-bit-position `1`-probability analysis (the paper's Fig. 6).

use crate::quantizer::{NumberFormat, Quantizer};
use dnnlife_nn::weights::LayerWeightGen;
use dnnlife_nn::zoo::NetworkSpec;

/// Counts of observed `1`s per bit position (bit 0 = LSB).
///
/// # Example
///
/// ```
/// use dnnlife_quant::BitDistribution;
///
/// let mut d = BitDistribution::new(8);
/// d.record(0b1000_0001);
/// d.record(0b0000_0001);
/// assert_eq!(d.probability(0), 1.0);
/// assert_eq!(d.probability(7), 0.5);
/// assert_eq!(d.probability(3), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BitDistribution {
    ones: Vec<f64>,
    total: f64,
}

impl BitDistribution {
    /// Creates an empty distribution over `bits` positions.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 32`.
    pub fn new(bits: usize) -> Self {
        assert!(
            bits > 0 && bits <= 32,
            "BitDistribution: bits must be 1..=32"
        );
        Self {
            ones: vec![0.0; bits],
            total: 0.0,
        }
    }

    /// Word width.
    pub fn bits(&self) -> usize {
        self.ones.len()
    }

    /// Number of recorded words (fractional after weighted merging).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Records one stored word.
    pub fn record(&mut self, word: u32) {
        for (pos, count) in self.ones.iter_mut().enumerate() {
            if word >> pos & 1 == 1 {
                *count += 1.0;
            }
        }
        self.total += 1.0;
    }

    /// Probability of a `1` at bit `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.bits()`. Returns 0.5 (the uninformative
    /// prior) when no words have been recorded.
    pub fn probability(&self, pos: usize) -> f64 {
        assert!(
            pos < self.ones.len(),
            "BitDistribution: bit {pos} out of range"
        );
        if self.total == 0.0 {
            0.5
        } else {
            self.ones[pos] / self.total
        }
    }

    /// Probabilities for all positions, LSB first.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.bits()).map(|p| self.probability(p)).collect()
    }

    /// Mean probability of `1` across positions — the quantity that
    /// decides whether barrel-shifter-style balancing can reach a 0.5
    /// duty cycle (paper observation 3 in §III-A).
    pub fn mean_probability(&self) -> f64 {
        self.probabilities().iter().sum::<f64>() / self.bits() as f64
    }

    /// Merges another distribution, weighting its contribution by
    /// `weight` recorded words (used to combine per-layer sampled
    /// statistics into a network-level distribution).
    ///
    /// # Panics
    ///
    /// Panics if widths differ or `weight` is not finite/positive.
    pub fn merge_weighted(&mut self, other: &BitDistribution, weight: f64) {
        assert_eq!(
            self.bits(),
            other.bits(),
            "BitDistribution::merge_weighted: width mismatch"
        );
        assert!(
            weight.is_finite() && weight >= 0.0,
            "BitDistribution::merge_weighted: bad weight {weight}"
        );
        if other.total == 0.0 || weight == 0.0 {
            return;
        }
        for (pos, count) in self.ones.iter_mut().enumerate() {
            *count += other.probability(pos) * weight;
        }
        self.total += weight;
    }
}

/// Analyses the stored-bit distribution of one layer under `quantizer`,
/// sampling at most `cap` weights.
///
/// # Example
///
/// ```
/// use dnnlife_nn::weights::LayerWeightGen;
/// use dnnlife_nn::NetworkSpec;
/// use dnnlife_quant::{analyze_layer, NumberFormat, Quantizer};
///
/// let spec = NetworkSpec::custom_mnist();
/// let gen = LayerWeightGen::new(&spec, 0, 42);
/// let q = Quantizer::calibrate(NumberFormat::Int8Symmetric, &gen.range(u64::MAX));
/// let dist = analyze_layer(&gen, &q, u64::MAX);
/// // Zero-mean weights under symmetric quantization: every bit ≈ 0.5.
/// assert!((dist.probability(7) - 0.5).abs() < 0.1);
/// ```
pub fn analyze_layer(gen: &LayerWeightGen, quantizer: &Quantizer, cap: u64) -> BitDistribution {
    let mut dist = BitDistribution::new(quantizer.bits());
    let n = gen.len().min(cap.max(1));
    for i in 0..n {
        dist.record(quantizer.encode(gen.weight(i)));
    }
    dist
}

/// Network-level bit distribution for `spec` under `format`
/// (regenerates one panel of Fig. 6).
///
/// Each layer is calibrated independently (per-tensor quantization, as
/// in the paper), analysed on up to `cap_per_layer` samples, and merged
/// weighted by its true weight count.
pub fn analyze_network(
    spec: &NetworkSpec,
    format: NumberFormat,
    seed: u64,
    cap_per_layer: u64,
) -> BitDistribution {
    let mut network_dist = BitDistribution::new(format.bits());
    for (li, layer) in spec.layers().iter().enumerate() {
        let gen = LayerWeightGen::new(spec, li, seed);
        let quantizer = Quantizer::calibrate(format, &gen.range(cap_per_layer));
        let layer_dist = analyze_layer(&gen, &quantizer, cap_per_layer);
        network_dist.merge_weighted(&layer_dist, layer.weight_count() as f64);
    }
    network_dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_bits() {
        let mut d = BitDistribution::new(4);
        d.record(0b1010);
        d.record(0b1100);
        assert_eq!(d.probability(0), 0.0);
        assert_eq!(d.probability(1), 0.5);
        assert_eq!(d.probability(2), 0.5);
        assert_eq!(d.probability(3), 1.0);
        assert!((d.mean_probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_uses_prior() {
        let d = BitDistribution::new(8);
        assert_eq!(d.probability(3), 0.5);
    }

    #[test]
    fn weighted_merge_weighs_layers() {
        let mut a = BitDistribution::new(2);
        a.record(0b11); // p = 1.0 for both bits
        let mut b = BitDistribution::new(2);
        b.record(0b00); // p = 0.0
        let mut net = BitDistribution::new(2);
        net.merge_weighted(&a, 3.0);
        net.merge_weighted(&b, 1.0);
        assert!((net.probability(0) - 0.75).abs() < 1e-12);
        assert!((net.probability(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn symmetric_int8_of_zero_mean_weights_is_balanced() {
        // The paper's key Fig. 6 observation for AlexNet int8-symmetric:
        // all bit positions sit near 0.5.
        let spec = NetworkSpec::custom_mnist();
        let dist = analyze_network(&spec, NumberFormat::Int8Symmetric, 42, u64::MAX);
        for pos in 0..8 {
            let p = dist.probability(pos);
            assert!(
                (p - 0.5).abs() < 0.12,
                "bit {pos}: probability {p} too far from 0.5"
            );
        }
    }

    #[test]
    fn fp32_exponent_bits_are_biased() {
        // Weights are far below 1.0 in magnitude, so the fp32 exponent MSB
        // (bit 30) is almost never set while mid-exponent bits are almost
        // always set — the strong skew visible in Fig. 6.
        let spec = NetworkSpec::custom_mnist();
        let dist = analyze_network(&spec, NumberFormat::Fp32, 42, u64::MAX);
        assert!(dist.probability(30) < 0.05, "exponent MSB should be ~0");
        assert!(
            dist.probability(29) > 0.9,
            "high exponent bits of sub-unit weights are ~1"
        );
        // Low mantissa bits are effectively random.
        for pos in 0..16 {
            let p = dist.probability(pos);
            assert!((p - 0.5).abs() < 0.05, "mantissa bit {pos}: {p}");
        }
        // Sign bit tracks the (near-symmetric) weight sign distribution.
        let sign = dist.probability(31);
        assert!((sign - 0.5).abs() < 0.1, "sign bit: {sign}");
    }

    #[test]
    fn asymmetric_int8_bits_are_skewed() {
        // Fig. 6's asymmetric panels: individual bit positions deviate
        // strongly from 0.5 (the zero-point sits away from mid-scale), and
        // the cross-bit average is off 0.5 too — which is what defeats
        // barrel-shifter balancing (paper observation 3).
        let spec = NetworkSpec::custom_mnist();
        let dist = analyze_network(&spec, NumberFormat::Int8Asymmetric, 42, u64::MAX);
        let max_dev = dist
            .probabilities()
            .iter()
            .map(|p| (p - 0.5).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_dev > 0.1,
            "asymmetric bits unexpectedly balanced: max deviation {max_dev}"
        );
        let mean = dist.mean_probability();
        assert!(
            (mean - 0.5).abs() > 0.005,
            "asymmetric mean probability unexpectedly balanced: {mean}"
        );
        // ...while the same weights under *symmetric* quantization stay
        // near 0.5 at every position (contrast within one test).
        let sym = analyze_network(&spec, NumberFormat::Int8Symmetric, 42, u64::MAX);
        let sym_dev = sym
            .probabilities()
            .iter()
            .map(|p| (p - 0.5).abs())
            .fold(0.0f64, f64::max);
        assert!(sym_dev < 0.05, "symmetric bits skewed: {sym_dev}");
    }

    #[test]
    fn sampling_cap_is_respected_but_statistically_stable() {
        let spec = NetworkSpec::custom_mnist();
        let full = analyze_network(&spec, NumberFormat::Int8Symmetric, 7, u64::MAX);
        let capped = analyze_network(&spec, NumberFormat::Int8Symmetric, 7, 20_000);
        for pos in 0..8 {
            assert!(
                (full.probability(pos) - capped.probability(pos)).abs() < 0.02,
                "bit {pos} diverged under sampling"
            );
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_width_mismatch() {
        let mut a = BitDistribution::new(8);
        let b = BitDistribution::new(32);
        a.merge_weighted(&b, 1.0);
    }
}
