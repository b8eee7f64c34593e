//! Hardware configurations (the paper's Table I).

use serde::{Deserialize, Serialize};

/// A DNN accelerator configuration in the sense of Table I.
///
/// # Example
///
/// ```
/// use dnnlife_accel::AcceleratorConfig;
///
/// let baseline = AcceleratorConfig::baseline();
/// assert_eq!(baseline.weight_memory_bytes, 512 * 1024);
/// assert_eq!(baseline.parallel_filters, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Configuration name.
    pub name: String,
    /// On-chip weight memory capacity in bytes.
    pub weight_memory_bytes: u64,
    /// On-chip activation memory capacity in bytes (bookkeeping only —
    /// activations do not live in the weight memory under study).
    pub activation_memory_bytes: u64,
    /// `f`: number of filters processed in parallel (the filter-set size
    /// of the Fig. 5 dataflow).
    pub parallel_filters: u64,
    /// `N`: multipliers per processing element.
    pub multipliers_per_pe: u64,
}

impl AcceleratorConfig {
    /// The baseline accelerator of §II-A / Table I: 512 KB weight
    /// memory, 4 MB activation memory, 8 PEs of 8 multipliers (f = 8).
    pub fn baseline() -> Self {
        Self {
            name: "baseline".to_string(),
            weight_memory_bytes: 512 * 1024,
            activation_memory_bytes: 4 * 1024 * 1024,
            parallel_filters: 8,
            multipliers_per_pe: 8,
        }
    }

    /// The TPU-like NPU of Table I: 256 KB weight FIFO (four tiles of
    /// 256 × 256 8-bit weights), 24 MB activation memory, 256 × 256 PEs
    /// (f = 256).
    pub fn tpu_like() -> Self {
        Self {
            name: "tpu-like-npu".to_string(),
            weight_memory_bytes: 256 * 1024,
            activation_memory_bytes: 24 * 1024 * 1024,
            parallel_filters: 256,
            multipliers_per_pe: 1,
        }
    }

    /// A ReRAM crossbar accelerator in the style of the in-memory
    /// inference engines of the retrieved endurance papers: 64 tiles of
    /// 128 wordlines × 128 bitlines of single-bit cells (128 KB of
    /// weight storage), weights-stationary, one 8-bit weight spread
    /// over eight bitline cells, 16 weights read out per wordline
    /// activation (f = 16).
    pub fn crossbar() -> Self {
        Self {
            name: "reram-crossbar".to_string(),
            weight_memory_bytes: 64 * 128 * 128 / 8,
            activation_memory_bytes: 4 * 1024 * 1024,
            parallel_filters: 16,
            multipliers_per_pe: 1,
        }
    }

    /// Weight-memory capacity in weights of `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or not a multiple of 8.
    pub fn weight_capacity(&self, bits: u32) -> u64 {
        assert!(
            bits > 0 && bits.is_multiple_of(8),
            "weight_capacity: bits must be a positive multiple of 8"
        );
        self.weight_memory_bytes * 8 / u64::from(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_baseline_values() {
        let c = AcceleratorConfig::baseline();
        assert_eq!(c.weight_memory_bytes, 524_288);
        assert_eq!(c.activation_memory_bytes, 4_194_304);
        assert_eq!(c.parallel_filters, 8);
        assert_eq!(c.multipliers_per_pe, 8);
        // 4 Mi single-bit cells of int8 weights.
        assert_eq!(c.weight_capacity(8) * 8, 4_194_304);
    }

    #[test]
    fn table1_npu_values() {
        let c = AcceleratorConfig::tpu_like();
        assert_eq!(c.weight_memory_bytes, 262_144);
        assert_eq!(c.activation_memory_bytes, 25_165_824);
        assert_eq!(c.parallel_filters, 256);
        // The FIFO is four 256×256 8-bit tiles deep.
        assert_eq!(c.weight_capacity(8), 4 * 256 * 256);
    }

    #[test]
    fn capacity_scales_with_format() {
        let c = AcceleratorConfig::baseline();
        assert_eq!(c.weight_capacity(8), 524_288);
        assert_eq!(c.weight_capacity(32), 131_072);
    }

    #[test]
    #[should_panic(expected = "positive multiple of 8")]
    fn rejects_odd_widths() {
        AcceleratorConfig::baseline().weight_capacity(12);
    }
}
