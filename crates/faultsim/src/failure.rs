//! From per-cell duty cycles to per-weight-bit failure probabilities.
//!
//! The duty simulation runs on the *trained* weight tables: the memory
//! units come from [`dnnlife_core::experiment::memory_units`], the same
//! builder the sweep uses, so the aged memory image is exactly the one
//! the corrupted network reads back, and the policy seed and closed
//! forms match what `dnnlife_core::run_experiment_with` computes for
//! the same scenario.

use std::collections::HashMap;

use dnnlife_accel::{simulate_analytic, AnalyticSimConfig};
use dnnlife_core::experiment::memory_units;
use dnnlife_core::ExperimentSpec;
use dnnlife_quant::Quantizer;
use dnnlife_sram::lifetime::ReadFailureModel;
use dnnlife_sram::snm::{CalibratedSnmModel, SnmModel};
use dnnlife_sram::{CellExposure, CellFate, LifetimeModel, ReramEnduranceLifetime};

/// Lifetime duty cycles of every *physical* memory cell, plus the map
/// from canonical network weights to the words storing them.
///
/// Stored per physical word, not per weight: big networks stream many
/// weight blocks through the same fixed-capacity array (AlexNet writes
/// ~61 M weights through a few hundred thousand words), so the
/// weight-major layout this replaced would duplicate each word's duties
/// once per resident weight — gigabytes for the big zoo, where the
/// per-word layout is megabytes plus one `u32` per weight.
///
/// `word_duties[gw * word_bits + b]` is the duty of bit `b` of global
/// word `gw`; `weight_words[li][w]` is the global word storing weight
/// `w` of layer `li` (under wear-leveling: the *final-epoch* physical
/// word the end-of-life read hits). Global words number the whole
/// memory flat — `unit × unit_words + word` across FIFO slots — so
/// `gw * word_bits + b` is exactly the physical cell index keying the
/// per-cell ReRAM endurance thresholds. `word_bits` is the *stored*
/// width: data plus SECDED parity columns when the scenario carries a
/// repair policy.
#[derive(Debug, Clone)]
pub struct WeightCellDuties {
    /// Stored word width in bits.
    pub word_bits: u32,
    /// Per-physical-word duties across every memory unit, global-word
    /// major, bit 0 first.
    pub word_duties: Vec<f64>,
    /// Per-layer global word index of every canonical weight.
    pub weight_words: Vec<Vec<u32>>,
}

impl WeightCellDuties {
    /// Simulates `scenario`'s memory at stride 1 on the given weight
    /// tables and gathers the duty of every cell that stores a network
    /// weight (padding cells age too, but carry no accuracy
    /// consequence). Returns the duties and the per-layer quantizers.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is not an analytic / uniform-dwell /
    /// stride-1 spec (see `FaultInjectionSpec::is_valid`), or the
    /// tables disagree with the network.
    pub fn compute(
        scenario: &ExperimentSpec,
        tables: &[Vec<f32>],
        threads: usize,
        shards: usize,
    ) -> (Self, Vec<Quantizer>) {
        assert_eq!(scenario.sample_stride, 1, "weight duties need stride 1");
        assert!(
            scenario.dwell.is_uniform(),
            "the analytic closed forms need uniform dwell"
        );
        let policy = scenario.policy.analytic(scenario.policy_seed());
        let cfg = AnalyticSimConfig {
            inferences: scenario.inferences,
            sample_stride: 1,
            threads,
            shards,
        };
        // Under wear-leveling each unit is the *rotated* physical memory
        // (epochs × K blocks), and `locate_weight` answers with the
        // final-epoch physical word an end-of-life read hits.
        let units = memory_units(scenario, Some(tables));
        let geometry = units[0].geometry();
        let mut word_duties = Vec::with_capacity(units.len() * geometry.cells() as usize);
        for unit in &units {
            assert_eq!(unit.geometry(), geometry, "uniform memory units");
            word_duties.extend(simulate_analytic(unit.as_ref(), &policy, &cfg));
        }
        let network = scenario.network.spec();
        let weight_words = network
            .layers()
            .iter()
            .enumerate()
            .map(|(li, layer)| {
                (0..layer.weight_count())
                    .map(|w| {
                        let (u, addr) = units
                            .iter()
                            .enumerate()
                            .find_map(|(u, unit)| unit.locate_weight(li, w).map(|a| (u, a)))
                            .expect("every weight lands in exactly one memory unit");
                        let gw = u * geometry.words + addr.word;
                        u32::try_from(gw).expect("word index fits u32")
                    })
                    .collect()
            })
            .collect();
        let quantizers = (0..network.layers().len())
            .map(|li| units[0].layer_quantizer(li))
            .collect();
        (
            Self {
                word_bits: geometry.word_bits,
                word_duties,
                weight_words,
            },
            quantizers,
        )
    }

    /// Total weight cells (weights × word bits) across layers. Counts
    /// every stored weight read — weights sharing a physical word
    /// (multi-fill networks) each count.
    pub fn cells(&self) -> u64 {
        let bits = u64::from(self.word_bits);
        self.weight_words
            .iter()
            .map(|l| l.len() as u64 * bits)
            .sum()
    }

    /// The per-bit duties of the physical word storing weight `w` of
    /// layer `li`.
    pub fn weight_word_duties(&self, li: usize, w: usize) -> &[f64] {
        let bits = self.word_bits as usize;
        let gw = self.weight_words[li][w] as usize;
        &self.word_duties[gw * bits..(gw + 1) * bits]
    }

    /// Per-physical-word stuck-cell masks at age `years` on `die` (the
    /// ReRAM endurance mechanism), indexed by global word: a
    /// `(stuck, value)` pair of bit masks — `stuck` flags the worn-out
    /// cells, `value` holds the bits those cells are stuck reading
    /// back. Fully deterministic in `(die, years)`: wear is a function
    /// of each cell's duty, and the per-cell threshold and stuck
    /// polarity are counter-hashed from the die seed (the cell index is
    /// `gw × word_bits + bit`, so every weight resident in a word sees
    /// the same cell fates).
    pub fn stuck_masks(&self, die: &ReramEnduranceLifetime, years: f64) -> Vec<(u64, u64)> {
        let bits = self.word_bits as usize;
        self.word_duties
            .chunks(bits)
            .enumerate()
            .map(|(gw, word_duties)| {
                let base = gw as u64 * self.word_bits as u64;
                let (mut stuck, mut value) = (0u64, 0u64);
                for (b, &duty) in word_duties.iter().enumerate() {
                    let cell_index = base + b as u64;
                    if let CellFate::StuckAt { value: v } =
                        die.cell_fate(CellExposure { duty, cell_index }, years)
                    {
                        stuck |= 1 << b;
                        value |= u64::from(v) << b;
                    }
                }
                (stuck, value)
            })
            .collect()
    }

    /// Per-physical-cell read-failure probabilities at age `years`
    /// (the SRAM/NBTI mechanism), global-word major like
    /// [`WeightCellDuties::word_duties`]: duty → NBTI ΔVth → SNM
    /// degradation (`snm`) → Gaussian read-noise failure (`model`).
    /// Memoized per distinct duty value — analytic duties take few
    /// distinct values (block-bit fractions), so the `normal_sf` tail
    /// evaluation runs once per value, not once per cell.
    pub fn failure_probabilities(
        &self,
        snm: &CalibratedSnmModel,
        model: &ReadFailureModel,
        years: f64,
    ) -> Vec<f64> {
        let mut memo: HashMap<u64, f64> = HashMap::new();
        self.word_duties
            .iter()
            .map(|&duty| {
                *memo.entry(duty.to_bits()).or_insert_with(|| {
                    model.failure_probability(snm.degradation_percent(duty, years))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnlife_core::experiment::{NetworkKind, Platform, PolicySpec};
    use dnnlife_core::{DwellModel, SimulatorBackend};
    use dnnlife_nn::zoo::{build_custom_mnist, extract_layer_weights};

    fn scenario(platform: Platform, policy: PolicySpec) -> ExperimentSpec {
        ExperimentSpec {
            platform,
            network: NetworkKind::CustomMnist,
            format: dnnlife_quant::NumberFormat::Int8Symmetric,
            policy,
            inferences: 4,
            years: 7.0,
            seed: 11,
            sample_stride: 1,
            backend: SimulatorBackend::Analytic,
            dwell: DwellModel::Uniform,
            repair: dnnlife_core::RepairPolicy::None,
            tech: dnnlife_sram::MemoryTech::SramNbti,
        }
    }

    fn tables() -> Vec<Vec<f32>> {
        extract_layer_weights(&mut build_custom_mnist(5))
    }

    #[test]
    fn unmitigated_baseline_duties_are_stored_bits() {
        // On the baseline platform the custom network fits in one
        // 512 KB fill (K = 1): with no mitigation every cell's duty is
        // its stored bit value.
        let scenario = scenario(Platform::Baseline, PolicySpec::None);
        let tables = tables();
        let (duties, quantizers) = WeightCellDuties::compute(&scenario, &tables, 1, 0);
        assert_eq!(duties.weight_words.len(), 4);
        for (li, table) in tables.iter().enumerate() {
            let q = quantizers[li];
            for w in (0..table.len()).step_by(997) {
                let code = q.encode(table[w]);
                for (b, &d) in duties.weight_word_duties(li, w).iter().enumerate() {
                    let bit = (code >> b) & 1;
                    assert_eq!(d, f64::from(bit), "layer {li} weight {w} bit {b}");
                }
            }
        }
    }

    #[test]
    fn dnn_life_flattens_weight_cell_duties() {
        let none = scenario(Platform::TpuLike, PolicySpec::None);
        let dnn = scenario(
            Platform::TpuLike,
            PolicySpec::DnnLife {
                bias: 0.5,
                bias_balancing: true,
                m_bits: 4,
            },
        );
        let tables = tables();
        // Spread over the *weight*-resident cells (weight-major, like
        // the pre-per-word layout), so padding words don't dilute it.
        let spread = |d: &WeightCellDuties| {
            let mut all: Vec<f64> = Vec::new();
            for (li, words) in d.weight_words.iter().enumerate() {
                for w in 0..words.len() {
                    all.extend_from_slice(d.weight_word_duties(li, w));
                }
            }
            let mean = all.iter().sum::<f64>() / all.len() as f64;
            all.iter().map(|x| (x - mean).abs()).sum::<f64>() / all.len() as f64
        };
        let (d_none, _) = WeightCellDuties::compute(&none, &tables, 1, 0);
        let (d_dnn, _) = WeightCellDuties::compute(&dnn, &tables, 1, 0);
        assert_eq!(d_none.cells(), d_dnn.cells());
        assert!(
            spread(&d_dnn) < spread(&d_none) * 0.6,
            "DNN-Life should concentrate duties near 0.5: {} vs {}",
            spread(&d_dnn),
            spread(&d_none)
        );
    }

    #[test]
    fn failure_probabilities_grow_with_age_and_duty_imbalance() {
        let scenario = scenario(Platform::Baseline, PolicySpec::None);
        let tables = tables();
        let (duties, _) = WeightCellDuties::compute(&scenario, &tables, 1, 0);
        let snm = CalibratedSnmModel::paper();
        let model = ReadFailureModel {
            noise_sigma_mv: 65.0,
            ..ReadFailureModel::default_65nm()
        };
        let mean = |probs: &[f64]| probs.iter().sum::<f64>() / probs.len() as f64;
        let p2 = mean(&duties.failure_probabilities(&snm, &model, 2.0));
        let p7 = mean(&duties.failure_probabilities(&snm, &model, 7.0));
        let p10 = mean(&duties.failure_probabilities(&snm, &model, 10.0));
        assert!(p2 < p7 && p7 < p10, "{p2} {p7} {p10}");
    }
}
