//! From per-cell duty cycles to per-weight-bit failure probabilities.
//!
//! The duty simulation runs on the *trained* weight tables: the memory
//! units come from [`dnnlife_core::experiment::memory_units`], the same
//! builder the sweep uses, so the aged memory image is exactly the one
//! the corrupted network reads back, and the policy seed and closed
//! forms match what `dnnlife_core::run_experiment_with` computes for
//! the same scenario.

use dnnlife_accel::{simulate_analytic_telemetry, AnalyticSimConfig, DutyCells};
use dnnlife_core::experiment::memory_units;
use dnnlife_core::ExperimentSpec;
use dnnlife_quant::Quantizer;
use dnnlife_sram::lifetime::ReadFailureModel;
use dnnlife_sram::snm::{CalibratedSnmModel, SnmModel};
use dnnlife_sram::ReramEnduranceLifetime;
use dnnlife_telemetry::SpanId;

/// Lifetime duty cycles of every memory cell that stores a network
/// weight, plus the map from canonical network weights to the words
/// storing them.
///
/// Only *resident* words — words at least one weight's read hits —
/// are simulated and kept: padding ages too, but no read ever returns
/// it, so it has no accuracy consequence. Stored per physical word,
/// not per weight: big networks stream many weight blocks through the
/// same fixed-capacity array (AlexNet writes ~61 M weights through a
/// few hundred thousand words), so a weight-major layout would
/// duplicate each word's duties once per resident weight.
///
/// Duties are stored as levels. The analytic simulator yields each
/// cell's integer count `n` of 1-writes among the `T = inferences × K`
/// writes of its memory unit, so a unit's cells take at most `T + 1`
/// distinct duties `n / T` (101 on the single-fill custom network at
/// 100 inferences). `levels` holds each distinct `(unit, n)` duty
/// once; `cell_levels` holds one index into it per resident cell.
/// Per-cell quantities that depend on duty alone (the SRAM
/// read-failure probability) are then evaluated once per level.
///
/// `resident_words[r]` is the global index of resident word `r`;
/// `cell_levels[r * word_bits + b]` is the level of its bit `b`;
/// `weight_slots[li][w]` is the resident word `r` storing weight `w`
/// of layer `li` (under wear-leveling: the *final-epoch* physical word
/// the end-of-life read hits). Global words number the whole memory
/// flat — `unit × unit_words + word` across FIFO slots — so
/// `resident_words[r] * word_bits + b` is exactly the physical cell
/// index keying the per-cell ReRAM endurance thresholds. `word_bits`
/// is the *stored* width: data plus SECDED parity columns when the
/// scenario carries a repair policy.
#[derive(Debug, Clone)]
pub struct WeightCellDuties {
    /// Stored word width in bits.
    pub word_bits: u32,
    /// Global index of every resident word, ascending.
    pub resident_words: Vec<u32>,
    /// Per-layer resident-word index (into
    /// [`WeightCellDuties::resident_words`]) of every canonical weight.
    pub weight_slots: Vec<Vec<u32>>,
    /// The distinct duty values, one per `(unit, n)` pair that occurs.
    pub levels: Vec<f64>,
    /// Level index of every resident cell, resident-word major, bit 0
    /// first.
    pub cell_levels: Vec<u32>,
}

impl WeightCellDuties {
    /// Simulates `scenario`'s memory on the given weight tables at
    /// every word that stores a network weight, and nowhere else.
    /// Each resident duty is bit-identical to the stride-1 simulation
    /// of the whole memory at that word. Returns the duties and the
    /// per-layer quantizers.
    ///
    /// Each unit's counts `n` land straight in
    /// [`WeightCellDuties::cell_levels`] and are remapped there, in
    /// place, through a table of `T + 1` entries (`T = inferences × K`
    /// writes per cell); a new level stores `n / T`, the duty the
    /// sweep computes for the cell. No per-cell duty is ever held.
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
        for unit in &units {
            assert_eq!(unit.geometry(), geometry, "uniform memory units");
        }
        let network = scenario.network.spec();
        // Each weight's global word first; remapped to its resident
        // slot once the resident set is known.
        let mut weight_slots: Vec<Vec<u32>> = network
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
        let mut slot_of = vec![u32::MAX; units.len() * geometry.words];
        for &gw in weight_slots.iter().flatten() {
            slot_of[gw as usize] = 0;
        }

        let (mut resident_words, mut levels, mut cell_levels) =
            (Vec::new(), Vec::new(), Vec::new());
        for ((u, unit), slots) in units
            .iter()
            .enumerate()
            .zip(slot_of.chunks_mut(geometry.words))
        {
            let mut words = Vec::new();
            for (w, slot) in slots.iter_mut().enumerate() {
                if *slot != u32::MAX {
                    *slot = resident_words.len() as u32;
                    resident_words.push((u * geometry.words + w) as u32);
                    words.push(w);
                }
            }
            if words.is_empty() {
                continue;
            }
            let start = cell_levels.len();
            cell_levels.resize(start + words.len() * geometry.word_bits as usize, 0);
            let writes = simulate_analytic_telemetry(
                unit.as_ref(),
                &policy,
                &cfg,
                &words,
                DutyCells::Counts(&mut cell_levels[start..]),
                None,
                SpanId::NONE,
            );
            let mut level_of = vec![u32::MAX; writes as usize + 1];
            for cell in &mut cell_levels[start..] {
                let level = &mut level_of[*cell as usize];
                if *level == u32::MAX {
                    *level = u32::try_from(levels.len()).expect("level index fits u32");
                    levels.push(f64::from(*cell) / writes as f64);
                }
                *cell = *level;
            }
        }
        for slot in weight_slots.iter_mut().flatten() {
            *slot = slot_of[*slot as usize];
        }
        let quantizers = (0..network.layers().len())
            .map(|li| units[0].layer_quantizer(li))
            .collect();
        (
            Self {
                word_bits: geometry.word_bits,
                resident_words,
                weight_slots,
                levels,
                cell_levels,
            },
            quantizers,
        )
    }

    /// Total weight cells (weights × word bits) across layers. Counts
    /// every stored weight read — weights sharing a physical word
    /// (multi-fill networks) each count.
    pub fn cells(&self) -> u64 {
        let bits = u64::from(self.word_bits);
        self.weight_slots
            .iter()
            .map(|l| l.len() as u64 * bits)
            .sum()
    }

    /// The global index of the physical word storing weight `w` of
    /// layer `li`.
    pub fn weight_word(&self, li: usize, w: usize) -> u32 {
        self.resident_words[self.weight_slots[li][w] as usize]
    }

    /// The level indices of resident word `slot`'s cells, bit 0 first.
    pub fn slot_levels(&self, slot: usize) -> &[u32] {
        let bits = self.word_bits as usize;
        &self.cell_levels[slot * bits..(slot + 1) * bits]
    }

    /// The per-bit duties of the physical word storing weight `w` of
    /// layer `li`, bit 0 first.
    pub fn weight_word_duties(&self, li: usize, w: usize) -> impl Iterator<Item = f64> + '_ {
        self.slot_levels(self.weight_slots[li][w] as usize)
            .iter()
            .map(|&level| self.levels[level as usize])
    }

    /// Per-resident-word stuck-cell masks at age `years` on `die` (the
    /// ReRAM endurance mechanism), indexed like
    /// [`WeightCellDuties::resident_words`]: a `(stuck, value)` pair
    /// of bit masks — `stuck` flags the worn-out cells, `value` holds
    /// the bits those cells are stuck reading back. Fully
    /// deterministic in `(die, years)`: wear is a function of each
    /// cell's duty, and the per-cell threshold and stuck polarity are
    /// counter-hashed from the die seed (the cell index is
    /// `global word × word_bits + bit`, so every weight resident in a
    /// word sees the same cell fates).
    pub fn stuck_masks(&self, die: &ReramEnduranceLifetime, years: f64) -> Vec<(u64, u64)> {
        (0..self.resident_words.len())
            .map(|slot| {
                let base = u64::from(self.resident_words[slot]) * u64::from(self.word_bits);
                let (mut stuck, mut value) = (0u64, 0u64);
                for (b, &level) in self.slot_levels(slot).iter().enumerate() {
                    let duty = self.levels[level as usize];
                    if let Some(v) = die.stuck_at(duty, base + b as u64, years) {
                        stuck |= 1 << b;
                        value |= u64::from(v) << b;
                    }
                }
                (stuck, value)
            })
            .collect()
    }

    /// Read-failure probability of every duty level at age `years`
    /// (the SRAM/NBTI mechanism), indexed like
    /// [`WeightCellDuties::levels`]: duty → NBTI ΔVth → SNM
    /// degradation (`snm`) → Gaussian read-noise failure (`model`).
    /// The cell with level `l` fails a read with probability
    /// `failure_probabilities(..)[l]`; the `normal_sf` tail runs once
    /// per level, not once per cell.
    pub fn failure_probabilities(
        &self,
        snm: &CalibratedSnmModel,
        model: &ReadFailureModel,
        years: f64,
    ) -> Vec<f64> {
        self.levels
            .iter()
            .map(|&duty| model.failure_probability(snm.degradation_percent(duty, years)))
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
        assert_eq!(duties.weight_slots.len(), 4);
        for (li, table) in tables.iter().enumerate() {
            let q = quantizers[li];
            for w in (0..table.len()).step_by(997) {
                let code = q.encode(table[w]);
                for (b, d) in duties.weight_word_duties(li, w).enumerate() {
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
        // Spread over the cells weight-major, so a word holding many
        // weights counts once per weight.
        let spread = |d: &WeightCellDuties| {
            let mut all: Vec<f64> = Vec::new();
            for (li, words) in d.weight_slots.iter().enumerate() {
                for w in 0..words.len() {
                    all.extend(d.weight_word_duties(li, w));
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
        // Mean over the resident cells, not over the levels.
        let mean = |probs: &[f64]| {
            let cells = &duties.cell_levels;
            cells.iter().map(|&l| probs[l as usize]).sum::<f64>() / cells.len() as f64
        };
        let p2 = mean(&duties.failure_probabilities(&snm, &model, 2.0));
        let p7 = mean(&duties.failure_probabilities(&snm, &model, 7.0));
        let p10 = mean(&duties.failure_probabilities(&snm, &model, 10.0));
        assert!(p2 < p7 && p7 < p10, "{p2} {p7} {p10}");
    }
}
