//! From per-cell duty cycles to per-weight-bit failure probabilities.
//!
//! The duty simulation runs on the *trained* weight tables (the memory
//! plan is rebuilt with [`FlatWeightMemory::with_weight_tables`] /
//! [`FifoSlotMemory::all_slots_with_weight_tables`]), so the aged
//! memory image is exactly the one the corrupted network reads back —
//! the policy's seed and closed forms match what
//! `dnnlife_core::run_experiment_with` computes for the same scenario via
//! [`dnnlife_core::ExperimentSpec::policy_seed`].

use std::collections::HashMap;

use dnnlife_accel::{
    AcceleratorConfig, AnalyticSimConfig, BlockSource, FifoSlotMemory, FlatWeightMemory,
    RemappedMemory, UnitDutyMap,
};
use dnnlife_core::experiment::{Platform, PolicySpec};
use dnnlife_core::ExperimentSpec;
use dnnlife_mitigation::RemapSchedule;
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
        let network = scenario.network.spec();
        let policy = scenario.policy.analytic(scenario.policy_seed());
        let cfg = AnalyticSimConfig {
            inferences: scenario.inferences,
            sample_stride: 1,
            threads,
            shards,
        };
        let layer_count = network.layers().len();
        let word_duties: Vec<f64>;
        let mut weight_words: Vec<Vec<u32>> = Vec::with_capacity(layer_count);
        let mut quantizers = Vec::with_capacity(layer_count);
        let word_bits;

        // Wear-leveling is a plan transform: the duty map then runs
        // over the *rotated* physical memory (epochs × K blocks), and
        // each logical weight is read back from its final-epoch
        // physical word.
        let row_words = scenario.platform.row_words();
        let wear_epochs = match scenario.policy {
            PolicySpec::WearLevel { epochs } => Some(epochs),
            _ => None,
        };
        let duty_map = |mem: &FlatWeightMemory| -> (UnitDutyMap, Option<RemapSchedule>) {
            match wear_epochs {
                Some(epochs) => {
                    let remapped = RemappedMemory::new(mem.clone(), row_words, epochs);
                    let schedule = *remapped.schedule();
                    (
                        UnitDutyMap::analytic(&remapped, &policy, &cfg),
                        Some(schedule),
                    )
                }
                None => (UnitDutyMap::analytic(mem, &policy, &cfg), None),
            }
        };
        let physical_word = |schedule: Option<RemapSchedule>, word: usize| -> usize {
            match schedule {
                Some(s) => s.final_physical_word(word as u64) as usize,
                None => word,
            }
        };

        match scenario.platform {
            Platform::Baseline | Platform::Crossbar => {
                let config = match scenario.platform {
                    Platform::Baseline => AcceleratorConfig::baseline(),
                    _ => AcceleratorConfig::crossbar(),
                };
                let mem = FlatWeightMemory::with_weight_tables(
                    &config,
                    &network,
                    scenario.format,
                    tables,
                )
                .with_repair(&scenario.repair);
                word_bits = mem.geometry().word_bits;
                let (map, schedule) = duty_map(&mem);
                word_duties = map.duties().to_vec();
                for (li, layer) in network.layers().iter().enumerate() {
                    quantizers.push(mem.layer_quantizer(li));
                    let mut words = Vec::with_capacity(layer.weight_count() as usize);
                    for w in 0..layer.weight_count() {
                        let addr = mem.locate_weight(li, w);
                        let word = physical_word(schedule, addr.word);
                        words.push(u32::try_from(word).expect("word index fits u32"));
                    }
                    weight_words.push(words);
                }
            }
            Platform::TpuLike => {
                let slots: Vec<FifoSlotMemory> =
                    FifoSlotMemory::all_slots_with_weight_tables(&network, scenario.format, tables)
                        .into_iter()
                        .map(|slot| slot.with_repair(&scenario.repair))
                        .collect();
                word_bits = slots[0].geometry().word_bits;
                let slot_words = slots[0].geometry().words;
                let mut maps = Vec::with_capacity(slots.len());
                let mut schedule = None;
                for slot in &slots {
                    assert_eq!(slot.geometry().words, slot_words, "uniform FIFO slots");
                    match wear_epochs {
                        Some(epochs) => {
                            let remapped = RemappedMemory::new(slot.clone(), row_words, epochs);
                            schedule = Some(*remapped.schedule());
                            maps.push(UnitDutyMap::analytic(&remapped, &policy, &cfg));
                        }
                        None => maps.push(UnitDutyMap::analytic(slot, &policy, &cfg)),
                    }
                }
                word_duties = maps
                    .iter()
                    .flat_map(|m| m.duties().iter().copied())
                    .collect();
                for (li, layer) in network.layers().iter().enumerate() {
                    quantizers.push(slots[0].layer_quantizer(li));
                    let mut words = Vec::with_capacity(layer.weight_count() as usize);
                    for w in 0..layer.weight_count() {
                        let (slot, addr) = slots
                            .iter()
                            .enumerate()
                            .find_map(|(s, slot)| slot.locate_weight(li, w).map(|a| (s, a)))
                            .expect("every weight lands in exactly one FIFO slot");
                        let word = physical_word(schedule, addr.word);
                        let gw = slot * slot_words + word;
                        words.push(u32::try_from(gw).expect("word index fits u32"));
                    }
                    weight_words.push(words);
                }
            }
        }
        (
            Self {
                word_bits,
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

    /// Maps every cell's duty to its read-failure probability at age
    /// `years`: duty → NBTI ΔVth → SNM degradation (`snm`) →
    /// Gaussian read-noise failure (`model`). Memoized per distinct
    /// duty value — analytic duties take few distinct values (block-bit
    /// fractions), so the `normal_sf` tail evaluation runs once per
    /// value, not once per cell.
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
    /// [`WeightCellDuties::word_duties`]: duty → SNM degradation →
    /// noise-margin exceedance, memoised per distinct duty value.
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
    use dnnlife_core::experiment::{NetworkKind, PolicySpec};
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
