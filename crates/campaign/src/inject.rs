//! Fault-injection campaigns: accuracy-vs-age sweeps over mitigation
//! policies.
//!
//! A [`InjectionGrid`] is the companion grid to a scenario sweep: one
//! platform × network × format cell crossed with a policy list, each
//! cell carrying the shared injection parameters (age checkpoints,
//! trials, training recipe, read-noise operating point); its cells are
//! enumerated by the sweep's [`GridAxes::build`], so an injection cell
//! and its sweep twin share coordinates and seed. Injection campaigns
//! run through the scenario sweep's driver ([`crate::executor`]): the
//! cells run as jobs on the workspace's one thread pool
//! ([`dnnlife_nn::exec::run_jobs`]; threads left over when there are
//! fewer cells than threads go to each cell's duty simulation and
//! trial fan-out), every completed cell is journaled to a resumable
//! [`InjectionStore`] keyed by the spec's content hash, and the store
//! is finalized in grid order, so finished stores are byte-identical
//! for any thread count, exactly like scenario sweeps.

use std::sync::atomic::AtomicBool;

use dnnlife_core::experiment::{NetworkKind, Platform, PolicySpec};
use dnnlife_core::{
    DwellModel, ExperimentSpec, FaultInjectionSpec, MemoryTech, RepairPolicy, SimulatorBackend,
};
use dnnlife_faultsim::{run_injection, InjectOptions, InjectionResult};
use dnnlife_quant::NumberFormat;
use dnnlife_telemetry::Instrumentation;
use serde::{Deserialize, Serialize};

use crate::executor::{drive, Campaign, CampaignOptions, CampaignOutcome};
use crate::grid::{GridAxes, SweepOptions};
use crate::store::{JsonlStore, StoreRecord};

/// One completed injection cell: the spec, its store key, the result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectionRecord {
    /// [`FaultInjectionSpec::content_key`] of `spec`.
    pub key: String,
    /// The injection experiment that ran.
    pub spec: FaultInjectionSpec,
    /// What it produced.
    pub result: InjectionResult,
}

impl InjectionRecord {
    /// Builds a record, deriving the key from the spec.
    pub fn new(spec: FaultInjectionSpec, result: InjectionResult) -> Self {
        Self {
            key: spec.content_key(),
            spec,
            result,
        }
    }
}

impl StoreRecord for InjectionRecord {
    fn key(&self) -> &str {
        &self.key
    }

    fn computed_key(&self) -> String {
        self.spec.content_key()
    }
}

/// The fault-injection result store (`dnnlife inject`).
pub type InjectionStore = JsonlStore<InjectionRecord>;

/// Shared parameters of every cell of an injection grid.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionParams {
    /// Campaign master seed (scenario seeds derive from it exactly
    /// like sweep grids, so an injection cell and its sweep twin
    /// share seeds).
    pub base_seed: u64,
    /// Inferences for the duty-cycle estimate.
    pub inferences: u64,
    /// Age checkpoints in years.
    pub ages_years: Vec<f64>,
    /// Seeded trials per age.
    pub trials: u32,
    /// Held-out evaluation images.
    pub eval_images: u32,
    /// SGD steps of the training recipe (0 = untrained).
    pub train_steps: u32,
    /// Read-noise operating point in mV.
    pub noise_sigma_mv: f64,
}

impl Default for InjectionParams {
    fn default() -> Self {
        let proto = FaultInjectionSpec::paper_default(ExperimentSpec::fig11(
            NetworkKind::CustomMnist,
            PolicySpec::None,
            0,
        ));
        Self {
            base_seed: 42,
            inferences: 100,
            ages_years: proto.ages_years,
            trials: proto.trials,
            eval_images: proto.eval_images,
            train_steps: proto.train_steps,
            noise_sigma_mv: proto.noise_sigma_mv,
        }
    }
}

/// A built injection campaign: the cells the executor runs.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionGrid {
    /// Campaign name (used for default store file names).
    pub name: String,
    /// Cells in canonical (policy-list) order, all valid.
    pub specs: Vec<FaultInjectionSpec>,
}

impl InjectionGrid {
    /// Builds the campaign for one platform × network × format cell
    /// crossed with `policies`, each repair value and each
    /// [`MemoryTech`] (`dnnlife inject --ecc both --tech both`), tech
    /// innermost after repair. Invalid combinations (fp32 on the NPU,
    /// a non-coprime SECDED interleave) are dropped; policies appear in
    /// list order. Callers that let the user request the cell
    /// explicitly must treat an empty grid as an error (the `dnnlife
    /// inject` CLI exits nonzero naming the combination) instead of
    /// writing an empty store; callers that need to diagnose a partial
    /// drop can count cells per repair value.
    ///
    /// # Panics
    ///
    /// Panics if `params.inferences == 0`, like [`GridAxes::build`].
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_axes(
        name: impl Into<String>,
        platform: Platform,
        network: NetworkKind,
        format: NumberFormat,
        policies: &[PolicySpec],
        params: &InjectionParams,
        repairs: &[RepairPolicy],
        techs: &[MemoryTech],
    ) -> Self {
        // Single-valued other axes leave the order at policy → repair →
        // tech; seeds derive exactly like the sweep twins'.
        let grid = GridAxes {
            platforms: vec![platform],
            networks: vec![network],
            formats: vec![format],
            policies: policies.to_vec(),
            lifetimes_years: vec![7.0],
            backends: vec![SimulatorBackend::Analytic],
            dwells: vec![DwellModel::Uniform],
            repairs: repairs.to_vec(),
            techs: techs.to_vec(),
            options: SweepOptions {
                base_seed: params.base_seed,
                sample_stride: 1,
                inferences: params.inferences,
                ..SweepOptions::default()
            },
        }
        .build(name);
        let specs = grid
            .scenarios
            .into_iter()
            .map(|scenario| FaultInjectionSpec {
                scenario,
                ages_years: params.ages_years.clone(),
                trials: params.trials,
                eval_images: params.eval_images,
                train_steps: params.train_steps,
                noise_sigma_mv: params.noise_sigma_mv,
                data_seed: params.base_seed,
            })
            .filter(FaultInjectionSpec::is_valid)
            .collect();
        Self {
            name: grid.name,
            specs,
        }
    }

    /// Store keys in cell order.
    pub fn keys(&self) -> Vec<String> {
        self.specs.iter().map(|s| s.content_key()).collect()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Executor knobs for [`run_injection_campaign`] (mirrors
/// `CampaignOptions`).
#[derive(Debug, Clone, Copy, Default)]
pub struct InjectCampaignOptions<'a> {
    /// Total thread budget (0 = all available cores).
    pub threads: usize,
    /// Work-shard override for each cell's analytic duty simulation
    /// (0 = derive from the thread budget). Never semantic.
    pub shards: usize,
    /// Skip cells already present in the store.
    pub resume: bool,
    /// Print per-cell progress lines to stderr.
    pub verbose: bool,
    /// Observability sink: trial throughput and SECDED verdict roll-ups
    /// flow through `instr.telemetry`, journaled cells tick
    /// `instr.progress`. Never semantic.
    pub instr: Instrumentation<'a>,
}

/// Runs every cell of `grid`, journaling into (and finalizing) the
/// injection store at `store_path`, with `options.instr` observing,
/// through the same driver as [`crate::run_campaign`]. Honors the
/// `cancel` token exactly like the scenario executor: a raised token
/// keeps journaled cells, aborts in-flight ones between trials, and
/// returns [`std::io::ErrorKind::Interrupted`].
///
/// # Errors
///
/// Propagates store I/O errors (a store locked by another run is
/// [`std::io::ErrorKind::WouldBlock`]).
pub fn run_injection_campaign(
    grid: &InjectionGrid,
    store_path: impl Into<std::path::PathBuf>,
    options: &InjectCampaignOptions,
    cancel: Option<&AtomicBool>,
) -> std::io::Result<CampaignOutcome> {
    let instr = options.instr;
    let campaign = Campaign {
        name: &grid.name,
        noun: "cell",
        items: &grid.specs,
        keys: grid.keys(),
        label: |record: &InjectionRecord| record.result.label.clone(),
        group: |record| record.spec.scenario.policy.display_name(),
    };
    let driver = CampaignOptions {
        threads: options.threads,
        resume: options.resume,
        verbose: options.verbose,
        cancel,
        instr,
        ..CampaignOptions::default()
    };
    drive(
        &campaign,
        store_path.into(),
        &driver,
        |_, _| true,
        |spec, threads, cancel, span| {
            let opts = InjectOptions {
                threads,
                shards: options.shards,
                cancel: Some(cancel),
                telemetry: instr.telemetry,
                parent_span: span,
            };
            run_injection(spec, &opts).map(|result| InjectionRecord::new(spec.clone(), result))
        },
    )
}

/// Renders the accuracy-vs-age table of an injection store: one block
/// per platform × network × format × operating-point group, one row
/// per policy, one column per age checkpoint, plus the flipped-bit
/// counts behind each mean.
pub fn accuracy_vs_age_table(store: &InjectionStore) -> String {
    // Group records by everything except the policy. The age list is
    // part of the key (rendered only when off-default), so a store
    // mixing record generations (an interrupted resume under different
    // `--ages`) renders separate, correctly-aligned blocks instead of
    // attributing one generation's accuracies to the other's columns.
    let default_ages = FaultInjectionSpec::paper_default(ExperimentSpec::fig11(
        NetworkKind::CustomMnist,
        PolicySpec::None,
        0,
    ))
    .ages_years;
    let mut groups: std::collections::BTreeMap<String, Vec<&InjectionRecord>> =
        std::collections::BTreeMap::new();
    for record in store.records() {
        let s = &record.spec;
        let mut group = format!(
            "{:?} / {} / {} — σ={} mV, {} trials × {} images, {} train steps",
            s.scenario.platform,
            s.scenario.network.display_name(),
            s.scenario.format,
            s.noise_sigma_mv,
            s.trials,
            s.eval_images,
            s.train_steps,
        );
        if !s.scenario.tech.is_default() {
            group.push_str(&format!(", tech {}", s.scenario.tech.display_name()));
        }
        if !s.scenario.repair.is_none() {
            group.push_str(&format!(", ecc {}", s.scenario.repair.display_name()));
        }
        if s.ages_years != default_ages {
            let list: Vec<String> = s.ages_years.iter().map(|a| format_age(*a)).collect();
            group.push_str(&format!(", ages {}", list.join("/")));
        }
        groups.entry(group).or_default().push(record);
    }

    let fig9 = dnnlife_core::experiment::fig9_policies();
    let rank = |policy: &PolicySpec| fig9.iter().position(|p| p == policy).unwrap_or(fig9.len());
    let mut out = String::new();
    for (group, mut records) in groups {
        records.sort_by_key(|r| rank(&r.spec.scenario.policy));
        out.push_str(&format!("=== Accuracy vs age: {group} ===\n"));
        let ages = &records[0].spec.ages_years;
        let mut header = format!("  {:<44} {:>8}", "policy", "clean");
        for age in ages {
            header.push_str(&format!(" {:>7}y", format_age(*age)));
        }
        out.push_str(&header);
        out.push('\n');
        for record in &records {
            let mut row = format!(
                "  {:<44} {:>8.4}",
                record.spec.scenario.policy.display_name(),
                record.result.clean_accuracy
            );
            for age in &record.result.ages {
                row.push_str(&format!(" {:>8.4}", age.mean_accuracy));
            }
            out.push_str(&row);
            out.push('\n');
        }
        out.push_str(&format!("  {:<44} {:>8}", "mean flipped bits / trial", ""));
        out.push('\n');
        for record in &records {
            let mut row = format!(
                "  {:<44} {:>8}",
                format!("  {}", record.spec.scenario.policy.display_name()),
                ""
            );
            for age in &record.result.ages {
                row.push_str(&format!(" {:>8.1}", age.mean_flipped_bits));
            }
            out.push_str(&row);
            out.push('\n');
        }
    }
    out
}

fn format_age(age: f64) -> String {
    if age.fract() == 0.0 {
        format!("{age:.0}")
    } else {
        format!("{age:.1}")
    }
}

/// The twin-pairing key of the corrected-vs-uncorrected table: every
/// spec field except the repair axis and the (repair-derived) scenario
/// seed, so an `--ecc` cell lines up with the plain cell it repairs.
fn repair_twin_key(spec: &FaultInjectionSpec) -> String {
    let mut twin = spec.clone();
    twin.scenario.repair = RepairPolicy::None;
    twin.scenario.seed = 0;
    twin.content_key()
}

/// Renders the corrected-vs-uncorrected table of an injection store:
/// for every policy cell present both with and without a repair
/// policy, the accuracy at each age side by side, the accuracy delta
/// SECDED buys, and the decoder's corrected / detected / escaped word
/// tallies. Cells lacking a twin are skipped (run the same campaign
/// once with and once without `--ecc` into one store to populate it).
pub fn ecc_comparison_table(store: &InjectionStore) -> String {
    let mut twins: std::collections::BTreeMap<
        String,
        (Option<&InjectionRecord>, Vec<&InjectionRecord>),
    > = std::collections::BTreeMap::new();
    for record in store.records() {
        let entry = twins.entry(repair_twin_key(&record.spec)).or_default();
        if record.spec.scenario.repair.is_none() {
            entry.0 = Some(record);
        } else {
            entry.1.push(record);
        }
    }

    let fig9 = dnnlife_core::experiment::fig9_policies();
    let rank = |policy: &PolicySpec| fig9.iter().position(|p| p == policy).unwrap_or(fig9.len());
    let mut pairs: Vec<(&InjectionRecord, &InjectionRecord)> = twins
        .values()
        .filter_map(|(plain, ecc)| plain.map(|p| (p, ecc)))
        .flat_map(|(plain, ecc)| ecc.iter().map(move |e| (plain, *e)))
        .collect();
    pairs.sort_by(|(a, ae), (b, be)| {
        rank(&a.spec.scenario.policy)
            .cmp(&rank(&b.spec.scenario.policy))
            .then_with(|| {
                ae.spec
                    .scenario
                    .repair
                    .display_name()
                    .cmp(&be.spec.scenario.repair.display_name())
            })
            .then_with(|| a.result.label.cmp(&b.result.label))
    });
    if pairs.is_empty() {
        return String::new();
    }

    let mut out = String::new();
    for (plain, ecc) in pairs {
        let s = &ecc.spec;
        out.push_str(&format!(
            "=== SECDED corrected vs uncorrected: {:?} / {} / {} / {} — ecc {}, σ={} mV, {} trials ===\n",
            s.scenario.platform,
            s.scenario.network.display_name(),
            s.scenario.format,
            s.scenario.policy.display_name(),
            s.scenario.repair.display_name(),
            s.noise_sigma_mv,
            s.trials,
        ));
        let mut header = format!("  {:<28} {:>8}", "", "clean");
        for age in &s.ages_years {
            header.push_str(&format!(" {:>9}y", format_age(*age)));
        }
        out.push_str(&header);
        out.push('\n');
        let acc_row = |label: &str, record: &InjectionRecord| {
            let mut row = format!("  {:<28} {:>8.4}", label, record.result.clean_accuracy);
            for age in &record.result.ages {
                row.push_str(&format!(" {:>10.4}", age.mean_accuracy));
            }
            row
        };
        out.push_str(&acc_row("uncorrected", plain));
        out.push('\n');
        out.push_str(&acc_row("corrected", ecc));
        out.push('\n');
        let mut delta = format!("  {:<28} {:>8}", "Δ accuracy", "");
        for (p, e) in plain.result.ages.iter().zip(&ecc.result.ages) {
            delta.push_str(&format!(" {:>+10.4}", e.mean_accuracy - p.mean_accuracy));
        }
        out.push_str(&delta);
        out.push('\n');
        let mut verdicts = format!("  {:<28} {:>8}", "corr/det/esc words", "");
        for age in &ecc.result.ages {
            match &age.ecc {
                Some(stats) => verdicts.push_str(&format!(
                    " {:>10}",
                    format!(
                        "{:.0}/{:.0}/{:.0}",
                        stats.mean_corrected_words,
                        stats.mean_detected_words,
                        stats.mean_escaped_words
                    )
                )),
                None => verdicts.push_str(&format!(" {:>10}", "-")),
            }
        }
        out.push_str(&verdicts);
        out.push('\n');
        let mut residual = format!("  {:<28} {:>8}", "raw → residual flips", "");
        for age in &ecc.result.ages {
            let residual_flips = age
                .ecc
                .as_ref()
                .map_or(0.0, |stats| stats.mean_residual_flips);
            residual.push_str(&format!(
                " {:>10}",
                format!("{:.0}→{:.0}", age.mean_flipped_bits, residual_flips)
            ));
        }
        out.push_str(&residual);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> InjectionParams {
        InjectionParams {
            base_seed: 9,
            inferences: 2,
            ages_years: vec![0.0, 7.0],
            trials: 1,
            eval_images: 4,
            train_steps: 0,
            noise_sigma_mv: 65.0,
        }
    }

    #[test]
    fn grid_builder_filters_invalid_cells_and_derives_seeds() {
        let params = tiny_params();
        let grid = InjectionGrid::build_with_axes(
            "t",
            Platform::TpuLike,
            NetworkKind::CustomMnist,
            NumberFormat::Int8Symmetric,
            &[PolicySpec::None, PolicySpec::Inversion, PolicySpec::None],
            &params,
            &[RepairPolicy::None],
            &[MemoryTech::SramNbti],
        );
        assert_eq!(grid.len(), 2, "duplicates dedup");
        assert_ne!(grid.specs[0].scenario.seed, grid.specs[1].scenario.seed);
        // fp32 on the NPU is invalid and filtered.
        let fp32 = InjectionGrid::build_with_axes(
            "t",
            Platform::TpuLike,
            NetworkKind::CustomMnist,
            NumberFormat::Fp32,
            &[PolicySpec::None],
            &params,
            &[RepairPolicy::None],
            &[MemoryTech::SramNbti],
        );
        assert!(fp32.is_empty());
        // The whole zoo is injectable now — the big networks build
        // real grid cells with campaign-derived seeds.
        let alex = InjectionGrid::build_with_axes(
            "t",
            Platform::Baseline,
            NetworkKind::Alexnet,
            NumberFormat::Int8Symmetric,
            &[PolicySpec::None],
            &params,
            &[RepairPolicy::None],
            &[MemoryTech::SramNbti],
        );
        assert_eq!(alex.len(), 1, "AlexNet must yield a runnable cell");
        assert_eq!(alex.specs[0].scenario.network, NetworkKind::Alexnet);
        assert_ne!(alex.specs[0].scenario.seed, 0, "seed derives from the grid");
    }

    #[test]
    fn injection_seeds_match_sweep_twins() {
        // The injection scenario's derived seed equals the seed the
        // sweep grid derives for the same coordinates, so duty cycles
        // line up between the two campaign kinds.
        let params = tiny_params();
        let grid = InjectionGrid::build_with_axes(
            "t",
            Platform::TpuLike,
            NetworkKind::CustomMnist,
            NumberFormat::Int8Symmetric,
            &[PolicySpec::None],
            &params,
            &[RepairPolicy::None],
            &[MemoryTech::SramNbti],
        );
        let sweep = crate::grid::CampaignGrid::fig11(crate::grid::SweepOptions {
            base_seed: params.base_seed,
            sample_stride: 1,
            inferences: params.inferences,
            ..crate::grid::SweepOptions::default()
        });
        let twin = sweep
            .scenarios
            .iter()
            .find(|s| s.coordinate_key() == grid.specs[0].scenario.coordinate_key())
            .expect("the fig11 grid contains the same cell");
        assert_eq!(twin.seed, grid.specs[0].scenario.seed);
    }
}
