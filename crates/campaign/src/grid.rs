//! Grid builder: enumerates experiment scenarios from axis lists.
//!
//! A [`GridAxes`] names the values to sweep on every axis of the
//! paper's evaluation space — platform, network, number format,
//! mitigation policy, lifetime, simulator backend, block-dwell model —
//! plus shared run parameters. Building it produces a
//! [`CampaignGrid`]: a deduplicated, validity-filtered scenario list
//! in a canonical order, with a deterministic per-scenario seed
//! derived from `(base_seed, scenario coordinates)` so a scenario
//! keeps its seed (and therefore its result bits) no matter which grid
//! it appears in or where. Coordinates normalise the backend away, so
//! a scenario's analytic and exact variants share one seed — that is
//! what makes matched cross-validation pairs comparable.

use dnnlife_core::experiment::{fig11_policies, fig9_policies, NetworkKind, Platform, PolicySpec};
use dnnlife_core::{DwellModel, ExperimentSpec, MemoryTech, RepairPolicy, SimulatorBackend};
use dnnlife_quant::NumberFormat;

/// Shared run parameters for every scenario of a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Campaign master seed; per-scenario seeds are derived from it.
    pub base_seed: u64,
    /// Simulate every n-th memory word (1 = paper-exact).
    pub sample_stride: usize,
    /// Inferences used to estimate duty cycles (the paper uses 100).
    pub inferences: u64,
    /// Simulator backend, used when [`GridAxes::backends`] is empty —
    /// which is how the named grids thread `--backend` through; a
    /// non-empty axis vector overrides it (to cross both backends in
    /// one grid).
    pub backend: SimulatorBackend,
    /// Block-dwell model, used when [`GridAxes::dwells`] is empty
    /// (non-uniform models require the exact backend).
    pub dwell: DwellModel,
    /// Repair (ECC) axis, used when [`GridAxes::repairs`] is empty.
    pub repair: RepairPolicy,
    /// Memory technology, used when [`GridAxes::techs`] is empty.
    pub tech: MemoryTech,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            base_seed: 42,
            sample_stride: 64,
            inferences: 100,
            backend: SimulatorBackend::Analytic,
            dwell: DwellModel::Uniform,
            repair: RepairPolicy::None,
            tech: MemoryTech::SramNbti,
        }
    }
}

/// Axis lists spanning a scenario space.
#[derive(Debug, Clone, PartialEq)]
pub struct GridAxes {
    /// Hardware platforms.
    pub platforms: Vec<Platform>,
    /// Weight-providing networks.
    pub networks: Vec<NetworkKind>,
    /// Weight storage formats.
    pub formats: Vec<NumberFormat>,
    /// Mitigation policies (including DnnLife bias / counter-width
    /// sweep points).
    pub policies: Vec<PolicySpec>,
    /// Device lifetimes in years.
    pub lifetimes_years: Vec<f64>,
    /// Simulator backends (the builder filters analytic × non-uniform
    /// dwell combinations, which the analytic closed forms cannot
    /// simulate). Leave **empty** to use the single
    /// `options.backend` value — the axis vectors, when non-empty,
    /// are the only source the builder reads.
    pub backends: Vec<SimulatorBackend>,
    /// Block-dwell models. Leave **empty** to use the single
    /// `options.dwell` value (same rule as `backends`).
    pub dwells: Vec<DwellModel>,
    /// Repair (ECC) policies over the stored weight words. Leave
    /// **empty** to use the single `options.repair` value (same rule
    /// as `backends`) — a two-element axis crosses every policy with
    /// ECC on and off in one grid.
    pub repairs: Vec<RepairPolicy>,
    /// Memory technologies ([`MemoryTech`]) whose lifetime model ages
    /// the weight cells. Leave **empty** to use the single
    /// `options.tech` value (same rule as `backends`) — a two-element
    /// axis crosses every cell with the SRAM/NBTI and ReRAM/endurance
    /// models in one grid.
    pub techs: Vec<MemoryTech>,
    /// Shared run parameters.
    pub options: SweepOptions,
}

impl GridAxes {
    /// Enumerates the cross product in canonical order (platform →
    /// network → format → policy → lifetime → backend → dwell →
    /// repair → tech), dropping invalid combinations (fp32 on the
    /// 8-bit NPU, analytic backend with non-uniform dwell, non-coprime
    /// ECC interleave) and duplicates.
    ///
    /// # Panics
    ///
    /// Panics if `options.sample_stride == 0` or
    /// `options.inferences == 0` — catching the invariant here, at
    /// grid construction, instead of as an assert deep inside a
    /// simulator worker thread after the store file was already
    /// created.
    pub fn build(&self, name: impl Into<String>) -> CampaignGrid {
        assert!(
            self.options.sample_stride > 0,
            "GridAxes::build: sample_stride must be >= 1"
        );
        assert!(
            self.options.inferences > 0,
            "GridAxes::build: inferences must be >= 1"
        );
        let backends = if self.backends.is_empty() {
            vec![self.options.backend]
        } else {
            self.backends.clone()
        };
        let dwells = if self.dwells.is_empty() {
            vec![self.options.dwell.clone()]
        } else {
            self.dwells.clone()
        };
        let repairs = if self.repairs.is_empty() {
            vec![self.options.repair]
        } else {
            self.repairs.clone()
        };
        let techs = if self.techs.is_empty() {
            vec![self.options.tech]
        } else {
            self.techs.clone()
        };
        let mut scenarios = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for &platform in &self.platforms {
            for &network in &self.networks {
                for &format in &self.formats {
                    for &policy in &self.policies {
                        for &years in &self.lifetimes_years {
                            for &backend in &backends {
                                for dwell in &dwells {
                                    for &repair in &repairs {
                                        for &tech in &techs {
                                            let mut spec = ExperimentSpec {
                                                platform,
                                                network,
                                                format,
                                                policy,
                                                inferences: self.options.inferences,
                                                years,
                                                seed: 0,
                                                sample_stride: self.options.sample_stride,
                                                backend,
                                                dwell: dwell.clone(),
                                                repair,
                                                tech,
                                            };
                                            if !spec.is_valid() {
                                                continue;
                                            }
                                            spec.seed =
                                                scenario_seed(self.options.base_seed, &spec);
                                            if seen.insert(spec.content_key()) {
                                                scenarios.push(spec);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        CampaignGrid {
            name: name.into(),
            scenarios,
        }
    }
}

/// Derives a scenario's seed from the campaign seed and the scenario's
/// coordinates (its seed-independent coordinate hash), finished with a
/// SplitMix64 mix so nearby hashes decorrelate. The fault-injection
/// grid builder enumerates through [`GridAxes::build`], so an injection
/// scenario and its sweep twin derive identical seeds.
fn scenario_seed(base_seed: u64, spec: &ExperimentSpec) -> u64 {
    let mut z = base_seed ^ spec.coordinate_hash();
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A built scenario set: what the executor runs and the store keys.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignGrid {
    /// Campaign name (used for default store file names and reports).
    pub name: String,
    /// Scenarios in canonical order, deduplicated, all valid.
    pub scenarios: Vec<ExperimentSpec>,
}

impl CampaignGrid {
    /// Store keys in scenario order.
    pub fn keys(&self) -> Vec<String> {
        self.scenarios.iter().map(|s| s.content_key()).collect()
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The Fig. 9 grid: baseline accelerator, AlexNet, all three
    /// formats, the paper's six policies, 7-year lifetime.
    pub fn fig9(options: SweepOptions) -> Self {
        Self::fig9_axes(options).build("fig9")
    }

    fn fig9_axes(options: SweepOptions) -> GridAxes {
        GridAxes {
            platforms: vec![Platform::Baseline],
            networks: vec![NetworkKind::Alexnet],
            formats: NumberFormat::all().to_vec(),
            policies: fig9_policies(),
            lifetimes_years: vec![7.0],
            backends: Vec::new(), // use options.backend
            dwells: Vec::new(),   // use options.dwell
            repairs: Vec::new(),  // use options.repair
            techs: Vec::new(),    // use options.tech
            options,
        }
    }

    /// The Fig. 11 grid: TPU-like NPU, all three networks, 8-bit
    /// symmetric weights, the paper's four policies, 7-year lifetime.
    pub fn fig11(options: SweepOptions) -> Self {
        Self::fig11_axes(options).build("fig11")
    }

    fn fig11_axes(options: SweepOptions) -> GridAxes {
        GridAxes {
            platforms: vec![Platform::TpuLike],
            networks: vec![
                NetworkKind::Alexnet,
                NetworkKind::Vgg16,
                NetworkKind::CustomMnist,
            ],
            formats: vec![NumberFormat::Int8Symmetric],
            policies: fig11_policies(),
            lifetimes_years: vec![7.0],
            backends: Vec::new(), // use options.backend
            dwells: Vec::new(),   // use options.dwell
            repairs: Vec::new(),  // use options.repair
            techs: Vec::new(),    // use options.tech
            options,
        }
    }

    /// TRBG bias-sensitivity axes (`bias`, beyond the paper): DNN-Life
    /// with bias 0.50..0.90 in 0.05 steps, with and without bias
    /// balancing, on the NPU running the custom network.
    fn bias_axes(options: SweepOptions) -> GridAxes {
        let mut policies = Vec::new();
        for step in 0..=8 {
            let bias = 0.5 + 0.05 * f64::from(step);
            for bias_balancing in [false, true] {
                policies.push(PolicySpec::DnnLife {
                    bias,
                    bias_balancing,
                    m_bits: 4,
                });
            }
        }
        GridAxes {
            platforms: vec![Platform::TpuLike],
            networks: vec![NetworkKind::CustomMnist],
            formats: vec![NumberFormat::Int8Symmetric],
            policies,
            lifetimes_years: vec![7.0],
            backends: Vec::new(), // use options.backend
            dwells: Vec::new(),   // use options.dwell
            repairs: Vec::new(),  // use options.repair
            techs: Vec::new(),    // use options.tech
            options,
        }
    }

    /// Counter-width sensitivity axes (`mbits`, beyond the paper): the
    /// M-bit bias-balancing register from 1 to 8 bits at the paper's
    /// 0.7 bias, on the NPU running the custom network.
    fn mbits_axes(options: SweepOptions) -> GridAxes {
        let policies = (1..=8)
            .map(|m_bits| PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits,
            })
            .collect();
        GridAxes {
            platforms: vec![Platform::TpuLike],
            networks: vec![NetworkKind::CustomMnist],
            formats: vec![NumberFormat::Int8Symmetric],
            policies,
            lifetimes_years: vec![7.0],
            backends: Vec::new(), // use options.backend
            dwells: Vec::new(),   // use options.dwell
            repairs: Vec::new(),  // use options.repair
            techs: Vec::new(),    // use options.tech
            options,
        }
    }

    /// The full design space: both platforms, all networks and formats,
    /// the six Fig. 9 policies, three lifetimes. Invalid combinations
    /// (fp32 on the NPU) are filtered by the builder.
    pub fn full(options: SweepOptions) -> Self {
        Self::full_axes(options).build("full")
    }

    fn full_axes(options: SweepOptions) -> GridAxes {
        GridAxes {
            platforms: vec![Platform::Baseline, Platform::TpuLike],
            networks: vec![
                NetworkKind::Alexnet,
                NetworkKind::Vgg16,
                NetworkKind::CustomMnist,
            ],
            formats: NumberFormat::all().to_vec(),
            policies: fig9_policies(),
            lifetimes_years: vec![2.0, 7.0, 10.0],
            backends: Vec::new(), // use options.backend
            dwells: Vec::new(),   // use options.dwell
            repairs: Vec::new(),  // use options.repair
            techs: Vec::new(),    // use options.tech
            options,
        }
    }

    /// Builds a named grid (`fig9`, `fig11`, `bias`, `mbits` or
    /// `full`) crossed with explicit repair and memory-technology axes
    /// (`dnnlife sweep --ecc both --tech both`): every cell is crossed
    /// with each [`RepairPolicy`] through [`GridAxes::repairs`] and each
    /// [`MemoryTech`] through [`GridAxes::techs`], in canonical order
    /// (tech innermost, after repair). An empty axis falls back to the
    /// options' single value. Values invalid for a cell's word width
    /// (non-coprime interleave) are filtered like any other invalid
    /// combination — callers that need to diagnose a partial drop can
    /// count scenarios per repair value. `None` for an unknown name.
    pub fn named_with_axes(
        name: &str,
        options: SweepOptions,
        repairs: &[RepairPolicy],
        techs: &[MemoryTech],
    ) -> Option<Self> {
        let mut axes = Self::named_axes(name, options)?;
        axes.repairs = repairs.to_vec();
        axes.techs = techs.to_vec();
        Some(axes.build(name))
    }

    fn named_axes(name: &str, options: SweepOptions) -> Option<GridAxes> {
        match name {
            "fig9" => Some(Self::fig9_axes(options)),
            "fig11" => Some(Self::fig11_axes(options)),
            "bias" => Some(Self::bias_axes(options)),
            "mbits" => Some(Self::mbits_axes(options)),
            "full" => Some(Self::full_axes(options)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_grid_shape() {
        let grid = CampaignGrid::fig9(SweepOptions::default());
        // 3 formats × 6 policies, all valid on the baseline platform.
        assert_eq!(grid.len(), 18);
    }

    #[test]
    fn fig11_grid_shape() {
        let grid = CampaignGrid::fig11(SweepOptions::default());
        assert_eq!(grid.len(), 12);
    }

    #[test]
    fn full_grid_filters_fp32_on_npu() {
        let grid = CampaignGrid::full(SweepOptions::default());
        // Baseline: 3 networks × 3 formats × 6 policies × 3 lifetimes;
        // NPU: 3 networks × 2 formats × 6 policies × 3 lifetimes.
        assert_eq!(grid.len(), 162 + 108);
        assert!(grid
            .scenarios
            .iter()
            .all(dnnlife_core::ExperimentSpec::is_valid));
    }

    #[test]
    fn duplicate_axis_values_dedup() {
        let axes = GridAxes {
            platforms: vec![Platform::Baseline, Platform::Baseline],
            networks: vec![NetworkKind::CustomMnist],
            formats: vec![NumberFormat::Int8Symmetric, NumberFormat::Int8Symmetric],
            policies: vec![PolicySpec::None],
            lifetimes_years: vec![7.0],
            backends: vec![SimulatorBackend::Analytic, SimulatorBackend::Analytic],
            dwells: vec![DwellModel::Uniform, DwellModel::Uniform],
            repairs: Vec::new(),
            techs: Vec::new(),
            options: SweepOptions::default(),
        };
        assert_eq!(axes.build("dup").len(), 1);
    }

    #[test]
    fn backend_axis_crosses_and_drops_analytic_nonuniform() {
        let axes = GridAxes {
            platforms: vec![Platform::TpuLike],
            networks: vec![NetworkKind::CustomMnist],
            formats: vec![NumberFormat::Int8Symmetric],
            policies: vec![PolicySpec::None, PolicySpec::Inversion],
            lifetimes_years: vec![7.0],
            backends: vec![SimulatorBackend::Analytic, SimulatorBackend::Exact],
            dwells: vec![DwellModel::Uniform, DwellModel::Zipf { exponent: 1.0 }],
            repairs: Vec::new(),
            techs: Vec::new(),
            options: SweepOptions::default(),
        };
        let grid = axes.build("backend-cross");
        // 2 policies × (analytic-uniform, exact-uniform, exact-zipf):
        // the analytic × zipf cell is invalid and filtered.
        assert_eq!(grid.len(), 6);
        assert!(grid.scenarios.iter().all(ExperimentSpec::is_valid));
    }

    #[test]
    fn matched_backend_pairs_share_seeds() {
        let axes = GridAxes {
            platforms: vec![Platform::TpuLike],
            networks: vec![NetworkKind::CustomMnist],
            formats: vec![NumberFormat::Int8Symmetric],
            policies: fig11_policies(),
            lifetimes_years: vec![7.0],
            backends: vec![SimulatorBackend::Analytic, SimulatorBackend::Exact],
            dwells: vec![DwellModel::Uniform],
            repairs: Vec::new(),
            techs: Vec::new(),
            options: SweepOptions::default(),
        };
        let grid = axes.build("pairs");
        assert_eq!(grid.len(), 8);
        for spec in &grid.scenarios {
            let twin = grid
                .scenarios
                .iter()
                .find(|s| s.backend != spec.backend && s.coordinate_key() == spec.coordinate_key())
                .expect("every scenario has a matched twin on the other backend");
            assert_eq!(spec.seed, twin.seed, "matched pair seeds must agree");
            assert_ne!(spec.content_key(), twin.content_key());
        }
    }

    #[test]
    fn named_grids_thread_backend_and_dwell_from_options() {
        let grid = CampaignGrid::fig11(SweepOptions {
            backend: SimulatorBackend::Exact,
            dwell: DwellModel::LayerProportional,
            ..SweepOptions::default()
        });
        assert_eq!(grid.len(), 12);
        assert!(grid
            .scenarios
            .iter()
            .all(|s| s.backend == SimulatorBackend::Exact
                && s.dwell == DwellModel::LayerProportional));
    }

    #[test]
    fn scenario_seeds_are_stable_across_grids() {
        let fig11 = CampaignGrid::fig11(SweepOptions::default());
        let full = CampaignGrid::full(SweepOptions::default());
        // Scenarios shared between grids (matched on seed-independent
        // coordinates) get the same derived seed, so their results are
        // interchangeable. Every fig11 scenario appears in the full
        // grid (its policies are a subset of fig9's and 7.0 is among
        // the full grid's lifetimes), so this must match 12 times.
        let mut matched = 0;
        for spec in &fig11.scenarios {
            if let Some(other) = full
                .scenarios
                .iter()
                .find(|s| s.coordinate_key() == spec.coordinate_key())
            {
                assert_eq!(spec.seed, other.seed, "seed differs for {:?}", spec);
                assert_eq!(spec, other);
                matched += 1;
            }
        }
        assert_eq!(matched, fig11.len());
    }

    #[test]
    fn repair_axis_crosses_and_filters_bad_interleave() {
        let axes = GridAxes {
            platforms: vec![Platform::TpuLike],
            networks: vec![NetworkKind::CustomMnist],
            formats: vec![NumberFormat::Int8Symmetric],
            policies: vec![PolicySpec::None, PolicySpec::Inversion],
            lifetimes_years: vec![7.0],
            backends: Vec::new(),
            dwells: Vec::new(),
            repairs: vec![
                RepairPolicy::None,
                RepairPolicy::Secded { interleave: 1 },
                RepairPolicy::Secded { interleave: 13 }, // 13 | 13: invalid
            ],
            techs: Vec::new(),
            options: SweepOptions::default(),
        };
        let grid = axes.build("repair-cross");
        // 2 policies × (none, secded); the non-coprime interleave is
        // dropped by validity filtering.
        assert_eq!(grid.len(), 4);
        assert!(grid.scenarios.iter().all(ExperimentSpec::is_valid));
        // Twins differ in seed (repair is a physical coordinate) and
        // content key.
        let keys: std::collections::BTreeSet<String> =
            grid.scenarios.iter().map(|s| s.content_key()).collect();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn tech_axis_crosses_with_coordinate_separated_seeds() {
        let axes = GridAxes {
            platforms: vec![Platform::TpuLike],
            networks: vec![NetworkKind::CustomMnist],
            formats: vec![NumberFormat::Int8Symmetric],
            policies: vec![PolicySpec::None, PolicySpec::Inversion],
            lifetimes_years: vec![7.0],
            backends: Vec::new(),
            dwells: Vec::new(),
            repairs: Vec::new(),
            techs: vec![MemoryTech::SramNbti, MemoryTech::ReramEndurance],
            options: SweepOptions::default(),
        };
        let grid = axes.build("tech-cross");
        assert_eq!(grid.len(), 4);
        let keys: std::collections::BTreeSet<String> =
            grid.scenarios.iter().map(|s| s.content_key()).collect();
        assert_eq!(keys.len(), 4);
        // Tech is a physical coordinate, so the reram twin of a cell
        // draws a different derived seed than its sram sibling.
        for spec in &grid.scenarios {
            let twin = grid
                .scenarios
                .iter()
                .find(|s| s.tech != spec.tech && s.policy == spec.policy)
                .expect("every scenario has a twin on the other tech");
            assert_ne!(spec.seed, twin.seed);
        }
        // And the sram half is byte-identical to a grid that never
        // heard of the axis (pre-axis stores keep their keys).
        let plain = CampaignGrid::named_with_axes("fig11", SweepOptions::default(), &[], &[])
            .expect("fig11 is a built-in campaign name");
        for spec in grid
            .scenarios
            .iter()
            .filter(|s| s.tech == MemoryTech::SramNbti)
        {
            if let Some(other) = plain
                .scenarios
                .iter()
                .find(|s| s.policy == spec.policy && s.network == spec.network)
            {
                assert_eq!(spec.content_key(), other.content_key());
            }
        }
    }

    #[test]
    fn base_seed_changes_every_scenario_seed() {
        let a = CampaignGrid::fig11(SweepOptions::default());
        let b = CampaignGrid::fig11(SweepOptions {
            base_seed: 43,
            ..SweepOptions::default()
        });
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_ne!(x.seed, y.seed);
        }
    }
}
