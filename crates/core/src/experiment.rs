//! Run-time aging-mitigation experiments (§V, Fig. 9 and Fig. 11).
//!
//! An [`ExperimentSpec`] names a platform, workload, number format,
//! mitigation policy, lifetime, simulator backend and block-dwell
//! model; [`run_experiment_with`] simulates the weight memory (closed-form
//! analytic or event-driven exact), converts every cell's lifetime
//! duty cycle into SNM degradation with the paper-calibrated model,
//! and returns the degradation histogram that one bar chart of Fig. 9
//! / Fig. 11 plots. [`cross_validate_with`] runs a matched analytic/exact
//! pair and reports per-cell duty divergence.

use std::sync::atomic::{AtomicBool, Ordering};

use dnnlife_accel::{
    simulate_analytic_telemetry, simulate_exact_sharded, zipf_weights, AcceleratorConfig,
    AnalyticPolicy, AnalyticSimConfig, BlockSource, ExactShardConfig, FifoSlotMemory,
    FlatWeightMemory, RemappedMemory,
};
use dnnlife_mitigation::{
    AgingController, BarrelShifter, DnnLife, Passthrough, PeriodicInversion, PseudoTrbg,
    RemapSchedule, WearLevelRemap, WriteTransducer,
};
use dnnlife_numerics::{Histogram, Summary};
use dnnlife_quant::{NumberFormat, RepairPolicy};
use dnnlife_sram::snm::CalibratedSnmModel;
use dnnlife_sram::{LifetimeModel, MemoryTech, ReramEnduranceLifetime, SramNbtiLifetime};
use dnnlife_telemetry::{SpanId, Telemetry};
use serde::{Deserialize, Serialize};

/// Histogram range for SNM degradation (percent). The calibrated model
/// spans 10.82 %..26.12 % at 7 years; one-percent bins over 10..27
/// match the granularity of the paper's bar charts.
pub const SNM_HIST_LO: f64 = 10.0;
/// Upper edge of the degradation histogram (percent).
pub const SNM_HIST_HI: f64 = 27.0;
/// Number of histogram bins.
pub const SNM_HIST_BINS: usize = 17;

/// Lower edge of the ReRAM wear histogram: percent of the median-cell
/// endurance budget consumed (0 = fresh).
pub const RERAM_HIST_LO: f64 = 0.0;
/// Upper edge of the ReRAM wear histogram (100 = the median cell is
/// dead; the model saturates there).
pub const RERAM_HIST_HI: f64 = 100.0;
/// Number of ReRAM wear histogram bins (five-percent bins).
pub const RERAM_HIST_BINS: usize = 20;

/// Which simulator computes per-cell duty cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SimulatorBackend {
    /// The closed-form analytic simulator (`O(cells × K)`; assumes
    /// equal block residency — paper assumption (b) of §III-B).
    #[default]
    Analytic,
    /// The event-driven reference simulator (`O(cells × K ×
    /// inferences)`; honours per-block residency weights).
    Exact,
}

impl SimulatorBackend {
    /// CLI / report name.
    pub fn display_name(self) -> &'static str {
        match self {
            SimulatorBackend::Analytic => "analytic",
            SimulatorBackend::Exact => "exact",
        }
    }

    /// Parses a CLI name (`analytic` | `exact`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "analytic" => Some(SimulatorBackend::Analytic),
            "exact" => Some(SimulatorBackend::Exact),
            _ => None,
        }
    }
}

/// How many contiguous word shards the exact backend splits each
/// memory unit into (`dnnlife --shards auto|N`).
///
/// Shard count is an *execution* knob, never stored in the spec or its
/// content hash — but it is semantic for the stochastic DNN-Life
/// policy (the shard count selects how seed-derived TRBG streams are
/// dealt to words), so both variants are deterministic functions of
/// the spec and the chosen policy: `Auto` derives the count from the
/// sampled word population alone (machine-independent), and `Fixed`
/// pins it outright. Deterministic mitigation policies are
/// bit-identical at every shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// One shard per [`ShardPolicy::AUTO_WORDS_PER_SHARD`] sampled
    /// words, capped at [`ShardPolicy::AUTO_MAX_SHARDS`] — enough
    /// granularity to feed every core on paper-scale memories while
    /// small strided scenarios stay unsharded, computing the same
    /// duties the pre-sharding simulator did. (Store *bytes* for
    /// shard-sensitive records still change across the schema growth:
    /// they gain a shard annotation, and resume conservatively re-runs
    /// unannotated DNN-Life exact records once.)
    #[default]
    Auto,
    /// Exactly this many shards (clamped to the sampled word count).
    Fixed(usize),
}

impl ShardPolicy {
    /// Sampled words per auto shard.
    pub const AUTO_WORDS_PER_SHARD: usize = 4096;
    /// Auto shard-count ceiling.
    pub const AUTO_MAX_SHARDS: usize = 64;

    /// The shard count for a memory unit with `sampled_words` sampled
    /// words — a pure function of its arguments, so results never
    /// depend on the executing machine.
    pub fn resolve(self, sampled_words: usize) -> usize {
        match self {
            ShardPolicy::Fixed(shards) => shards.max(1),
            ShardPolicy::Auto => sampled_words
                .div_ceil(Self::AUTO_WORDS_PER_SHARD)
                .clamp(1, Self::AUTO_MAX_SHARDS),
        }
    }

    /// Parses a CLI value: `auto` or a positive shard count.
    pub fn parse(name: &str) -> Option<Self> {
        if name == "auto" {
            return Some(ShardPolicy::Auto);
        }
        name.parse()
            .ok()
            .filter(|&n| n >= 1)
            .map(ShardPolicy::Fixed)
    }

    /// CLI / report name (`auto` | the fixed count).
    pub fn display_name(self) -> String {
        match self {
            ShardPolicy::Auto => "auto".to_string(),
            ShardPolicy::Fixed(shards) => shards.to_string(),
        }
    }
}

/// Execution budget for one experiment run. Everything here is *how*
/// the spec is computed, never *what* — with the one documented
/// exception that the resolved shard count selects the DNN-Life
/// per-shard TRBG stream assignment (see [`ShardPolicy`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Simulator worker threads (0 = all available cores). The thread
    /// count never affects results.
    pub threads: usize,
    /// Exact-backend word-shard policy.
    pub shards: ShardPolicy,
    /// Cooperative cancellation: when raised, [`run_experiment_with`]
    /// returns `None` and the partial result is discarded. The exact
    /// backend polls the flag at block granularity (an abort lands
    /// within one inference); the analytic backend — orders of
    /// magnitude faster — polls it only between memory units.
    pub cancel: Option<&'a AtomicBool>,
    /// Observability sink: counters and span timings for the run.
    /// Never semantic — results are byte-identical with telemetry on
    /// or off at any thread/shard count.
    pub telemetry: Option<&'a Telemetry>,
    /// Trace-span parent for the per-shard simulator spans this run
    /// journals (the executor's per-scenario span). `SpanId::NONE`
    /// (the default) journals the shard spans as roots.
    pub parent_span: SpanId,
}

/// Per-block residency model: how long each weight block stays in the
/// on-chip memory relative to the others. `Uniform` is the paper's
/// assumption (b) of §III-B (equal residency for every block); the
/// other models relax it and are only simulable by the
/// [`SimulatorBackend::Exact`] backend.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum DwellModel {
    /// Equal residency for every block (paper assumption (b)).
    #[default]
    Uniform,
    /// Residency proportional to the MAC work of each block's weights:
    /// conv fills are reused across output positions and dwell far
    /// longer than FC fills (the §III-C observation that per-layer
    /// processing times vary).
    LayerProportional,
    /// Zipf-decaying residency over stream order: block `b` dwells
    /// `(b + 1)^-exponent` — a hot-block model where early (conv)
    /// blocks dominate residency.
    Zipf {
        /// Decay exponent (0 = uniform; 1 ≈ classic Zipf).
        exponent: f64,
    },
    /// Explicit per-layer residency factors: `factors[li]` is the
    /// relative dwell per word of network layer `li`; block weights
    /// sum the factors of the stream words they hold. Must have one
    /// factor per layer of the spec's network.
    Custom {
        /// Relative per-word residency of each network layer.
        factors: Vec<f64>,
    },
}

impl DwellModel {
    /// Whether this is the paper's equal-residency assumption.
    pub fn is_uniform(&self) -> bool {
        matches!(self, DwellModel::Uniform)
    }

    /// CLI / report name (`uniform`, `layer`, `zipf(1.00)`,
    /// `custom(0.5,1,2,...)`).
    pub fn display_name(&self) -> String {
        match self {
            DwellModel::Uniform => "uniform".to_string(),
            DwellModel::LayerProportional => "layer".to_string(),
            DwellModel::Zipf { exponent } => format!("zipf({exponent:.2})"),
            DwellModel::Custom { factors } => {
                let list: Vec<String> = factors.iter().map(|f| format!("{f}")).collect();
                format!("custom({})", list.join(","))
            }
        }
    }

    /// Parses a CLI name: `uniform`, `layer`, `zipf` (exponent 1.0),
    /// `zipf:EXP`, or `custom:F1,F2,...` (one factor per network
    /// layer).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "uniform" => return Some(DwellModel::Uniform),
            "layer" | "layer-proportional" => return Some(DwellModel::LayerProportional),
            "zipf" => return Some(DwellModel::Zipf { exponent: 1.0 }),
            _ => {}
        }
        if let Some(exp) = name.strip_prefix("zipf:") {
            return exp
                .parse()
                .ok()
                .map(|exponent| DwellModel::Zipf { exponent });
        }
        if let Some(list) = name.strip_prefix("custom:") {
            let factors: Option<Vec<f64>> = list.split(',').map(|f| f.parse().ok()).collect();
            return factors.map(|factors| DwellModel::Custom { factors });
        }
        None
    }
}

/// Which hardware platform to simulate (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// The §II-A baseline accelerator (512 KB weight buffer, f = 8).
    Baseline,
    /// The TPU-like NPU (256 KB four-tile weight FIFO, f = 256).
    TpuLike,
    /// A ReRAM crossbar inference engine (64 tiles of 128 × 128
    /// single-bit cells, weights-stationary, f = 16) — the natural
    /// geometry for the `reram` technology axis, though either
    /// technology can age it.
    Crossbar,
}

impl Platform {
    /// Words per physical row of this platform's weight memory — the
    /// granularity the wear-leveling remap rotates at: the baseline's
    /// `f × N`-wide SRAM row (Fig. 4), the NPU tile side, and the
    /// crossbar's weights-per-wordline (128 bitlines / 8 bits).
    pub fn row_words(self) -> usize {
        match self {
            Platform::Baseline => 8,
            Platform::TpuLike => 256,
            Platform::Crossbar => 16,
        }
    }
}

/// Which workload provides the weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkKind {
    /// AlexNet (61M parameters).
    Alexnet,
    /// VGG-16 (138M parameters).
    Vgg16,
    /// The paper's custom MNIST CNN (228K parameters).
    CustomMnist,
}

impl NetworkKind {
    /// Every workload, in grid/report order. Each of these is fully
    /// executable via `dnnlife_nn::zoo::build_network`, so injection
    /// campaigns accept any of them.
    pub const ALL: [NetworkKind; 3] = [
        NetworkKind::Alexnet,
        NetworkKind::Vgg16,
        NetworkKind::CustomMnist,
    ];

    /// The architecture descriptor.
    pub fn spec(self) -> dnnlife_nn::NetworkSpec {
        match self {
            NetworkKind::Alexnet => dnnlife_nn::NetworkSpec::alexnet(),
            NetworkKind::Vgg16 => dnnlife_nn::NetworkSpec::vgg16(),
            NetworkKind::CustomMnist => dnnlife_nn::NetworkSpec::custom_mnist(),
        }
    }

    /// Display name used in reports.
    pub fn display_name(self) -> &'static str {
        match self {
            NetworkKind::Alexnet => "AlexNet",
            NetworkKind::Vgg16 => "VGG-16",
            NetworkKind::CustomMnist => "Custom (MNIST)",
        }
    }

    /// The CLI spelling of this workload (`NetworkKind::parse` inverse).
    pub fn cli_name(self) -> &'static str {
        match self {
            NetworkKind::Alexnet => "alexnet",
            NetworkKind::Vgg16 => "vgg16",
            NetworkKind::CustomMnist => "custom-mnist",
        }
    }

    /// Parses a CLI spelling (case-insensitive; a few common aliases).
    ///
    /// # Errors
    ///
    /// Returns an error enumerating the valid values.
    pub fn parse(raw: &str) -> Result<NetworkKind, String> {
        match raw.to_ascii_lowercase().as_str() {
            "alexnet" => Ok(NetworkKind::Alexnet),
            "vgg16" | "vgg-16" => Ok(NetworkKind::Vgg16),
            "custom-mnist" | "custom" | "mnist" => Ok(NetworkKind::CustomMnist),
            _ => Err(format!(
                "unknown network `{raw}` — valid values: alexnet, vgg16, custom-mnist"
            )),
        }
    }
}

/// Mitigation policy selection for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// No aging mitigation.
    None,
    /// Inversion-based balancing (every other write inverted).
    Inversion,
    /// Barrel-shifter-based balancing (rotation schedule).
    BarrelShifter,
    /// The proposed DNN-Life scheme.
    DnnLife {
        /// TRBG probability of emitting 1.
        bias: f64,
        /// Whether the M-bit bias-balancing register is present.
        bias_balancing: bool,
        /// Width of the bias-balancing register (the paper uses 4).
        m_bits: u32,
    },
    /// Hamun-style wear-leveling remap: the lifetime is split into
    /// epochs and the logical→physical row mapping rotates each epoch
    /// (deterministic remap table, identity data path). Levels
    /// per-cell duty — and therefore ReRAM endurance wear — toward the
    /// array mean. Requires uniform block dwell.
    WearLevel {
        /// Number of lifetime epochs the rotation steps through.
        epochs: u32,
    },
}

impl PolicySpec {
    /// The label used in the paper's figure legends.
    pub fn display_name(&self) -> String {
        match self {
            PolicySpec::None => "Without Aging Mitigation".to_string(),
            PolicySpec::Inversion => "Inversion-based".to_string(),
            PolicySpec::BarrelShifter => "Barrel Shifter-based".to_string(),
            PolicySpec::DnnLife {
                bias,
                bias_balancing,
                ..
            } => {
                if *bias_balancing {
                    format!("DNN-Life with Bias Balancing (Bias={bias})")
                } else {
                    format!("DNN-Life without Bias Balancing (Bias={bias})")
                }
            }
            PolicySpec::WearLevel { epochs } => {
                format!("Wear-Leveling Remap (epochs={epochs})")
            }
        }
    }

    /// The closed-form parameterisation of this policy for the
    /// analytic simulator, drawing policy randomness from `seed`
    /// (callers composing their own simulations pass
    /// [`ExperimentSpec::policy_seed`] so their duty cycles match what
    /// [`run_experiment_with`] computes for the same spec).
    pub fn analytic(&self, seed: u64) -> AnalyticPolicy {
        match *self {
            PolicySpec::None => AnalyticPolicy::Passthrough,
            PolicySpec::Inversion => AnalyticPolicy::PeriodicInversion,
            PolicySpec::BarrelShifter => AnalyticPolicy::BarrelShifter,
            PolicySpec::DnnLife {
                bias,
                bias_balancing,
                m_bits,
            } => AnalyticPolicy::DnnLife {
                bias,
                bias_balancing: bias_balancing.then_some(m_bits),
                seed,
            },
            // The remap never transforms data — the rotation lives in
            // the block plan (`RemappedMemory`), so the word stream the
            // simulator sees is already remapped and the policy on top
            // is a passthrough.
            PolicySpec::WearLevel { .. } => AnalyticPolicy::Passthrough,
        }
    }
}

/// A full experiment description (one bar chart of Fig. 9 / Fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Hardware platform.
    pub platform: Platform,
    /// Weight-providing network.
    pub network: NetworkKind,
    /// Weight storage format.
    pub format: NumberFormat,
    /// Mitigation policy.
    pub policy: PolicySpec,
    /// Inferences used to estimate duty cycles (the paper uses 100).
    pub inferences: u64,
    /// Device lifetime in years (the paper evaluates 7).
    pub years: f64,
    /// Master seed (weights, quantizer calibration and TRBG draws).
    pub seed: u64,
    /// Simulate every n-th memory word (1 = every cell).
    pub sample_stride: usize,
    /// Which simulator computes the duty cycles.
    pub backend: SimulatorBackend,
    /// Per-block residency model (non-uniform models require the exact
    /// backend).
    pub dwell: DwellModel,
    /// Error-correction axis: SECDED codewords wrap the stored words,
    /// growing parity columns the duty/lifetime models age alongside
    /// the data cells.
    pub repair: RepairPolicy,
    /// Memory-technology axis: which physical wear mechanism ages the
    /// cells (SRAM NBTI duty-cycle aging, or ReRAM write-endurance
    /// wear-out with hard stuck-at faults).
    pub tech: MemoryTech,
}

// Hand-rolled (de)serialization instead of the derive: the
// `backend`/`dwell`/`repair`/`tech` fields are omitted when at their
// defaults (analytic, uniform, no repair, sram), so stores written
// before those axes existed still parse — and, because `content_hash`
// is FNV over the canonical JSON, a default-axis spec keeps the hash it
// had then (resume and cross-store comparisons survive the schema
// growth). Off-default values are serialized, so the hash changes
// exactly when the backend/dwell/repair/tech axes do.
impl Serialize for ExperimentSpec {
    fn to_value(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("platform".to_string(), self.platform.to_value()),
            ("network".to_string(), self.network.to_value()),
            ("format".to_string(), self.format.to_value()),
            ("policy".to_string(), self.policy.to_value()),
            ("inferences".to_string(), self.inferences.to_value()),
            ("years".to_string(), self.years.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("sample_stride".to_string(), self.sample_stride.to_value()),
        ];
        if self.backend != SimulatorBackend::Analytic {
            fields.push(("backend".to_string(), self.backend.to_value()));
        }
        if !self.dwell.is_uniform() {
            fields.push(("dwell".to_string(), self.dwell.to_value()));
        }
        if !self.repair.is_none() {
            fields.push(("repair".to_string(), self.repair.to_value()));
        }
        if !self.tech.is_default() {
            fields.push(("tech".to_string(), self.tech.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ExperimentSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = value.as_object_named("ExperimentSpec")?;
        let optional = |name: &str| pairs.iter().find(|(key, _)| key == name).map(|(_, v)| v);
        Ok(ExperimentSpec {
            platform: serde::field(pairs, "platform")?,
            network: serde::field(pairs, "network")?,
            format: serde::field(pairs, "format")?,
            policy: serde::field(pairs, "policy")?,
            inferences: serde::field(pairs, "inferences")?,
            years: serde::field(pairs, "years")?,
            seed: serde::field(pairs, "seed")?,
            sample_stride: serde::field(pairs, "sample_stride")?,
            backend: optional("backend")
                .map(SimulatorBackend::from_value)
                .transpose()?
                .unwrap_or(SimulatorBackend::Analytic),
            dwell: optional("dwell")
                .map(DwellModel::from_value)
                .transpose()?
                .unwrap_or(DwellModel::Uniform),
            repair: optional("repair")
                .map(RepairPolicy::from_value)
                .transpose()?
                .unwrap_or(RepairPolicy::None),
            tech: optional("tech")
                .map(MemoryTech::from_value)
                .transpose()?
                .unwrap_or(MemoryTech::SramNbti),
        })
    }
}

impl ExperimentSpec {
    /// A Fig. 9 style spec with the paper's defaults (100 inferences,
    /// 7 years, every cell simulated, analytic backend, uniform dwell).
    pub fn fig9(format: NumberFormat, policy: PolicySpec, seed: u64) -> Self {
        Self {
            platform: Platform::Baseline,
            network: NetworkKind::Alexnet,
            format,
            policy,
            inferences: 100,
            years: 7.0,
            seed,
            sample_stride: 1,
            backend: SimulatorBackend::Analytic,
            dwell: DwellModel::Uniform,
            repair: RepairPolicy::None,
            tech: MemoryTech::SramNbti,
        }
    }

    /// A Fig. 11 style spec (TPU-like NPU, 8-bit symmetric weights).
    pub fn fig11(network: NetworkKind, policy: PolicySpec, seed: u64) -> Self {
        Self {
            platform: Platform::TpuLike,
            network,
            format: NumberFormat::Int8Symmetric,
            policy,
            inferences: 100,
            years: 7.0,
            seed,
            sample_stride: 1,
            backend: SimulatorBackend::Analytic,
            dwell: DwellModel::Uniform,
            repair: RepairPolicy::None,
            tech: MemoryTech::SramNbti,
        }
    }

    /// Whether [`run_experiment_with`] can simulate this spec:
    ///
    /// * the TPU-like NPU's weight FIFO stores 8-bit words only
    ///   (Table I), so fp32 on that platform is rejected; the ReRAM
    ///   crossbar slices 8-bit weights over its bitlines, so it is
    ///   8-bit-only too;
    /// * the analytic simulator's closed forms assume equal residency
    ///   (paper assumption (b)), so non-uniform dwell models require
    ///   the exact backend;
    /// * dwell parameters must be well-formed (finite non-negative
    ///   Zipf exponent; one positive finite factor per network layer
    ///   for custom dwell);
    /// * wear-leveling remap rotates on the fixed epoch schedule, so
    ///   it needs at least one epoch and uniform block dwell (the
    ///   epoch-average closed form assumes equal residency).
    ///
    /// Invalid combinations are rejected here rather than panicking
    /// mid-simulation.
    pub fn is_valid(&self) -> bool {
        let platform_ok = match self.platform {
            Platform::Baseline => true,
            Platform::TpuLike | Platform::Crossbar => self.format.bits() == 8,
        };
        let dwell_ok = match &self.dwell {
            DwellModel::Uniform | DwellModel::LayerProportional => true,
            DwellModel::Zipf { exponent } => exponent.is_finite() && *exponent >= 0.0,
            DwellModel::Custom { factors } => {
                factors.len() == self.network.spec().layers().len()
                    && factors.iter().all(|f| f.is_finite() && *f > 0.0)
            }
        };
        let backend_ok = self.backend == SimulatorBackend::Exact || self.dwell.is_uniform();
        let repair_ok = self.repair.is_valid_for(self.format.bits() as u32);
        let policy_ok = match self.policy {
            PolicySpec::WearLevel { epochs } => epochs >= 1 && self.dwell.is_uniform(),
            _ => true,
        };
        platform_ok && dwell_ok && backend_ok && repair_ok && policy_ok
    }

    /// A short bracketed qualifier naming the spec's off-default
    /// backend/dwell/repair/tech axes (empty for analytic + uniform +
    /// no repair + sram), appended to labels so records from different
    /// axes never render identically.
    pub fn variant_suffix(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if !self.tech.is_default() {
            parts.push(format!("tech={}", self.tech.display_name()));
        }
        if self.backend != SimulatorBackend::Analytic {
            parts.push(self.backend.display_name().to_string());
        }
        if !self.dwell.is_uniform() {
            parts.push(format!("dwell={}", self.dwell.display_name()));
        }
        if !self.repair.is_none() {
            parts.push(format!("ecc={}", self.repair.display_name()));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!(" [{}]", parts.join(", "))
        }
    }

    /// A stable 64-bit content hash (FNV-1a over the canonical JSON
    /// serialization). Two specs hash equal iff every field — including
    /// the seed — matches; the campaign result store keys scenarios by
    /// this value so completed work is recognised across processes.
    pub fn content_hash(&self) -> u64 {
        let json = serde_json::to_string(self).expect("ExperimentSpec serializes infallibly");
        fnv1a_64(json.as_bytes())
    }

    /// [`ExperimentSpec::content_hash`] rendered as a fixed-width hex
    /// key for the result store.
    pub fn content_key(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// [`ExperimentSpec::content_hash`] with the seed zeroed and the
    /// backend normalised to analytic: identifies the scenario's
    /// *coordinates* (platform, network, format, policy, dwell, run
    /// parameters) independent of its random seed and of which
    /// simulator computed it — the backend is a method, not a physical
    /// coordinate, so matched analytic/exact scenario pairs share
    /// coordinates (and therefore derived seeds), and store comparisons
    /// line them up. The dwell model *is* a coordinate: it changes the
    /// physical residency scenario.
    pub fn coordinate_hash(&self) -> u64 {
        let mut coords = self.clone();
        coords.seed = 0;
        coords.backend = SimulatorBackend::Analytic;
        coords.content_hash()
    }

    /// [`ExperimentSpec::coordinate_hash`] as a fixed-width hex key.
    pub fn coordinate_key(&self) -> String {
        format!("{:016x}", self.coordinate_hash())
    }

    /// The seed policy randomness is drawn from when this spec runs —
    /// `spec.seed` mixed away from the weight-generation stream.
    /// Exposed so external pipelines (fault injection) that rebuild the
    /// memory plans themselves reproduce the exact duty cycles
    /// [`run_experiment_with`] computes.
    pub fn policy_seed(&self) -> u64 {
        self.seed ^ POLICY_SEED_MIX
    }
}

/// FNV-1a over a byte string: stable across platforms and releases,
/// which is what store keys need (`DefaultHasher` guarantees neither).
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Result of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Human-readable experiment label.
    pub label: String,
    /// SNM-degradation histogram (percent of cells per bin).
    pub histogram: Histogram,
    /// Summary statistics over per-cell duty cycles.
    pub duty: Summary,
    /// Summary statistics over per-cell SNM degradation (percent).
    pub snm: Summary,
    /// Number of cells simulated (after sampling).
    pub cells: u64,
    /// The paper's `K`: blocks written per inference.
    pub blocks_per_inference: u64,
}

impl ExperimentResult {
    /// Percentage of simulated cells within `tol` of the best possible
    /// degradation (the "all cells at 10.8 %" statements of §V-B).
    pub fn percent_near_optimal(&self, tol: f64) -> f64 {
        let model = CalibratedSnmModel::paper();
        let best = model.best_pct();
        let mut pct = 0.0;
        for (i, p) in self.histogram.percentages().iter().enumerate() {
            let (lo, hi) = self.histogram.bin_edges(i);
            if lo <= best + tol && hi >= best {
                pct += p;
            }
        }
        pct
    }
}

/// Seed-mixing constant separating policy randomness from weight
/// generation (shared by both backends so matched analytic/exact pairs
/// draw from the same policy seed).
const POLICY_SEED_MIX: u64 = 0x5EED_0FD0_0D42;

/// Builds the event-driven write transducer for a policy on one memory
/// unit.
fn build_transducer(
    policy: &PolicySpec,
    width: u32,
    words: usize,
    row_words: usize,
    seed: u64,
) -> Box<dyn WriteTransducer> {
    match *policy {
        PolicySpec::None => Box::new(Passthrough::new(width)),
        PolicySpec::Inversion => Box::new(PeriodicInversion::new(width, words)),
        PolicySpec::BarrelShifter => Box::new(BarrelShifter::new(width, words)),
        PolicySpec::DnnLife {
            bias,
            bias_balancing,
            m_bits,
        } => {
            let trbg = PseudoTrbg::new(seed, bias);
            let controller = if bias_balancing {
                AgingController::new(trbg, m_bits)
            } else {
                AgingController::without_balancing(trbg)
            };
            Box::new(DnnLife::new(width, controller))
        }
        // Identity data path: the rotation itself lives in the block
        // plan (`RemappedMemory`), which the exact simulator ages
        // through directly.
        PolicySpec::WearLevel { epochs } => Box::new(WearLevelRemap::new(
            width,
            RemapSchedule::new(words, row_words, epochs),
        )),
    }
}

/// Runs `simulate` on `mem`, first installing the wear-leveling row
/// rotation as a plan wrapper when the policy asks for it — the single
/// point where [`PolicySpec::WearLevel`] becomes a [`RemappedMemory`].
fn simulate_planned<S, F>(
    mem: S,
    policy: &PolicySpec,
    row_words: usize,
    unit: u64,
    simulate: F,
) -> Option<Vec<f64>>
where
    S: BlockSource,
    F: Fn(&dyn BlockSource, u64) -> Option<Vec<f64>>,
{
    match *policy {
        PolicySpec::WearLevel { epochs } => {
            simulate(&RemappedMemory::new(mem, row_words, epochs), unit)
        }
        _ => simulate(&mem, unit),
    }
}

/// The dwell-weight constructors both memory plans expose, so
/// [`with_dwell`] dispatches a [`DwellModel`] once for both platforms
/// (a new model variant is then handled in exactly one place).
trait DwellTarget: BlockSource + Sized {
    fn layer_weights(&self, network: &dnnlife_nn::NetworkSpec) -> Vec<f64>;
    fn per_layer_weights(&self, factors: &[f64]) -> Vec<f64>;
    /// Zipf weights by the unit's position in the *global* block
    /// stream (for the flat memory, block order is stream order; FIFO
    /// slots hold every fourth tile, so their local indices must be
    /// mapped back to global ones).
    fn zipf_stream_weights(&self, exponent: f64) -> Vec<f64>;
    fn apply_weights(self, weights: Vec<f64>) -> Self;
}

impl DwellTarget for FlatWeightMemory {
    fn layer_weights(&self, network: &dnnlife_nn::NetworkSpec) -> Vec<f64> {
        self.layer_proportional_weights(network)
    }
    fn per_layer_weights(&self, factors: &[f64]) -> Vec<f64> {
        self.per_layer_dwell_weights(factors)
    }
    fn zipf_stream_weights(&self, exponent: f64) -> Vec<f64> {
        zipf_weights(self.block_count(), exponent)
    }
    fn apply_weights(self, weights: Vec<f64>) -> Self {
        self.with_dwell_weights(weights)
    }
}

impl DwellTarget for FifoSlotMemory {
    fn layer_weights(&self, network: &dnnlife_nn::NetworkSpec) -> Vec<f64> {
        self.layer_proportional_weights(network)
    }
    fn per_layer_weights(&self, factors: &[f64]) -> Vec<f64> {
        self.per_layer_dwell_weights(factors)
    }
    fn zipf_stream_weights(&self, exponent: f64) -> Vec<f64> {
        self.zipf_dwell_weights(exponent)
    }
    fn apply_weights(self, weights: Vec<f64>) -> Self {
        self.with_dwell_weights(weights)
    }
}

/// Applies a dwell model to one memory unit (no-op for empty units —
/// an unused NPU FIFO slot has no blocks to weight).
fn with_dwell<T: DwellTarget>(mem: T, dwell: &DwellModel, network: &dnnlife_nn::NetworkSpec) -> T {
    if mem.block_count() == 0 {
        return mem;
    }
    let weights = match dwell {
        DwellModel::Uniform => return mem,
        DwellModel::LayerProportional => mem.layer_weights(network),
        DwellModel::Zipf { exponent } => mem.zipf_stream_weights(*exponent),
        DwellModel::Custom { factors } => mem.per_layer_weights(factors),
    };
    mem.apply_weights(weights)
}

/// Simulates every memory unit of `spec` under `backend` (overriding
/// `spec.backend` so [`cross_validate_with`] can run both sides of a
/// matched pair), returning per-unit duty vectors in unit order plus
/// the total blocks written per inference — or `None` if
/// `opts.cancel` was raised mid-run. This is the single home of the
/// memory-construction / dwell-application / transducer-seeding logic,
/// shared by [`run_experiment_with`] and [`cross_validate_with`] — so the
/// pair a cross-validation compares is by construction the pair the
/// experiment runner executes.
///
/// The analytic side always runs uniform dwell (its closed forms
/// require assumption (b)); the exact side applies `spec.dwell`.
fn simulate_units(
    spec: &ExperimentSpec,
    backend: SimulatorBackend,
    opts: &RunOptions,
) -> Option<(Vec<Vec<f64>>, u64)> {
    let network = spec.network.spec();
    let policy_seed = spec.seed ^ POLICY_SEED_MIX;
    let mut units = Vec::new();
    let mut blocks = 0u64;

    // One memory unit: dispatch to the requested simulator. `unit`
    // numbers the NPU FIFO slots so each gets its own TRBG stream
    // (each slot is its own memory unit with its own controller; the
    // per-shard fork streams then split from that per-unit seed).
    let simulate_unit = |source: &dyn BlockSource, unit: u64| -> Option<Vec<f64>> {
        if opts.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            return None;
        }
        match backend {
            SimulatorBackend::Analytic => {
                let geo = source.geometry();
                let sampled_words = geo.words.div_ceil(spec.sample_stride);
                // Same `RunOptions { shards }` resolution as the exact
                // backend, so both backends share one execution story.
                // For the analytic closed forms the shard count is pure
                // work partitioning — never semantic (counter-seeded
                // per-cell draws), unlike the exact DNN-Life streams.
                let sim_cfg = AnalyticSimConfig {
                    inferences: spec.inferences,
                    sample_stride: spec.sample_stride,
                    threads: opts.threads,
                    shards: opts.shards.resolve(sampled_words),
                };
                Some(simulate_analytic_telemetry(
                    source,
                    &spec.policy.analytic(policy_seed),
                    &sim_cfg,
                    opts.telemetry,
                    opts.parent_span,
                ))
            }
            SimulatorBackend::Exact => {
                let geo = source.geometry();
                let transducer = build_transducer(
                    &spec.policy,
                    geo.word_bits,
                    geo.words,
                    spec.platform.row_words(),
                    policy_seed.wrapping_add(unit),
                );
                let sampled_words = geo.words.div_ceil(spec.sample_stride);
                let cfg = ExactShardConfig {
                    shards: opts.shards.resolve(sampled_words),
                    threads: opts.threads,
                    cancel: opts.cancel,
                    telemetry: opts.telemetry,
                    parent_span: opts.parent_span,
                };
                simulate_exact_sharded(
                    source,
                    transducer.as_ref(),
                    spec.inferences,
                    spec.sample_stride,
                    &cfg,
                )
            }
        }
    };
    let dwell = match backend {
        SimulatorBackend::Analytic => &DwellModel::Uniform,
        SimulatorBackend::Exact => &spec.dwell,
    };

    let row_words = spec.platform.row_words();
    match spec.platform {
        Platform::Baseline | Platform::Crossbar => {
            let config = match spec.platform {
                Platform::Baseline => AcceleratorConfig::baseline(),
                _ => AcceleratorConfig::crossbar(),
            };
            let mem = FlatWeightMemory::new(&config, &network, spec.format, spec.seed)
                .with_repair(&spec.repair);
            blocks = mem.block_count();
            let mem = with_dwell(mem, dwell, &network);
            units.push(simulate_planned(
                mem,
                &spec.policy,
                row_words,
                0,
                simulate_unit,
            )?);
        }
        Platform::TpuLike => {
            for (i, slot) in FifoSlotMemory::all_slots(&network, spec.format, spec.seed)
                .into_iter()
                .enumerate()
            {
                blocks += slot.block_count();
                if slot.block_count() == 0 {
                    continue;
                }
                let slot = with_dwell(slot.with_repair(&spec.repair), dwell, &network);
                units.push(simulate_planned(
                    slot,
                    &spec.policy,
                    row_words,
                    i as u64,
                    simulate_unit,
                )?);
            }
        }
    }
    Some((units, blocks))
}

/// Runs one experiment with the paper-calibrated SNM model under the
/// execution budget `opts` ([`RunOptions`]: simulator threads,
/// exact-backend shard policy, cooperative cancellation, telemetry).
/// Both backends honour `opts.threads` (0 = all cores): the analytic
/// simulator shards cells, the exact simulator runs its word shards on
/// that many threads. The campaign executor passes each scenario its
/// slice of the two-level thread budget so scenario-level parallelism
/// isn't multiplied by cell-level parallelism.
///
/// Pure: the result is a deterministic function of the spec and the
/// resolved shard count alone (the DNN-Life TRBG draws are
/// counter-seeded from `spec.seed`), and bit-identical regardless of
/// thread count. Returns `None` iff `opts.cancel` was raised before the
/// run finished — the partial result is discarded, never observable.
///
/// # Panics
///
/// Panics on inconsistent specs (fp32 weights on the 8-bit NPU,
/// non-uniform dwell on the analytic backend, malformed dwell
/// parameters — see [`ExperimentSpec::is_valid`]).
pub fn run_experiment_with(spec: &ExperimentSpec, opts: &RunOptions) -> Option<ExperimentResult> {
    assert!(
        spec.is_valid(),
        "run_experiment_with: invalid spec (platform/format, backend/dwell): {spec:?}"
    );
    // The technology selects the degradation model and its natural
    // histogram range: SNM-degradation percent for SRAM (the SRAM model
    // delegates to `CalibratedSnmModel` bit-identically, so pre-axis
    // results are unchanged), percent-of-median-endurance consumed for
    // ReRAM. The degradation curve is die-independent (per-cell
    // threshold spread only affects injection fates), so the die seed
    // here is immaterial.
    let model: Box<dyn LifetimeModel> = match spec.tech {
        MemoryTech::SramNbti => Box::new(SramNbtiLifetime::paper()),
        MemoryTech::ReramEndurance => Box::new(ReramEnduranceLifetime::new(spec.policy_seed())),
    };
    let mut histogram = match spec.tech {
        MemoryTech::SramNbti => Histogram::new(SNM_HIST_LO, SNM_HIST_HI, SNM_HIST_BINS),
        MemoryTech::ReramEndurance => Histogram::new(RERAM_HIST_LO, RERAM_HIST_HI, RERAM_HIST_BINS),
    };
    let mut duty_summary = Summary::new();
    let mut snm_summary = Summary::new();

    let (units, blocks) = simulate_units(spec, spec.backend, opts)?;
    // Duty values repeat heavily — an exact-backend run can only
    // produce `writes + 1` distinct duties per dwell group — and
    // `degradation_percent` costs two `powf` calls per cell. A
    // direct-mapped cache on the duty's bit pattern reuses the
    // identical f64 result, so the aggregation stays bit-for-bit the
    // same while skipping almost every `powf` on exact runs.
    let mut memo = vec![(u64::MAX, 0.0f64); 1 << 12];
    for d in units.into_iter().flatten() {
        let bits = d.to_bits();
        let entry = &mut memo[(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize];
        let degradation = if entry.0 == bits {
            entry.1
        } else {
            let v = model.degradation_percent(d, spec.years);
            *entry = (bits, v);
            v
        };
        histogram.record(degradation);
        duty_summary.record(d);
        snm_summary.record(degradation);
    }

    Some(ExperimentResult {
        label: format!(
            "{:?}/{}/{}/{}{}",
            spec.platform,
            spec.network.display_name(),
            spec.format,
            spec.policy.display_name(),
            spec.variant_suffix()
        ),
        histogram,
        duty: duty_summary,
        snm: snm_summary,
        cells: duty_summary.count(),
        blocks_per_inference: blocks,
    })
}

/// Documented analytic↔exact agreement tolerance for deterministic
/// policies (none / inversion / barrel shifter) under uniform dwell:
/// the closed forms are exact, so per-cell duties match to floating-
/// point noise.
pub const CROSSVAL_DETERMINISTIC_TOL: f64 = 1e-9;

/// Documented analytic↔exact agreement tolerance on the *mean* duty
/// for the stochastic DNN-Life policy under uniform dwell: the
/// analytic backend collapses the TRBG into per-cell binomial draws,
/// so per-cell values differ but the distribution agrees; at the
/// campaign defaults (≥ 10³ sampled cells) the means agree well
/// within this bound.
pub const CROSSVAL_STOCHASTIC_MEAN_TOL: f64 = 0.02;

/// Outcome of one matched analytic/exact scenario pair
/// ([`cross_validate_with`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossValidation {
    /// Scenario label (with the dwell qualifier).
    pub label: String,
    /// Cells compared.
    pub cells: u64,
    /// Whether the policy is stochastic (DNN-Life): per-cell
    /// comparison is then between two different random streams and
    /// only distribution-level statistics are meaningful.
    pub stochastic: bool,
    /// Whether the exact side ran a non-uniform dwell model (the
    /// divergence then *measures* paper assumption (b)'s error rather
    /// than validating the closed forms).
    pub uniform_dwell: bool,
    /// Max per-cell |exact − analytic| duty divergence.
    pub max_abs_duty: f64,
    /// Mean per-cell |exact − analytic| duty divergence.
    pub mean_abs_duty: f64,
    /// Mean duty under the analytic backend (uniform dwell).
    pub mean_duty_analytic: f64,
    /// Mean duty under the exact backend (the spec's dwell model).
    pub mean_duty_exact: f64,
}

impl CrossValidation {
    /// Whether the pair agrees within the documented tolerances
    /// ([`CROSSVAL_DETERMINISTIC_TOL`] per cell for deterministic
    /// policies, [`CROSSVAL_STOCHASTIC_MEAN_TOL`] on the mean for
    /// DNN-Life). Only meaningful under uniform dwell — a non-uniform
    /// exact side is *expected* to diverge.
    pub fn within_tolerance(&self) -> bool {
        if self.stochastic {
            (self.mean_duty_exact - self.mean_duty_analytic).abs() < CROSSVAL_STOCHASTIC_MEAN_TOL
        } else {
            self.max_abs_duty < CROSSVAL_DETERMINISTIC_TOL
        }
    }
}

/// Runs the matched analytic/exact pair for `spec` under the budget
/// `opts` and reports per-cell duty divergence. The analytic side
/// always runs uniform dwell (its closed forms require assumption (b));
/// the exact side runs the spec's dwell model — so under
/// `DwellModel::Uniform` this cross-validates the two simulators, and
/// under a non-uniform model it quantifies how much the equal-residency
/// assumption distorts the duty cycles of this scenario. Both sides use
/// the memory plans, dwell application and transducer seeds that
/// [`run_experiment_with`] uses; cell order is identical on both sides
/// (sampled-word-major, slot by slot on the NPU).
///
/// The documented tolerances hold for every `opts.shards`:
/// deterministic policies are partition-invariant, and each DNN-Life
/// shard stream is identically distributed. Returns `None` iff
/// `opts.cancel` was raised before both sides finished — the exact side
/// polls at block granularity, so a raised token aborts a pair
/// mid-scenario rather than after its exact run completes.
///
/// # Panics
///
/// Panics if the spec's *exact* variant is invalid (see
/// [`ExperimentSpec::is_valid`]).
pub fn cross_validate_with(spec: &ExperimentSpec, opts: &RunOptions) -> Option<CrossValidation> {
    let mut exact_spec = spec.clone();
    exact_spec.backend = SimulatorBackend::Exact;
    assert!(
        exact_spec.is_valid(),
        "cross_validate_with: invalid spec {spec:?}"
    );
    let (analytic, _) = simulate_units(spec, SimulatorBackend::Analytic, opts)?;
    let (exact, _) = simulate_units(&exact_spec, SimulatorBackend::Exact, opts)?;
    let (analytic, exact) = (analytic.concat(), exact.concat());
    assert_eq!(analytic.len(), exact.len(), "backend cell counts differ");

    let cells = analytic.len() as u64;
    let mut max_abs: f64 = 0.0;
    let mut sum_abs = 0.0;
    let (mut sum_a, mut sum_e) = (0.0, 0.0);
    for (a, e) in analytic.iter().zip(&exact) {
        max_abs = max_abs.max((e - a).abs());
        sum_abs += (e - a).abs();
        sum_a += a;
        sum_e += e;
    }
    let n = (cells as f64).max(1.0);
    Some(CrossValidation {
        label: format!(
            "{:?}/{}/{}/{} [dwell={}]",
            spec.platform,
            spec.network.display_name(),
            spec.format,
            spec.policy.display_name(),
            spec.dwell.display_name()
        ),
        cells,
        stochastic: matches!(spec.policy, PolicySpec::DnnLife { .. }),
        uniform_dwell: spec.dwell.is_uniform(),
        max_abs_duty: max_abs,
        mean_abs_duty: sum_abs / n,
        mean_duty_analytic: sum_a / n,
        mean_duty_exact: sum_e / n,
    })
}

/// The six policies of Fig. 9, in the paper's order.
pub fn fig9_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::None,
        PolicySpec::Inversion,
        PolicySpec::BarrelShifter,
        PolicySpec::DnnLife {
            bias: 0.5,
            bias_balancing: true,
            m_bits: 4,
        },
        PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: false,
            m_bits: 4,
        },
        PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: true,
            m_bits: 4,
        },
    ]
}

/// The four policies of Fig. 11, in the paper's order.
pub fn fig11_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::None,
        PolicySpec::Inversion,
        PolicySpec::BarrelShifter,
        PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: true,
            m_bits: 4,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(policy: PolicySpec) -> ExperimentSpec {
        ExperimentSpec {
            platform: Platform::TpuLike,
            network: NetworkKind::CustomMnist,
            format: NumberFormat::Int8Symmetric,
            policy,
            inferences: 100,
            years: 7.0,
            seed: 42,
            sample_stride: 16,
            backend: SimulatorBackend::Analytic,
            dwell: DwellModel::Uniform,
            repair: RepairPolicy::None,
            tech: MemoryTech::SramNbti,
        }
    }

    fn run(spec: &ExperimentSpec) -> ExperimentResult {
        run_experiment_with(spec, &RunOptions::default()).expect("no cancel token")
    }

    fn validate(spec: &ExperimentSpec) -> CrossValidation {
        cross_validate_with(spec, &RunOptions::default()).expect("no cancel token")
    }

    fn quick(policy: PolicySpec) -> ExperimentResult {
        run(&quick_spec(policy))
    }

    #[test]
    fn dnn_life_beats_baselines_on_npu_custom() {
        let none = quick(PolicySpec::None);
        let inversion = quick(PolicySpec::Inversion);
        let dnn_life = quick(PolicySpec::DnnLife {
            bias: 0.5,
            bias_balancing: true,
            m_bits: 4,
        });
        assert!(dnn_life.snm.mean() < none.snm.mean());
        assert!(dnn_life.snm.mean() < inversion.snm.mean());
    }

    #[test]
    fn dnn_life_converges_to_optimum_with_lifetime_writes() {
        // The custom network cycles only K=2 blocks per FIFO slot, so
        // 100 inferences leave visible binomial spread in the duty
        // estimate; over a realistic lifetime write count the randomised
        // inversion drives every cell to the optimum (Fig. 11 panels
        // 7-9).
        let mut spec = quick_spec(PolicySpec::DnnLife {
            bias: 0.5,
            bias_balancing: true,
            m_bits: 4,
        });
        spec.inferences = 4000;
        let result = run(&spec);
        assert!(
            result.percent_near_optimal(0.5) > 99.0,
            "only {:.2}% near optimal",
            result.percent_near_optimal(0.5)
        );
    }

    #[test]
    fn histogram_covers_all_cells() {
        let r = quick(PolicySpec::None);
        assert_eq!(r.histogram.total(), r.cells);
        assert!(r.cells > 0);
        // 4 slots × 64Ki words / 16 stride × 8 bits.
        assert_eq!(r.cells, 4 * 4096 * 8);
    }

    #[test]
    fn duty_bounds_respected() {
        let r = quick(PolicySpec::BarrelShifter);
        assert!(r.duty.min() >= 0.0 && r.duty.max() <= 1.0);
        assert!(r.snm.min() >= 10.0 && r.snm.max() <= 27.0);
    }

    #[test]
    fn policy_lists_match_paper() {
        assert_eq!(fig9_policies().len(), 6);
        assert_eq!(fig11_policies().len(), 4);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ExperimentSpec::fig9(
            NumberFormat::Fp32,
            PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits: 4,
            },
            0xDEAD_BEEF_CAFE_F00D,
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.content_key(), spec.content_key());
    }

    #[test]
    fn content_hash_distinguishes_every_field() {
        let base = ExperimentSpec::fig11(NetworkKind::CustomMnist, PolicySpec::None, 1);
        let mut other = base.clone();
        other.seed = 2;
        assert_ne!(base.content_hash(), other.content_hash());
        let mut other = base.clone();
        other.years = 8.0;
        assert_ne!(base.content_hash(), other.content_hash());
        let mut other = base.clone();
        other.policy = PolicySpec::Inversion;
        assert_ne!(base.content_hash(), other.content_hash());
        assert_eq!(base.content_hash(), base.clone().content_hash());
        assert_eq!(base.content_key().len(), 16);
    }

    #[test]
    fn result_round_trips_through_json() {
        let result = quick(PolicySpec::BarrelShifter);
        let json = serde_json::to_string(&result).unwrap();
        let back: ExperimentResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result);
    }

    #[test]
    fn npu_validity_rejects_fp32() {
        let mut spec = ExperimentSpec::fig11(NetworkKind::CustomMnist, PolicySpec::None, 1);
        assert!(spec.is_valid());
        spec.format = NumberFormat::Fp32;
        assert!(!spec.is_valid());
        spec.platform = Platform::Baseline;
        assert!(spec.is_valid());
    }

    #[test]
    fn labels_are_informative() {
        let r = quick(PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: false,
            m_bits: 4,
        });
        assert!(r.label.contains("without Bias Balancing"));
        assert!(r.label.contains("Custom (MNIST)"));
    }

    #[test]
    fn backend_and_dwell_serde_round_trip() {
        let mut spec = quick_spec(PolicySpec::None);
        spec.backend = SimulatorBackend::Exact;
        spec.dwell = DwellModel::Zipf { exponent: 1.25 };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        spec.dwell = DwellModel::Custom {
            factors: vec![1.0, 2.0, 0.5, 1.0],
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn legacy_spec_json_parses_and_keeps_its_content_hash() {
        // A record written before the backend/dwell axes existed: no
        // `backend`/`dwell` keys. It must parse with the defaults, and
        // — because defaults are omitted on serialization — re-encode
        // to the same canonical JSON, so its content hash (the store
        // key) is unchanged by the schema growth.
        let spec = quick_spec(PolicySpec::Inversion);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(
            !json.contains("backend") && !json.contains("dwell"),
            "{json}"
        );
        let legacy: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(legacy, spec);
        assert_eq!(legacy.content_key(), spec.content_key());
        // Off-default axes do serialize (and so change the hash).
        let mut exact = spec.clone();
        exact.backend = SimulatorBackend::Exact;
        let json = serde_json::to_string(&exact).unwrap();
        assert!(json.contains("backend"), "{json}");
    }

    #[test]
    fn content_hash_tracks_backend_and_dwell_axes() {
        let base = quick_spec(PolicySpec::None);
        let mut exact = base.clone();
        exact.backend = SimulatorBackend::Exact;
        assert_ne!(base.content_hash(), exact.content_hash());
        let mut dwelled = exact.clone();
        dwelled.dwell = DwellModel::LayerProportional;
        assert_ne!(exact.content_hash(), dwelled.content_hash());
        // Backend is a method, not a coordinate: matched pairs share
        // coordinates. Dwell is physical: coordinates differ.
        assert_eq!(base.coordinate_hash(), exact.coordinate_hash());
        assert_ne!(exact.coordinate_hash(), dwelled.coordinate_hash());
    }

    #[test]
    fn validity_gates_backend_dwell_combinations() {
        let mut spec = quick_spec(PolicySpec::None);
        assert!(spec.is_valid());
        spec.dwell = DwellModel::LayerProportional;
        assert!(!spec.is_valid(), "analytic cannot run non-uniform dwell");
        spec.backend = SimulatorBackend::Exact;
        assert!(spec.is_valid());
        spec.dwell = DwellModel::Zipf { exponent: -1.0 };
        assert!(!spec.is_valid(), "negative zipf exponent");
        spec.dwell = DwellModel::Custom {
            factors: vec![1.0, 2.0],
        };
        assert!(!spec.is_valid(), "custom factors must match layer count");
        spec.dwell = DwellModel::Custom {
            factors: vec![1.0, 2.0, 0.5, 1.0],
        };
        assert!(spec.is_valid(), "custom_mnist has 4 layers");
    }

    #[test]
    fn exact_backend_runs_and_labels_variants() {
        let mut spec = quick_spec(PolicySpec::None);
        spec.backend = SimulatorBackend::Exact;
        spec.sample_stride = 256;
        spec.inferences = 4;
        let r = run(&spec);
        assert!(r.cells > 0);
        assert!(r.label.ends_with("[exact]"), "label: {}", r.label);
        spec.dwell = DwellModel::Zipf { exponent: 1.0 };
        let r = run(&spec);
        assert!(
            r.label.contains("[exact, dwell=zipf(1.00)]"),
            "label: {}",
            r.label
        );
    }

    #[test]
    fn repair_axis_hashes_serializes_and_validates() {
        let base = quick_spec(PolicySpec::None);
        // Legacy byte-compat: a no-repair spec serializes without the
        // field, so its content hash (the store key) is unchanged by
        // the schema growth.
        let json = serde_json::to_string(&base).unwrap();
        assert!(!json.contains("repair"), "{json}");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, base);
        assert_eq!(back.content_key(), base.content_key());

        // The axis is hashed, serialized and round-trips when set.
        let mut ecc = base.clone();
        ecc.repair = RepairPolicy::Secded { interleave: 1 };
        assert_ne!(base.content_hash(), ecc.content_hash());
        let json = serde_json::to_string(&ecc).unwrap();
        assert!(json.contains("repair"), "{json}");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ecc);
        // Distinct interleaves are distinct scenarios.
        let mut scattered = ecc.clone();
        scattered.repair = RepairPolicy::Secded { interleave: 5 };
        assert_ne!(ecc.content_hash(), scattered.content_hash());
        // Repair is a physical coordinate (unlike the backend).
        assert_ne!(base.coordinate_hash(), ecc.coordinate_hash());

        // Validity: the interleave must be coprime with the codeword
        // width (13 for 8-bit formats, 39 for fp32).
        assert!(ecc.is_valid());
        let mut bad = ecc.clone();
        bad.repair = RepairPolicy::Secded { interleave: 13 };
        assert!(!bad.is_valid(), "13 shares a factor with width 13");
        let mut fp32 = ExperimentSpec::fig9(NumberFormat::Fp32, PolicySpec::None, 1);
        fp32.repair = RepairPolicy::Secded { interleave: 3 };
        assert!(!fp32.is_valid(), "3 divides the fp32 codeword width 39");
        fp32.repair = RepairPolicy::Secded { interleave: 2 };
        assert!(fp32.is_valid());

        // Labels carry the qualifier.
        assert_eq!(ecc.variant_suffix(), " [ecc=secded]");
        assert_eq!(scattered.variant_suffix(), " [ecc=secded:5]");
        let mut exact = ecc.clone();
        exact.backend = SimulatorBackend::Exact;
        assert_eq!(exact.variant_suffix(), " [exact, ecc=secded]");
        assert_eq!(base.variant_suffix(), "");
    }

    #[test]
    fn experiment_with_repair_ages_parity_cells() {
        let mut spec = quick_spec(PolicySpec::Inversion);
        spec.repair = RepairPolicy::Secded { interleave: 1 };
        let plain = quick(PolicySpec::Inversion);
        let ecc = run(&spec);
        // 13/8 the simulated cells: the parity columns are aged too.
        assert_eq!(ecc.cells, plain.cells / 8 * 13);
        assert!(ecc.label.contains("[ecc=secded]"), "{}", ecc.label);
        assert_eq!(ecc.histogram.total(), ecc.cells);
    }

    #[test]
    fn repair_axis_runs_on_the_exact_backend_too() {
        let mut spec = quick_spec(PolicySpec::BarrelShifter);
        spec.repair = RepairPolicy::Secded { interleave: 1 };
        spec.sample_stride = 256;
        spec.inferences = 4;
        let cv = validate(&spec);
        assert!(
            cv.within_tolerance(),
            "{}: max |Δduty| = {} — the closed forms must stay exact over \
             13-bit codewords",
            cv.label,
            cv.max_abs_duty
        );
    }

    #[test]
    fn tech_axis_hashes_serializes_and_labels() {
        let base = quick_spec(PolicySpec::None);
        // Legacy byte-compat: the default technology serializes without
        // the field, so pre-axis store keys are unchanged.
        let json = serde_json::to_string(&base).unwrap();
        assert!(!json.contains("tech"), "{json}");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, base);
        assert_eq!(back.content_key(), base.content_key());

        // The reram axis serializes, round-trips and re-keys.
        let mut reram = base.clone();
        reram.tech = MemoryTech::ReramEndurance;
        assert_ne!(base.content_hash(), reram.content_hash());
        let json = serde_json::to_string(&reram).unwrap();
        assert!(json.contains("\"tech\":\"reram\""), "{json}");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reram);
        // Tech is a physical coordinate (unlike the backend).
        assert_ne!(base.coordinate_hash(), reram.coordinate_hash());
        assert_eq!(reram.variant_suffix(), " [tech=reram]");
        assert!(reram.is_valid());
    }

    #[test]
    fn reram_experiment_reports_wear_percent() {
        let mut spec = quick_spec(PolicySpec::None);
        spec.tech = MemoryTech::ReramEndurance;
        let r = run(&spec);
        assert_eq!(r.histogram.total(), r.cells);
        assert!(r.cells > 0);
        // Wear percent saturates at 100, never leaves [0, 100].
        assert!(r.snm.min() >= 0.0 && r.snm.max() <= 100.0);
        // Duty cycles are technology-independent: the same simulation
        // feeds both degradation models.
        let sram = quick(PolicySpec::None);
        assert_eq!(r.duty, sram.duty);
        assert!(r.label.contains("[tech=reram]"), "{}", r.label);
    }

    #[test]
    fn crossbar_platform_runs_and_requires_8_bit() {
        let mut spec = quick_spec(PolicySpec::None);
        spec.platform = Platform::Crossbar;
        assert!(spec.is_valid());
        let r = run(&spec);
        // 131072 words / 16 stride × 8 bits.
        assert_eq!(r.cells, 131_072 / 16 * 8);
        assert_eq!(r.blocks_per_inference, 2);
        spec.format = NumberFormat::Fp32;
        assert!(!spec.is_valid(), "the crossbar slices 8-bit weights");
    }

    #[test]
    fn wear_level_policy_narrows_duty_spread_and_keeps_the_mean() {
        let mut spec = quick_spec(PolicySpec::None);
        spec.platform = Platform::Crossbar;
        spec.sample_stride = 1;
        let none = run(&spec);
        spec.policy = PolicySpec::WearLevel { epochs: 4 };
        let wl = run(&spec);
        assert_eq!(none.cells, wl.cells);
        // Rotation only moves bits between cells: mean duty is exactly
        // preserved, and the per-cell extremes never widen. The min/max
        // range itself can stay [0, 1] — over 4 epochs a handful of the
        // 64Ki cells see the same bit value in every epoch — so the
        // contraction is asserted on the standard deviation, which the
        // epoch averaging pulls toward the mean for every mixed cell.
        assert!((wl.duty.mean() - none.duty.mean()).abs() < 1e-12);
        assert!(wl.duty.max() <= none.duty.max() + 1e-12);
        assert!(wl.duty.min() >= none.duty.min() - 1e-12);
        assert!(
            wl.duty.std_dev() < 0.75 * none.duty.std_dev(),
            "rotation must narrow the duty spread: σ {} vs {}",
            wl.duty.std_dev(),
            none.duty.std_dev()
        );
    }

    #[test]
    fn wear_level_cross_validates_between_backends() {
        let mut spec = quick_spec(PolicySpec::WearLevel { epochs: 4 });
        spec.sample_stride = 256;
        spec.inferences = 4;
        let cv = validate(&spec);
        assert!(!cv.stochastic, "the remap is deterministic");
        assert!(
            cv.within_tolerance(),
            "{}: max |Δduty| = {}",
            cv.label,
            cv.max_abs_duty
        );
    }

    #[test]
    fn wear_level_validity_requires_epochs_and_uniform_dwell() {
        let mut spec = quick_spec(PolicySpec::WearLevel { epochs: 4 });
        assert!(spec.is_valid());
        spec.policy = PolicySpec::WearLevel { epochs: 0 };
        assert!(!spec.is_valid(), "zero epochs");
        spec.policy = PolicySpec::WearLevel { epochs: 4 };
        spec.backend = SimulatorBackend::Exact;
        spec.dwell = DwellModel::LayerProportional;
        assert!(!spec.is_valid(), "the rotation assumes equal residency");
    }

    #[test]
    fn dwell_model_parse_round_trips() {
        assert_eq!(DwellModel::parse("uniform"), Some(DwellModel::Uniform));
        assert_eq!(
            DwellModel::parse("layer"),
            Some(DwellModel::LayerProportional)
        );
        assert_eq!(
            DwellModel::parse("zipf"),
            Some(DwellModel::Zipf { exponent: 1.0 })
        );
        assert_eq!(
            DwellModel::parse("zipf:0.5"),
            Some(DwellModel::Zipf { exponent: 0.5 })
        );
        assert_eq!(
            DwellModel::parse("custom:1,2,0.5,1"),
            Some(DwellModel::Custom {
                factors: vec![1.0, 2.0, 0.5, 1.0]
            })
        );
        assert_eq!(DwellModel::parse("bogus"), None);
        assert_eq!(DwellModel::parse("custom:1,x"), None);
        assert_eq!(
            SimulatorBackend::parse("exact"),
            Some(SimulatorBackend::Exact)
        );
        assert_eq!(SimulatorBackend::parse("fancy"), None);
    }

    #[test]
    fn shard_policy_resolution_and_parsing() {
        assert_eq!(ShardPolicy::Auto.resolve(1), 1);
        assert_eq!(ShardPolicy::Auto.resolve(4096), 1);
        assert_eq!(ShardPolicy::Auto.resolve(4097), 2);
        assert_eq!(
            ShardPolicy::Auto.resolve(usize::MAX),
            ShardPolicy::AUTO_MAX_SHARDS
        );
        assert_eq!(ShardPolicy::Fixed(8).resolve(10), 8);
        assert_eq!(
            ShardPolicy::Fixed(0).resolve(10),
            1,
            "zero clamps to one shard"
        );
        assert_eq!(ShardPolicy::parse("auto"), Some(ShardPolicy::Auto));
        assert_eq!(ShardPolicy::parse("4"), Some(ShardPolicy::Fixed(4)));
        assert_eq!(ShardPolicy::parse("0"), None);
        assert_eq!(ShardPolicy::parse("many"), None);
        assert_eq!(ShardPolicy::Auto.display_name(), "auto");
        assert_eq!(ShardPolicy::Fixed(4).display_name(), "4");
    }

    #[test]
    fn sharded_exact_run_is_deterministic_and_thread_invariant() {
        let mut spec = quick_spec(PolicySpec::DnnLife {
            bias: 0.7,
            bias_balancing: true,
            m_bits: 4,
        });
        spec.backend = SimulatorBackend::Exact;
        spec.sample_stride = 64;
        spec.inferences = 6;
        let run = |threads: usize| {
            run_experiment_with(
                &spec,
                &RunOptions {
                    threads,
                    shards: ShardPolicy::Fixed(8),
                    ..RunOptions::default()
                },
            )
            .expect("not cancelled")
        };
        assert_eq!(run(1), run(4), "thread count must never be semantic");
    }

    #[test]
    fn cancelled_run_returns_none() {
        let mut spec = quick_spec(PolicySpec::None);
        spec.backend = SimulatorBackend::Exact;
        spec.sample_stride = 64;
        let flag = AtomicBool::new(true);
        let opts = RunOptions {
            threads: 1,
            shards: ShardPolicy::Auto,
            cancel: Some(&flag),
            ..RunOptions::default()
        };
        assert_eq!(run_experiment_with(&spec, &opts), None);
    }

    #[test]
    fn cross_validate_deterministic_policies_agree() {
        for policy in [
            PolicySpec::None,
            PolicySpec::Inversion,
            PolicySpec::BarrelShifter,
        ] {
            let mut spec = quick_spec(policy);
            spec.sample_stride = 256;
            spec.inferences = 6;
            let cv = validate(&spec);
            assert!(!cv.stochastic);
            assert!(cv.uniform_dwell);
            assert!(
                cv.within_tolerance(),
                "{}: max |Δduty| = {}",
                cv.label,
                cv.max_abs_duty
            );
        }
    }

    #[test]
    fn network_kind_parse_round_trips_and_enumerates() {
        for network in NetworkKind::ALL {
            assert_eq!(NetworkKind::parse(network.cli_name()), Ok(network));
        }
        assert_eq!(NetworkKind::parse("VGG-16"), Ok(NetworkKind::Vgg16));
        assert_eq!(NetworkKind::parse("mnist"), Ok(NetworkKind::CustomMnist));
        let err = NetworkKind::parse("lenet").unwrap_err();
        assert!(
            err.contains("alexnet") && err.contains("vgg16") && err.contains("custom-mnist"),
            "error must enumerate valid values: {err}"
        );
    }

    #[test]
    fn cross_validate_reports_assumption_b_divergence() {
        let mut spec = quick_spec(PolicySpec::None);
        spec.sample_stride = 256;
        spec.inferences = 6;
        spec.backend = SimulatorBackend::Exact;
        spec.dwell = DwellModel::LayerProportional;
        let cv = validate(&spec);
        assert!(!cv.uniform_dwell);
        assert!(
            cv.max_abs_duty > 0.01,
            "non-uniform dwell should diverge from the uniform closed form, got {}",
            cv.max_abs_duty
        );
    }
}
