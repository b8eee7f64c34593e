//! The traced run: every scenario runs serially on one thread, and the
//! benchmark times the public entry point of each crate (layer) on that
//! scenario's own inputs, from outside the program. The end-to-end run
//! is untouched: its wall and CPU time come from a separate untraced
//! process and enter here only as the base of two ratios.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dnnlife_accel::{
    simulate_analytic, simulate_exact_sharded, AcceleratorConfig, AnalyticSimConfig, BlockSource,
    ExactShardConfig, FifoSlotMemory, FlatWeightMemory,
};
use dnnlife_campaign::aggregate::{fig11_table, fig9_table};
use dnnlife_campaign::{
    accuracy_vs_age_table, ecc_comparison_table, CampaignGrid, InjectionGrid, InjectionStore,
    ResultStore,
};
use dnnlife_core::experiment::{run_experiment_with, RunOptions, ShardPolicy};
use dnnlife_core::experiment::{Platform, PolicySpec};
use dnnlife_core::{ExperimentSpec, FaultInjectionSpec, MemoryTech, SimulatorBackend};
use dnnlife_faultsim::inject::HOLDOUT_OFFSET;
use dnnlife_faultsim::network::TRAIN_BATCH;
use dnnlife_faultsim::{run_injection, InjectOptions, TrainedNetwork, WeightCellDuties};
use dnnlife_mitigation::{
    AgingController, BarrelShifter, DnnLife, Passthrough, PeriodicInversion, PseudoTrbg,
    WriteTransducer,
};
use dnnlife_nn::data::{adapt_batch, MnistSource};
use dnnlife_nn::exec;
use dnnlife_nn::train::accuracy;
use dnnlife_nn::weights::LayerWeightGen;
use dnnlife_nn::zoo::apply_layer_weights;
use dnnlife_nn::{LayerSpec, NetworkSpec, Sequential, Tensor};
use dnnlife_sram::{CalibratedSnmModel, ReadFailureModel};

use crate::check::Failure;
use crate::workload::Campaign;

/// Weights per layer the plan builders sweep to calibrate a quantizer
/// (the memory plans' range-calibration cap).
const RANGE_CAP: u64 = 1_000_000;

/// Timed repeats of each single-layer call; the median is reported.
const LAYER_REPEATS: usize = 5;

/// Per-layer metrics by name, in report order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Every metric the traced run reports, at 0: a workload that
    /// leaves a layer idle reports that layer as 0.
    pub fn zeroed() -> Self {
        let mut names: Vec<String> = [
            "accel.plan.build_ms",
            "nn.weights.range_ms",
            "nn.weights.range_weights",
            "nn.weights.range_mweights_per_s",
            "accel.exact.sim_ms",
            "accel.exact.words",
            "accel.exact.mwords_per_s",
            "accel.analytic.sim_ms",
            "accel.analytic.cells",
            "accel.analytic.mcells_per_s",
            "core.experiment.scenario_ms_sum",
            "core.experiment.scenario_ms_p50",
            "core.experiment.scenario_ms_max",
            "core.experiment.residual_ms",
            "core.experiment.coverage",
            "campaign.executor.efficiency",
            "campaign.store.read_ms",
            "campaign.store.bytes",
            "faultsim.train_ms",
            "faultsim.duty_ms",
            "faultsim.fail_probs_ms",
            "faultsim.cell_ms",
            "faultsim.residual_ms",
            "faultsim.coverage",
            "faultsim.flipped_bits",
            "quant.ecc.corrected_words",
            "nn.score_ms",
            "nn.score_images_per_s",
        ]
        .map(String::from)
        .to_vec();
        // The custom MNIST network is the one network a workload scores.
        for layer in NetworkSpec::custom_mnist().layers() {
            for metric in ["forward_ms", "forward_gmac_per_s", "backward_ms"] {
                names.push(format!("nn.layer.{}.{metric}", layer.name()));
            }
        }
        names.push("nn.layer.coverage".into());
        names.push("trace.overhead".into());
        Self(names.into_iter().map(|name| (name, 0.0)).collect())
    }

    /// Sets a metric `zeroed` lists.
    ///
    /// # Panics
    ///
    /// Panics on a name [`Metrics::zeroed`] does not list.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in Metrics::zeroed"));
        slot.1 = value;
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every metric, in report order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// The untraced run the traced one is set against.
#[derive(Debug, Clone)]
pub struct Untraced<'a> {
    /// Wall seconds of the campaign call.
    pub wall_s: f64,
    /// User + system CPU seconds of the campaign call.
    pub cpu_s: f64,
    /// The call's thread budget.
    pub threads: usize,
    /// The store the call finished.
    pub store: &'a Path,
}

/// The traced run's metrics and the decomposition's own failures.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Every metric of [`Metrics::zeroed`].
    pub metrics: Metrics,
    /// Places where the decomposition did not reproduce the program.
    pub failures: Vec<Failure>,
}

/// Runs the traced decomposition of `campaign`. Call it in a fresh
/// process: `faultsim.train_ms` times training on a cold memo.
pub fn trace_campaign(campaign: &Campaign, untraced: &Untraced) -> Traced {
    let mut metrics = Metrics::zeroed();
    let mut failures = Vec::new();
    let traced_ms = exec::with_budget(1, || match campaign {
        Campaign::Sweep(grid) => trace_sweep(grid, &mut metrics, &mut failures),
        Campaign::Inject(grid) => trace_inject(grid, &mut metrics, &mut failures),
    });
    match store_read(campaign, untraced.store) {
        Ok((ms, bytes)) => {
            metrics.set("campaign.store.read_ms", ms);
            metrics.set("campaign.store.bytes", bytes as f64);
        }
        Err(e) => failures.push(Failure::new("store", format!("store read: {e}"))),
    }
    let traced_s = traced_ms / 1e3;
    metrics.set(
        "campaign.executor.efficiency",
        ratio(traced_s, untraced.wall_s * untraced.threads as f64),
    );
    metrics.set("trace.overhead", ratio(traced_s, untraced.cpu_s));
    Traced { metrics, failures }
}

/// `f`'s result and its wall time in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed().as_secs_f64() * 1e3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// A scenario's memory plan, built the way `run_experiment_with` builds it.
enum Plan {
    Flat(FlatWeightMemory),
    Fifo(Vec<FifoSlotMemory>),
}

impl Plan {
    fn build(spec: &ExperimentSpec) -> Self {
        let network = spec.network.spec();
        match spec.platform {
            Platform::Baseline | Platform::Crossbar => {
                let config = match spec.platform {
                    Platform::Baseline => AcceleratorConfig::baseline(),
                    _ => AcceleratorConfig::crossbar(),
                };
                Plan::Flat(
                    FlatWeightMemory::new(&config, &network, spec.format, spec.seed)
                        .with_repair(&spec.repair),
                )
            }
            Platform::TpuLike => Plan::Fifo(
                FifoSlotMemory::all_slots(&network, spec.format, spec.seed)
                    .into_iter()
                    .map(|slot| slot.with_repair(&spec.repair))
                    .collect(),
            ),
        }
    }

    /// The memory units a simulator runs, with the unit index that
    /// offsets each unit's TRBG seed; empty FIFO slots are skipped.
    fn units(&self) -> Vec<(u64, &dyn BlockSource)> {
        match self {
            Plan::Flat(mem) => vec![(0, mem as &dyn BlockSource)],
            Plan::Fifo(slots) => slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.block_count() > 0)
                .map(|(i, slot)| (i as u64, slot as &dyn BlockSource))
                .collect(),
        }
    }
}

/// The exact simulator's write transducer for `spec` on one unit, built
/// as `run_experiment_with` builds it (that builder is private to the
/// core crate). A drift between the two shows as a cell-count failure.
fn transducer(
    spec: &ExperimentSpec,
    width: u32,
    words: usize,
    unit: u64,
) -> Box<dyn WriteTransducer> {
    match spec.policy {
        PolicySpec::None => Box::new(Passthrough::new(width)),
        PolicySpec::Inversion => Box::new(PeriodicInversion::new(width, words)),
        PolicySpec::BarrelShifter => Box::new(BarrelShifter::new(width, words)),
        PolicySpec::DnnLife {
            bias,
            bias_balancing,
            m_bits,
        } => {
            let trbg = PseudoTrbg::new(spec.policy_seed().wrapping_add(unit), bias);
            let controller = if bias_balancing {
                AgingController::new(trbg, m_bits)
            } else {
                AgingController::without_balancing(trbg)
            };
            Box::new(DnnLife::new(width, controller))
        }
        PolicySpec::WearLevel { .. } => {
            panic!("no benchmark workload runs wear leveling on the exact backend")
        }
    }
}

/// Times `run_experiment_with` on each scenario, then its plan build,
/// range calibration and simulation separately. Returns the summed
/// scenario time in ms.
fn trace_sweep(grid: &CampaignGrid, m: &mut Metrics, failures: &mut Vec<Failure>) -> f64 {
    let mut scenario_ms = Vec::with_capacity(grid.len());
    let (mut plan_ms, mut range_ms, mut range_weights) = (0.0, 0.0, 0u64);
    let (mut exact_ms, mut exact_words) = (0.0, 0u64);
    let (mut analytic_ms, mut analytic_cells) = (0.0, 0u64);
    for spec in &grid.scenarios {
        let opts = RunOptions {
            threads: 1,
            ..RunOptions::default()
        };
        let (result, ms) = timed(|| run_experiment_with(spec, &opts).expect("no cancel token"));
        scenario_ms.push(ms);

        let (plan, ms) = timed(|| Plan::build(spec));
        plan_ms += ms;
        let network = spec.network.spec();
        let (sampled, ms) = timed(|| {
            (0..network.layers().len())
                .map(|li| {
                    LayerWeightGen::new(&network, li, spec.seed)
                        .range(RANGE_CAP)
                        .sampled
                })
                .sum::<u64>()
        });
        range_ms += ms;
        range_weights += sampled;

        let mut cells = 0u64;
        for (unit, source) in plan.units() {
            let geo = source.geometry();
            let sampled_words = geo.words.div_ceil(spec.sample_stride);
            let shards = ShardPolicy::default().resolve(sampled_words);
            match spec.backend {
                SimulatorBackend::Analytic => {
                    let cfg = AnalyticSimConfig {
                        inferences: spec.inferences,
                        sample_stride: spec.sample_stride,
                        threads: 1,
                        shards,
                    };
                    let policy = spec.policy.analytic(spec.policy_seed());
                    let (duties, ms) = timed(|| simulate_analytic(source, &policy, &cfg));
                    analytic_ms += ms;
                    analytic_cells += duties.len() as u64;
                    cells += duties.len() as u64;
                }
                SimulatorBackend::Exact => {
                    let prototype = transducer(spec, geo.word_bits, geo.words, unit);
                    let cfg = ExactShardConfig {
                        shards,
                        threads: 1,
                        ..ExactShardConfig::default()
                    };
                    let (duties, ms) = timed(|| {
                        simulate_exact_sharded(
                            source,
                            prototype.as_ref(),
                            spec.inferences,
                            spec.sample_stride,
                            &cfg,
                        )
                        .expect("no cancel token")
                    });
                    exact_ms += ms;
                    exact_words += sampled_words as u64 * source.block_count() * spec.inferences;
                    cells += duties.len() as u64;
                }
            }
        }
        if cells != result.cells {
            failures.push(Failure::new(
                spec.content_key(),
                format!(
                    "traced simulation gave {cells} cells, run_experiment_with {}",
                    result.cells
                ),
            ));
        }
    }
    let total_ms: f64 = scenario_ms.iter().sum();
    let max_ms = scenario_ms.iter().copied().fold(0.0, f64::max);
    m.set("accel.plan.build_ms", plan_ms);
    m.set("nn.weights.range_ms", range_ms);
    m.set("nn.weights.range_weights", range_weights as f64);
    m.set(
        "nn.weights.range_mweights_per_s",
        ratio(range_weights as f64 / 1e6, range_ms / 1e3),
    );
    m.set("accel.exact.sim_ms", exact_ms);
    m.set("accel.exact.words", exact_words as f64);
    m.set(
        "accel.exact.mwords_per_s",
        ratio(exact_words as f64 / 1e6, exact_ms / 1e3),
    );
    m.set("accel.analytic.sim_ms", analytic_ms);
    m.set("accel.analytic.cells", analytic_cells as f64);
    m.set(
        "accel.analytic.mcells_per_s",
        ratio(analytic_cells as f64 / 1e6, analytic_ms / 1e3),
    );
    m.set("core.experiment.scenario_ms_sum", total_ms);
    m.set("core.experiment.scenario_ms_p50", median(&mut scenario_ms));
    m.set("core.experiment.scenario_ms_max", max_ms);
    let timed_parts = plan_ms + exact_ms + analytic_ms;
    m.set("core.experiment.residual_ms", total_ms - timed_parts);
    m.set("core.experiment.coverage", ratio(timed_parts, total_ms));
    total_ms
}

/// The held-out evaluation batch `run_injection` scores on.
fn eval_batch(spec: &FaultInjectionSpec, network: &NetworkSpec) -> (Tensor, Vec<usize>) {
    let (images, labels) =
        MnistSource::from_env(spec.eval_seed()).batch(HOLDOUT_OFFSET, spec.eval_images as usize);
    (adapt_batch(&images, network.input_shape()), labels)
}

/// Trains on a cold memo, then times `run_injection` on each cell and
/// its duty simulation, failure probabilities and clean scoring
/// separately. Returns training plus summed cell time in ms.
fn trace_inject(grid: &InjectionGrid, m: &mut Metrics, failures: &mut Vec<Failure>) -> f64 {
    let Some(first) = grid.specs.first() else {
        return 0.0;
    };
    let (trained, train_ms) =
        timed(|| TrainedNetwork::train(first, None).expect("no cancel token"));
    let snm = CalibratedSnmModel::paper();
    let (mut cell_ms, mut duty_ms, mut fail_ms, mut score_total_ms) = (0.0, 0.0, 0.0, 0.0);
    let mut score_ms = Vec::with_capacity(grid.len());
    let (mut flipped_bits, mut corrected_words) = (0.0, 0.0);
    for spec in &grid.specs {
        let opts = InjectOptions {
            threads: 1,
            ..InjectOptions::default()
        };
        let (result, ms) = timed(|| run_injection(spec, &opts).expect("no cancel token"));
        cell_ms += ms;
        let trials = f64::from(spec.trials);
        for age in &result.ages {
            flipped_bits += age.mean_flipped_bits * trials;
            corrected_words += age.ecc.as_ref().map_or(0.0, |e| e.mean_corrected_words) * trials;
        }

        let ((duties, quantizers), ms) =
            timed(|| WeightCellDuties::compute(&spec.scenario, trained.layer_weights(), 1, 0));
        duty_ms += ms;
        if spec.scenario.tech == MemoryTech::SramNbti {
            let model = ReadFailureModel {
                noise_sigma_mv: spec.noise_sigma_mv,
                ..ReadFailureModel::default_65nm()
            };
            for &years in &spec.ages_years {
                fail_ms += timed(|| duties.failure_probabilities(&snm, &model, years)).1;
            }
        }

        let network = spec.scenario.network.spec();
        let clean: Vec<Vec<f32>> = trained
            .layer_weights()
            .iter()
            .zip(&quantizers)
            .map(|(table, q)| {
                table
                    .iter()
                    .map(|&w| q.decode_corrupted(q.encode(w)))
                    .collect()
            })
            .collect();
        let mut net = trained.instantiate();
        apply_layer_weights(&mut net, &network, &clean);
        let (images, labels) = eval_batch(spec, &network);
        let (clean_accuracy, ms) = timed(|| accuracy(&mut net, &images, &labels));
        score_ms.push(ms);
        // One clean score, then one per trial at every age.
        let scores = 1 + spec.ages_years.len() * spec.trials as usize;
        score_total_ms += ms * scores as f64;
        if clean_accuracy != result.clean_accuracy {
            failures.push(Failure::new(
                spec.content_key(),
                format!(
                    "traced clean accuracy {clean_accuracy}, run_injection {}",
                    result.clean_accuracy
                ),
            ));
        }
    }
    let timed_parts = duty_ms + fail_ms + score_total_ms;
    m.set("faultsim.train_ms", train_ms);
    m.set("faultsim.cell_ms", cell_ms);
    m.set("faultsim.duty_ms", duty_ms);
    m.set("faultsim.fail_probs_ms", fail_ms);
    m.set("faultsim.residual_ms", cell_ms - timed_parts);
    m.set("faultsim.coverage", ratio(timed_parts, cell_ms));
    m.set("faultsim.flipped_bits", flipped_bits.round());
    m.set("quant.ecc.corrected_words", corrected_words.round());
    let score_ms = median(&mut score_ms);
    m.set("nn.score_ms", score_ms);
    m.set(
        "nn.score_images_per_s",
        ratio(f64::from(first.eval_images), score_ms / 1e3),
    );
    trace_layers(first, &trained, m);
    train_ms + cell_ms
}

/// Times each weight layer's forward pass on the eval batch and its
/// backward pass on the first training batch, through
/// `Sequential::layer_mut`, and sets the per-DNN-layer metrics.
fn trace_layers(spec: &FaultInjectionSpec, trained: &TrainedNetwork, m: &mut Metrics) {
    let network = spec.scenario.network.spec();
    let (eval, _) = eval_batch(spec, &network);
    let (train, _) = MnistSource::from_env(spec.train_seed()).batch(0, TRAIN_BATCH);
    let train = adapt_batch(&train, network.input_shape());
    let mut net = trained.instantiate();

    let mut whole = (0..LAYER_REPEATS)
        .map(|_| timed(|| net.forward(&eval)).1)
        .collect::<Vec<_>>();
    let whole_ms = median(&mut whole);
    let eval_acts = net.forward_trace(&eval);
    let train_acts = net.forward_trace(&train);
    let mut layers_ms = 0.0;
    for (i, layer) in weight_layers(&mut net, &network) {
        let name = layer.name();
        let (eval_in, train_in) = match i {
            0 => (&eval, &train),
            _ => (&eval_acts[i - 1], &train_acts[i - 1]),
        };
        let forward_ms = layer_forward_ms(&mut net, i, eval_in);
        let backward_ms = layer_backward_ms(&mut net, i, train_in);
        layers_ms += forward_ms;
        let gmacs = layer.macs() as f64 * eval.shape()[0] as f64 / 1e9;
        m.set(&format!("nn.layer.{name}.forward_ms"), forward_ms);
        m.set(
            &format!("nn.layer.{name}.forward_gmac_per_s"),
            ratio(gmacs, forward_ms / 1e3),
        );
        m.set(&format!("nn.layer.{name}.backward_ms"), backward_ms);
    }
    m.set("nn.layer.coverage", ratio(layers_ms, whole_ms));
}

/// The executable network's weight layers — each with its index in
/// `net` and its `spec` entry, which carries the MAC count. Activations,
/// pooling and flatten carry no weights and are left out.
pub fn weight_layers<'s>(
    net: &mut Sequential,
    spec: &'s NetworkSpec,
) -> Vec<(usize, &'s LayerSpec)> {
    (0..net.len())
        .filter_map(|i| {
            let name = net.layer_mut(i).name().to_string();
            spec.layers()
                .iter()
                .find(|l| l.name() == name)
                .map(|l| (i, l))
        })
        .collect()
}

fn layer_forward_ms(net: &mut Sequential, i: usize, input: &Tensor) -> f64 {
    let mut runs: Vec<f64> = (0..LAYER_REPEATS)
        .map(|_| timed(|| net.layer_mut(i).forward(input)).1)
        .collect();
    median(&mut runs)
}

/// Backward needs the layer's forward cache, so each repeat runs an
/// untimed forward first; the output doubles as the incoming gradient.
fn layer_backward_ms(net: &mut Sequential, i: usize, input: &Tensor) -> f64 {
    let mut runs: Vec<f64> = (0..LAYER_REPEATS)
        .map(|_| {
            let grad = net.layer_mut(i).forward(input);
            timed(|| net.layer_mut(i).backward(&grad)).1
        })
        .collect();
    median(&mut runs)
}

/// Reopens the finished store and renders its report table, as
/// `dnnlife report` / `dnnlife inject --report` do. Returns the time in
/// ms and the store's size in bytes.
fn store_read(campaign: &Campaign, store: &Path) -> std::io::Result<(f64, u64)> {
    let bytes = std::fs::metadata(store)?.len();
    let (rendered, ms) = timed(|| -> std::io::Result<usize> {
        Ok(match campaign {
            Campaign::Sweep(grid) => {
                let store = ResultStore::open(store)?;
                let table = if grid.name == "fig9" {
                    fig9_table(&store)
                } else {
                    fig11_table(&store)
                };
                table.len()
            }
            Campaign::Inject(_) => {
                let store = InjectionStore::open(store)?;
                accuracy_vs_age_table(&store).len() + ecc_comparison_table(&store).len()
            }
        })
    });
    rendered?;
    Ok((ms, bytes))
}
