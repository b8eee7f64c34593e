//! Seeded bit-flip injection trials and accuracy evaluation.

use std::sync::atomic::{AtomicBool, Ordering};

use dnnlife_core::experiment::PolicySpec;
use dnnlife_core::{FaultInjectionSpec, MemoryTech};
use dnnlife_nn::data::{adapt_batch, MnistSource};
use dnnlife_nn::exec;
use dnnlife_nn::train::accuracy;
use dnnlife_nn::zoo::apply_layer_weights;
use dnnlife_nn::Tensor;
use dnnlife_quant::ecc::{EccLayout, EccOutcome};
use dnnlife_quant::Quantizer;
use dnnlife_sram::lifetime::ReadFailureModel;
use dnnlife_sram::snm::CalibratedSnmModel;
use dnnlife_sram::ReramEnduranceLifetime;
use dnnlife_telemetry::{SpanId, Telemetry};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::failure::WeightCellDuties;
use crate::network::TrainedNetwork;

/// First sample index of the held-out evaluation range — far past any
/// training batch (180 steps × 24 images ≈ 4 K samples), so train and
/// eval sets never overlap even for long recipes.
pub const HOLDOUT_OFFSET: u64 = 1 << 20;

/// Execution knobs for [`run_injection`].
#[derive(Debug, Clone, Copy, Default)]
pub struct InjectOptions<'a> {
    /// Worker threads for the duty simulation, the trial fan-out, and
    /// the executor's per-image batch splits (0 = all available
    /// cores). Never semantic: every trial's flips are seeded by
    /// `(spec, age, trial)` alone.
    pub threads: usize,
    /// Work-shard override for the analytic duty simulation
    /// (0 = derive from `threads`). Never semantic: the analytic
    /// closed forms are evaluated per cell, so shard boundaries cannot
    /// move any sum.
    pub shards: usize,
    /// Cooperative cancellation, polled between SGD steps and between
    /// trials; a raised token makes [`run_injection`] return `None`.
    pub cancel: Option<&'a AtomicBool>,
    /// Observability sink for trial throughput and SECDED verdict
    /// roll-ups. Never semantic.
    pub telemetry: Option<&'a Telemetry>,
    /// Trace-span parent for the stage spans (`train`, `duty`,
    /// `clean_eval`, one `fail_probs` per age) and the per-trial
    /// `trial_decode` / `trial_load` / `trial_score` spans journaled through
    /// `telemetry`.
    pub parent_span: SpanId,
}

/// Per-trial tallies of the SECDED decoder's verdicts (internal
/// accumulator; the stored aggregate is [`EccAgeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EccTrialCounts {
    /// Word reads whose errors were fully removed.
    corrected: u64,
    /// Word reads flagged uncorrectable (delivered with raw errors).
    detected: u64,
    /// Word reads the decoder miscorrected (≥3-bit patterns aliasing a
    /// single-bit column — wrong data delivered as good).
    escaped: u64,
    /// Data-bit flips surviving past the decoder.
    residual_flips: u64,
}

/// SECDED decoder statistics at one age checkpoint (means over the
/// trials). Present only for specs with a repair policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EccAgeStats {
    /// Mean corrected word reads per trial (errors fully removed).
    pub mean_corrected_words: f64,
    /// Mean detected-uncorrectable word reads per trial.
    pub mean_detected_words: f64,
    /// Mean miscorrected word reads per trial (escapes).
    pub mean_escaped_words: f64,
    /// Mean data-bit flips per trial surviving past the decoder
    /// (compare with [`AgeAccuracy::mean_flipped_bits`], the raw
    /// pre-correction cell flips).
    pub mean_residual_flips: f64,
}

/// Accuracy at one age checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct AgeAccuracy {
    /// Device age in years.
    pub years: f64,
    /// Mean accuracy over the trials.
    pub mean_accuracy: f64,
    /// Per-trial accuracies, in trial order.
    pub trial_accuracies: Vec<f64>,
    /// Mean number of physical cell flips per trial (data + parity
    /// cells under a repair policy; the decoder removes most of them
    /// before they reach the weights — see [`AgeAccuracy::ecc`]).
    pub mean_flipped_bits: f64,
    /// SECDED decoder tallies — `Some` iff the spec's scenario carries
    /// a repair policy.
    pub ecc: Option<EccAgeStats>,
}

// Hand-rolled (de)serialization: the `ecc` field is omitted when
// absent, so records written by `RepairPolicy::None` campaigns are
// byte-identical to pre-repair-axis stores (the golden-file regression
// in `dnnlife-campaign` pins this), and old stores still parse.
impl Serialize for AgeAccuracy {
    fn to_value(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("years".to_string(), self.years.to_value()),
            ("mean_accuracy".to_string(), self.mean_accuracy.to_value()),
            (
                "trial_accuracies".to_string(),
                self.trial_accuracies.to_value(),
            ),
            (
                "mean_flipped_bits".to_string(),
                self.mean_flipped_bits.to_value(),
            ),
        ];
        if let Some(ecc) = &self.ecc {
            fields.push(("ecc".to_string(), ecc.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for AgeAccuracy {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = value.as_object_named("AgeAccuracy")?;
        let ecc = pairs
            .iter()
            .find(|(key, _)| key == "ecc")
            .map(|(_, v)| EccAgeStats::from_value(v))
            .transpose()?;
        Ok(AgeAccuracy {
            years: serde::field(pairs, "years")?,
            mean_accuracy: serde::field(pairs, "mean_accuracy")?,
            trial_accuracies: serde::field(pairs, "trial_accuracies")?,
            mean_flipped_bits: serde::field(pairs, "mean_flipped_bits")?,
            ecc,
        })
    }
}

/// What one fault-injection experiment produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectionResult {
    /// Human-readable experiment label.
    pub label: String,
    /// Accuracy of the fault-free quantized network on the held-out
    /// set (identical across ages; the age-0 baseline up to the
    /// near-zero fresh-cell failure rate).
    pub clean_accuracy: f64,
    /// Total weight cells subject to injection (weights × stored word
    /// bits — including SECDED parity columns under a repair policy).
    pub weight_bits: u64,
    /// Accuracy at each requested age checkpoint, in spec order.
    pub ages: Vec<AgeAccuracy>,
}

/// Runs the full pipeline for one spec: train → simulate duties on the
/// trained weights → per-age failure probabilities → seeded flip
/// trials → held-out accuracy. Returns `None` iff `opts.cancel` was
/// raised mid-run.
///
/// Deterministic: the result is a pure function of `spec`, independent
/// of `opts.threads`.
///
/// # Panics
///
/// Panics if `spec.is_valid()` is false.
pub fn run_injection(spec: &FaultInjectionSpec, opts: &InjectOptions) -> Option<InjectionResult> {
    assert!(spec.is_valid(), "run_injection: invalid spec {spec:?}");
    let cancelled = || opts.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed));
    let telemetry = opts.telemetry.unwrap_or_else(|| Telemetry::noop());

    let span = telemetry.span_start("train", opts.parent_span);
    let trained = exec::with_budget(exec::thread_count(opts.threads), || {
        TrainedNetwork::train(spec, opts.cancel)
    });
    telemetry.span_end(span);
    let trained = trained?;
    if cancelled() {
        return None;
    }
    let span = telemetry.span_start("duty", opts.parent_span);
    let (duties, quantizers) = WeightCellDuties::compute(
        &spec.scenario,
        trained.layer_weights(),
        opts.threads,
        opts.shards,
    );
    telemetry.span_end(span);
    if cancelled() {
        return None;
    }

    // `clean_eval` quantizes the trained weights and scores the
    // fault-free network on the held-out batch.
    let span = telemetry.span_start("clean_eval", opts.parent_span);
    // The stored codes of the trained weights — the flip substrate.
    let codes: Vec<Vec<u32>> = trained
        .layer_weights()
        .iter()
        .zip(&quantizers)
        .map(|(table, q)| table.iter().map(|&w| q.encode(w)).collect())
        .collect();
    // The fault-free network computes with the *dequantized* codes, so
    // quantization error is part of the baseline, and a zero-flip trial
    // reproduces it exactly.
    let clean_tables: Vec<Vec<f32>> = codes
        .iter()
        .zip(&quantizers)
        .map(|(layer, q)| layer.iter().map(|&c| q.decode_corrupted(c)).collect())
        .collect();

    let network = spec.scenario.network.spec();
    let (images, labels) =
        MnistSource::from_env(spec.eval_seed()).batch(HOLDOUT_OFFSET, spec.eval_images as usize);
    let images = adapt_batch(&images, network.input_shape());
    let clean_accuracy = exec::with_budget(exec::thread_count(opts.threads), || {
        let mut net = trained.instantiate();
        apply_layer_weights(&mut net, &network, &clean_tables);
        accuracy(&mut net, &images, &labels)
    });
    telemetry.span_end(span);

    let snm = CalibratedSnmModel::paper();
    let failure_model = ReadFailureModel {
        noise_sigma_mv: spec.noise_sigma_mv,
        ..ReadFailureModel::default_65nm()
    };
    let ecc_layout = spec
        .scenario
        .repair
        .layout(spec.scenario.format.bits() as u32);
    if let Some(layout) = &ecc_layout {
        assert_eq!(
            layout.width(),
            duties.word_bits,
            "duty simulation must cover the parity columns"
        );
    }

    let mut ages = Vec::with_capacity(spec.ages_years.len());
    for (age_index, &years) in spec.ages_years.iter().enumerate() {
        if cancelled() {
            return None;
        }
        let span = telemetry.span_start("fail_probs", opts.parent_span);
        let probs = match spec.scenario.tech {
            MemoryTech::SramNbti => duties.failure_probabilities(&snm, &failure_model, years),
            // Endurance faults are hard stuck-ats computed straight
            // from the wear model — no per-read failure probabilities.
            MemoryTech::ReramEndurance => Vec::new(),
        };
        telemetry.span_end(span);
        let trials = telemetry.time(
            "trial_wall_nanos",
            "Wall time inside the per-age injection trial fan-out",
            || {
                run_trials(
                    spec,
                    &trained,
                    &network,
                    &codes,
                    &quantizers,
                    &probs,
                    &duties,
                    years,
                    ecc_layout.as_ref(),
                    age_index,
                    (&images, &labels),
                    opts,
                )
            },
        )?;
        telemetry.count(
            "injection_trials",
            "Fault-injection trials completed",
            trials.len() as u64,
        );
        telemetry.count(
            "ecc_corrected_words",
            "SECDED word reads fully corrected",
            trials.iter().map(|t| t.2.corrected).sum(),
        );
        telemetry.count(
            "ecc_detected_words",
            "SECDED word reads flagged uncorrectable",
            trials.iter().map(|t| t.2.detected).sum(),
        );
        telemetry.count(
            "ecc_escaped_words",
            "SECDED word reads miscorrected (escapes)",
            trials.iter().map(|t| t.2.escaped).sum(),
        );
        let n = trials.len() as f64;
        let ecc = ecc_layout.is_some().then(|| EccAgeStats {
            mean_corrected_words: trials.iter().map(|t| t.2.corrected as f64).sum::<f64>() / n,
            mean_detected_words: trials.iter().map(|t| t.2.detected as f64).sum::<f64>() / n,
            mean_escaped_words: trials.iter().map(|t| t.2.escaped as f64).sum::<f64>() / n,
            mean_residual_flips: trials
                .iter()
                .map(|t| t.2.residual_flips as f64)
                .sum::<f64>()
                / n,
        });
        ages.push(AgeAccuracy {
            years,
            mean_accuracy: trials.iter().map(|t| t.0).sum::<f64>() / n,
            trial_accuracies: trials.iter().map(|t| t.0).collect(),
            mean_flipped_bits: trials.iter().map(|t| t.1 as f64).sum::<f64>() / n,
            ecc,
        });
    }

    Some(InjectionResult {
        label: spec.label(),
        clean_accuracy,
        weight_bits: duties.cells(),
        ages,
    })
}

/// Runs `spec.trials` seeded trials for one age, one
/// [`exec::run_jobs`] job per trial, returning `(accuracy,
/// flipped_bits, ecc_counts)` in trial order. Each trial scores a fresh
/// instance of the trained network. Leftover cores (fewer trials than
/// threads) go to the executor's per-image thread budget inside each
/// job — never semantic, the forward pass is bit-identical at any
/// budget. `None` iff cancelled.
#[allow(clippy::too_many_arguments)]
fn run_trials(
    spec: &FaultInjectionSpec,
    trained: &TrainedNetwork,
    network: &dnnlife_nn::NetworkSpec,
    codes: &[Vec<u32>],
    quantizers: &[Quantizer],
    probs: &[f64],
    duties: &WeightCellDuties,
    years: f64,
    ecc: Option<&EccLayout>,
    age_index: usize,
    eval: (&Tensor, &[usize]),
    opts: &InjectOptions,
) -> Option<Vec<(f64, u64, EccTrialCounts)>> {
    let telemetry = opts.telemetry.unwrap_or_else(|| Telemetry::noop());
    let trials = (0..spec.trials as usize).collect();
    exec::run_jobs(trials, opts.threads, opts.cancel, |trial| {
        let span = telemetry.span_start("trial_decode", opts.parent_span);
        let (tables, flips, counts) = corrupt_tables(
            spec, codes, quantizers, probs, duties, years, ecc, age_index, trial,
        );
        telemetry.span_end(span);
        let span = telemetry.span_start("trial_load", opts.parent_span);
        let mut net = trained.instantiate();
        apply_layer_weights(&mut net, network, &tables);
        telemetry.span_end(span);
        let span = telemetry.span_start("trial_score", opts.parent_span);
        let score = accuracy(&mut net, eval.0, eval.1);
        telemetry.span_end(span);
        Some((score, flips, counts))
    })
}

/// Builds the corrupted weight tables of one trial in one pass over
/// the stored words, in layer order. Each word's physical error mask
/// (data *and* parity cells under a repair policy) comes from the
/// scenario's memory technology: independent seeded read failures
/// under SRAM/NBTI, the disagreement with this trial's endurance die
/// under ReRAM. With SECDED the mask runs through syndrome decode
/// *before* the policy's read-decode permutation (the ECC engine sits
/// at the array port, below the mitigation logic); the surviving
/// data-bit flips are then carried through the permutation and the
/// corrupted code is dequantized.
///
/// The barrel shifter draws its read rotation from the trial stream
/// right after the word's mask draws, and only when data bits survive
/// the decoder. Nothing else draws while decoding, and ReRAM masks draw
/// nothing at all, so the stream stays a function of the word order
/// alone: the same draws as a pass that drew every mask first and
/// decoded afterwards.
///
/// Returns the tables, the raw faulted-cell count, and the decoder
/// tallies (zero without a repair policy).
#[allow(clippy::too_many_arguments)]
fn corrupt_tables(
    spec: &FaultInjectionSpec,
    codes: &[Vec<u32>],
    quantizers: &[Quantizer],
    probs: &[f64],
    duties: &WeightCellDuties,
    years: f64,
    ecc: Option<&EccLayout>,
    age_index: usize,
    trial: usize,
) -> (Vec<Vec<f32>>, u64, EccTrialCounts) {
    let mut rng = StdRng::seed_from_u64(spec.trial_seed(age_index, trial as u32));
    let rotates = matches!(spec.scenario.policy, PolicySpec::BarrelShifter);
    let data_bits = spec.scenario.format.bits() as u32;
    // Under ReRAM each trial manufactures a fresh die: per-cell
    // lognormal endurance thresholds hashed from the trial's die seed.
    let stuck = (spec.scenario.tech == MemoryTech::ReramEndurance).then(|| {
        let die = ReramEnduranceLifetime::new(spec.die_seed(trial as u32));
        duties.stuck_masks(&die, years)
    });
    let mut flips = 0u64;
    let mut counts = EccTrialCounts::default();
    let tables = codes
        .iter()
        .zip(quantizers)
        .zip(&duties.weight_slots)
        .map(|((layer_codes, q), slots)| {
            layer_codes
                .iter()
                .zip(slots)
                .map(|(&code, &slot)| {
                    let slot = slot as usize;
                    let mask = match &stuck {
                        None => draw_mask(&mut rng, duties.slot_levels(slot), probs),
                        // A worn-out cell reads back its stuck value
                        // regardless of the stored bit, so the error
                        // mask is the disagreement between the stored
                        // physical word and the stuck pattern.
                        Some(stuck) => {
                            let (stuck_mask, stuck_value) = stuck[slot];
                            let stored =
                                ecc.map_or(u64::from(code), |layout| layout.store(u64::from(code)));
                            stuck_mask & (stored ^ stuck_value)
                        }
                    };
                    if mask == 0 {
                        return q.decode_corrupted(code);
                    }
                    flips += u64::from(mask.count_ones());
                    let mut data_mask = match ecc {
                        None => mask as u32,
                        Some(layout) => {
                            // Codes are linear, so the decoder's action
                            // depends only on the error pattern,
                            // gathered out of the interleaved column
                            // layout.
                            let decode = layout.code().decode_mask(layout.gather_mask(mask));
                            tally(&mut counts, decode.outcome);
                            let survived = (decode.residual & ((1u64 << data_bits) - 1)) as u32;
                            counts.residual_flips += u64::from(survived.count_ones());
                            survived
                        }
                    };
                    if data_mask == 0 {
                        return q.decode_corrupted(code);
                    }
                    if rotates {
                        // The barrel shifter reads at the schedule's
                        // rotation phase; over the lifetime the phase
                        // is uniform, so a surviving stored-bit flip
                        // lands on a uniformly drawn logical position
                        // of the data word.
                        let shift = (rng.random::<f64>() * f64::from(data_bits)) as u32 % data_bits;
                        data_mask = rotate_right(data_mask, shift, data_bits);
                    }
                    q.decode_corrupted(code ^ data_mask)
                })
                .collect()
        })
        .collect();
    (tables, flips, counts)
}

/// Draws one word's read-failure mask: bit `b` fails with the
/// probability of its cell's duty level, `probs[levels[b]]`. A cell
/// that cannot fail takes no draw.
fn draw_mask(rng: &mut StdRng, levels: &[u32], probs: &[f64]) -> u64 {
    let mut mask = 0u64;
    for (b, &level) in levels.iter().enumerate() {
        let p = probs[level as usize];
        if p > 0.0 && rng.random::<f64>() < p {
            mask |= 1 << b;
        }
    }
    mask
}

/// Adds one decoder verdict to the trial tallies.
fn tally(counts: &mut EccTrialCounts, outcome: EccOutcome) {
    match outcome {
        EccOutcome::Corrected => counts.corrected += 1,
        EccOutcome::Detected => counts.detected += 1,
        EccOutcome::Escaped => counts.escaped += 1,
        EccOutcome::Clean => unreachable!("nonzero mask"),
    }
}

/// Rotates the low `width` bits of `mask` right by `by`.
fn rotate_right(mask: u32, by: u32, width: u32) -> u32 {
    let by = by % width;
    if by == 0 {
        return mask;
    }
    let field = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    ((mask >> by) | (mask << (width - by))) & field
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnlife_core::experiment::{ExperimentSpec, NetworkKind, Platform, PolicySpec};
    use dnnlife_core::FaultInjectionSpec;

    pub(crate) fn tiny_spec(policy: PolicySpec) -> FaultInjectionSpec {
        let mut scenario = ExperimentSpec::fig11(NetworkKind::CustomMnist, policy, 7);
        scenario.platform = Platform::TpuLike;
        scenario.inferences = 2;
        let mut spec = FaultInjectionSpec::paper_default(scenario);
        spec.train_steps = 0;
        spec.trials = 2;
        spec.eval_images = 4;
        spec.ages_years = vec![7.0];
        spec
    }

    #[test]
    fn rotate_right_wraps_within_width() {
        assert_eq!(rotate_right(0b0000_0001, 1, 8), 0b1000_0000);
        assert_eq!(rotate_right(0b1000_0001, 4, 8), 0b0001_1000);
        assert_eq!(rotate_right(0xFF, 3, 8), 0xFF);
        assert_eq!(rotate_right(1, 0, 8), 1);
        assert_eq!(rotate_right(1, 1, 32), 1u32 << 31);
    }

    #[test]
    fn injection_is_thread_invariant() {
        let spec = tiny_spec(PolicySpec::None);
        let one = run_injection(&spec, &InjectOptions::default()).expect("uncancelled");
        let four = run_injection(
            &spec,
            &InjectOptions {
                threads: 4,
                ..InjectOptions::default()
            },
        )
        .expect("uncancelled");
        assert_eq!(one, four, "thread count must never be semantic");
        assert_eq!(one.ages.len(), 1);
        assert_eq!(one.ages[0].trial_accuracies.len(), 2);
    }

    #[test]
    fn negligible_noise_reproduces_clean_accuracy_exactly() {
        // At a 1e-3 mV read noise the failure probability underflows to
        // zero for every duty: every trial must reproduce the clean
        // quantized network bit for bit.
        let mut spec = tiny_spec(PolicySpec::BarrelShifter);
        spec.noise_sigma_mv = 1e-3;
        let result = run_injection(&spec, &InjectOptions::default()).expect("uncancelled");
        for age in &result.ages {
            assert_eq!(age.mean_flipped_bits, 0.0);
            for &acc in &age.trial_accuracies {
                assert_eq!(acc, result.clean_accuracy);
            }
        }
    }

    #[test]
    fn pre_raised_cancel_returns_none() {
        let spec = tiny_spec(PolicySpec::None);
        let flag = AtomicBool::new(true);
        let opts = InjectOptions {
            threads: 1,
            cancel: Some(&flag),
            ..InjectOptions::default()
        };
        assert!(run_injection(&spec, &opts).is_none());
    }

    #[test]
    fn secded_corrects_most_flips_and_counts_verdicts() {
        use dnnlife_core::RepairPolicy;
        let mut plain = tiny_spec(PolicySpec::None);
        plain.noise_sigma_mv = 80.0;
        let mut ecc = plain.clone();
        ecc.scenario.repair = RepairPolicy::Secded { interleave: 1 };

        let plain_result = run_injection(&plain, &InjectOptions::default()).expect("uncancelled");
        let ecc_result = run_injection(&ecc, &InjectOptions::default()).expect("uncancelled");

        // The ECC'd memory carries the parity columns: 13/8 the cells.
        assert_eq!(ecc_result.weight_bits, plain_result.weight_bits / 8 * 13);
        let plain_age = &plain_result.ages[0];
        let ecc_age = &ecc_result.ages[0];
        assert!(plain_age.ecc.is_none(), "no decoder stats without repair");
        let stats = ecc_age.ecc.as_ref().expect("decoder stats with repair");
        // The decoder saw errors and corrected the overwhelming
        // majority of corrupted words...
        assert!(stats.mean_corrected_words > 0.0);
        assert!(
            stats.mean_corrected_words
                > 10.0 * (stats.mean_detected_words + stats.mean_escaped_words),
            "corrected {} vs detected {} + escaped {}",
            stats.mean_corrected_words,
            stats.mean_detected_words,
            stats.mean_escaped_words
        );
        // ...so the flips surviving into the weights are a small
        // fraction of the raw cell flips (which themselves exceed the
        // plain memory's: parity cells fail too).
        assert!(ecc_age.mean_flipped_bits > plain_age.mean_flipped_bits);
        assert!(
            stats.mean_residual_flips < 0.2 * plain_age.mean_flipped_bits,
            "residual {} vs unprotected {}",
            stats.mean_residual_flips,
            plain_age.mean_flipped_bits
        );
    }

    #[test]
    fn secded_injection_is_thread_invariant_and_round_trips() {
        use dnnlife_core::RepairPolicy;
        let mut spec = tiny_spec(PolicySpec::BarrelShifter);
        spec.scenario.repair = RepairPolicy::Secded { interleave: 5 };
        spec.noise_sigma_mv = 80.0;
        let one = run_injection(&spec, &InjectOptions::default()).expect("uncancelled");
        let four = run_injection(
            &spec,
            &InjectOptions {
                threads: 4,
                ..InjectOptions::default()
            },
        )
        .expect("uncancelled");
        assert_eq!(one, four, "thread count must never be semantic");
        // The result (with its ECC stats) survives the store's JSON
        // round trip.
        let json = serde_json::to_string(&one).expect("serialize");
        let back: InjectionResult = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, one);
        assert!(json.contains("\"ecc\""));
        // And a repair-free result serializes without the field.
        let plain = run_injection(&tiny_spec(PolicySpec::None), &InjectOptions::default())
            .expect("uncancelled");
        assert!(!serde_json::to_string(&plain)
            .expect("serialize")
            .contains("\"ecc\""));
    }

    #[test]
    fn negligible_noise_with_secded_reproduces_clean_accuracy() {
        use dnnlife_core::RepairPolicy;
        let mut spec = tiny_spec(PolicySpec::None);
        spec.scenario.repair = RepairPolicy::Secded { interleave: 1 };
        spec.noise_sigma_mv = 1e-3;
        let result = run_injection(&spec, &InjectOptions::default()).expect("uncancelled");
        for age in &result.ages {
            assert_eq!(age.mean_flipped_bits, 0.0);
            let stats = age.ecc.as_ref().expect("stats present");
            assert_eq!(stats.mean_corrected_words, 0.0);
            assert_eq!(stats.mean_residual_flips, 0.0);
            for &acc in &age.trial_accuracies {
                assert_eq!(acc, result.clean_accuracy);
            }
        }
    }

    #[test]
    fn extreme_noise_destroys_accuracy_monotonically() {
        // A huge read noise makes every cell fail half the time: the
        // corrupted network collapses to chance while the clean one is
        // untouched — the pipeline end responds to the failure model.
        let mut spec = tiny_spec(PolicySpec::None);
        spec.noise_sigma_mv = 1e4;
        spec.trials = 1;
        spec.eval_images = 8;
        let result = run_injection(&spec, &InjectOptions::default()).expect("uncancelled");
        let aged = &result.ages[0];
        assert!(aged.mean_flipped_bits > 100_000.0, "flips {aged:?}");
    }
}
