#![warn(missing_docs)]

//! Fault-injection engine: closing the loop from duty cycles to DNN
//! accuracy under aging.
//!
//! The rest of the workspace stops at duty-cycle statistics: it shows
//! that unbalanced duty cycles degrade SNM (Fig. 9 / Fig. 11) but never
//! demonstrates the *consequence* the paper argues for — aged cells
//! fail reads, reads flip weight bits, and bit flips cost inference
//! accuracy. This crate composes the aging stack with the
//! neural-network stack end to end:
//!
//! ```text
//! memory units             dnnlife_core::experiment::memory_units on the
//!   |                        *trained* weight tables (the sweep's builder)
//! per-cell duty count      dnnlife_accel::simulate_analytic_telemetry
//!   |                        (closed forms) on the weight-resident words only,
//!   |                        as u32 counts, each remapped to its duty level
//! NBTI ΔVth → SNM loss     dnnlife_sram::snm::CalibratedSnmModel at each age,
//!   |                        once per duty level
//! read-failure prob        dnnlife_sram::lifetime::ReadFailureModel at the
//!   |                        spec's read-noise operating point, per level
//! seeded bit flips         per physical cell, mapped through the policy's
//!   |                        read-decode permutation into the stored code
//! corrupted inference      dnnlife_nn zoo network + train::accuracy on a
//!                            held-out synthetic-MNIST set
//! ```
//!
//! Everything is a deterministic function of the
//! [`dnnlife_core::FaultInjectionSpec`]: the training run, the held-out
//! set, the duty simulation and every trial's flip pattern derive their
//! seeds from it, so results are byte-identical for any thread count —
//! the same contract the campaign sweep engine holds.
//!
//! The physical picture of a flip: the failure probability of each
//! *stored* cell comes from that cell's lifetime duty (so a mitigation
//! policy changes both how much each cell aged and which cells protect
//! which logical bits), and a flipped stored bit is carried through the
//! policy's read-data decoder — the XOR-style policies (inversion,
//! DNN-Life) map a stored-bit flip to the same logical bit, while the
//! barrel shifter's rotation permutes it to a rotated position.
//!
//! # Example
//!
//! ```
//! use dnnlife_core::experiment::{ExperimentSpec, NetworkKind, PolicySpec};
//! use dnnlife_core::FaultInjectionSpec;
//! use dnnlife_faultsim::{run_injection, InjectOptions};
//!
//! let mut spec = FaultInjectionSpec::paper_default(ExperimentSpec::fig11(
//!     NetworkKind::CustomMnist,
//!     PolicySpec::None,
//!     42,
//! ));
//! // Doc-test sizing: untrained network, two tiny checkpoints.
//! spec.scenario.inferences = 2;
//! spec.train_steps = 0;
//! spec.trials = 1;
//! spec.eval_images = 4;
//! spec.ages_years = vec![0.0, 7.0];
//! let result = run_injection(&spec, &InjectOptions::default()).expect("uncancelled");
//! assert_eq!(result.ages.len(), 2);
//! ```

pub mod failure;
pub mod inject;
pub mod network;

pub use failure::WeightCellDuties;
pub use inject::{run_injection, AgeAccuracy, EccAgeStats, InjectOptions, InjectionResult};
pub use network::TrainedNetwork;
