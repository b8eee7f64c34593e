#![warn(missing_docs)]

//! DNN-Life: aging analysis and mitigation framework for on-chip DNN
//! weight memories.
//!
//! This is the top-level crate of the reproduction of *Hanif &
//! Shafique, "DNN-Life: An Energy-Efficient Aging Mitigation Framework
//! for Improving the Lifetime of On-Chip Weight Memories in Deep Neural
//! Network Hardware Architectures", DATE 2021*. It composes the
//! substrate crates into the paper's two framework features:
//!
//! * **Aging analysis** (§III) — [`analysis`] regenerates the weight-bit
//!   distributions of Fig. 6 and [`probmodel`] the probabilistic
//!   duty-cycle model of Eq. 1 / Eq. 2 and Fig. 7.
//! * **Aging mitigation evaluation** (§V) — [`experiment`] drives the
//!   accelerator memory simulators with each mitigation policy and
//!   converts lifetime duty cycles into the SNM-degradation histograms
//!   of Fig. 9 and Fig. 11; [`report`] renders them.
//!
//! # Quickstart
//!
//! ```
//! use dnnlife_core::experiment::{
//!     run_experiment_with, ExperimentSpec, NetworkKind, Platform, PolicySpec, RunOptions,
//! };
//!
//! use dnnlife_core::experiment::{DwellModel, SimulatorBackend};
//!
//! let spec = ExperimentSpec {
//!     platform: Platform::TpuLike,
//!     network: NetworkKind::CustomMnist,
//!     format: dnnlife_quant::NumberFormat::Int8Symmetric,
//!     policy: PolicySpec::DnnLife { bias: 0.5, bias_balancing: true, m_bits: 4 },
//!     inferences: 2000, // lifetime write count: randomisation converges
//!     years: 7.0,
//!     seed: 42,
//!     sample_stride: 8,
//!     backend: SimulatorBackend::Analytic, // closed forms (assumption (b))
//!     dwell: DwellModel::Uniform,          // equal block residency
//!     repair: dnnlife_quant::RepairPolicy::None, // no ECC over stored words
//!     tech: dnnlife_core::MemoryTech::SramNbti,  // the paper's NBTI aging
//! };
//! let result = run_experiment_with(&spec, &RunOptions::default()).expect("no cancel token");
//! // DNN-Life drives every cell toward the minimal-degradation bin.
//! assert!(result.snm.mean() < 11.5);
//! ```

pub mod analysis;
pub mod energy;
pub mod experiment;
pub mod faultspec;
pub mod probmodel;
pub mod report;

pub use dnnlife_quant::RepairPolicy;
pub use dnnlife_sram::MemoryTech;
pub use dnnlife_telemetry::{Instrumentation, Progress, ProgressStyle, Telemetry};
pub use experiment::{
    cross_validate_with, run_experiment_with, CrossValidation, DwellModel, ExperimentResult,
    ExperimentSpec, NetworkKind, Platform, PolicySpec, RunOptions, ShardPolicy, SimulatorBackend,
};
pub use faultspec::FaultInjectionSpec;
pub use probmodel::DutyCycleModel;
