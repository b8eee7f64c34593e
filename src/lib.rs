#![warn(missing_docs)]

//! DNN-Life — an energy-efficient NBTI aging-mitigation framework for
//! on-chip DNN weight memories.
//!
//! This crate is the facade of the workspace reproducing *Hanif &
//! Shafique, DATE 2021*. It re-exports the subsystem crates:
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | experiment runner, probabilistic model, reports |
//! | [`campaign`] | parallel scenario sweeps, resumable result store, `dnnlife` CLI |
//! | [`faultsim`] | fault injection: duty cycles → read failures → bit flips → accuracy |
//! | [`nn`] | tensors, layers, training, network zoo, synthetic weights |
//! | [`quant`] | number formats, quantizers, bit-distribution analysis |
//! | [`sram`] | 6T-cell duty cycles, NBTI and SNM models |
//! | [`mitigation`] | WDE/RDD transducers, TRBGs, aging controller |
//! | [`accel`] | accelerator configs, dataflow plans, memory simulators |
//! | [`synth`] | gate-level netlists, STA, power — the Table II pipeline |
//! | [`numerics`] | special functions, binomial tails, samplers |
//!
//! See `examples/quickstart.rs` for a guided tour and the `repro`
//! binary (`cargo run --release -p dnnlife-bench --bin repro -- all`)
//! for the paper's tables and figures.
//!
//! # Example
//!
//! ```
//! use dnn_life::core::experiment::{
//!     run_experiment_with, ExperimentSpec, NetworkKind, PolicySpec, RunOptions,
//! };
//!
//! let mut spec = ExperimentSpec::fig11(
//!     NetworkKind::CustomMnist,
//!     PolicySpec::DnnLife { bias: 0.7, bias_balancing: true, m_bits: 4 },
//!     42,
//! );
//! spec.sample_stride = 64;
//! let result = run_experiment_with(&spec, &RunOptions::default()).expect("no cancel token");
//! assert!(result.snm.mean() < 14.0);
//! ```

pub use dnnlife_accel as accel;
pub use dnnlife_campaign as campaign;
pub use dnnlife_core as core;
pub use dnnlife_faultsim as faultsim;
pub use dnnlife_mitigation as mitigation;
pub use dnnlife_nn as nn;
pub use dnnlife_numerics as numerics;
pub use dnnlife_quant as quant;
pub use dnnlife_sram as sram;
pub use dnnlife_synth as synth;
