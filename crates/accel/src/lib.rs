#![warn(missing_docs)]

//! DNN-accelerator weight-memory simulator.
//!
//! This crate models the two hardware platforms of the paper's Table I
//! — the baseline dense accelerator (§II-A) and a TPU-like NPU with a
//! four-tile-deep circular weight FIFO — together with the Fig. 5
//! dataflow that streams weight blocks through the on-chip weight
//! memory. Its product is, for every SRAM cell, the lifetime duty cycle
//! under a chosen mitigation policy; the SNM models in `dnnlife-sram`
//! then turn those into the Fig. 9 / Fig. 11 degradation histograms.
//!
//! Two simulators are provided:
//!
//! * [`exact`] — an event-driven simulator that pushes every word of
//!   every block of every inference through a real
//!   [`dnnlife_mitigation::WriteTransducer`] and a
//!   [`dnnlife_sram::DutyCycleTracker`]. Exact, but `O(cells × K ×
//!   inferences)` — used for validation and small configurations.
//! * [`analytic`] — a closed-form simulator exploiting that the same
//!   `K` blocks recur every inference: deterministic policies reduce to
//!   one pass over the blocks, and the DNN-Life policy's TRBG
//!   randomness collapses into two binomial draws per cell (sum of the
//!   per-write Bernoulli inversions). `O(cells × K)`, embarrassingly
//!   parallel, distribution-identical to [`exact`] (cross-validated in
//!   `tests/`).
//!
//! The block sources in [`plan`] are *random access* — any word of any
//! block is computable in O(1) from the counter-based weight generator —
//! which is what makes the analytic simulator parallel and allows
//! sampling cell subsets without generating whole blocks.

pub mod analytic;
pub mod config;
pub mod duty_map;
pub mod exact;
pub mod plan;
pub mod rng;

pub use analytic::{
    simulate_analytic, simulate_analytic_telemetry, AnalyticPolicy, AnalyticSimConfig,
};
pub use config::AcceleratorConfig;
pub use duty_map::UnitDutyMap;
pub use exact::{simulate_exact_sharded, ExactShardConfig};
pub use plan::{
    zipf_weights, BlockSource, FifoSlotMemory, FlatWeightMemory, MemoryGeometry, RemappedMemory,
    WeightAddress,
};
