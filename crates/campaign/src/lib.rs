#![warn(missing_docs)]

//! Campaign engine: parallel scenario sweeps over the paper's
//! experiment space, with a resumable on-disk result store.
//!
//! The paper's headline results (Fig. 9, Fig. 11) are *grids* of
//! experiments — platform × network × number format × mitigation
//! policy × lifetime — and the interesting questions beyond the paper
//! (how sensitive is DNN-Life to TRBG bias? how wide must the
//! bias-balancing counter be?) add more axes. This crate turns
//! `dnnlife_core::run_experiment_with` from a one-at-a-time call into a
//! sweep engine:
//!
//! | module | contents |
//! |--------|----------|
//! | [`grid`] | axis lists → deduplicated, validity-filtered scenario sets with deterministic per-scenario seeds |
//! | [`executor`] | std-only work-stealing thread pool; byte-identical results for any worker count |
//! | [`store`] | JSONL result store keyed by spec content hash; journaled, crash-tolerant, resumable |
//! | [`aggregate`] | folds stored records into Fig. 9/11 tables and bias / counter-width sensitivity tables |
//! | [`crossval`] | matched analytic↔exact scenario pairs with per-cell duty divergence |
//!
//! Two scenario axes go beyond the paper's grids: the **simulator
//! backend** (closed-form analytic vs event-driven exact) and the
//! **block-dwell model** (uniform — paper assumption (b) — vs
//! layer-proportional / Zipf / custom per-layer residency, which only
//! the exact backend can simulate). Matched analytic/exact pairs share
//! derived seeds (the backend is normalised out of scenario
//! coordinates), so their stores line up under `compare` and the
//! `validate` subcommand can quantify their divergence per cell.
//!
//! The `dnnlife` binary (this crate's `src/bin/dnnlife.rs`) exposes the
//! engine as `sweep` / `report` / `compare` / `validate` subcommands.
//!
//! # Determinism contract
//!
//! Three layers cooperate so that a finished store is **byte-identical**
//! no matter how it was produced:
//!
//! 1. every scenario's result is a pure function of its spec (per-cell
//!    counter-seeded RNG streams in the analytic simulator);
//! 2. each scenario's seed is derived from the campaign seed and the
//!    scenario's seed-independent coordinate hash, not from enumeration
//!    order;
//! 3. the store journals completions in whatever order workers finish,
//!    then finalizes atomically in canonical grid order.
//!
//! Re-running a finished campaign with `resume` therefore executes
//! nothing, and an interrupted sweep resumes to the same bytes a clean
//! run produces.
//!
//! # Example
//!
//! ```
//! use dnnlife_campaign::grid::{CampaignGrid, SweepOptions};
//! use dnnlife_campaign::run_scenarios;
//!
//! let grid = CampaignGrid::fig11(SweepOptions {
//!     base_seed: 42,
//!     sample_stride: 512, // heavy subsample: doc-test speed
//!     inferences: 20,
//!     ..SweepOptions::default() // analytic backend, uniform dwell
//! });
//! let records = run_scenarios(&grid, 2);
//! assert_eq!(records.len(), grid.len());
//! // DNN-Life beats no-mitigation on every network.
//! let mean = |k: &str| {
//!     records
//!         .iter()
//!         .filter(|r| r.result.label.contains(k))
//!         .map(|r| r.result.snm.mean())
//!         .sum::<f64>()
//! };
//! assert!(mean("DNN-Life with Bias Balancing") < mean("Without Aging Mitigation"));
//! ```

pub mod aggregate;
pub mod crossval;
pub mod executor;
pub mod grid;
pub mod inject;
pub mod perf;
pub mod store;
pub mod trace;

pub use crossval::validate_scenarios;
pub use dnnlife_core::ShardPolicy;
pub use dnnlife_telemetry::{Counter, Instrumentation, Progress, ProgressStyle, Telemetry};
pub use executor::{run_campaign, run_scenarios, CampaignOptions, CampaignOutcome};
pub use grid::{CampaignGrid, GridAxes};
pub use inject::{
    accuracy_vs_age_table, ecc_comparison_table, run_injection_campaign, InjectCampaignOptions,
    InjectionGrid, InjectionOutcome, InjectionParams, InjectionRecord, InjectionStore,
};
pub use perf::{load_events, PerfDiff, PerfSummary};
pub use store::{JsonlStore, ResultStore, ScenarioRecord, StoreLock, StoreRecord};
pub use trace::{load_trace, Trace, TraceSpan};
