//! Benchmark of the dnnlife campaign engine, end to end and layer by
//! layer.
//!
//! A measured run drives the library the way `dnnlife sweep` and
//! `dnnlife inject` do — one `run_campaign` / `run_injection_campaign`
//! call into a fresh store — and [`check_store`] checks what it wrote.
//! A traced run ([`trace_campaign`]) re-runs each scenario serially and
//! times every crate's public entry point from the benchmark's own
//! code. `README.md` in this directory maps each metric to the
//! end-to-end figure it should move.

pub mod check;
pub mod trace;
pub mod workload;

pub use check::{check_store, Checked, Failure};
pub use trace::{trace_campaign, Metrics, Traced, Untraced};
pub use workload::{Campaign, Scale, Workload};
