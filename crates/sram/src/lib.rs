#![warn(missing_docs)]

//! 6T-SRAM cell, NBTI aging and Static Noise Margin (SNM) models.
//!
//! NBTI stress in a 6T-SRAM cell is carried by whichever of the two
//! cross-coupled PMOS transistors is ON; a cell storing `1` for a
//! fraction `d` of its lifetime (its *duty cycle*) stresses one PMOS
//! with duty `d` and the other with `1 − d`. Aging is governed by the
//! most-stressed transistor, so SNM degradation is minimal at `d = 0.5`
//! (Fig. 2b of the paper).
//!
//! This crate provides:
//!
//! * [`cell`] — the stress-split semantics of the 6T cell,
//! * [`duty`] — per-cell duty-cycle accumulation for memory simulation,
//! * [`duty_slice`] — the bit-sliced (64 cells per `u64` op) integer
//!   counterpart the exact simulator's hot loop records into,
//! * [`nbti`] — a long-term reaction–diffusion NBTI threshold-shift
//!   model (`ΔVth ∝ duty^(1/6) · t^(1/6)`),
//! * [`snm`] — two SNM models: the **calibrated** model anchored to the
//!   paper's numbers (10.82 % degradation at 50 % duty and 26.12 % at
//!   0 %/100 % after 7 years; DESIGN.md substitution #4) used by all
//!   experiments, and a **butterfly-curve** numerical extractor
//!   (square-law inverter VTCs, largest-embedded-square search) as the
//!   device-level reference implementation.
//!
//! # Example
//!
//! ```
//! use dnnlife_sram::snm::{CalibratedSnmModel, SnmModel};
//!
//! let model = CalibratedSnmModel::paper();
//! let best = model.degradation_percent(0.5, 7.0);
//! let worst = model.degradation_percent(1.0, 7.0);
//! assert!((best - 10.82).abs() < 1e-9);
//! assert!((worst - 26.12).abs() < 1e-9);
//! ```

pub mod cell;
pub mod duty;
pub mod duty_slice;
pub mod lifetime;
pub mod nbti;
pub mod snm;
pub mod tech;

pub use cell::stress_split;
pub use duty::DutyCycleTracker;
pub use duty_slice::DutySliceTracker;
pub use lifetime::{lifetime_improvement, lifetime_to_threshold, ReadFailureModel};
pub use nbti::NbtiModel;
pub use snm::{ButterflySnmModel, CalibratedSnmModel, SnmModel};
pub use tech::{MemoryTech, ReramEnduranceLifetime};
