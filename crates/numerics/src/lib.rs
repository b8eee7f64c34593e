#![warn(missing_docs)]

//! Scientific-numerics substrate for the DNN-Life reproduction.
//!
//! This crate provides the numerical machinery that the probabilistic
//! duty-cycle model of the paper (Eq. 1 and Eq. 2) and the large-scale
//! memory simulator rely on:
//!
//! * [`special`] — log-gamma, regularised incomplete beta, and error
//!   functions implemented from standard Lanczos / continued-fraction
//!   formulations (no external math crates are permitted in this build).
//! * [`binomial`] — exact binomial PMF/CDF/SF in log space plus the
//!   paper's two-sided duty-cycle tail probability (Eq. 1) and the
//!   cell-population tail (Eq. 2).
//! * [`sampling`] — deterministic, seedable samplers for the normal,
//!   Laplace, Bernoulli and binomial distributions used by the synthetic
//!   weight generator and the analytic memory simulator.
//! * [`histogram`] — fixed-bin-edge histograms used for the SNM
//!   degradation distributions of Fig. 9 / Fig. 11.
//! * [`stats`] — summary statistics and empirical-distribution helpers
//!   used by the randomness tests and by EXPERIMENTS.md reporting.
//!
//! # Example
//!
//! Computing the paper's Eq. 1 for the Fig. 7a case study (`K = 20`,
//! `rho = 0.5`, `b/K = 0.3`):
//!
//! ```
//! use dnnlife_numerics::binomial::duty_cycle_tail_probability;
//!
//! let p = duty_cycle_tail_probability(20, 6, 0.5);
//! assert!(p > 0.1, "the paper observes P > 0.1 at b/K = 0.3");
//! ```

pub mod binomial;
pub mod histogram;
pub mod sampling;
pub mod special;
pub mod stats;

pub use binomial::{duty_cycle_tail_probability, population_tail_probability, Binomial};
pub use histogram::Histogram;
pub use sampling::{sample_binomial, BinomialTable, LaplaceSampler, NormalSampler};
pub use stats::Summary;
