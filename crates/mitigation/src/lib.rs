#![warn(missing_docs)]

//! Aging-mitigation micro-architecture (the paper's Section IV).
//!
//! The paper's scheme sits between the accelerator datapath and the
//! weight SRAM:
//!
//! * a **Write Data Encoder (WDE)** — an XOR array that conditionally
//!   inverts each word written to the weight memory,
//! * a **Read Data Decoder (RDD)** — the identical XOR array applying
//!   the same enable metadata on the way out (XOR is an involution),
//! * an **aging-mitigation controller** — a True Random Bit Generator
//!   (TRBG) whose output is XORed with the MSB of an M-bit counter
//!   clocked by the *new data block* signal, cancelling TRBG bias.
//!
//! This crate models that scheme behaviourally, together with the two
//! state-of-the-art baselines the paper compares against:
//!
//! * [`transducer::PeriodicInversion`] — invert every other write to the
//!   same location (Jin et al., duty-cycle-balanced caches),
//! * [`transducer::BarrelShifter`] — rotate each write by a per-location
//!   schedule (Kothawade et al., register-file rotation),
//! * [`transducer::Passthrough`] — no mitigation,
//! * [`transducer::DnnLife`] — the paper's randomised inversion.
//!
//! All transducers implement [`WriteTransducer`], whose
//! `encode`/`decode` pair is verified to be the identity by property
//! tests — the scheme must never alter inference results. For the
//! word-sharded exact simulator every transducer can also
//! [`WriteTransducer::fork`] into per-shard clones (deterministic
//! policies: a per-address state snapshot; DNN-Life: an independent
//! seed-derived TRBG stream per shard) — see the *Fork contract* on
//! the trait. The exact simulator drives a transducer one block write
//! at a time through [`WriteTransducer::encode_packed`], on word images
//! in the [`packed`] layout.
//!
//! # Example
//!
//! ```
//! use dnnlife_mitigation::{AgingController, PseudoTrbg};
//! use dnnlife_mitigation::transducer::{DnnLife, WriteTransducer};
//!
//! let controller = AgingController::new(PseudoTrbg::new(42, 0.5), 4);
//! let mut wde = DnnLife::new(8, controller);
//! let (stored, meta) = wde.encode(0, 0b1010_1010);
//! assert_eq!(wde.decode(stored, meta), 0b1010_1010);
//! ```

pub mod controller;
pub mod packed;
pub mod randtest;
pub mod transducer;
pub mod trbg;
pub mod wearlevel;

pub use controller::AgingController;
pub use transducer::{BarrelShifter, DnnLife, Passthrough, PeriodicInversion, WriteTransducer};
pub use trbg::{PseudoTrbg, RingOscillatorTrbg, Trbg};
pub use wearlevel::{RemapSchedule, WearLevelRemap};
