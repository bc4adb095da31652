//! CraterLake-class FHE accelerator model.
//!
//! The paper evaluates BitPacker on CraterLake's cycle-accurate simulator
//! and RTL synthesis results (Sec. 5). Neither is public, so this crate
//! rebuilds the evaluation substrate as a calibrated throughput/roofline
//! model (DESIGN.md substitution #1):
//!
//! * [`AcceleratorConfig`] — the machine: word width, vector lanes, the six
//!   functional-unit types (multiplier, adder, NTT, automorphism, CRB,
//!   KSHGen; paper Fig. 9), register file, and HBM. The
//!   [`AcceleratorConfig::with_word_bits`] sweep applies the paper's
//!   iso-throughput scaling (lanes ∝ 1/w, CRB MACs/lane ∝ 1/w; Sec. 6.2).
//! * [`compile`] — lowers each homomorphic operation ([`FheOp`]) into
//!   per-FU work and DRAM traffic using the kernel structure the paper
//!   describes: `O(R²)` CRB multiply-accumulates and `O(R)` NTTs per
//!   homomorphic multiply (Sec. 4.2), with level management
//!   (`scaleUp`/`scaleDown`) mapped onto the CRB (Sec. 4.3).
//! * [`simulate`] — executes an operation trace: per-op time is the max of
//!   per-FU compute time and memory time (decoupled execution), energy
//!   combines per-op FU energies (multiplier energy ∝ w²) with activity.
//! * [`area`] — die-area model anchored to the two published synthesis
//!   points (472.3 mm² at 28-bit, 557 mm² at 64-bit).
//!
//! What this model preserves from the paper is the quantity under study:
//! the *ratio* between BitPacker and RNS-CKKS as a function of residue
//! counts and word size. Absolute milliseconds are calibrated to the same
//! order of magnitude as the paper's figures but are not cycle-exact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Same panic-free contract as bp-ckks: library code may not unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod area;
mod compile;
mod config;
mod energy;
mod lower;
mod simulate;

pub use compile::{compile, FheOp, OpCategory, TraceContext, Work};
pub use config::{AcceleratorConfig, FuKind, FU_KINDS};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use lower::{lower_program, ChainProfile, LevelCost, LowerError};
pub use simulate::{simulate, SimReport, TraceOp};
