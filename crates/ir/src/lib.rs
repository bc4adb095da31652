//! `bp-ir` — the shared homomorphic-program IR.
//!
//! The paper's central claim is that BitPacker changes *only* level
//! management while the homomorphic program stays fixed (Sec. 3,
//! Listings 3–6). This crate reifies "a homomorphic program" once, as a
//! flat single-assignment DAG ([`Program`]) over a twelve-op vocabulary
//! ([`Op`] / [`OpKind`]), so the differential oracle, the telemetry
//! recorder, the accelerator model, the workload proxies, and the
//! runtime all consume the same object instead of four private
//! vocabularies.
//!
//! The crate is deliberately dependency-free: it sits at the bottom of
//! the workspace graph. It provides
//!
//! - the op vocabulary and stable snake_case op names ([`OpKind`]),
//! - the program DAG with symbolic `(level, pow)` scale inference and
//!   validation against a [`LevelBudget`] ([`Program`], [`NodeState`]),
//! - a builder API ([`ProgramBuilder`]), with Horner and baby-step/giant-step
//!   polynomial evaluation and Chebyshev interpolation ([`poly`]),
//! - the versioned `bitpacker-ir/v1` JSON wire format ([`IrDoc`]),
//! - an exact `f64` reference interpreter ([`reference`](mod@reference)), and
//! - the dependency-free JSON codec ([`json`]) the wire format (and the
//!   rest of the workspace) is built on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod json;
pub mod op;
pub mod poly;
pub mod program;
pub mod reference;
pub mod wire;

pub use builder::ProgramBuilder;
pub use op::{Op, OpKind, NUM_OP_KINDS};
pub use poly::chebyshev_coeffs;
pub use program::{LevelBudget, NodeState, Output, Program};
pub use wire::{canonical_json, IrDoc, IrError, IR_SCHEMA};
