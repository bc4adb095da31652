//! `bp-oracle` — differential conformance oracle for the BitPacker
//! reproduction.
//!
//! The paper's central claim is that BitPacker's packed-residue level
//! management is numerically interchangeable with classic RNS-CKKS. This
//! crate checks that claim mechanically: it generates deterministic,
//! seed-driven random evaluator programs ([`generate`]), executes each
//! program three ways ([`exec`]) — on a BitPacker chain, on a classic
//! RNS-CKKS chain, and as an exact plaintext reference over the slot
//! vectors — and asserts agreement within a tolerance derived from the
//! analytic noise estimate and the exact scale bookkeeping. Every
//! intermediate ciphertext additionally has to survive a byte-identical
//! wire round-trip and structural validation.
//!
//! Failing programs are shrunk ([`shrink`]) to a minimal repro and dumped
//! as a replayable `bitpacker-ir/v1` JSON document (the [`bp_ir`] wire
//! format, the only one the reader accepts); replay with
//! `cargo run -p bp-oracle -- replay <trace.json>`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod generate;
pub mod shrink;

pub use bp_ir::{Op, Program, IR_SCHEMA};
pub use exec::{run_program, Divergence, DivergenceKind, OracleEnv, WordConfig, WORD_LABELS};
pub use generate::{generate, GenLimits};
pub use shrink::{shrink, Shrunk};
