//! # BitPacker
//!
//! A reproduction of *"BitPacker: Enabling High Arithmetic Efficiency in
//! Fully Homomorphic Encryption Accelerators"* (Samardzic & Sanchez,
//! ASPLOS 2024) as a complete Rust workspace:
//!
//! * a full CKKS FHE library ([`ckks`]) with **two interchangeable RNS
//!   representations** — the classic RNS-CKKS baseline and BitPacker's
//!   fixed-width limb packing,
//! * the number-theoretic substrate ([`math`], [`rns`]),
//! * a CraterLake-class accelerator performance/energy/area model
//!   ([`accel`]),
//! * structural models of the paper's five application benchmarks
//!   ([`workloads`]).
//!
//! This facade crate re-exports the most common types; the `bp-bench`
//! crate (not re-exported) regenerates every table and figure of the
//! paper's evaluation.
//!
//! ## Error handling
//!
//! The evaluation pipeline is panic-free: every fallible operation —
//! parameter construction, evaluation, serialization, decryption —
//! returns a `Result`. The crate-level [`Error`] enum unifies the
//! per-layer taxonomies ([`ckks::ParamsError`], [`ckks::ChainError`],
//! [`ckks::ContextError`], [`ckks::EvalError`],
//! [`ckks::wire::WireError`], [`rns::RnsError`]) so applications can use
//! `?` across layers; match on a variant to recover, or inspect
//! [`std::error::Error::source`] for the underlying cause. Misaligned
//! operands can either be rejected ([`ckks::EvalPolicy::Strict`]) or
//! repaired transparently ([`ckks::EvalPolicy::AutoAlign`], with repairs
//! counted in the evaluator's [`ckks::RepairLog`]).
//!
//! ## Quick start
//!
//! ```
//! use bitpacker::prelude::*;
//! use rand::SeedableRng;
//!
//! fn main() -> Result<(), bitpacker::Error> {
//!     // A small BitPacker context: N = 64, three 30-bit levels, 28-bit words.
//!     let params = CkksParams::builder()
//!         .log_n(6)
//!         .word_bits(28)
//!         .representation(Representation::BitPacker)
//!         .security(SecurityLevel::Insecure)
//!         .levels(3, 30)
//!         .base_modulus_bits(35)
//!         .build()?;
//!     let ctx = CkksContext::new(&params)?;
//!     let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
//!     let keys = ctx.keygen(&mut rng);
//!     let ev = ctx.evaluator();
//!
//!     let x = vec![0.5, -0.25, 0.125];
//!     let ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);
//!     let sq = ev.rescale(&ev.mul(&ct, &ct, &keys.evaluation)?)?;
//!     let back = ctx.decrypt_to_values(&sq, &keys.secret, 3)?;
//!     assert!((back[0] - 0.25).abs() < 1e-3);
//!     Ok(())
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use bp_accel as accel;
pub use bp_ckks as ckks;
pub use bp_ir as ir;
pub use bp_math as math;
pub use bp_rns as rns;
pub use bp_runtime as runtime;
pub use bp_workloads as workloads;

/// Unified error type spanning every layer of the workspace.
///
/// Each variant wraps one layer's error taxonomy; `From` impls let `?`
/// propagate any of them into a `Result<_, bitpacker::Error>`. The
/// wrapped error is also reachable through
/// [`std::error::Error::source`], so generic error-reporting tooling
/// prints the full chain.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Invalid parameter set ([`ckks::CkksParams`] construction).
    Params(ckks::ParamsError),
    /// Modulus-chain construction failed (no primes fit the requested
    /// scales at this ring degree / word size).
    Chain(ckks::ChainError),
    /// Context construction failed.
    Context(ckks::ContextError),
    /// A homomorphic operation was rejected (misaligned operands,
    /// missing key, exhausted levels or noise budget, ...).
    Eval(ckks::EvalError),
    /// A serialized ciphertext was malformed, incompatible with the
    /// context, or failed integrity validation.
    Wire(ckks::wire::WireError),
    /// A low-level RNS polynomial invariant was violated.
    Rns(rns::RnsError),
    /// A supervised job ended in a runtime-level terminal state (panic
    /// contained, deadline, cancellation, breaker rejection, retry
    /// exhaustion, or checkpoint failure).
    Runtime(runtime::RuntimeError),
}

impl Error {
    /// True when retrying the failed operation may succeed — the
    /// corruption-class failures the fault-tolerant runtime retries
    /// automatically (detected integrity violations, unreduced residues,
    /// checksum mismatches, noise-budget exhaustion). Structural and
    /// programming errors are permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Eval(e) => e.is_transient(),
            Self::Wire(e) => e.is_transient(),
            Self::Rns(e) => e.is_transient(),
            Self::Runtime(e) => e.is_transient(),
            Self::Params(_) | Self::Chain(_) | Self::Context(_) => false,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Params(e) => write!(f, "parameter error: {e}"),
            Self::Chain(e) => write!(f, "modulus chain error: {e}"),
            Self::Context(e) => write!(f, "context error: {e}"),
            Self::Eval(e) => write!(f, "evaluation error: {e}"),
            Self::Wire(e) => write!(f, "wire format error: {e}"),
            Self::Rns(e) => write!(f, "RNS error: {e}"),
            Self::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Params(e) => Some(e),
            Self::Chain(e) => Some(e),
            Self::Context(e) => Some(e),
            Self::Eval(e) => Some(e),
            Self::Wire(e) => Some(e),
            Self::Rns(e) => Some(e),
            Self::Runtime(e) => Some(e),
        }
    }
}

impl From<runtime::RuntimeError> for Error {
    fn from(e: runtime::RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

impl From<ckks::ParamsError> for Error {
    fn from(e: ckks::ParamsError) -> Self {
        Self::Params(e)
    }
}

impl From<ckks::ChainError> for Error {
    fn from(e: ckks::ChainError) -> Self {
        Self::Chain(e)
    }
}

impl From<ckks::ContextError> for Error {
    fn from(e: ckks::ContextError) -> Self {
        Self::Context(e)
    }
}

impl From<ckks::EvalError> for Error {
    fn from(e: ckks::EvalError) -> Self {
        Self::Eval(e)
    }
}

impl From<ckks::wire::WireError> for Error {
    fn from(e: ckks::wire::WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<rns::RnsError> for Error {
    fn from(e: rns::RnsError) -> Self {
        Self::Rns(e)
    }
}

impl From<ckks::IntegrityError> for Error {
    fn from(e: ckks::IntegrityError) -> Self {
        Self::Eval(ckks::EvalError::Integrity(e))
    }
}

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::Error;
    pub use bp_accel::{simulate, AcceleratorConfig, FheOp, TraceContext, TraceOp};
    pub use bp_ckks::{
        Ciphertext, CkksContext, CkksParams, EvalError, EvalPolicy, Evaluator, IntegrityError,
        KeySet, ModulusChain, Plaintext, RepairLog, Representation, SecurityLevel,
    };
    pub use bp_ir::{Program, ProgramBuilder};
    pub use bp_math::{BigUint, FactoredScale, Modulus};
    pub use bp_rns::{Domain, PrimePool, RnsError, RnsPoly};
    pub use bp_runtime::{Checkpoint, JobSpec, RetryPolicy, Runtime, RuntimeError};
    pub use bp_workloads::{App, Bootstrap, WorkloadSpec};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_wraps_every_layer_with_source() {
        let eval: Error = ckks::EvalError::LevelMismatch { left: 3, right: 1 }.into();
        assert!(matches!(eval, Error::Eval(_)));
        assert!(std::error::Error::source(&eval).is_some());

        let rns: Error = rns::RnsError::EmptyBasis.into();
        assert!(matches!(rns, Error::Rns(_)));
        assert!(std::error::Error::source(&rns).is_some());

        let wire: Error = ckks::wire::WireError::Malformed("truncated u32".into()).into();
        assert!(matches!(wire, Error::Wire(_)));

        let integ: Error = ckks::IntegrityError::LevelOutOfRange { level: 9, max: 3 }.into();
        assert!(matches!(integ, Error::Eval(ckks::EvalError::Integrity(_))));

        // Display strings stay actionable through the wrapper.
        let msg = eval.to_string();
        assert!(msg.contains("levels 3 vs 1"), "got: {msg}");
    }

    #[test]
    fn chain_error_surfaces_through_facade() {
        // A word size too small for the requested scale cannot build.
        let res = ckks::CkksParams::builder()
            .log_n(6)
            .word_bits(28)
            .representation(ckks::Representation::RnsCkks)
            .security(ckks::SecurityLevel::Insecure)
            .levels(3, 60)
            .base_modulus_bits(60)
            .build();
        let err: Error = match res {
            Err(e) => e.into(),
            Ok(p) => match ckks::CkksContext::new(&p) {
                Err(e) => e.into(),
                Ok(_) => return, // parameters built; nothing to assert
            },
        };
        assert!(!err.to_string().is_empty());
    }
}
