//! CKKS with BitPacker: the paper's primary contribution.
//!
//! This crate implements the full CKKS approximate-arithmetic FHE scheme on
//! top of `bp-rns`, with **two interchangeable RNS representations**:
//!
//! * [`Representation::RnsCkks`] — the classic implementation that links
//!   residue sizes to scales (Cheon et al., plus Kim et al.'s reduced-error
//!   adjust), including multiple-prime rescaling for narrow datapaths;
//! * [`Representation::BitPacker`] — the paper's representation, which packs
//!   residues to the hardware word size and re-derives terminal moduli at
//!   every level (`bpRescale`/`bpAdjust`, paper Sec. 3.2).
//!
//! The two share everything except level management, exactly as the paper
//! prescribes ("all other operations are exactly the same as in RNS-CKKS").
//!
//! The evaluation pipeline is panic-free: every fallible operation returns
//! a typed [`EvalError`], misaligned operands can be auto-repaired with
//! [`EvalPolicy::AutoAlign`], and [`Ciphertext::validate`] checks
//! structural integrity of externally-supplied ciphertexts.
//!
//! # Quick start
//!
//! ```
//! use bp_ckks::{CkksContext, CkksParams, Representation, SecurityLevel};
//! use rand::SeedableRng;
//!
//! let params = CkksParams::builder()
//!     .log_n(6)
//!     .word_bits(28)
//!     .representation(Representation::BitPacker)
//!     .security(SecurityLevel::Insecure)
//!     .levels(3, 30)
//!     .base_modulus_bits(35)
//!     .build()?;
//! let ctx = CkksContext::new(&params)?;
//! let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(7);
//! let keys = ctx.keygen(&mut rng);
//!
//! let values = vec![0.5, -0.25, 1.0];
//! let pt = ctx.encode(&values, ctx.max_level());
//! let ct = ctx.encrypt(&pt, &keys.public, &mut rng);
//! let back = ctx.decode(&ctx.decrypt(&ct, &keys.secret)?);
//! assert!((back[0] - 0.5).abs() < 1e-4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The panic-free pipeline contract: library code may not unwrap. Known
// invariants use expect() with a message naming the invariant; everything
// else returns a typed error. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chain;
mod ciphertext;
mod context;
pub mod encoding;
mod error;
mod eval;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod keys;
pub mod levels;
pub mod noise;
mod params;
pub mod program;
mod sampling;
mod security;
pub mod wire;

pub use bp_rns::{BpThreadPool, CancelReason, CancelToken};
// Re-exported so program authors get the IR vocabulary from the scheme
// crate alone.
pub use bp_ir as ir;
// Re-exported so downstream crates (bench binaries, tests) drive the
// instrumentation layer without naming bp-telemetry as a dependency.
pub use bp_telemetry as telemetry;
pub use chain::{ChainError, LevelInfo, ModulusChain};
pub use ciphertext::Ciphertext;
pub use context::{CkksContext, ContextError, KeySet};
pub use encoding::{Encoder, Plaintext};
pub use error::{EvalError, IntegrityError};
pub use eval::{EvalPolicy, Evaluator, RepairLog};
pub use keys::{EvaluationKey, KeySwitchKey, PublicKey, SecretKey};
pub use params::{CkksParams, CkksParamsBuilder, ParamsError, Representation};
pub use program::{level_budget, PlainSource, ProgramError, ProgramRun, ProgramStepper};
pub use security::SecurityLevel;
