//! Fault-tolerant evaluation runtime for BitPacker workloads.
//!
//! The roadmap's north star is a production-scale FHE service, and a
//! service's failure envelope is wider than a library's: jobs run for
//! minutes, hosts get preempted, accelerator FUs glitch, and one broken
//! workload class must not starve the healthy ones. This crate is the
//! supervision layer that turns the panic-free `bp-ckks` pipeline into a
//! *fault-tolerant* one:
//!
//! * [`Runtime::run_program`] — the one entry point: supervised execution
//!   of the [`bp_ir::Program`] attached to a [`JobSpec`], through the
//!   same [`bp_ckks::ProgramStepper`] every other IR consumer drives, so
//!   rotations of one node share its mod-up and each node is retired
//!   after its last reader.
//!   Each job gets cooperative **deadlines** (a [`CancelToken`] threaded
//!   into the evaluator), **panic isolation** (`catch_unwind` at the job
//!   boundary → [`RuntimeError::JobPanicked`]), **retry** of transient
//!   failures with exponential backoff and deterministic jitter, and a
//!   per-workload **circuit breaker** ([`CircuitBreaker`]) whose trips
//!   the `bp-telemetry` counter `rt_breaker_trips` counts.
//! * [`Checkpoint`] — versioned, checksummed snapshots of the live
//!   ciphertexts at an exact op position ([`Checkpoint::pos`]) of one
//!   program ([`Checkpoint::fingerprint`]), with exact scales and chain
//!   positions preserved via the `bp-ckks` wire format, so a retry or a
//!   restarted process resumes bit-identically from a
//!   [`CheckpointStore`].
//! * [`RuntimeError`] — the terminal-state taxonomy: every submitted job
//!   ends in exactly one typed outcome, and
//!   [`RuntimeError::is_transient`] is the retry contract.
//!
//! # Quick start
//!
//! ```
//! use bp_ckks::{CkksContext, CkksParams, SecurityLevel};
//! use bp_ir::ProgramBuilder;
//! use bp_runtime::{JobSpec, MemoryStore, RetryPolicy, Runtime};
//! use rand::SeedableRng;
//! use std::{sync::Arc, time::Duration};
//!
//! let params = CkksParams::builder().log_n(6).security(SecurityLevel::Insecure).build()?;
//! let ctx = CkksContext::new(&params)?;
//! let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
//! let keys = ctx.keygen(&mut rng);
//! let x = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
//!
//! let mut b = ProgramBuilder::new(28); // y = (x · plain(0))²
//! let input = b.input();
//! let m = b.mul_plain(input, 0);
//! let r = b.rescale(m);
//! let sq = b.square(r);
//! let y = b.rescale(sq);
//! b.output("y", y);
//! let spec = JobSpec::new("demo")
//!     .program(Arc::new(b.finish()))
//!     .deadline(Duration::from_secs(5))
//!     .retry(RetryPolicy::default());
//! let plain = |_pseed: u64, slots: usize| vec![0.5; slots];
//! let store = MemoryStore::new();
//! let out = Runtime::new().run_program(&spec, &ctx, &keys.evaluation, &[x], &plain, &store)?;
//! let y = ctx.decrypt_to_values(out.output("y").expect("declared"), &keys.secret, 1)?;
//! assert!((y[0] - 0.0625).abs() < 1e-3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Same panic-free contract as bp-ckks: library code may not unwrap. The
// whole point of this crate is that nothing escapes as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod breaker;
pub mod checkpoint;
mod error;
mod job;
mod program;

pub use bp_ckks::{CancelReason, CancelToken};
pub use breaker::{BreakerConfig, BreakerPhase, CircuitBreaker};
pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use error::RuntimeError;
pub use job::{JobSpec, RetryPolicy, Runtime};
pub use program::{CheckpointStore, MemoryStore, ProgramOutcome};
