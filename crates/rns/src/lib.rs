//! RNS polynomial arithmetic for the BitPacker CKKS implementation.
//!
//! CKKS ciphertexts are pairs of polynomials in `Z_Q[X]/(X^N + 1)` with `Q`
//! a product of word-sized primes; every high-performance implementation
//! keeps each polynomial as `R` *residue polynomials* mod the individual
//! primes (paper Sec. 2.3). This crate provides:
//!
//! * [`NttTable`] — per-prime negacyclic NTT with precomputed Shoup
//!   twiddles,
//! * [`PrimePool`] — a lazy, shared cache of NTT tables keyed by prime,
//!   and of the basis converters between ordered sets of them,
//! * [`RnsPoly`] — the residue-polynomial vector with elementwise and
//!   structural operations (add/sub/mul, automorphisms, residue
//!   shedding/appending),
//! * [`basis::BasisConverter`] — the approximate RNS basis-conversion kernel
//!   (the operation accelerated by CraterLake's CRB unit; paper Sec. 4.1),
//! * [`rescale`] — the `scaleUp` / `scaleDown` / `mod-down` level-management
//!   primitives of both RNS-CKKS and BitPacker (paper Listings 1, 3, 5).
//!
//! Every fallible operation returns a typed [`RnsError`] instead of
//! panicking, so malformed or corrupted inputs surface as recoverable
//! diagnostics all the way up the evaluation pipeline.
//!
//! # Example
//!
//! ```
//! use bp_rns::{PrimePool, RnsPoly};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), bp_rns::RnsError> {
//! let pool = Arc::new(PrimePool::new(1 << 4)); // N = 16
//! let qs = pool.first_primes_below(30, 2);
//! let mut a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, 2, 3]);
//! let b = RnsPoly::from_i64_coeffs(&pool, &qs, &[5]);
//! a.to_ntt();
//! let mut b2 = b.clone();
//! b2.to_ntt();
//! let mut prod = a.mul(&b2)?;
//! prod.to_coeff();
//! // (1 + 2X + 3X^2) * 5
//! assert_eq!(prod.residue(0).coeffs()[1], 10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The panic-free pipeline contract: library code may not unwrap. Known
// invariants use expect() with a message naming the invariant; everything
// else returns a typed error. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod basis;
mod error;
pub mod fault;
mod ntt;
mod poly;
mod pool;
pub mod rescale;
pub mod scratch;

pub use bp_par::{BpThreadPool, CancelReason, CancelToken};
pub use error::RnsError;
pub use ntt::NttTable;
pub use poly::{Domain, ResiduePoly, RnsPoly};
pub use pool::PrimePool;
