//! Number-theoretic substrate for the BitPacker CKKS implementation.
//!
//! This crate provides the arithmetic building blocks that every other crate
//! in the workspace relies on:
//!
//! * [`Modulus`] — word-sized modular arithmetic with Barrett reduction and
//!   Shoup multiplication (used pervasively by the NTT in `bp-rns`).
//! * [`primes`] — deterministic Miller–Rabin primality testing and
//!   enumeration of *NTT-friendly* primes (`p ≡ 1 (mod 2N)`), the candidate
//!   pool for BitPacker's modulus-selection algorithm (paper Sec. 3.3).
//! * [`BigUint`] — arbitrary-precision unsigned integers with full division,
//!   used for CRT reconstruction and for computing the exact integer
//!   constants that `adjust` multiplies ciphertexts by.
//! * [`FactoredScale`] — exact representation of CKKS scales as
//!   `2^k · ∏ pᵢ^eᵢ`, so scale bookkeeping across rescales and adjusts never
//!   loses precision (paper Figs. 4, 5, 7).
//!
//! # Example
//!
//! ```
//! use bp_math::{Modulus, primes::ntt_primes_below};
//!
//! // The largest 28-bit NTT-friendly prime for N = 2^12 (2N = 2^13):
//! let q = ntt_primes_below(28, 1 << 13).next().unwrap();
//! assert_eq!(q % (1 << 13), 1);
//! let m = Modulus::new(q);
//! assert_eq!(m.mul(q - 1, q - 1), 1); // (-1)^2 = 1 mod q
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod biguint;
pub mod crt;
mod modulus;
pub mod primes;
mod scale;

pub use biguint::BigUint;
pub use modulus::Modulus;
pub use scale::FactoredScale;

/// Returns the centered (signed) representative of `x mod q`,
/// i.e. the unique `y ∈ (-q/2, q/2]` with `y ≡ x (mod q)`.
///
/// # Example
/// ```
/// assert_eq!(bp_math::centered(16, 17), -1);
/// assert_eq!(bp_math::centered(3, 17), 3);
/// ```
#[inline]
pub fn centered(x: u64, q: u64) -> i64 {
    debug_assert!(x < q);
    if x > q / 2 {
        -((q - x) as i64)
    } else {
        x as i64
    }
}
