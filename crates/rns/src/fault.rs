//! Fault injection for robustness testing.
//!
//! Compiled into every build. These helpers deliberately corrupt RNS
//! polynomials the way a faulty memory would, so the test suites can
//! assert that every corruption surfaces as a typed error
//! ([`crate::RnsError`] or the CKKS layer's integrity errors) instead of
//! a panic or silent garbage. Serialized bytes need no helper: tests
//! truncate or XOR them directly. No library code calls these: nothing
//! happens, and nothing is paid, until a test does.

use crate::RnsPoly;

/// Overwrites one residue coefficient with a value `>=` its modulus,
/// simulating a stuck-high bit in the limb's top bits.
///
/// Returns the original value so tests can restore it.
///
/// # Panics
/// Panics if `residue` or `index` is out of range.
pub fn corrupt_coefficient(poly: &mut RnsPoly, residue: usize, index: usize) -> u64 {
    let r = &mut poly.residues_mut()[residue];
    let q = r.modulus();
    let old = r.coeffs()[index];
    // Smallest unreduced value: guaranteed to fail `check_reduced`.
    r.coeffs_mut()[index] = q;
    old
}

/// Flips a single low-order bit of one residue coefficient, keeping the
/// value reduced — an *undetectable* arithmetic fault at the RNS layer
/// (residues stay in range) that must instead be caught by higher-level
/// noise or precision checks.
///
/// Returns the original value.
///
/// # Panics
/// Panics if `residue` or `index` is out of range.
pub fn flip_coefficient_bit(poly: &mut RnsPoly, residue: usize, index: usize, bit: u32) -> u64 {
    let r = &mut poly.residues_mut()[residue];
    let q = r.modulus();
    let old = r.coeffs()[index];
    let flipped = old ^ (1u64 << bit);
    // Stay reduced so the fault is silent at this layer.
    r.coeffs_mut()[index] = flipped % q;
    old
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, PrimePool, RnsError};

    #[test]
    fn corrupt_coefficient_is_caught_by_check_reduced() {
        let pool = PrimePool::new(1 << 3);
        let qs = pool.first_primes_below(30, 2);
        let mut p = RnsPoly::zero(&pool, &qs, Domain::Coeff);
        assert!(p.check_reduced().is_ok());
        corrupt_coefficient(&mut p, 1, 3);
        assert!(matches!(
            p.check_reduced(),
            Err(RnsError::UnreducedCoefficient { index: 3, .. })
        ));
    }

    #[test]
    fn flip_coefficient_bit_stays_reduced() {
        let pool = PrimePool::new(1 << 3);
        let qs = pool.first_primes_below(30, 1);
        let mut p = RnsPoly::zero(&pool, &qs, Domain::Coeff);
        flip_coefficient_bit(&mut p, 0, 0, 5);
        assert!(p.check_reduced().is_ok());
        assert_eq!(p.residue(0).coeffs()[0], 1 << 5);
    }
}
