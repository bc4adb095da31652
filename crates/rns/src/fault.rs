//! Fault injection for robustness testing.
//!
//! Compiled into every build. These helpers deliberately corrupt RNS
//! polynomials and serialized bytes the way a faulty memory, a truncated
//! network read, or a hostile peer would, so the test suites can assert
//! that every corruption surfaces as a typed error ([`crate::RnsError`]
//! or the CKKS layer's integrity errors) instead of a panic or silent
//! garbage. No library code calls them: nothing happens, and nothing is
//! paid, until a test does.

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

/// Truncates a serialized blob to `keep` bytes, simulating a short read or
/// interrupted transfer. No-op if the blob is already shorter.
pub fn truncate_bytes(bytes: &mut Vec<u8>, keep: usize) {
    bytes.truncate(keep);
}

/// Flips one bit in a serialized blob, simulating in-flight corruption.
///
/// # Panics
/// Panics if `byte` is out of range.
pub fn flip_byte_bit(bytes: &mut [u8], byte: usize, bit: u32) {
    bytes[byte] ^= 1 << (bit % 8);
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

    #[test]
    fn byte_faults_modify_blobs() {
        let mut blob = vec![0u8; 16];
        flip_byte_bit(&mut blob, 7, 2);
        assert_eq!(blob[7], 4);
        truncate_bytes(&mut blob, 4);
        assert_eq!(blob.len(), 4);
    }
}
