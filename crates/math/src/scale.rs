//! Exact factored representation of CKKS scales.
//!
//! A CKKS scale starts as a power of two (e.g. `2^45` for a "45-bit scale")
//! and then evolves by *exact* multiplications and divisions by residue
//! moduli: after a multiply + rescale, `S ← S² · q'ₖ / qₖ` (paper Fig. 5).
//! Tracking scales in floating point would compound rounding error into the
//! adjust constants; [`FactoredScale`] instead stores the exponent of every
//! prime factor, so any scale reachable by the scheme is represented
//! *exactly* and ratios of scales reduce to exact rationals.

use crate::BigUint;
use std::collections::BTreeMap;
use std::fmt;

/// A positive rational of the form `2^k · ∏ pᵢ^eᵢ` with odd primes `pᵢ` and
/// integer (possibly negative) exponents.
///
/// # Example
/// ```
/// use bp_math::FactoredScale;
/// let s = FactoredScale::from_pow2(45);
/// // After squaring and rescaling by a prime q ≈ 2^45:
/// let q = 35184372088833u64; // not prime, but any odd factor works
/// let s2 = s.square().div_prime(q);
/// assert!((s2.log2() - 45.0).abs() < 0.01);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct FactoredScale {
    pow2: i64,
    factors: BTreeMap<u64, i64>,
}

impl fmt::Debug for FactoredScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FactoredScale(2^{}", self.pow2)?;
        for (p, e) in &self.factors {
            write!(f, " * {p}^{e}")?;
        }
        write!(f, " ~= 2^{:.3})", self.log2())
    }
}

impl fmt::Display for FactoredScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2^{:.3}", self.log2())
    }
}

impl FactoredScale {
    /// The scale `1`.
    pub fn one() -> Self {
        Self::default()
    }

    /// The scale `2^k`.
    pub fn from_pow2(k: i64) -> Self {
        Self {
            pow2: k,
            factors: BTreeMap::new(),
        }
    }

    /// Multiplies by an odd factor `p` (typically an NTT-friendly prime).
    ///
    /// # Panics
    /// Panics if `p` is even (use the power-of-two exponent instead) or zero.
    #[must_use]
    pub fn mul_prime(&self, p: u64) -> Self {
        self.with_factor(p, 1)
    }

    /// Divides by an odd factor `p`.
    #[must_use]
    pub fn div_prime(&self, p: u64) -> Self {
        self.with_factor(p, -1)
    }

    fn with_factor(&self, p: u64, delta: i64) -> Self {
        assert!(p > 0 && p % 2 == 1, "factor must be odd and nonzero: {p}");
        let mut out = self.clone();
        let e = out.factors.entry(p).or_insert(0);
        *e += delta;
        if *e == 0 {
            out.factors.remove(&p);
        }
        out
    }

    /// The square of this scale (result of a ciphertext-ciphertext multiply).
    #[must_use]
    pub fn square(&self) -> Self {
        let mut out = self.clone();
        out.pow2 *= 2;
        for e in out.factors.values_mut() {
            *e *= 2;
        }
        out
    }

    /// Exact product with another scale.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.pow2 += other.pow2;
        for (&p, &e) in &other.factors {
            let entry = out.factors.entry(p).or_insert(0);
            *entry += e;
            if *entry == 0 {
                out.factors.remove(&p);
            }
        }
        out
    }

    /// Exact quotient by another scale.
    #[must_use]
    pub fn div(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.pow2 -= other.pow2;
        for (&p, &e) in &other.factors {
            let entry = out.factors.entry(p).or_insert(0);
            *entry -= e;
            if *entry == 0 {
                out.factors.remove(&p);
            }
        }
        out
    }

    /// Base-2 logarithm of the value.
    pub fn log2(&self) -> f64 {
        let mut acc = self.pow2 as f64;
        for (&p, &e) in &self.factors {
            acc += e as f64 * (p as f64).log2();
        }
        acc
    }

    /// The value as `f64` (may be `inf`/`0` if the exponents are extreme).
    pub fn to_f64(&self) -> f64 {
        2f64.powf(self.log2())
    }

    /// The exact value as a reduced-form pair `(numerator, denominator)`.
    ///
    /// The pair is already in lowest terms because the factor base consists
    /// of distinct primes.
    pub fn to_ratio(&self) -> (BigUint, BigUint) {
        let mut num = if self.pow2 >= 0 {
            BigUint::pow2(self.pow2 as u32)
        } else {
            BigUint::one()
        };
        let mut den = if self.pow2 < 0 {
            BigUint::pow2((-self.pow2) as u32)
        } else {
            BigUint::one()
        };
        for (&p, &e) in &self.factors {
            let target = if e > 0 { &mut num } else { &mut den };
            for _ in 0..e.unsigned_abs() {
                *target = target.mul_u64(p);
            }
        }
        (num, den)
    }

    /// Rounds the value to the nearest [`BigUint`] integer.
    ///
    /// Used to materialize adjust constants `K` (paper Listings 2 and 6),
    /// which are exact rationals very close to integers.
    pub fn round_to_biguint(&self) -> BigUint {
        let (num, den) = self.to_ratio();
        num.div_round(&den)
    }

    /// The raw representation: the power-of-two exponent and the
    /// `(prime, exponent)` factor list (used by serialization).
    pub fn parts(&self) -> (i64, Vec<(u64, i64)>) {
        (
            self.pow2,
            self.factors.iter().map(|(&p, &e)| (p, e)).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_roundtrip() {
        let s = FactoredScale::from_pow2(45);
        assert_eq!(s.log2(), 45.0);
        assert_eq!(s.round_to_biguint(), BigUint::pow2(45));
    }

    #[test]
    fn rescale_cycle_is_exact() {
        // S' = S^2 / q with q exactly S^2/S' recovers S'.
        let s = FactoredScale::from_pow2(40);
        let q = (1u64 << 40) + 9; // odd
        let s2 = s.square().div_prime(q);
        let expect = 80.0 - (q as f64).log2();
        assert!((s2.log2() - expect).abs() < 1e-9);
        // Multiplying back by q recovers 2^80 exactly.
        let back = s2.mul_prime(q);
        assert_eq!(back, FactoredScale::from_pow2(80));
    }

    #[test]
    fn mul_div_inverse() {
        let a = FactoredScale::from_pow2(30).mul_prime(97).mul_prime(101);
        let b = FactoredScale::from_pow2(-5).mul_prime(97);
        let c = a.mul(&b).div(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn ratio_in_lowest_terms() {
        let s = FactoredScale::one().mul_prime(7).div_prime(3);
        let (num, den) = s.to_ratio();
        assert_eq!(num, BigUint::from(7u64));
        assert_eq!(den, BigUint::from(3u64));
    }

    #[test]
    fn round_to_biguint_rounds_to_nearest() {
        // 7/3 = 2.33 → 2 ; 8/3 = 2.67 → 3
        let a = FactoredScale::one()
            .mul_prime(7)
            .div_prime(3)
            .round_to_biguint();
        assert_eq!(a, BigUint::from(2u64));
        let b = FactoredScale::from_pow2(3).div_prime(3).round_to_biguint();
        assert_eq!(b, BigUint::from(3u64));
    }

    #[test]
    fn negative_pow2_is_fractional() {
        let s = FactoredScale::from_pow2(-3);
        assert_eq!(s.log2(), -3.0);
        let (num, den) = s.to_ratio();
        assert_eq!(num, BigUint::one());
        assert_eq!(den, BigUint::from(8u64));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_factor_panics() {
        let _ = FactoredScale::one().mul_prime(10);
    }

    #[test]
    fn repeated_squaring_stays_exact() {
        // Twenty rescale rounds: exponents grow but representation is exact.
        let mut s = FactoredScale::from_pow2(40);
        let q = (1u64 << 40) + 9;
        for _ in 0..20 {
            s = s.square().div_prime(q);
        }
        // log2 S_k converges toward log2 q' relationships; just check it is
        // finite and the representation compares equal to itself.
        assert!(s.log2().is_finite());
        assert_eq!(s, s.clone());
    }
}
