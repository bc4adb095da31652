//! Word-sized modular arithmetic.
//!
//! [`Modulus`] packages a prime (or any odd) modulus `q < 2^62` together with
//! the precomputed Barrett constant `⌊2^128 / q⌋`, giving division-free
//! reduction of 128-bit products. For multiplications by a *fixed* operand
//! (NTT twiddle factors, precomputed level-management constants) the cheaper
//! Shoup representation is provided via [`Modulus::shoup`].

use core::fmt;

/// A modulus `q < 2^62` with precomputed Barrett reduction constants.
///
/// All operations take and return values already reduced to `[0, q)` unless
/// documented otherwise.
///
/// # Example
/// ```
/// use bp_math::Modulus;
/// let m = Modulus::new(97);
/// assert_eq!(m.add(90, 10), 3);
/// assert_eq!(m.mul(13, 15), 13 * 15 % 97);
/// assert_eq!(m.mul(m.inv(42).unwrap(), 42), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
    /// `⌊2^128 / q⌋`, split into (low, high) 64-bit words.
    ratio: (u64, u64),
}

impl fmt::Debug for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Modulus").field(&self.q).finish()
    }
}

impl fmt::Display for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.q)
    }
}

impl Modulus {
    /// Maximum supported modulus (exclusive bound): `2^62`.
    ///
    /// The bound leaves headroom so that the Barrett approximation needs only
    /// a single conditional correction and so that lazy sums of two residues
    /// never overflow 63 bits.
    pub const MAX_MODULUS_BITS: u32 = 62;

    /// Creates a new modulus.
    ///
    /// # Panics
    /// Panics if `q < 2` or `q >= 2^62`.
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be >= 2");
        assert!(
            q < (1u64 << Self::MAX_MODULUS_BITS),
            "modulus {q} exceeds 2^{}",
            Self::MAX_MODULUS_BITS
        );
        // floor((2^128 - 1) / q) == floor(2^128 / q) whenever q is not a
        // power of two; for powers of two the ratio is off by one, which the
        // final conditional subtraction still absorbs (quotient estimate may
        // be low by at most one either way).
        let r = u128::MAX / q as u128;
        Self {
            q,
            ratio: (r as u64, (r >> 64) as u64),
        }
    }

    /// The raw modulus value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.q
    }

    /// Number of bits in `q` (position of the highest set bit + 1).
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        self.reduce_u128(x as u128)
    }

    /// Reduces any 128-bit value into `[0, q)` using Barrett reduction.
    ///
    /// Exact for every `x < 2^128`, including `x ≥ q·2^64`: basis
    /// conversion feeds it sums of many `q`-sized products.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        let xlo = x as u64;
        let xhi = (x >> 64) as u64;
        let (r0, r1) = self.ratio;

        // Estimate the quotient ⌊x / q⌋ via ⌊x · ratio / 2^128⌋, which is
        // low by at most 2. Only its low 64 bits are computed, which is
        // enough even when the quotient itself needs more: the remainder
        // x − quot·q lies in [0, 3q) ⊂ [0, 2^64) because q < 2^62, so it
        // is exact when computed mod 2^64.
        let carry = ((xlo as u128 * r0 as u128) >> 64) as u64;
        let tmp2 = xlo as u128 * r1 as u128;
        let (tmp1, c) = (tmp2 as u64).overflowing_add(carry);
        let tmp3 = ((tmp2 >> 64) as u64).wrapping_add(c as u64);

        let tmp2b = xhi as u128 * r0 as u128;
        let (_, c2) = tmp1.overflowing_add(tmp2b as u64);
        let carry2 = ((tmp2b >> 64) as u64).wrapping_add(c2 as u64);

        let quot = xhi.wrapping_mul(r1).wrapping_add(tmp3).wrapping_add(carry2);

        // The quotient estimate is low by at most 2 (Barrett truncation plus
        // the off-by-one ratio for power-of-two moduli), so at most two
        // conditional subtractions are needed.
        let mut r = xlo.wrapping_sub(quot.wrapping_mul(self.q));
        if r >= self.q {
            r -= self.q;
        }
        if r >= self.q {
            r -= self.q;
        }
        debug_assert!(r < self.q);
        r
    }

    /// Modular addition of two reduced values.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction of two reduced values.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Modular negation of a reduced value.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication of two reduced values.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add: `(a * b + c) mod q`.
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q && c < self.q);
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Modular exponentiation `base^exp mod q` by square-and-multiply.
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        let mut base = self.reduce(base);
        let mut acc = 1u64 % self.q;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse, or `None` if `gcd(a, q) != 1`.
    ///
    /// Uses the extended Euclidean algorithm so it works for non-prime `q`
    /// as well.
    pub fn inv(&self, a: u64) -> Option<u64> {
        let a = self.reduce(a);
        if a == 0 {
            return None;
        }
        let (mut t, mut new_t): (i128, i128) = (0, 1);
        let (mut r, mut new_r): (i128, i128) = (self.q as i128, a as i128);
        while new_r != 0 {
            let quot = r / new_r;
            (t, new_t) = (new_t, t - quot * new_t);
            (r, new_r) = (new_r, r - quot * new_r);
        }
        if r != 1 {
            return None;
        }
        let t = if t < 0 { t + self.q as i128 } else { t };
        Some(t as u64)
    }

    /// Precomputes the Shoup representation of a fixed multiplicand `w`,
    /// enabling the fast [`Modulus::mul_shoup`] path.
    ///
    /// # Panics
    /// Panics if `w >= q`.
    #[inline]
    pub fn shoup(&self, w: u64) -> u64 {
        assert!(w < self.q);
        (((w as u128) << 64) / self.q as u128) as u64
    }

    /// Multiplies `a` by a fixed `w` given its Shoup precomputation
    /// `w_shoup = ⌊w·2^64 / q⌋`. Roughly 2× faster than [`Modulus::mul`].
    ///
    /// `a` may be *any* `u64` (in particular, a lazily-reduced value in
    /// `[0, 2q)`): with `w < q` the raw Shoup remainder lands in `[0, 2q)`
    /// for every 64-bit `a`, and since `2q < 2^63` a single conditional
    /// subtraction fully reduces it. The result is always in `[0, q)`.
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let r = self.mul_shoup_lazy(a, w, w_shoup);
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Lazy Shoup multiplication: same inputs as [`Modulus::mul_shoup`] but
    /// skips the final conditional subtraction, returning a value in
    /// `[0, 2q)` that is congruent to `a·w mod q`.
    ///
    /// Correctness for arbitrary `a < 2^64`: with `hi = ⌊a·w_shoup / 2^64⌋`
    /// and `w_shoup = ⌊w·2^64 / q⌋`, the estimate `hi` satisfies
    /// `a·w/q − 2 < hi ≤ a·w/q`, so `a·w − hi·q ∈ [0, 2q)`; both sides are
    /// computed mod 2^64, which preserves the difference exactly.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(w < self.q);
        let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(self.q))
    }

    /// Lazy addition of two values in `[0, 2q)`: returns `a + b` reduced to
    /// `[0, 2q)` (one conditional subtraction of `2q`). Safe from overflow
    /// because `q < 2^62` implies `a + b < 4q < 2^64`.
    #[inline]
    pub fn add_2q(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < 2 * self.q && b < 2 * self.q);
        let s = a + b;
        let two_q = 2 * self.q;
        if s >= two_q {
            s - two_q
        } else {
            s
        }
    }

    /// Final reduction of a lazily-reduced value in `[0, 2q)` to `[0, q)`.
    #[inline]
    pub fn reduce_2q(&self, a: u64) -> u64 {
        debug_assert!(a < 2 * self.q);
        if a >= self.q {
            a - self.q
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_ops() {
        let m = Modulus::new(17);
        assert_eq!(m.add(16, 16), 15);
        assert_eq!(m.sub(3, 5), 15);
        assert_eq!(m.neg(0), 0);
        assert_eq!(m.neg(5), 12);
        assert_eq!(m.mul(16, 16), 1);
        assert_eq!(m.pow(3, 16), 1); // Fermat
        assert_eq!(m.inv(1), Some(1));
        assert_eq!(m.bits(), 5);
    }

    #[test]
    fn inverse_of_zero_is_none() {
        let m = Modulus::new(97);
        assert_eq!(m.inv(0), None);
        assert_eq!(m.inv(97), None); // reduces to zero
    }

    #[test]
    fn non_prime_modulus_partial_inverses() {
        let m = Modulus::new(12);
        assert_eq!(m.inv(5), Some(5)); // 5*5 = 25 = 1 mod 12
        assert_eq!(m.inv(4), None); // gcd(4,12) = 4
    }

    #[test]
    fn reduce_u128_matches_naive() {
        let m = Modulus::new((1u64 << 61) - 1);
        let x: u128 = (123456789123456789u128) * 987654321987654321u128;
        assert_eq!(m.reduce_u128(x) as u128, x % ((1u128 << 61) - 1));
    }

    #[test]
    fn reduce_u128_is_exact_over_the_whole_u128_range() {
        // The quotient of these inputs overflows 64 bits for small q; the
        // vendored proptest samples too few cases to reach them reliably.
        let largest_prime_below_2_62 = (1u64 << 62) - 57;
        assert!(crate::primes::is_prime(largest_prime_below_2_62));
        for q in [
            3,
            97,
            65537,
            (1 << 31) - 1,
            (1 << 61) - 1,
            largest_prime_below_2_62,
            1 << 40,
        ] {
            let m = Modulus::new(q);
            let q128 = u128::from(q);
            let mut xs = vec![
                0,
                1,
                u128::MAX,
                u128::MAX - 1,
                1 << 127,
                (1 << 127) - 1,
                (1 << 127) + 1,
                q128 << 64,
                (q128 << 64) - 1,
                (q128 << 64) + 1,
                u128::from(u64::MAX),
                u128::from(u64::MAX) + 1,
                q128 * q128,
                q128 * q128 - 1,
                (u128::MAX / q128) * q128,
                (u128::MAX / q128) * q128 - 1,
            ];
            // The largest value a basis-conversion accumulator reduces: as
            // many products of a 61-bit residue and a residue mod q as fit,
            // plus a carried remainder.
            let term = ((1u128 << 61) - 2) * (q128 - 1);
            xs.push((u128::MAX - q128) / term * term + q128 - 1);
            for x in xs {
                assert_eq!(u128::from(m.reduce_u128(x)), x % q128, "q={q}, x={x}");
            }
        }
    }

    #[test]
    fn power_of_two_modulus_reduces_correctly() {
        let m = Modulus::new(1u64 << 32);
        for x in [0u64, 1, (1 << 32) - 1, 1 << 32, u64::MAX] {
            assert_eq!(m.reduce(x), x % (1u64 << 32));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_large_modulus_panics() {
        Modulus::new(1u64 << 62);
    }

    proptest! {
        #[test]
        fn prop_mul_matches_u128(q in 2u64..(1u64 << 62), a in any::<u64>(), b in any::<u64>()) {
            let m = Modulus::new(q);
            let (a, b) = (a % q, b % q);
            prop_assert_eq!(m.mul(a, b) as u128, (a as u128 * b as u128) % q as u128);
        }

        #[test]
        fn prop_add_sub_roundtrip(q in 2u64..(1u64 << 62), a in any::<u64>(), b in any::<u64>()) {
            let m = Modulus::new(q);
            let (a, b) = (a % q, b % q);
            prop_assert_eq!(m.sub(m.add(a, b), b), a);
        }

        #[test]
        fn prop_inverse(q in prop::sample::select(vec![97u64, 65537, (1 << 31) - 1, (1u64 << 61) - 1]),
                        a in 1u64..u64::MAX) {
            let m = Modulus::new(q);
            let a = a % q;
            prop_assume!(a != 0);
            let inv = m.inv(a).unwrap();
            prop_assert_eq!(m.mul(a, inv), 1);
        }

        #[test]
        fn prop_shoup_matches_mul(q in 2u64..(1u64 << 62), a in any::<u64>(), w in any::<u64>()) {
            let m = Modulus::new(q);
            let (a, w) = (a % q, w % q);
            let ws = m.shoup(w);
            prop_assert_eq!(m.mul_shoup(a, w, ws), m.mul(a, w));
        }

        #[test]
        fn prop_reduce_u128(q in 2u64..(1u64 << 62), x in any::<u128>()) {
            let m = Modulus::new(q);
            prop_assert_eq!(m.reduce_u128(x) as u128, x % q as u128);
        }

        #[test]
        fn prop_mul_shoup_accepts_unreduced_input(
            q in 2u64..(1u64 << 62),
            a in any::<u64>(),
            w in any::<u64>(),
        ) {
            let m = Modulus::new(q);
            let w = w % q;
            let ws = m.shoup(w);
            // `a` deliberately unreduced: any u64 must fully reduce.
            prop_assert_eq!(
                m.mul_shoup(a, w, ws) as u128,
                (a as u128 * w as u128) % q as u128
            );
        }

        #[test]
        fn prop_mul_shoup_lazy_in_2q(
            q in 2u64..(1u64 << 62),
            a in any::<u64>(),
            w in any::<u64>(),
        ) {
            let m = Modulus::new(q);
            let w = w % q;
            let ws = m.shoup(w);
            let r = m.mul_shoup_lazy(a, w, ws);
            prop_assert!(r < 2 * q, "lazy result {} out of [0, 2q) for q={}", r, q);
            prop_assert_eq!(r as u128 % q as u128, (a as u128 * w as u128) % q as u128);
        }

        #[test]
        fn prop_lazy_add_congruent(
            q in 2u64..(1u64 << 62),
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            let m = Modulus::new(q);
            // Inputs anywhere in [0, 2q).
            let (a, b) = (a % (2 * q), b % (2 * q));
            let s = m.add_2q(a, b);
            prop_assert!(s < 2 * q);
            prop_assert_eq!(s % q, (a % q + b % q) % q);
            prop_assert!(m.reduce_2q(s) < q);
        }
    }
}
