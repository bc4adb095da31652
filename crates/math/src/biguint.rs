//! Arbitrary-precision unsigned integers.
//!
//! CKKS ciphertext coefficients live modulo a wide `Q` (typically > 1,000
//! bits; paper Sec. 2.2). While all *hot* arithmetic stays in RNS form, a few
//! operations genuinely need wide integers:
//!
//! * CRT reconstruction when decoding / inspecting ciphertexts ([`crate::crt`]),
//! * computing the exact integer constants used by `adjust`
//!   (`K = Q_L · S_{L−1} / (Q_{L−1} · S_L)`, paper Listings 2 and 6),
//! * bookkeeping of `Q` against `Q_max` during modulus selection.
//!
//! [`BigUint`] is a deliberately small implementation (schoolbook
//! multiplication, Knuth Algorithm D division) — chain lengths are ≤ ~60
//! limbs, so asymptotics are irrelevant and correctness is everything.

use core::cmp::Ordering;
use core::fmt;

/// An arbitrary-precision unsigned integer stored as little-endian `u64`
/// limbs with no trailing zero limbs (canonical form; zero is the empty limb
/// vector).
///
/// # Example
/// ```
/// use bp_math::BigUint;
/// let a = BigUint::from(u64::MAX);
/// let b = &a * &a;
/// let (q, r) = b.div_rem(&a);
/// assert_eq!(q, a);
/// assert!(r.is_zero());
/// ```
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (largest power of ten below 2^64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits: Vec<String> = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(CHUNK);
            digits.push(r.to_string());
            cur = q;
        }
        let mut out = String::new();
        out.push_str(digits.last().expect("nonzero has at least one chunk"));
        for d in digits.iter().rev().skip(1) {
            out.push_str(&format!("{d:0>19}"));
        }
        write!(f, "{out}")
    }
}

impl From<u64> for BigUint {
    fn from(x: u64) -> Self {
        if x == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![x] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(x: u128) -> Self {
        let mut v = Self {
            limbs: vec![x as u64, (x >> 64) as u64],
        };
        v.normalize();
        v
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// `2^exp`.
    pub fn pow2(exp: u32) -> Self {
        let limb = (exp / 64) as usize;
        let mut limbs = vec![0u64; limb + 1];
        limbs[limb] = 1u64 << (exp % 64);
        Self { limbs }
    }

    /// Product of a slice of `u64` factors (e.g. an RNS modulus `Q = ∏ qᵢ`).
    pub fn product_of(factors: &[u64]) -> Self {
        let mut acc = Self::one();
        for &f in factors {
            acc = acc.mul_u64(f);
        }
        acc
    }

    /// Whether this is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// Approximate base-2 logarithm. Returns `-inf` for zero.
    pub fn log2(&self) -> f64 {
        match self.limbs.len() {
            0 => f64::NEG_INFINITY,
            1 => (self.limbs[0] as f64).log2(),
            n => {
                let hi = self.limbs[n - 1] as f64;
                let mid = self.limbs[n - 2] as f64;
                let lo = if n >= 3 {
                    self.limbs[n - 3] as f64
                } else {
                    0.0
                };
                let mant = hi + mid / 2f64.powi(64) + lo / 2f64.powi(128);
                mant.log2() + 64.0 * (n as f64 - 1.0)
            }
        }
    }

    /// Lossy conversion to `f64` (round-to-nearest on the top bits; `inf` if
    /// the value exceeds `f64::MAX`).
    pub fn to_f64(&self) -> f64 {
        match self.limbs.len() {
            0 => 0.0,
            1 => self.limbs[0] as f64,
            n => {
                let hi = self.limbs[n - 1] as f64;
                let mid = self.limbs[n - 2] as f64;
                let lo = if n >= 3 {
                    self.limbs[n - 3] as f64
                } else {
                    0.0
                };
                let mant = hi + mid / 2f64.powi(64) + lo / 2f64.powi(128);
                mant * 2f64.powi(64 * (n as i32 - 1))
            }
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(long.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.limbs.len() {
            let b = short.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = long.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut v = Self { limbs: out };
        v.normalize();
        v
    }

    /// Subtraction.
    ///
    /// # Panics
    /// Panics if `other > self` (values are unsigned).
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, c1) = self.limbs[i].overflowing_sub(b);
            let (d2, c2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (c1 as u64) + (c2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut v = Self { limbs: out };
        v.normalize();
        v
    }

    /// Multiplication by a single `u64`.
    pub fn mul_u64(&self, m: u64) -> Self {
        if m == 0 || self.is_zero() {
            return Self::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for &l in &self.limbs {
            let prod = l as u128 * m as u128 + carry as u128;
            out.push(prod as u64);
            carry = (prod >> 64) as u64;
        }
        if carry > 0 {
            out.push(carry);
        }
        Self { limbs: out }
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u128 * b as u128 + out[i + j] as u128 + carry as u128;
                out[i + j] = t as u64;
                carry = (t >> 64) as u64;
            }
            out[i + other.limbs.len()] = carry;
        }
        let mut v = Self { limbs: out };
        v.normalize();
        v
    }

    /// Left shift by `sh` bits.
    pub fn shl(&self, sh: u32) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = (sh / 64) as usize;
        let bit_shift = sh % 64;
        let mut out = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            if bit_shift == 0 {
                out[i + limb_shift] |= l;
            } else {
                out[i + limb_shift] |= l << bit_shift;
                out[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        let mut v = Self { limbs: out };
        v.normalize();
        v
    }

    /// Right shift by `sh` bits (floor).
    pub fn shr(&self, sh: u32) -> Self {
        let limb_shift = (sh / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = sh % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        for i in limb_shift..self.limbs.len() {
            let mut l = self.limbs[i] >> bit_shift;
            if bit_shift > 0 {
                if let Some(&next) = self.limbs.get(i + 1) {
                    l |= next << (64 - bit_shift);
                }
            }
            out.push(l);
        }
        let mut v = Self { limbs: out };
        v.normalize();
        v
    }

    /// Division and remainder by a single `u64`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (Self, u64) {
        assert!(d != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u64;
        for i in (0..self.limbs.len()).rev() {
            let cur = ((rem as u128) << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = (cur % d as u128) as u64;
        }
        let mut q = Self { limbs: out };
        q.normalize();
        (q, rem)
    }

    /// Remainder modulo a single `u64`.
    pub fn rem_u64(&self, d: u64) -> u64 {
        self.div_rem_u64(d).1
    }

    /// Full division with remainder (Knuth Algorithm D).
    ///
    /// Returns `(quotient, remainder)` with `self = q·d + r` and `r < d`.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn div_rem(&self, d: &Self) -> (Self, Self) {
        assert!(!d.is_zero(), "division by zero");
        if self < d {
            return (Self::zero(), self.clone());
        }
        if d.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(d.limbs[0]);
            return (q, Self::from(r));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = d.limbs.last().unwrap().leading_zeros();
        let u = self.shl(shift);
        let v = d.shl(shift);
        let n = v.limbs.len();
        let mut u_limbs = u.limbs.clone();
        // Ensure u has an extra high limb for the algorithm.
        u_limbs.push(0);
        let m = u_limbs.len() - n - 1;
        let v_limbs = &v.limbs;
        let vtop = v_limbs[n - 1];
        let vnext = v_limbs[n - 2];

        let mut q_limbs = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            let numer = ((u_limbs[j + n] as u128) << 64) | u_limbs[j + n - 1] as u128;
            let mut qhat = numer / vtop as u128;
            let mut rhat = numer % vtop as u128;
            if qhat >> 64 != 0 {
                // Clamp the estimate to B-1 (Knuth step D3).
                qhat = u64::MAX as u128;
                rhat = numer - qhat * vtop as u128;
            }
            // Correct qhat down while the two-limb test fails (at most twice
            // once rhat stays below B).
            while rhat >> 64 == 0
                && qhat * vnext as u128 > ((rhat << 64) | u_limbs[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += vtop as u128;
            }
            // Multiply-subtract qhat * v from u[j .. j+n].
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * v_limbs[i] as u128 + carry;
                carry = p >> 64;
                let sub = (p as u64) as i128;
                let t = u_limbs[j + i] as i128 - sub - borrow;
                u_limbs[j + i] = t as u64; // wraps mod 2^64
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = u_limbs[j + n] as i128 - carry as i128 - borrow;
            u_limbs[j + n] = t as u64;

            if t < 0 {
                // qhat was one too large: add back v.
                qhat -= 1;
                let mut c = 0u64;
                for i in 0..n {
                    let (s1, c1) = u_limbs[j + i].overflowing_add(v_limbs[i]);
                    let (s2, c2) = s1.overflowing_add(c);
                    u_limbs[j + i] = s2;
                    c = (c1 as u64) + (c2 as u64);
                }
                u_limbs[j + n] = u_limbs[j + n].wrapping_add(c);
            }
            q_limbs[j] = qhat as u64;
        }

        let mut q = Self { limbs: q_limbs };
        q.normalize();
        let mut r = Self {
            limbs: u_limbs[..n].to_vec(),
        };
        r.normalize();
        (q, r.shr(shift))
    }

    /// Remainder modulo `d`.
    pub fn rem(&self, d: &Self) -> Self {
        self.div_rem(d).1
    }

    /// Rounded division `round(self / d)` (ties round up).
    pub fn div_round(&self, d: &Self) -> Self {
        let doubled = self.shl(1).add(d);
        doubled.div_rem(&d.shl(1)).0
    }
}

impl core::ops::Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(self, rhs)
    }
}

impl core::ops::Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        BigUint::sub(self, rhs)
    }
}

impl core::ops::Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::mul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::from(12345u64).to_string(), "12345");
        // 2^64 = 18446744073709551616
        assert_eq!(BigUint::pow2(64).to_string(), "18446744073709551616");
        // 2^128
        assert_eq!(
            BigUint::pow2(128).to_string(),
            "340282366920938463463374607431768211456"
        );
    }

    #[test]
    fn bits_and_log2() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::pow2(100).bits(), 101);
        assert!((BigUint::pow2(100).log2() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn product_of_primes() {
        let q = BigUint::product_of(&[3, 5, 7]);
        assert_eq!(q, BigUint::from(105u64));
        assert_eq!(q.rem_u64(7), 0);
        assert_eq!(q.rem_u64(11), 105 % 11);
    }

    #[test]
    fn shifts_roundtrip() {
        let x = BigUint::from(0xDEADBEEFCAFEBABEu64);
        assert_eq!(x.shl(100).shr(100), x);
        assert_eq!(x.shr(200), BigUint::zero());
    }

    #[test]
    fn div_round_ties() {
        // round(7/2) = 4 (ties up), round(5/2) = 3
        assert_eq!(
            BigUint::from(7u64).div_round(&BigUint::from(2u64)),
            BigUint::from(4u64)
        );
        assert_eq!(
            BigUint::from(5u64).div_round(&BigUint::from(2u64)),
            BigUint::from(3u64)
        );
        assert_eq!(
            BigUint::from(6u64).div_round(&BigUint::from(3u64)),
            BigUint::from(2u64)
        );
    }

    #[test]
    fn knuth_addback_case() {
        // Craft a case that forces the add-back path: classic example from
        // Hacker's Delight uses u = 0x7fff...0000, v = 0x8000...0001 shapes.
        let u = BigUint {
            limbs: vec![0, 0xFFFF_FFFF_FFFF_FFFE, 0x8000_0000_0000_0000],
        };
        let v = BigUint {
            limbs: vec![0xFFFF_FFFF_FFFF_FFFF, 0x8000_0000_0000_0000],
        };
        let (q, r) = u.div_rem(&v);
        assert_eq!(&(&q * &v) + &r, u);
        assert!(r < v);
    }

    #[test]
    fn to_f64_accuracy() {
        let x = BigUint::product_of(&[(1u64 << 40) - 87, (1u64 << 40) - 167]);
        let expected = ((1u64 << 40) - 87) as f64 * ((1u64 << 40) - 167) as f64;
        assert!((x.to_f64() - expected).abs() / expected < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_add_sub(a in proptest::collection::vec(any::<u64>(), 0..6),
                        b in proptest::collection::vec(any::<u64>(), 0..6)) {
            let mut a = BigUint { limbs: a }; a.normalize();
            let mut b = BigUint { limbs: b }; b.normalize();
            let s = &a + &b;
            prop_assert_eq!(&s - &b, a.clone());
            prop_assert_eq!(&s - &a, b);
        }

        #[test]
        fn prop_div_rem(a in proptest::collection::vec(any::<u64>(), 0..8),
                        d in proptest::collection::vec(any::<u64>(), 1..5)) {
            let mut a = BigUint { limbs: a }; a.normalize();
            let mut d = BigUint { limbs: d }; d.normalize();
            prop_assume!(!d.is_zero());
            let (q, r) = a.div_rem(&d);
            prop_assert!(r < d);
            prop_assert_eq!(&(&q * &d) + &r, a);
        }

        #[test]
        fn prop_mul_commutative(a in proptest::collection::vec(any::<u64>(), 0..5),
                                b in proptest::collection::vec(any::<u64>(), 0..5)) {
            let mut a = BigUint { limbs: a }; a.normalize();
            let mut b = BigUint { limbs: b }; b.normalize();
            prop_assert_eq!(&a * &b, &b * &a);
        }

        #[test]
        fn prop_rem_u64_consistent(a in proptest::collection::vec(any::<u64>(), 0..6),
                                   d in 1u64..u64::MAX) {
            let mut a = BigUint { limbs: a }; a.normalize();
            let r1 = a.rem_u64(d);
            let r2 = a.rem(&BigUint::from(d));
            prop_assert_eq!(BigUint::from(r1), r2);
        }

        #[test]
        fn prop_shl_is_mul_pow2(a in proptest::collection::vec(any::<u64>(), 0..4), sh in 0u32..130) {
            let mut a = BigUint { limbs: a }; a.normalize();
            prop_assert_eq!(a.shl(sh), a.mul(&BigUint::pow2(sh)));
        }
    }
}
