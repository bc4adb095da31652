//! Primality testing and NTT-friendly prime enumeration.
//!
//! BitPacker's modulus-selection algorithm (paper Sec. 3.3) draws its
//! candidates from the pool of *NTT-friendly* primes: primes `p` with
//! `p ≡ 1 (mod 2N)`, which guarantee a primitive `2N`-th root of unity mod
//! `p` and therefore support the negacyclic NTT. This module enumerates such
//! primes in descending or ascending order below a bit bound.
//!
//! The paper notes that with `N = 2^16` and 28-bit words there are only 244
//! NTT-friendly primes, and that every NTT-friendly prime exceeds `2N`; both
//! facts are checked in this module's tests.

/// Deterministic Miller–Rabin primality test, valid for all `u64`.
///
/// Uses the standard 12-witness base set that is proven sufficient for all
/// 64-bit integers.
///
/// # Example
/// ```
/// use bp_math::primes::is_prime;
/// assert!(is_prime((1 << 31) - 1)); // Mersenne prime 2^31 - 1
/// assert!(!is_prime(1_000_000_007 * 3));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d * 2^s with d odd
    let mut d = n - 1;
    let s = d.trailing_zeros();
    d >>= s;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod_u64(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod_u64(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// `(a * b) mod m` for arbitrary 64-bit operands (via 128-bit product).
#[inline]
pub fn mul_mod_u64(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `base^exp mod m` for arbitrary 64-bit operands.
pub fn pow_mod_u64(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc: u64 = 1 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod_u64(acc, base, m);
        }
        base = mul_mod_u64(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Iterator over NTT-friendly primes `p ≡ 1 (mod two_n)` with `p < 2^bits`,
/// in **descending** order starting from the largest such prime.
///
/// These are the candidates for BitPacker's *non-terminal* moduli, which the
/// selection algorithm wants as close to the word size `2^w` as possible
/// (paper Sec. 3.3).
///
/// # Panics
/// Panics if `two_n` is not a power of two or `bits > 64`.
///
/// # Example
/// ```
/// use bp_math::primes::ntt_primes_below;
/// let ps: Vec<u64> = ntt_primes_below(28, 1 << 13).take(3).collect();
/// assert!(ps[0] > ps[1] && ps[1] > ps[2]);
/// for p in ps {
///     assert_eq!(p % (1 << 13), 1);
/// }
/// ```
pub fn ntt_primes_below(bits: u32, two_n: u64) -> impl Iterator<Item = u64> {
    assert!(two_n.is_power_of_two(), "two_n must be a power of two");
    assert!(bits <= 64, "bits must be <= 64");
    let limit = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    // Largest candidate of the form k * two_n + 1 not exceeding `limit`.
    let mut k = limit.saturating_sub(1) / two_n;
    std::iter::from_fn(move || {
        while k > 0 {
            let cand = k * two_n + 1;
            k -= 1;
            if is_prime(cand) {
                return Some(cand);
            }
        }
        None
    })
}

/// Iterator over NTT-friendly primes `p ≡ 1 (mod two_n)` in **ascending**
/// order starting just above `2n` (the smallest possible; the paper notes
/// all NTT-friendly primes exceed `2N`).
pub fn ntt_primes_ascending(two_n: u64) -> impl Iterator<Item = u64> {
    assert!(two_n.is_power_of_two(), "two_n must be a power of two");
    let mut k = 1u64;
    std::iter::from_fn(move || loop {
        let cand = k.checked_mul(two_n)?.checked_add(1)?;
        k += 1;
        if is_prime(cand) {
            return Some(cand);
        }
    })
}

/// Finds the NTT-friendly prime closest to `target` (in log-ratio distance),
/// excluding any prime in `used`, searching at most `max_scan` candidates in
/// each direction. Returns `None` if no candidate is found.
///
/// This is the primitive that the RNS-CKKS baseline chain uses to pick one
/// prime per level near the level's scale (paper Sec. 2.3).
pub fn closest_ntt_prime(target: u64, two_n: u64, used: &[u64], max_scan: usize) -> Option<u64> {
    assert!(two_n.is_power_of_two());
    let k0 = target / two_n;
    let mut best: Option<u64> = None;
    let mut best_dist = f64::INFINITY;
    let t = target as f64;
    for delta in 0..(max_scan as u64) {
        for k in [k0.saturating_sub(delta), k0 + delta] {
            if k == 0 {
                continue;
            }
            let Some(cand) = k.checked_mul(two_n).and_then(|v| v.checked_add(1)) else {
                continue;
            };
            if used.contains(&cand) || !is_prime(cand) {
                continue;
            }
            let dist = (cand as f64 / t).log2().abs();
            if dist < best_dist {
                best_dist = dist;
                best = Some(cand);
            }
        }
        // Once we have a hit, scanning a few more rows cannot find anything
        // closer than a row that brackets the target tighter; stop early
        // after a generous margin.
        if best.is_some() && delta > 64 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let known = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31];
        for n in 0..32u64 {
            assert_eq!(is_prime(n), known.contains(&n), "n = {n}");
        }
    }

    #[test]
    fn large_primes_and_composites() {
        assert!(is_prime((1u64 << 61) - 1)); // Mersenne
        assert!(is_prime(0xFFFF_FFFF_FFFF_FFC5)); // largest 64-bit prime
        assert!(!is_prime(u64::MAX));
        // Carmichael number 561 and a strong-pseudoprime stressor:
        assert!(!is_prime(561));
        assert!(!is_prime(3215031751));
    }

    #[test]
    fn ntt_primes_are_ntt_friendly_and_descending() {
        let two_n = 1u64 << 17; // N = 2^16 as in the paper
        let ps: Vec<u64> = ntt_primes_below(28, two_n).collect();
        // Paper Sec. 3.3: with N = 2^16 and w = 28 bits there are exactly 244
        // NTT-friendly primes.
        assert_eq!(ps.len(), 244);
        for w in ps.windows(2) {
            assert!(w[0] > w[1]);
        }
        for &p in &ps {
            assert!(p < 1 << 28);
            assert_eq!(p % two_n, 1);
            assert!(is_prime(p));
        }
    }

    #[test]
    fn smallest_ntt_prime_exceeds_two_n() {
        // Paper: all NTT-friendly primes are larger than 2N; for N = 2^16
        // they are 17 bits or wider.
        let two_n = 1u64 << 17;
        let smallest = ntt_primes_ascending(two_n).next().unwrap();
        assert!(smallest > two_n);
        assert!(64 - smallest.leading_zeros() >= 18); // needs at least 18 bits
    }

    #[test]
    fn closest_prime_brackets_target() {
        let two_n = 1u64 << 13;
        let target = 1u64 << 40;
        let p = closest_ntt_prime(target, two_n, &[], 4096).unwrap();
        assert!(is_prime(p));
        assert_eq!(p % two_n, 1);
        let dist = (p as f64 / target as f64).log2().abs();
        assert!(dist < 0.01, "distance {dist} too large");
    }

    #[test]
    fn closest_prime_respects_used_list() {
        let two_n = 1u64 << 13;
        let target = 1u64 << 40;
        let p1 = closest_ntt_prime(target, two_n, &[], 4096).unwrap();
        let p2 = closest_ntt_prime(target, two_n, &[p1], 4096).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn descending_iterator_terminates() {
        // A tiny bound yields no primes and must terminate.
        let ps: Vec<u64> = ntt_primes_below(3, 1 << 4).collect();
        assert!(ps.is_empty());
    }
}
