//! Negacyclic number-theoretic transform.
//!
//! The NTT maps `Z_q[X]/(X^N + 1)` to `N` pointwise slots so polynomial
//! multiplication becomes elementwise multiplication. Slot `k` holds
//! `a(ψ^(2k+1))` for a fixed primitive `2N`-th root of unity `ψ`, in
//! natural order: the wire format stores slots in that order, and the
//! Galois gather `out[k] = in[(t(2k+1) mod 2N) >> 1]` indexes them so.
//!
//! Both directions merge the `ψ` twist into the butterflies
//! (Longa–Naehrig). The forward transform runs Cooley–Tukey butterflies
//! whose twiddles are powers of `ψ` in bit-reversed order, then one
//! bit-reversal pass puts the slots in natural order. The inverse runs one
//! bit-reversal pass, then Gentleman–Sande butterflies with powers of
//! `ψ⁻¹`, and its last stage folds in the scaling by `N⁻¹`. A table holds
//! `2N` twiddles with Shoup companions, so the hot loops avoid 128-bit
//! Barrett reductions, and each stage reads its twiddles in order.

use bp_math::Modulus;
use bp_par::BpThreadPool;
use std::sync::Arc;

/// Precomputed NTT tables for one NTT-friendly prime and one ring degree.
///
/// Construction fails (panics) if the prime does not support a `2N`-th root
/// of unity, i.e. if `q ≢ 1 (mod 2N)`.
///
/// The table also carries the [`BpThreadPool`] handle that polynomial
/// operations over this prime should fan out on: every `ResiduePoly` holds
/// an `Arc<NttTable>`, so the table is the natural carrier that propagates
/// the executor from `PrimePool` down to every residue loop.
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    log_n: u32,
    threads: Arc<BpThreadPool>,
    /// `ψ^bitrev(k)` for `k in 0..n`, with Shoup companions. The forward
    /// stage with `b` butterfly blocks reads entries `b..2b`.
    psi_rev: Vec<(u64, u64)>,
    /// `ψ^-bitrev(k)` for `k in 2..n`, with Shoup companions. The inverse
    /// stage with `b` butterfly blocks reads entries `b..2b`. Entries 0 and
    /// 1 are the last stage's multipliers, `N⁻¹` and `N⁻¹·ψ^-bitrev(1)`.
    inv_psi_rev: Vec<(u64, u64)>,
}

impl NttTable {
    /// Builds tables for modulus `q` and ring degree `n` (a power of two),
    /// attached to the process-wide default thread pool.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two, or if `q` is not an NTT-friendly
    /// prime for this `n` (`q ≡ 1 mod 2n` and prime).
    pub fn new(q: u64, n: usize) -> Self {
        Self::with_threads(q, n, BpThreadPool::global())
    }

    /// Builds tables for modulus `q` and ring degree `n`, attached to an
    /// explicit executor handle.
    ///
    /// # Panics
    /// Same conditions as [`NttTable::new`].
    pub fn with_threads(q: u64, n: usize, threads: Arc<BpThreadPool>) -> Self {
        assert!(n.is_power_of_two(), "ring degree must be a power of two");
        assert!(n >= 2, "ring degree must be at least 2");
        let two_n = 2 * n as u64;
        assert!(
            q % two_n == 1,
            "modulus {q} is not NTT-friendly for N = {n} (q mod 2N != 1)"
        );
        assert!(bp_math::primes::is_prime(q), "modulus {q} must be prime");

        let m = Modulus::new(q);
        let log_n = n.trailing_zeros();
        let psi = find_primitive_2n_root(&m, n as u64);
        let inv_psi = m.inv(psi).expect("psi invertible");
        let inv_n = m.inv(n as u64).expect("n invertible mod q");

        let mut psi_rev = vec![0u64; n];
        let mut inv_psi_rev = vec![0u64; n];
        let (mut p, mut ip) = (1u64, 1u64);
        for j in 0..n {
            let r = bit_reverse(j, log_n);
            psi_rev[r] = p;
            inv_psi_rev[r] = ip;
            p = m.mul(p, psi);
            ip = m.mul(ip, inv_psi);
        }
        inv_psi_rev[0] = inv_n;
        inv_psi_rev[1] = m.mul(inv_psi_rev[1], inv_n);

        let with_shoup = |vals: Vec<u64>| -> Vec<(u64, u64)> {
            vals.into_iter().map(|v| (v, m.shoup(v))).collect()
        };
        Self {
            modulus: m,
            n,
            log_n,
            threads,
            psi_rev: with_shoup(psi_rev),
            inv_psi_rev: with_shoup(inv_psi_rev),
        }
    }

    /// The modulus these tables were built for.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The executor handle residue operations over this prime fan out on.
    #[inline]
    pub fn threads(&self) -> &Arc<BpThreadPool> {
        &self.threads
    }

    /// Forward negacyclic NTT, in place. Input and output are in `[0, q)`.
    ///
    /// The butterflies reduce lazily (Harvey): values stay in `[0, 4q)`,
    /// which fits a `u64` because `q < 2^62`, and only the last stage
    /// reduces to `[0, q)`.
    ///
    /// # Panics
    /// Panics if `a.len() != N`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        bp_telemetry::counters::add(bp_telemetry::counters::Counter::NttForward, 1);
        let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::NttForward);
        let m = &self.modulus;
        let (q, two_q) = (m.value(), 2 * m.value());
        debug_assert!(a.iter().all(|&x| x < q), "forward NTT input not in [0, q)");
        let (mut blocks, mut half) = (1, self.n / 2);
        while half > 1 {
            let twiddles = &self.psi_rev[blocks..2 * blocks];
            for (block, &(w, ws)) in a.chunks_exact_mut(2 * half).zip(twiddles) {
                let (lo, hi) = block.split_at_mut(half);
                for (x, y) in lo.iter_mut().zip(hi) {
                    // Multiply first, then an `if` for the subtraction: on an
                    // x86-64 Xeon the other orders and a `min`-based
                    // subtraction compiled to a loop about 1.5× slower.
                    let v = m.mul_shoup_lazy(*y, w, ws);
                    let u = if *x >= two_q { *x - two_q } else { *x };
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            blocks *= 2;
            half /= 2;
        }
        for (pair, &(w, ws)) in a.chunks_exact_mut(2).zip(&self.psi_rev[blocks..]) {
            let v = csub(m.mul_shoup_lazy(pair[1], w, ws), q);
            let u = csub(csub(pair[0], two_q), q);
            pair[0] = csub(u + v, q);
            pair[1] = csub(u + q - v, q);
        }
        bit_reverse_permute(a, self.log_n);
    }

    /// Inverse negacyclic NTT, in place. Input and output are in `[0, q)`.
    ///
    /// The butterflies keep values in `[0, 2q)`; the last stage multiplies
    /// by `N⁻¹` with a full Shoup reduction.
    ///
    /// # Panics
    /// Panics if `a.len() != N`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        bp_telemetry::counters::add(bp_telemetry::counters::Counter::NttInverse, 1);
        let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::NttInverse);
        let m = &self.modulus;
        let two_q = 2 * m.value();
        debug_assert!(
            a.iter().all(|&x| x < m.value()),
            "inverse NTT input not in [0, q)"
        );
        bit_reverse_permute(a, self.log_n);
        let (mut blocks, mut half) = (self.n / 2, 1);
        while blocks > 1 {
            let twiddles = &self.inv_psi_rev[blocks..2 * blocks];
            for (block, &(w, ws)) in a.chunks_exact_mut(2 * half).zip(twiddles) {
                let (lo, hi) = block.split_at_mut(half);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let (u, v) = (*x, *y);
                    *x = m.add_2q(u, v);
                    *y = m.mul_shoup_lazy(u + two_q - v, w, ws);
                }
            }
            blocks /= 2;
            half *= 2;
        }
        let (n_inv, n_inv_s) = self.inv_psi_rev[0];
        let (w, ws) = self.inv_psi_rev[1];
        let (lo, hi) = a.split_at_mut(half);
        for (x, y) in lo.iter_mut().zip(hi) {
            let (u, v) = (*x, *y);
            *x = m.mul_shoup(u + v, n_inv, n_inv_s);
            *y = m.mul_shoup(u + two_q - v, w, ws);
        }
    }
}

/// `x − b` if `x ≥ b`, else `x`, for `x < 2b ≤ 2^63`. The sign of
/// `x − b` picks the result, with no branch on the data.
#[inline(always)]
fn csub(x: u64, b: u64) -> u64 {
    let d = x.wrapping_sub(b);
    d.wrapping_add(b & ((d as i64 >> 63) as u64))
}

/// `i` with its low `log_n` bits reversed.
fn bit_reverse(i: usize, log_n: u32) -> usize {
    (i as u64)
        .reverse_bits()
        .checked_shr(64 - log_n)
        .unwrap_or(0) as usize
}

/// In-place bit-reversal permutation of a length-`2^log_n` slice.
///
/// An index splits into `TILE_BITS` high bits `h`, a middle `m` and
/// `TILE_BITS` low bits `l`; its reverse is `(rev l, rev m, rev h)`. So the
/// square tile of indices with middle `m` maps, transposed, onto the tile
/// with middle `rev m`, and the pass swaps whole tiles. Each tile row is
/// one cache line, so every line is loaded once instead of once per
/// element swapped out of order.
fn bit_reverse_permute(a: &mut [u64], log_n: u32) {
    const TILE_BITS: u32 = 3;
    const T: usize = 1 << TILE_BITS;
    const REV: [usize; T] = [0, 4, 2, 6, 1, 5, 3, 7];
    if log_n < 2 * TILE_BITS {
        for i in 0..a.len() {
            let j = bit_reverse(i, log_n);
            if i < j {
                a.swap(i, j);
            }
        }
        return;
    }
    let mid_bits = log_n - 2 * TILE_BITS;
    let stride = 1usize << (log_n - TILE_BITS);
    let (mut tile, mut mate) = ([0u64; T * T], [0u64; T * T]);
    for m in 0..1usize << mid_bits {
        let m_rev = bit_reverse(m, mid_bits);
        if m > m_rev {
            continue;
        }
        let (at, mate_at) = (m << TILE_BITS, m_rev << TILE_BITS);
        for h in 0..T {
            tile[h * T..][..T].copy_from_slice(&a[h * stride + at..][..T]);
            mate[h * T..][..T].copy_from_slice(&a[h * stride + mate_at..][..T]);
        }
        for h in 0..T {
            for l in 0..T {
                a[h * stride + at + l] = mate[REV[l] * T + REV[h]];
                a[h * stride + mate_at + l] = tile[REV[l] * T + REV[h]];
            }
        }
    }
}

/// Finds a primitive `2n`-th root of unity mod `q` (i.e. `ψ` with
/// `ψ^n ≡ -1`), deterministically scanning small candidate bases.
fn find_primitive_2n_root(m: &Modulus, n: u64) -> u64 {
    let q = m.value();
    let exp = (q - 1) / (2 * n);
    for base in 2..10_000u64 {
        let cand = m.pow(base, exp);
        // cand has order dividing 2n; it is primitive iff cand^n = -1.
        if m.pow(cand, n) == q - 1 {
            return cand;
        }
    }
    panic!("no primitive 2n-th root found for q = {q} (is q prime?)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_math::primes::ntt_primes_below;

    fn table(bits: u32, n: usize) -> NttTable {
        let q = ntt_primes_below(bits, 2 * n as u64).next().unwrap();
        NttTable::new(q, n)
    }

    /// Schoolbook negacyclic multiplication, the test oracle.
    #[allow(clippy::needless_range_loop)]
    fn negacyclic_mul_naive(a: &[u64], b: &[u64], m: &Modulus) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let p = m.mul(a[i], b[j]);
                let k = i + j;
                if k < n {
                    out[k] = m.add(out[k], p);
                } else {
                    out[k - n] = m.sub(out[k - n], p);
                }
            }
        }
        out
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [4usize, 64, 1024] {
            let t = table(40, n);
            let q = t.modulus().value();
            let mut a: Vec<u64> = (0..n as u64).map(|i| (i * 0x9E3779B9 + 7) % q).collect();
            let orig = a.clone();
            t.forward(&mut a);
            assert_ne!(a, orig, "NTT should change the vector");
            t.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn ntt_multiplication_matches_schoolbook() {
        let n = 32;
        let t = table(30, n);
        let q = t.modulus().value();
        let m = *t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 3) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 11) % q).collect();
        let expect = negacyclic_mul_naive(&a, &b, &m);

        let (mut fa, mut fb) = (a.clone(), b.clone());
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expect);
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^(N-1) * X = X^N = -1.
        let n = 16;
        let t = table(30, n);
        let m = *t.modulus();
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        t.forward(&mut a);
        t.forward(&mut b);
        let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut c);
        assert_eq!(c[0], m.value() - 1, "X^N must equal -1");
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn ntt_is_linear() {
        let n = 64;
        let t = table(35, n);
        let m = *t.modulus();
        let q = m.value();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 5) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 2) % q).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
        let (mut fa, mut fb, mut fs) = (a, b, sum);
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fs);
        let fsum: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.add(x, y)).collect();
        assert_eq!(fs, fsum);
    }

    #[test]
    fn slot_k_holds_evaluation_at_odd_power_of_psi() {
        // Slot order is part of the wire format and of the Galois gather:
        // slot k must hold a(ψ^(2k+1)), in natural order.
        for n in [8usize, 256] {
            let t = table(61, n);
            let m = *t.modulus();
            let mut x = vec![0u64; n];
            x[1] = 1;
            t.forward(&mut x);
            let psi = x[0];
            assert_eq!(
                m.pow(psi, n as u64),
                m.value() - 1,
                "ψ must be a 2N-th root"
            );
            let a: Vec<u64> = (0..n as u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x55) % m.value())
                .collect();
            let mut fa = a.clone();
            t.forward(&mut fa);
            for (k, &got) in fa.iter().enumerate() {
                let root = m.pow(psi, 2 * k as u64 + 1);
                let expect = a.iter().rev().fold(0, |acc, &c| m.mul_add(acc, root, c));
                assert_eq!(got, expect, "n={n}, slot {k}");
            }
        }
    }

    #[test]
    fn lazy_bounds_hold_at_the_largest_prime() {
        // The largest inputs at the largest NTT-friendly prime below 2^62:
        // a lazy bound that overflowed a u64 would panic in a debug build
        // or break the round trip.
        for n in [8usize, 4096] {
            let t = table(62, n);
            let q = t.modulus().value();
            let orig = vec![q - 1; n];
            let mut a = orig.clone();
            t.forward(&mut a);
            assert!(a.iter().all(|&x| x < q), "forward left a value >= q");
            t.inverse(&mut a);
            assert_eq!(a, orig, "n={n}");
        }
    }

    #[test]
    fn bit_reversal_permutes_every_size() {
        for log_n in 1..=14 {
            let n = 1usize << log_n;
            let mut a: Vec<u64> = (0..n as u64).collect();
            bit_reverse_permute(&mut a, log_n);
            for (i, &x) in a.iter().enumerate() {
                assert_eq!(x as usize, bit_reverse(i, log_n), "log_n={log_n}, i={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NTT-friendly")]
    fn rejects_bad_modulus() {
        NttTable::new(97, 1 << 10); // 97 mod 2048 != 1
    }

    #[test]
    fn lazy_ntt_outputs_are_fully_reduced() {
        // The lazy butterflies work in [0, 2q); the public forward/inverse
        // contract is still canonical [0, q) output.
        for n in [8usize, 256, 2048] {
            let t = table(45, n);
            let q = t.modulus().value();
            let mut a: Vec<u64> = (0..n as u64)
                .map(|i| (i.wrapping_mul(0x2545F4914F6CDD1D) ^ 0xABCD) % q)
                .collect();
            t.forward(&mut a);
            assert!(a.iter().all(|&x| x < q), "forward left a value >= q");
            t.inverse(&mut a);
            assert!(a.iter().all(|&x| x < q), "inverse left a value >= q");
        }
    }
}
