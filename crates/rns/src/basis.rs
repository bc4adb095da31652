//! Approximate RNS basis conversion (the "change-RNS-base" kernel).
//!
//! Given `x` represented in a source basis `{p₀,…,p_{k−1}}` (product `P`,
//! every prime odd), the conversion computes `tᵢ = xᵢ · (P/pᵢ)⁻¹ mod pᵢ`,
//! lifts each to its centered representative `t̃ᵢ` (a term above
//! `pᵢ >> 1` stands for `tᵢ − pᵢ`), and produces, for each destination
//! modulus `q`,
//!
//! ```text
//! conv(x) mod q = Σᵢ t̃ᵢ · (P/pᵢ) mod q
//!              ≡ x + α·P (mod q),   |α| ≤ k/2
//! ```
//!
//! with `x` read as its centered representative: the result is exact up to
//! a small multiple of `P` (the standard Halevi–Polyakov–Shoup
//! approximation, with the lift centered). Downstream users either
//! tolerate the `α·P` term (keyswitching mod-raise) or cancel it
//! (mod-down divides by `P`, leaving an error of at most `k/2 + ½` against
//! the rounded quotient; with one source prime the quotient is rounded to
//! nearest exactly, which is RNS-CKKS's rescale).
//!
//! The centered lift makes `conv` odd, `conv(−x) = −conv(x)`, so it
//! commutes with the coefficient-domain automorphism (a signed
//! permutation): converting then rotating equals rotating then
//! converting, byte for byte.
//!
//! On CraterLake this kernel is what the CRB functional unit executes; on
//! ARK/SHARP it is `bConv` (paper Sec. 4.1). Its `O(k·m·N)` multiply-adds
//! dominate homomorphic-multiply cost, which is why BitPacker's reduction in
//! residue count pays off superlinearly (paper Sec. 4.2).
//!
//! Each multiply-add here is one `u128` product: the sum
//! `Σᵢ tᵢ·((P/pᵢ) mod q)` is accumulated exactly and reduced once per
//! output coefficient with [`bp_math::Modulus::reduce_u128`]. Each negative
//! lift subtracts `P` once, so the accumulator starts at
//! `(number of negative lifts) × ((−P) mod q)` instead of zero, the lifts
//! counted per coefficient in a byte. A term is below `pᵢ·q < 2¹²⁴`, so an
//! accumulator holds at least 16 of them; a longer source basis is reduced
//! in chunks, each carrying the previous remainder. The result is the same
//! integer in `[0, q)` that a per-term modular sum gives.

use crate::poly::{elemwise_work, ntt_work};
use crate::{Domain, NttTable, ResiduePoly, RnsError};
use bp_math::BigUint;
use std::sync::Arc;

/// Output coefficients accumulated together: their `u128` partial sums
/// (4 KiB) stay on the stack while every source row streams past once.
const BLOCK: usize = 256;

/// The longest source basis a converter accepts: a conversion counts its
/// negative lifts per coefficient in a byte.
const MAX_SOURCES: usize = u8::MAX as usize;

/// Precomputed tables for converting from a fixed source prime basis to a
/// fixed destination prime basis.
#[derive(Debug)]
pub struct BasisConverter {
    src_tables: Vec<Arc<NttTable>>,
    dst_tables: Vec<Arc<NttTable>>,
    /// `(P/pᵢ)⁻¹ mod pᵢ`, with Shoup companions.
    inv_phat: Vec<(u64, u64)>,
    /// `(P/pᵢ) mod qⱼ`; indexed `[j][i]`.
    phat_mod_dst: Vec<Vec<u64>>,
    /// `(−P) mod qⱼ`, added once per negative lift.
    neg_p_mod_dst: Vec<u64>,
    /// Source terms a `u128` accumulator may sum before it is reduced.
    terms_per_reduction: usize,
    /// `P = ∏ pᵢ`.
    p: BigUint,
}

impl BasisConverter {
    /// Builds conversion tables from `src` to `dst`.
    ///
    /// # Errors
    /// [`RnsError::EmptyBasis`] if `src` is empty;
    /// [`RnsError::LengthMismatch`] if `src` has more than 255 moduli (a
    /// conversion counts its negative lifts per coefficient in a byte);
    /// [`RnsError::DuplicateModulus`] if the bases share a modulus (they
    /// must be coprime).
    pub fn new(src: &[Arc<NttTable>], dst: &[Arc<NttTable>]) -> Result<Self, RnsError> {
        if src.is_empty() {
            return Err(RnsError::EmptyBasis);
        }
        if src.len() > MAX_SOURCES {
            return Err(RnsError::LengthMismatch {
                what: "source moduli (at most 255)",
                expected: MAX_SOURCES,
                found: src.len(),
            });
        }
        let src_moduli: Vec<u64> = src.iter().map(|t| t.modulus().value()).collect();
        for d in dst {
            if src_moduli.contains(&d.modulus().value()) {
                return Err(RnsError::DuplicateModulus {
                    modulus: d.modulus().value(),
                });
            }
        }
        let p = BigUint::product_of(&src_moduli);
        let phat: Vec<BigUint> = src_moduli.iter().map(|&pi| p.div_rem_u64(pi).0).collect();
        let inv_phat = src
            .iter()
            .zip(&phat)
            .map(|(t, ph)| {
                let m = t.modulus();
                let inv = m
                    .inv(ph.rem_u64(m.value()))
                    .expect("source moduli must be pairwise coprime");
                (inv, m.shoup(inv))
            })
            .collect();
        let dst_moduli: Vec<u64> = dst.iter().map(|t| t.modulus().value()).collect();
        let phat_mod_dst = dst_moduli
            .iter()
            .map(|&q| phat.iter().map(|ph| ph.rem_u64(q)).collect())
            .collect();
        let neg_p_mod_dst = dst_moduli.iter().map(|&q| (q - p.rem_u64(q)) % q).collect();
        // A term tᵢ·((P/pᵢ) mod qⱼ) is at most (pᵢ−1)(qⱼ−1) < 2¹²⁴. The
        // first chunk starts at (lifts ≤ k)·((−P) mod qⱼ), and a later chunk
        // at the previous remainder (< qⱼ).
        let k = src.len() as u128;
        let max_p = src_moduli.iter().copied().max().unwrap_or(2);
        let max_q = dst_moduli.iter().copied().max().unwrap_or(2);
        let term_max = u128::from(max_p - 1) * u128::from(max_q - 1);
        let terms_per_reduction = ((u128::MAX - k * u128::from(max_q)) / term_max).min(k) as usize;
        Ok(Self {
            src_tables: src.to_vec(),
            dst_tables: dst.to_vec(),
            inv_phat,
            phat_mod_dst,
            neg_p_mod_dst,
            terms_per_reduction,
            p,
        })
    }

    /// The source-basis product `P`.
    pub fn p(&self) -> &BigUint {
        &self.p
    }

    /// Converts source residues (coefficient domain) into the destination
    /// basis (coefficient domain).
    ///
    /// # Errors
    /// [`RnsError::LengthMismatch`] if `src.len()` doesn't match the
    /// converter's source basis; [`RnsError::BasisMismatch`] if the residue
    /// moduli disagree with the converter's.
    pub fn convert(&self, src: &[ResiduePoly]) -> Result<Vec<ResiduePoly>, RnsError> {
        if src.len() != self.src_tables.len() {
            return Err(RnsError::LengthMismatch {
                what: "source residue count",
                expected: self.src_tables.len(),
                found: src.len(),
            });
        }
        if src
            .iter()
            .zip(&self.src_tables)
            .any(|(r, t)| r.modulus() != t.modulus().value())
        {
            return Err(RnsError::BasisMismatch {
                left: src.iter().map(|r| r.modulus()).collect(),
                right: self
                    .src_tables
                    .iter()
                    .map(|t| t.modulus().value())
                    .collect(),
            });
        }
        bp_telemetry::counters::add(bp_telemetry::counters::Counter::BasisConversions, 1);
        let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::BasisConvert);
        let ex = Arc::clone(self.src_tables[0].threads());
        let n = self.src_tables[0].n();

        // tᵢ = xᵢ · (P/pᵢ)⁻¹ mod pᵢ — independent per source residue.
        // Each is a pooled clone of its residue, transformed in place; its
        // buffer goes back to the pool when `t_vals` drops.
        let t_vals: Vec<ResiduePoly> = ex.par_map(src.len(), elemwise_work(n), |i| {
            let mut t = src[i].clone();
            let (inv, inv_s) = self.inv_phat[i];
            let m = *t.table().modulus();
            for x in t.coeffs_mut() {
                *x = m.mul_shoup(*x, inv, inv_s);
            }
            t
        });

        // A term above pᵢ >> 1 is lifted to tᵢ − pᵢ, which subtracts P once
        // from the sum: count the lifts per coefficient.
        let mut lifts = vec![0u8; n];
        for (t, st) in t_vals.iter().zip(&self.src_tables) {
            let half = st.modulus().value() >> 1;
            for (l, &x) in lifts.iter_mut().zip(t.coeffs()) {
                *l += u8::from(x > half);
            }
        }

        // Each destination residue sums lifts·((−P) mod qⱼ) and
        // tᵢ·((P/pᵢ) mod qⱼ) exactly in u128 and reduces once per chunk of
        // `terms_per_reduction` sources — independent per destination
        // residue. The lift term and the first source term start each
        // block's sums in one pass, and the last reduction writes the
        // output.
        let acc_work = elemwise_work(n).saturating_mul(src.len() as u64);
        let chunk = self.terms_per_reduction;
        let out = ex.par_map(self.dst_tables.len(), acc_work, |j| {
            let dt = &self.dst_tables[j];
            let row = &self.phat_mod_dst[j];
            let neg_p = u128::from(self.neg_p_mod_dst[j]);
            let m = dt.modulus();
            let mut out = ResiduePoly::zero(Arc::clone(dt));
            let mut acc = [0u128; BLOCK];
            for (b, out_block) in out.coeffs_mut().chunks_mut(BLOCK).enumerate() {
                let acc = &mut acc[..out_block.len()];
                let cols = b * BLOCK..b * BLOCK + out_block.len();
                let (t0, ph0) = (&t_vals[0].coeffs()[cols.clone()], u128::from(row[0]));
                for ((a, &l), &x) in acc.iter_mut().zip(&lifts[cols.clone()]).zip(t0) {
                    *a = u128::from(l) * neg_p + u128::from(x) * ph0;
                }
                for (i, (t, &ph)) in t_vals.iter().zip(row).enumerate().skip(1) {
                    if i % chunk == 0 {
                        for a in acc.iter_mut() {
                            *a = u128::from(m.reduce_u128(*a));
                        }
                    }
                    for (a, &x) in acc.iter_mut().zip(&t.coeffs()[cols.clone()]) {
                        *a += u128::from(x) * u128::from(ph);
                    }
                }
                for (o, &a) in out_block.iter_mut().zip(acc.iter()) {
                    *o = m.reduce_u128(a);
                }
            }
            out
        });
        Ok(out)
    }

    /// Converts source residues that may be in NTT domain: they are brought
    /// to coefficient domain first, converted, and the outputs are returned
    /// in `target_domain`.
    ///
    /// # Errors
    /// Propagates the same errors as [`BasisConverter::convert`].
    pub fn convert_from(
        &self,
        src: &[ResiduePoly],
        src_domain: Domain,
        target_domain: Domain,
    ) -> Result<Vec<ResiduePoly>, RnsError> {
        let ex = Arc::clone(self.src_tables[0].threads());
        let n = self.src_tables[0].n();
        let mut out = if src_domain == Domain::Ntt {
            // Pooled coefficient-domain copies; their buffers go back to
            // the pool as soon as the conversion has consumed them.
            let coeff_src: Vec<ResiduePoly> = ex.par_map(src.len(), ntt_work(n), |i| {
                let mut c = src[i].clone();
                let t = Arc::clone(c.table());
                t.inverse(c.coeffs_mut());
                c
            });
            self.convert(&coeff_src)?
        } else {
            self.convert(src)?
        };
        if target_domain == Domain::Ntt {
            ex.par_for_each_mut(&mut out, ntt_work(n), |_, r| {
                let t = Arc::clone(r.table());
                t.forward(r.coeffs_mut());
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::tests::{assert_same, random_poly, scatter};
    use crate::{PrimePool, RnsPoly};
    use bp_math::crt::crt_reconstruct;

    /// Whether `got ≡ x + α·P (mod q)` for some `|α| ≤ k/2`, with `x` read
    /// as its centered representative mod `P` (`x > P/2` stands for
    /// `x − P`).
    fn within_half_k_multiples(x: &BigUint, p: &BigUint, k: usize, q: u64, got: u64) -> bool {
        let shift = i64::from(x.mul_u64(2) > *p);
        let (x_q, p_q) = (x.rem_u64(q), p.rem_u64(q));
        let half = (k / 2) as i64;
        (-half..=half).any(|alpha| {
            let a = alpha - shift;
            let ap = (u128::from(a.unsigned_abs()) * u128::from(p_q) % u128::from(q)) as u64;
            let cand = if a >= 0 {
                (x_q + ap) % q
            } else {
                (x_q + q - ap) % q
            };
            cand == got
        })
    }

    #[test]
    fn conversion_is_exact_up_to_multiple_of_p() {
        let pool = PrimePool::new(1 << 4);
        let src_q = pool.first_primes_below(30, 2);
        let dst_q = pool.first_primes_below(25, 2);
        let src_t: Vec<_> = src_q.iter().map(|&q| pool.table(q)).collect();
        let dst_t: Vec<_> = dst_q.iter().map(|&q| pool.table(q)).collect();
        let conv = BasisConverter::new(&src_t, &dst_t).unwrap();

        // A small positive value: got = (x + α·P) mod q with |α| ≤ k/2.
        let x = 123456u64;
        let poly = RnsPoly::from_i64_coeffs(&pool, &src_q, &[x as i64]);
        let out = conv.convert(poly.residues()).unwrap();
        for r in &out {
            let (q, got) = (r.modulus(), r.coeffs()[0]);
            assert!(
                within_half_k_multiples(&BigUint::from(x), conv.p(), src_q.len(), q, got),
                "residue {got} not within k/2 multiples of P of {x} mod {q}"
            );
        }
    }

    /// `Σᵢ (tᵢ − pᵢ·[tᵢ > pᵢ/2])·(P/pᵢ) mod qⱼ` with
    /// `tᵢ = xᵢ·(P/pᵢ)⁻¹ mod pᵢ`, computed in `BigUint` one coefficient at
    /// a time: the positive and the negative terms are summed apart.
    fn reference_convert(src: &[ResiduePoly], dst_q: &[u64]) -> Vec<Vec<u64>> {
        let src_q: Vec<u64> = src.iter().map(ResiduePoly::modulus).collect();
        let p = BigUint::product_of(&src_q);
        let phat: Vec<BigUint> = src_q.iter().map(|&pi| p.div_rem_u64(pi).0).collect();
        let inv_phat: Vec<u64> = src_q
            .iter()
            .zip(&phat)
            .map(|(&pi, ph)| bp_math::Modulus::new(pi).inv(ph.rem_u64(pi)).unwrap())
            .collect();
        let n = src[0].coeffs().len();
        let mut out = vec![vec![0u64; n]; dst_q.len()];
        for c in 0..n {
            let (mut pos, mut neg) = (BigUint::zero(), BigUint::zero());
            for (i, r) in src.iter().enumerate() {
                let pi = src_q[i];
                let t =
                    (u128::from(r.coeffs()[c]) * u128::from(inv_phat[i]) % u128::from(pi)) as u64;
                if t > pi / 2 {
                    neg = neg.add(&phat[i].mul_u64(pi - t));
                } else {
                    pos = pos.add(&phat[i].mul_u64(t));
                }
            }
            for (row, &q) in out.iter_mut().zip(dst_q) {
                row[c] = (pos.rem_u64(q) + q - neg.rem_u64(q)) % q;
            }
        }
        out
    }

    #[test]
    fn conversion_matches_biguint_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(0xB17_BAC);
        for n in [16usize, 4096] {
            let pool = PrimePool::new(n);
            let primes61 = pool.first_primes_below(61, 12);
            // (sources, destinations) of 61-bit primes, plus 20 sources just
            // below 2^62, more than one u128 accumulator can hold, so the
            // accumulator folds at least once.
            let mut cases: Vec<(Vec<u64>, Vec<u64>)> = [(1, 8), (2, 7), (3, 9), (4, 8)]
                .iter()
                .map(|&(k, m)| (primes61[..k].to_vec(), primes61[k..k + m].to_vec()))
                .collect();
            let primes62 = pool.first_primes_below(62, 23);
            cases.push((primes62[..20].to_vec(), primes62[20..].to_vec()));
            for (src_q, dst_q) in cases {
                let conv = pool.converter(&src_q, &dst_q).unwrap();
                if src_q.len() == 20 {
                    assert!(conv.terms_per_reduction < 20, "20 sources must fold");
                }
                let mut poly = RnsPoly::zero(&pool, &src_q, Domain::Coeff);
                for r in poly.residues_mut() {
                    let q = r.modulus();
                    for x in r.coeffs_mut() {
                        *x = rng.gen_range(0..q);
                    }
                    // Extremes: every term at its largest.
                    r.coeffs_mut()[0] = q - 1;
                }
                let got = conv.convert(poly.residues()).unwrap();
                let expect = reference_convert(poly.residues(), &dst_q);
                for (j, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert_eq!(
                        g.coeffs(),
                        &e[..],
                        "n={n}, {} -> {} primes, destination {j}",
                        src_q.len(),
                        dst_q.len()
                    );
                }
            }
        }
    }

    /// The centered lift makes conversion odd, so it commutes with the
    /// coefficient-domain automorphism `X → X^t`, a signed permutation.
    /// An unsigned lift gives `conv(−x) = kP − conv(x)` wherever every
    /// `tᵢ ≠ 0`, and fails here.
    #[test]
    fn conversion_commutes_with_the_automorphism() {
        for n in [8usize, 4096] {
            let pool = PrimePool::new(n);
            let dst_q = pool.first_primes_below(50, 3);
            for k in [2, 3] {
                let src_q = pool.first_primes_below(30, k);
                let conv = pool.converter(&src_q, &dst_q).unwrap();
                let convert = |x: &RnsPoly| {
                    let out = conv.convert(x.residues()).unwrap();
                    RnsPoly::from_residues(Domain::Coeff, out).unwrap()
                };
                let x = random_poly(&pool, &src_q, k as u64);
                for t in [5, 25, 2 * n - 1] {
                    assert_same(
                        &convert(&scatter(&x, t)),
                        &scatter(&convert(&x), t),
                        &format!("n={n}, k={k}, t={t}"),
                    );
                }
            }
        }
    }

    #[test]
    fn random_values_reconstruct_consistently() {
        // Convert, then check via CRT that dst residues equal
        // (x + alpha*P) mod q_j for a single alpha shared by all j.
        let pool = PrimePool::new(1 << 3);
        let src_q = pool.first_primes_below(28, 3);
        let dst_q = pool.first_primes_below(20, 1);
        let src_t: Vec<_> = src_q.iter().map(|&q| pool.table(q)).collect();
        let dst_t: Vec<_> = dst_q.iter().map(|&q| pool.table(q)).collect();
        let conv = BasisConverter::new(&src_t, &dst_t).unwrap();

        // A "random" wide x < P via CRT of arbitrary residues.
        let residues: Vec<u64> = src_q.iter().map(|&q| q / 3 + 12345 % q).collect();
        let x = crt_reconstruct(&residues, &src_q);

        let mut poly = RnsPoly::zero(&pool, &src_q, Domain::Coeff);
        for (i, r) in poly.residues_mut().iter_mut().enumerate() {
            r.coeffs_mut()[0] = residues[i];
        }
        let out = conv.convert(poly.residues()).unwrap();
        let (q, got) = (dst_q[0], out[0].coeffs()[0]);
        assert!(
            within_half_k_multiples(&x, conv.p(), src_q.len(), q, got),
            "conversion outside the alpha*P error bound"
        );
    }

    #[test]
    fn overlapping_bases_rejected() {
        let pool = PrimePool::new(1 << 3);
        let qs = pool.first_primes_below(28, 2);
        let ts: Vec<_> = qs.iter().map(|&q| pool.table(q)).collect();
        assert!(matches!(
            BasisConverter::new(&ts, &ts[..1]),
            Err(RnsError::DuplicateModulus { .. })
        ));
        assert!(matches!(
            BasisConverter::new(&[], &ts),
            Err(RnsError::EmptyBasis)
        ));
        let many: Vec<_> = pool
            .first_primes_below(40, MAX_SOURCES + 1)
            .iter()
            .map(|&q| pool.table(q))
            .collect();
        assert!(matches!(
            BasisConverter::new(&many, &ts),
            Err(RnsError::LengthMismatch { found, .. }) if found == MAX_SOURCES + 1
        ));
        assert!(BasisConverter::new(&many[..MAX_SOURCES], &ts).is_ok());
    }

    #[test]
    fn convert_length_and_modulus_checked() {
        let pool = PrimePool::new(1 << 3);
        let src_q = pool.first_primes_below(28, 2);
        let dst_q = pool.first_primes_below(20, 1);
        let src_t: Vec<_> = src_q.iter().map(|&q| pool.table(q)).collect();
        let dst_t: Vec<_> = dst_q.iter().map(|&q| pool.table(q)).collect();
        let conv = BasisConverter::new(&src_t, &dst_t).unwrap();
        let short = RnsPoly::zero(&pool, &src_q[..1], Domain::Coeff);
        assert!(matches!(
            conv.convert(short.residues()),
            Err(RnsError::LengthMismatch { .. })
        ));
        let wrong = RnsPoly::zero(&pool, &[src_q[1], src_q[0]], Domain::Coeff);
        assert!(matches!(
            conv.convert(wrong.residues()),
            Err(RnsError::BasisMismatch { .. })
        ));
    }
}
