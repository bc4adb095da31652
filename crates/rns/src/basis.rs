//! Approximate RNS basis conversion (the "change-RNS-base" kernel).
//!
//! Given `x` represented in a source basis `{p₀,…,p_{k−1}}` (product `P`),
//! the conversion produces, for each destination modulus `q`,
//!
//! ```text
//! conv(x) mod q = Σᵢ [xᵢ · (P/pᵢ)⁻¹ mod pᵢ] · (P/pᵢ) mod q
//!              ≡ x + α·P (mod q),   0 ≤ α < k
//! ```
//!
//! i.e. the result is exact up to a small multiple of `P` (the standard
//! Halevi–Polyakov–Shoup approximation). Downstream users either tolerate
//! the `α·P` term (keyswitching mod-raise) or cancel it (mod-down divides by
//! `P`, turning it into an additive error of at most `k`).
//!
//! On CraterLake this kernel is what the CRB functional unit executes; on
//! ARK/SHARP it is `bConv` (paper Sec. 4.1). Its `O(k·m·N)` multiply-adds
//! dominate homomorphic-multiply cost, which is why BitPacker's reduction in
//! residue count pays off superlinearly (paper Sec. 4.2).
//!
//! Each multiply-add here is one `u128` product: the sum
//! `Σᵢ tᵢ·((P/pᵢ) mod q)` is accumulated exactly and reduced once per
//! output coefficient with [`bp_math::Modulus::reduce_u128`]. A term is
//! below `pᵢ·q < 2¹²⁴`, so an accumulator holds at least 16 of them; a
//! longer source basis is reduced in chunks, each carrying the previous
//! remainder. The result is the same integer in `[0, q)` that a per-term
//! modular sum gives.

use crate::poly::{elemwise_work, ntt_work};
use crate::{scratch, Domain, NttTable, ResiduePoly, RnsError};
use bp_math::BigUint;
use std::sync::Arc;

/// Output coefficients accumulated together: their `u128` partial sums
/// (4 KiB) stay on the stack while every source row streams past once.
const BLOCK: usize = 256;

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
    /// [`RnsError::DuplicateModulus`] if the bases share a modulus (they
    /// must be coprime).
    pub fn new(src: &[Arc<NttTable>], dst: &[Arc<NttTable>]) -> Result<Self, RnsError> {
        if src.is_empty() {
            return Err(RnsError::EmptyBasis);
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
        // A term tᵢ·((P/pᵢ) mod qⱼ) is at most (pᵢ−1)(qⱼ−1) < 2¹²⁴, and a
        // chunk after the first also carries the previous remainder (< qⱼ).
        let max_p = src_moduli.iter().copied().max().unwrap_or(2);
        let max_q = dst_moduli.iter().copied().max().unwrap_or(2);
        let term_max = u128::from(max_p - 1) * u128::from(max_q - 1);
        let terms_per_reduction =
            ((u128::MAX - u128::from(max_q)) / term_max).min(src.len() as u128) as usize;
        Ok(Self {
            src_tables: src.to_vec(),
            dst_tables: dst.to_vec(),
            inv_phat,
            phat_mod_dst,
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
        // Scratch-backed temporaries: copy the residue, transform in
        // place, and recycle once the accumulation pass is done.
        let t_vals: Vec<Vec<u64>> = ex.par_map_with_work(src.len(), elemwise_work(n), |i| {
            let r = &src[i];
            let (inv, inv_s) = self.inv_phat[i];
            let m = r.table().modulus();
            let mut t = scratch::take_copy(r.coeffs());
            for x in t.iter_mut() {
                *x = m.mul_shoup(*x, inv, inv_s);
            }
            t
        });

        // Each destination residue sums tᵢ·((P/pᵢ) mod qⱼ) exactly in u128
        // and reduces once per chunk of `terms_per_reduction` sources —
        // independent per destination residue.
        let acc_work = elemwise_work(n).saturating_mul(src.len() as u64);
        let chunk = self.terms_per_reduction;
        let out = ex.par_map_with_work(self.dst_tables.len(), acc_work, |j| {
            let dt = &self.dst_tables[j];
            let row = &self.phat_mod_dst[j];
            let m = dt.modulus();
            let mut out = ResiduePoly::zero(Arc::clone(dt));
            let mut acc = [0u128; BLOCK];
            for (b, out_block) in out.coeffs_mut().chunks_mut(BLOCK).enumerate() {
                let acc = &mut acc[..out_block.len()];
                let cols = b * BLOCK..b * BLOCK + out_block.len();
                acc.fill(0);
                for (ts, phats) in t_vals.chunks(chunk).zip(row.chunks(chunk)) {
                    for (t, &ph) in ts.iter().zip(phats) {
                        for (a, &x) in acc.iter_mut().zip(&t[cols.clone()]) {
                            *a += u128::from(x) * u128::from(ph);
                        }
                    }
                    for a in acc.iter_mut() {
                        *a = u128::from(m.reduce_u128(*a));
                    }
                }
                for (o, &a) in out_block.iter_mut().zip(acc.iter()) {
                    *o = a as u64;
                }
            }
            out
        });
        for t in t_vals {
            scratch::recycle(t);
        }
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
            // Scratch-backed coefficient-domain copies, recycled as soon
            // as the conversion has consumed them.
            let coeff_src: Vec<ResiduePoly> = ex.par_map_with_work(src.len(), ntt_work(n), |i| {
                let mut c = src[i].clone_scratch();
                let t = Arc::clone(c.table());
                t.inverse(c.coeffs_mut());
                c
            });
            let converted = self.convert(&coeff_src);
            for c in coeff_src {
                c.recycle();
            }
            converted?
        } else {
            self.convert(src)?
        };
        if target_domain == Domain::Ntt {
            ex.par_for_each_mut_with_work(&mut out, ntt_work(n), |_, r| {
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
    use crate::{PrimePool, RnsPoly};
    use bp_math::crt::crt_reconstruct;

    #[test]
    fn conversion_is_exact_up_to_multiple_of_p() {
        let pool = PrimePool::new(1 << 4);
        let src_q = pool.first_primes_below(30, 2);
        let dst_q = pool.first_primes_below(25, 2);
        let src_t: Vec<_> = src_q.iter().map(|&q| pool.table(q)).collect();
        let dst_t: Vec<_> = dst_q.iter().map(|&q| pool.table(q)).collect();
        let conv = BasisConverter::new(&src_t, &dst_t).unwrap();

        // Small positive value: conversion must be exact (alpha = 0 for
        // values much smaller than P... here x < p0 so representation is
        // x itself; alpha can still be nonzero, so compare mod small x).
        let x = 123456u64;
        let poly = RnsPoly::from_i64_coeffs(&pool, &src_q, &[x as i64]);
        let out = conv.convert(poly.residues()).unwrap();
        let p_mod = conv.p();
        for r in &out {
            let q = r.modulus();
            let got = r.coeffs()[0];
            // got = (x + alpha*P) mod q for some 0 <= alpha < 2
            // P may exceed u64; compute (x + alpha*P) mod q via BigUint.
            let ok = (0..3u64).any(|alpha| {
                let big = bp_math::BigUint::from(x).add(&p_mod.mul_u64(alpha));
                got == big.rem_u64(q)
            });
            assert!(ok, "residue {got} not within alpha*P of {x} mod {q}");
        }
    }

    /// `Σᵢ tᵢ·(P/pᵢ) mod qⱼ` with `tᵢ = xᵢ·(P/pᵢ)⁻¹ mod pᵢ`, computed in
    /// `BigUint` one coefficient at a time.
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
            let mut sum = BigUint::zero();
            for (i, r) in src.iter().enumerate() {
                let t = (u128::from(r.coeffs()[c]) * u128::from(inv_phat[i]) % u128::from(src_q[i]))
                    as u64;
                sum = sum.add(&phat[i].mul_u64(t));
            }
            for (row, &q) in out.iter_mut().zip(dst_q) {
                row[c] = sum.rem_u64(q);
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
        let got = out[0].coeffs()[0];
        let q = dst_q[0];
        let k = src_q.len() as u64;
        let found = (0..=k).any(|alpha| {
            let cand = x.add(&conv.p().mul_u64(alpha)).rem_u64(q);
            cand == got
        });
        assert!(found, "conversion outside the alpha*P error bound");
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
