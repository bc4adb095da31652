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

use crate::poly::{elemwise_work, ntt_work};
use crate::{scratch, Domain, NttTable, ResiduePoly, RnsError};
use bp_math::BigUint;
use std::sync::Arc;

/// Precomputed tables for converting from a fixed source prime basis to a
/// fixed destination prime basis.
#[derive(Debug)]
pub struct BasisConverter {
    src_tables: Vec<Arc<NttTable>>,
    dst_tables: Vec<Arc<NttTable>>,
    /// `(P/pᵢ)⁻¹ mod pᵢ`, with Shoup companions.
    inv_phat: Vec<(u64, u64)>,
    /// `(P/pᵢ) mod qⱼ`, with Shoup companions; indexed `[j][i]`.
    phat_mod_dst: Vec<Vec<(u64, u64)>>,
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
        let mut inv_phat = Vec::with_capacity(src.len());
        for t in src {
            let m = t.modulus();
            let qi = m.value();
            let (phat, rem) = p.div_rem_u64(qi);
            debug_assert_eq!(rem, 0);
            let inv = m
                .inv(phat.rem_u64(qi))
                .expect("source moduli must be pairwise coprime");
            inv_phat.push((inv, m.shoup(inv)));
        }
        let mut phat_mod_dst = Vec::with_capacity(dst.len());
        for t in dst {
            let m = t.modulus();
            let row = src
                .iter()
                .map(|s| {
                    let (phat, _) = p.div_rem_u64(s.modulus().value());
                    let v = phat.rem_u64(m.value());
                    (v, m.shoup(v))
                })
                .collect();
            phat_mod_dst.push(row);
        }
        Ok(Self {
            src_tables: src.to_vec(),
            dst_tables: dst.to_vec(),
            inv_phat,
            phat_mod_dst,
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

        // Each destination residue accumulates over all tᵢ — independent
        // per destination residue.
        let acc_work = elemwise_work(n).saturating_mul(src.len() as u64);
        let out = ex.par_map_with_work(self.dst_tables.len(), acc_work, |j| {
            let dt = &self.dst_tables[j];
            let row = &self.phat_mod_dst[j];
            let m = dt.modulus();
            let mut out = ResiduePoly::zero(Arc::clone(dt));
            for (ti, &(ph, ph_s)) in t_vals.iter().zip(row) {
                for (acc, &t) in out.coeffs_mut().iter_mut().zip(ti) {
                    let tr = m.reduce(t);
                    *acc = m.add(*acc, m.mul_shoup(tr, ph, ph_s));
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
            let mut ok = false;
            for alpha in 0..3u64 {
                let expect = (x as u128
                    + alpha as u128 * (p_mod.rem_u64(u64::MAX) as u128 % q as u128))
                    % q as u128;
                // P may exceed u64; compute (x + alpha*P) mod q via BigUint.
                let big = bp_math::BigUint::from(x).add(&p_mod.mul_u64(alpha));
                let expect2 = big.rem_u64(q);
                let _ = expect;
                if got == expect2 {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "residue {got} not within alpha*P of {x} mod {q}");
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
