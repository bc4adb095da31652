//! Level-management kernels shared by RNS-CKKS and BitPacker.
//!
//! * [`scale_up`] — multiply by `K = ∏ new qᵢ` and append zero residues
//!   (paper Listing 3; the new residues of `K·x` are exactly zero because
//!   each new modulus divides `K`).
//! * [`scale_down`] — divide by the product of an arbitrary subset of
//!   moduli and shed them in a single CRB-style pass (paper Listing 5).
//!   It is the only rescale kernel: RNS-CKKS rescale (Listing 1) is
//!   `scale_down` by one prime at a time, which rounds to nearest.
//!
//! Both operate on a single [`RnsPoly`]; ciphertext-level wrappers live
//! in `bp-ckks`.

use crate::poly::elemwise_work;
use crate::{NttTable, PrimePool, RnsError, RnsPoly};
use bp_math::BigUint;
use std::sync::Arc;

/// Scale-up by new moduli (paper Listing 3): multiplies the polynomial by
/// `K = ∏ qᵢ` over the existing residues and appends zero residues for each
/// new modulus. The represented value becomes `K · x` with modulus `K · Q`.
///
/// # Errors
/// [`RnsError::DuplicateModulus`] if any new modulus already appears in
/// the polynomial's basis.
pub fn scale_up(poly: &mut RnsPoly, new_tables: &[Arc<NttTable>]) -> Result<(), RnsError> {
    let existing = poly.moduli();
    for t in new_tables {
        if existing.contains(&t.modulus().value()) {
            return Err(RnsError::DuplicateModulus {
                modulus: t.modulus().value(),
            });
        }
    }
    let k = BigUint::product_of(
        &new_tables
            .iter()
            .map(|t| t.modulus().value())
            .collect::<Vec<_>>(),
    );
    poly.mul_biguint(&k);
    poly.append_zero_residues(new_tables)?;
    Ok(())
}

/// Scale-down (paper Listing 5): divides by `P = ∏ shed moduli` and sheds
/// those residues in one pass. The correction is the centered basis
/// conversion of `x mod P` (see [`crate::basis`]), so the result is within
/// `k/2` of `x/P` for `k` shed moduli, and with one shed modulus it is
/// `x/P` rounded to nearest: RNS-CKKS rescale (paper Listing 1).
///
/// The shed set may be *any* subset of the basis; residues are internally
/// moved to the end, mirroring `moveResiduesToEnd` in the paper. The
/// conversion from the shed moduli to the kept ones (both in order) is
/// memoized in `pool`, which must be the pool the polynomial's tables
/// came from.
///
/// # Errors
/// [`RnsError::EmptyBasis`] if `shed_moduli` is empty;
/// [`RnsError::MissingModulus`] if a shed modulus is absent;
/// [`RnsError::NotEnoughResidues`] if shedding would leave zero residues.
pub fn scale_down(
    poly: &mut RnsPoly,
    shed_moduli: &[u64],
    pool: &PrimePool,
) -> Result<(), RnsError> {
    if shed_moduli.is_empty() {
        return Err(RnsError::EmptyBasis);
    }
    if poly.num_residues() <= shed_moduli.len() {
        return Err(RnsError::NotEnoughResidues {
            op: "scale_down",
            have: poly.num_residues(),
            need: shed_moduli.len() + 1,
        });
    }
    let shed = poly.extract_residues(shed_moduli)?;
    let conv = pool.converter(shed_moduli, poly.moduli())?;
    bp_telemetry::counters::add(bp_telemetry::counters::Counter::Rescales, 1);
    let domain = poly.domain();
    // subMe ≈ (x mod P) represented in the kept basis.
    let corrections = conv.convert_from(&shed, domain, domain)?;
    let p = conv.p();

    let ex = poly
        .residues()
        .first()
        .map(|r| Arc::clone(r.table().threads()));
    if let Some(ex) = ex {
        let work = 2 * elemwise_work(poly.n());
        ex.par_for_each_mut(poly.residues_mut(), work, |i, r| {
            let m = *r.table().modulus();
            let inv_p = m.inv(p.rem_u64(m.value())).expect("moduli coprime");
            let inv_p_s = m.shoup(inv_p);
            for (x, &c) in r.coeffs_mut().iter_mut().zip(corrections[i].coeffs()) {
                let d = m.sub(*x, c);
                *x = m.mul_shoup(d, inv_p, inv_p_s);
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;
    use bp_math::crt::{crt_decompose, crt_reconstruct};

    fn poly_from_big(pool: &PrimePool, moduli: &[u64], x: &BigUint) -> RnsPoly {
        let mut p = RnsPoly::zero(pool, moduli, Domain::Coeff);
        let res = crt_decompose(x, moduli);
        for (r, v) in p.residues_mut().iter_mut().zip(res) {
            r.coeffs_mut()[0] = v;
        }
        p
    }

    fn read_big(poly: &RnsPoly, idx: usize) -> BigUint {
        let res: Vec<u64> = poly.residues().iter().map(|r| r.coeffs()[idx]).collect();
        crt_reconstruct(&res, poly.moduli())
    }

    #[test]
    fn rns_rescale_divides_by_last_modulus() {
        let pool = PrimePool::new(1 << 3);
        let qs = pool.first_primes_below(30, 3);
        // x = some value < Q
        let x = BigUint::from(qs[2])
            .mul_u64(12345)
            .add(&BigUint::from(678u64));
        let mut p = poly_from_big(&pool, &qs, &x);
        scale_down(&mut p, &qs[2..], &pool).unwrap();
        // Expected: close to floor(x / q_last); the RNS identity gives
        // (x - (x mod q_last rep)) / q_last which may differ from the exact
        // floor by less than 1 in integer value -> check within 1.
        let got = read_big(&p, 0);
        let (expect, _) = x.div_rem_u64(qs[2]);
        let diff = if got >= expect {
            got.sub(&expect)
        } else {
            expect.sub(&got)
        };
        assert!(
            diff <= BigUint::one(),
            "rescale off by more than 1: got {got}, expect {expect}"
        );
    }

    #[test]
    fn rns_rescale_rounds_to_nearest() {
        let pool = PrimePool::new(1 << 3);
        let qs = pool.first_primes_below(30, 3);
        let q_last = qs[2];
        // Remainder just below q_last: the centered representative is
        // negative, so the quotient must round *up* to floor + 1 (an
        // unsigned correction floors here — off by a whole unit with a
        // systematic negative bias).
        let x_up = BigUint::from(q_last)
            .mul_u64(777)
            .add(&BigUint::from(q_last - 1));
        let mut p = poly_from_big(&pool, &qs, &x_up);
        scale_down(&mut p, &[q_last], &pool).unwrap();
        assert_eq!(read_big(&p, 0), BigUint::from(778u64));

        // Small remainder rounds down to the floor.
        let x_down = BigUint::from(q_last).mul_u64(777).add(&BigUint::from(3u64));
        let mut p = poly_from_big(&pool, &qs, &x_down);
        scale_down(&mut p, &[q_last], &pool).unwrap();
        assert_eq!(read_big(&p, 0), BigUint::from(777u64));
    }

    #[test]
    fn scale_up_multiplies_value_and_modulus() {
        let pool = PrimePool::new(1 << 3);
        let all = pool.first_primes_below(30, 4);
        let (qs, new) = all.split_at(2);
        let x = BigUint::from(987654321u64);
        let mut p = poly_from_big(&pool, qs, &x);
        let new_tables: Vec<_> = new.iter().map(|&q| pool.table(q)).collect();
        scale_up(&mut p, &new_tables).unwrap();
        assert_eq!(p.num_residues(), 4);
        let got = read_big(&p, 0);
        let k = BigUint::product_of(new);
        assert_eq!(got, x.mul(&k));
    }

    #[test]
    fn scale_down_inverts_scale_up() {
        let pool = PrimePool::new(1 << 3);
        let all = pool.first_primes_below(30, 4);
        let (qs, new) = all.split_at(2);
        let x = BigUint::from(424242u64);
        let mut p = poly_from_big(&pool, qs, &x);
        let new_tables: Vec<_> = new.iter().map(|&q| pool.table(q)).collect();
        scale_up(&mut p, &new_tables).unwrap();
        scale_down(&mut p, new, &pool).unwrap();
        assert_eq!(p.moduli(), qs);
        let got = read_big(&p, 0);
        // scale_down(scale_up(x)) = floor(Kx/K) + small error <= k
        let diff = if got >= x { got.sub(&x) } else { x.sub(&got) };
        assert!(
            diff <= BigUint::from(new.len() as u64),
            "scale_down error too large: {diff:?}"
        );
    }

    #[test]
    fn scale_down_arbitrary_subset() {
        let pool = PrimePool::new(1 << 3);
        let qs = pool.first_primes_below(30, 4);
        let q_big = BigUint::product_of(&qs);
        // Value spread across the full modulus.
        let x = q_big.div_rem_u64(7).0;
        let mut p = poly_from_big(&pool, &qs, &x);
        // Shed the *first* and *third* moduli (out of order).
        let shed = [qs[2], qs[0]];
        scale_down(&mut p, &shed, &pool).unwrap();
        assert_eq!(p.moduli(), &[qs[1], qs[3]][..]);
        let got = read_big(&p, 0);
        let pprod = BigUint::product_of(&shed);
        let expect = x.div_rem(&pprod).0;
        let diff = if got >= expect {
            got.sub(&expect)
        } else {
            expect.sub(&got)
        };
        assert!(diff <= BigUint::from(shed.len() as u64 + 1));
    }

    #[test]
    fn scale_down_in_ntt_domain() {
        let pool = PrimePool::new(1 << 4);
        let all = pool.first_primes_below(29, 4);
        let (qs, new) = all.split_at(2);
        let coeffs: Vec<i64> = (0..16).map(|i| i * 99991 + 3).collect();
        let mut a = RnsPoly::from_i64_coeffs(&pool, qs, &coeffs);
        let new_tables: Vec<_> = new.iter().map(|&q| pool.table(q)).collect();
        scale_up(&mut a, &new_tables).unwrap();

        let mut b = a.clone();
        scale_down(&mut a, new, &pool).unwrap();

        b.to_ntt();
        scale_down(&mut b, new, &pool).unwrap();
        b.to_coeff();
        for i in 0..a.num_residues() {
            assert_eq!(a.residue(i).coeffs(), b.residue(i).coeffs());
        }
    }

    #[test]
    fn shedding_everything_is_an_error() {
        let pool = PrimePool::new(1 << 3);
        let qs = pool.first_primes_below(30, 2);
        let mut p = RnsPoly::zero(&pool, &qs, Domain::Coeff);
        assert!(matches!(
            scale_down(&mut p, &qs, &pool),
            Err(RnsError::NotEnoughResidues { .. })
        ));
    }

    #[test]
    fn scale_up_duplicate_modulus_is_an_error() {
        let pool = PrimePool::new(1 << 3);
        let qs = pool.first_primes_below(30, 2);
        let mut p = RnsPoly::zero(&pool, &qs, Domain::Coeff);
        let dup = [pool.table(qs[0])];
        assert!(matches!(
            scale_up(&mut p, &dup),
            Err(RnsError::DuplicateModulus { .. })
        ));
    }
}
