//! Level management: rescale and adjust for both representations.
//!
//! This module is the functional core of the paper's contribution:
//!
//! * RNS-CKKS rescale (paper Listing 1) sheds the current level's residue
//!   group one prime at a time; RNS-CKKS adjust (Listing 2, Kim et al.'s
//!   reduced-error variant) pre-multiplies by `K = q·S_{L−1}/S_L` so that
//!   adjusted and rescaled ciphertexts land on *identical* scales.
//! * BitPacker rescale (`bpRescale`, Listing 4) first **scales up** by the
//!   destination level's new terminal moduli, then **scales down** by the
//!   moduli that exist only at the source level; BitPacker adjust
//!   (`bpAdjust`, Listing 6) pre-multiplies by
//!   `K = (Q_L/Q_{L−1})·(S_{L−1}/S_L)` and reuses `bpRescale`.
//!
//! Both adjusts round their exact rational constant `K` to the nearest
//! integer; that rounding is the only approximation and is what the
//! precision experiments (paper Figs. 18–19) measure.
//!
//! Both representations take one level step through the same kernels:
//! scale up by the moduli the lower level adds (BitPacker only), then
//! `scale_down` by the moduli it sheds — in one batch for BitPacker, one
//! prime at a time, last first, for RNS-CKKS (Listing 1 is Listing 5 with
//! one shed prime).
//!
//! Each entry point moves one level down and returns typed
//! [`EvalError`]s: a level-0 ciphertext cannot be rescaled or adjusted
//! ([`EvalError::LevelExhausted`]). Multi-level adjusts step one level at
//! a time through [`crate::Evaluator::adjust_to`]; the paper's variant
//! (drop residues, then one adjust) reaches the same modulus and scale,
//! and its cost difference lives in the accelerator model.

use crate::chain::ModulusChain;
use crate::ciphertext::Ciphertext;
use crate::error::EvalError;
use crate::params::Representation;
use bp_math::FactoredScale;
use bp_rns::rescale::{scale_down, scale_up};
use bp_rns::PrimePool;

/// Rescales a ciphertext from its level `L` to `L−1`, dispatching to the
/// chain's representation. The scale drops by `∏ shed / ∏ added` — after a
/// multiplication this resets `S²` back to ≈ the target scale.
///
/// # Errors
/// [`EvalError::LevelExhausted`] if the ciphertext is at level 0.
pub fn rescale(
    ct: &mut Ciphertext,
    chain: &ModulusChain,
    pool: &PrimePool,
) -> Result<(), EvalError> {
    if ct.level == 0 {
        return Err(EvalError::LevelExhausted { op: "rescale" });
    }
    let scale_before = ct.scale.log2();
    step_down(ct, chain, pool)?;
    let shed_bits = scale_before - ct.scale.log2();
    ct.noise = ct.noise.rescale(shed_bits, ct.c0.n());
    Ok(())
}

/// Adjusts a ciphertext from level `L` to `L−1` **without** halving its
/// scale exponent: the result has the same modulus *and the same scale* as
/// a rescaled product at `L−1`, so the two can be added (paper Sec. 2.2).
///
/// # Errors
/// [`EvalError::LevelExhausted`] if the ciphertext is at level 0.
pub fn adjust(
    ct: &mut Ciphertext,
    chain: &ModulusChain,
    pool: &PrimePool,
) -> Result<(), EvalError> {
    let l = ct.level;
    if l == 0 {
        return Err(EvalError::LevelExhausted { op: "adjust" });
    }
    bp_telemetry::counters::add(bp_telemetry::counters::Counter::Adjusts, 1);
    // K = (Q_L / Q_{L-1}) * (S_{L-1} / S_L); in RNS-CKKS Q_L/Q_{L-1} is just
    // the shed group, so this specializes to Listing 2's q_{L-1}*S_{L-1}/S_L.
    let mut k = FactoredScale::one();
    for q in chain.shed_between(l) {
        k = k.mul_prime(q);
    }
    for q in chain.added_between(l) {
        k = k.div_prime(q);
    }
    k = k.mul(chain.scale_at(l - 1)).div(chain.scale_at(l));
    let k_int = k.round_to_biguint();
    ct.c0.mul_biguint(&k_int);
    ct.c1.mul_biguint(&k_int);
    // Bookkeeping uses the exact rational; the integer rounding of K is the
    // (measured) approximation error.
    ct.scale = ct.scale.mul(&k);
    let scale_before = ct.scale.log2();
    let noise_before = ct.noise;
    step_down(ct, chain, pool)?;
    // Net noise effect: multiply by K, then divide by the shed modulus.
    let k_bits = k.log2();
    let shed_bits = scale_before - ct.scale.log2();
    ct.noise = crate::noise::NoiseEstimate {
        noise_bits: noise_before.noise_bits + k_bits,
        message_bits: noise_before.message_bits + k_bits,
    }
    .rescale(shed_bits, ct.c0.n());
    Ok(())
}

/// Moves both polynomials from level `l ≥ 1` to `l−1`: scale up by the
/// moduli level `l−1` adds (BitPacker only), scale down by the ones it
/// sheds, then restore the chain's residue order. BitPacker sheds its
/// group in one `scale_down` (Listing 5); RNS-CKKS sheds one prime at a
/// time, last first (Listing 1). The scale follows the moduli exactly.
fn step_down(ct: &mut Ciphertext, chain: &ModulusChain, pool: &PrimePool) -> Result<(), EvalError> {
    let l = ct.level;
    let added = chain.added_between(l);
    let shed = chain.shed_between(l);
    let added_tables: Vec<_> = added.iter().map(|&q| pool.table(q)).collect();
    for poly in [&mut ct.c0, &mut ct.c1] {
        if !added_tables.is_empty() {
            scale_up(poly, &added_tables)?;
        }
        match chain.representation() {
            Representation::BitPacker => scale_down(poly, &shed, pool)?,
            Representation::RnsCkks => {
                for q in shed.iter().rev() {
                    scale_down(poly, std::slice::from_ref(q), pool)?;
                }
            }
        }
    }
    for &q in &added {
        ct.scale = ct.scale.mul_prime(q);
    }
    for &q in &shed {
        ct.scale = ct.scale.div_prime(q);
    }
    ct.level = l - 1;
    // Canonical residue order, so ciphertexts produced by different paths
    // stay layout-compatible.
    let want = chain.moduli_at(ct.level);
    if ct.c0.moduli() != want {
        ct.c0 = ct.c0.restricted(want)?;
        ct.c1 = ct.c1.restricted(want)?;
    }
    Ok(())
}

/// Reference "bootstrap": re-encrypts the ciphertext's current value at the
/// top of the chain (DESIGN.md substitution #3b). Requires the secret key,
/// so it is a *testing* facility: it restores the modulus (like a real
/// bootstrap does, paper Fig. 3) without implementing the full
/// homomorphic-mod pipeline.
///
/// # Errors
/// [`EvalError::BudgetExhausted`] if the input's noise budget is already
/// spent (re-encrypting garbage would only launder it).
pub fn reference_bootstrap<R: rand::Rng + ?Sized>(
    ct: &Ciphertext,
    ctx: &crate::context::CkksContext,
    sk: &crate::keys::SecretKey,
    rng: &mut R,
) -> Result<Ciphertext, EvalError> {
    let pt = ctx.decrypt(ct, sk)?;
    let vals = ctx.decode(&pt);
    let fresh = ctx.encode(&vals, ctx.max_level());
    Ok(ctx.encrypt_symmetric(&fresh, sk, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseEstimate;
    use crate::params::CkksParams;
    use crate::security::SecurityLevel;
    use bp_rns::{Domain, RnsPoly};

    fn small_chain(repr: Representation) -> (ModulusChain, PrimePool) {
        let p = CkksParams::builder()
            .log_n(4)
            .word_bits(28)
            .representation(repr)
            .security(SecurityLevel::Insecure)
            .levels(3, 26)
            .base_modulus_bits(27)
            .build()
            .unwrap();
        let chain = ModulusChain::new(&p).unwrap();
        let pool = PrimePool::new(1 << 4);
        (chain, pool)
    }

    fn dummy_ct(chain: &ModulusChain, pool: &PrimePool, level: usize) -> Ciphertext {
        let moduli = chain.moduli_at(level);
        let mut c0 = RnsPoly::from_i64_coeffs(pool, moduli, &[1234567, 89, 1011]);
        let mut c1 = RnsPoly::from_i64_coeffs(pool, moduli, &[55, 66]);
        c0.to_ntt();
        c1.to_ntt();
        let scale = chain.scale_at(level).clone();
        let noise = NoiseEstimate::fresh(1 << 4, scale.log2());
        Ciphertext::new(c0, c1, level, scale, noise)
    }

    #[test]
    fn rescale_moves_one_level_and_reorders_canonically() {
        for repr in [Representation::RnsCkks, Representation::BitPacker] {
            let (chain, pool) = small_chain(repr);
            let mut ct = dummy_ct(&chain, &pool, chain.max_level());
            // Pretend the ct was just multiplied: square the scale so
            // rescale lands back on the chain scale.
            ct.scale = ct.scale.square();
            rescale(&mut ct, &chain, &pool).unwrap();
            assert_eq!(ct.level, chain.max_level() - 1);
            assert_eq!(ct.moduli(), chain.moduli_at(ct.level), "{repr:?}");
            let drift = (ct.scale.log2() - chain.scale_at(ct.level).log2()).abs();
            assert!(drift < 1e-9, "{repr:?} scale drift {drift}");
        }
    }

    #[test]
    fn adjust_lands_on_rescaled_scale() {
        for repr in [Representation::RnsCkks, Representation::BitPacker] {
            let (chain, pool) = small_chain(repr);
            let mut ct = dummy_ct(&chain, &pool, chain.max_level());
            adjust(&mut ct, &chain, &pool).unwrap();
            assert_eq!(ct.level, chain.max_level() - 1);
            // Exact bookkeeping: adjusted scale equals the chain scale.
            assert_eq!(
                ct.scale,
                *chain.scale_at(ct.level),
                "{repr:?}: {:?} vs {:?}",
                ct.scale,
                chain.scale_at(ct.level)
            );
        }
    }

    #[test]
    fn rescale_at_level_zero_is_an_error() {
        for repr in [Representation::RnsCkks, Representation::BitPacker] {
            let (chain, pool) = small_chain(repr);
            let mut ct = dummy_ct(&chain, &pool, 0);
            assert!(matches!(
                rescale(&mut ct, &chain, &pool),
                Err(EvalError::LevelExhausted { op: "rescale" })
            ));
            assert!(matches!(
                adjust(&mut ct, &chain, &pool),
                Err(EvalError::LevelExhausted { op: "adjust" })
            ));
        }
    }

    #[test]
    fn dummy_domain_is_ntt() {
        let (chain, pool) = small_chain(Representation::BitPacker);
        let ct = dummy_ct(&chain, &pool, 1);
        assert_eq!(ct.c0.domain(), Domain::Ntt);
    }
}
