//! Key material: secret, public, and keyswitching keys.
//!
//! Keyswitching keys use the hybrid (multi-digit) construction: the
//! keyswitch basis `U` (the ordered union of every level's moduli) is
//! partitioned into `dnum` digits, and each digit `j` stores an encryption
//! of `P̃·D̃ⱼ·s'` under `s`, where `P̃ = ∏ special primes` and
//! `D̃ⱼ = (U/Dⱼ)·[(U/Dⱼ)⁻¹ mod Dⱼ]` is the CRT reconstruction constant.
//! Because `D̃ⱼ ≡ 1 (mod Dⱼ)` and `≡ 0` modulo every other basis prime,
//! the same keys serve *every* level — including BitPacker levels whose
//! active moduli are an arbitrary subset of `U` (this is what lets
//! BitPacker reuse unchanged accelerator keyswitching, paper Sec. 4.3).

use crate::chain::ModulusChain;
use crate::sampling;
use bp_math::crt::crt_reconstruct;
use bp_math::{BigUint, Modulus};
use bp_rns::{PrimePool, RnsPoly};
use rand::Rng;
use std::collections::HashMap;

/// The secret key: a ternary polynomial over the full basis `U ∪ P`.
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) s: RnsPoly,
}

/// The public encryption key `(b, a)` with `b = −a·s + e` over the full
/// basis.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pub(crate) b: RnsPoly,
    pub(crate) a: RnsPoly,
}

/// One keyswitching digit: the primes it covers and the key pair.
#[derive(Debug, Clone)]
pub(crate) struct KskDigit {
    /// The digit's primes `Dⱼ ⊆ U`.
    pub moduli: Vec<u64>,
    pub b: RnsPoly,
    pub a: RnsPoly,
}

/// A keyswitching key: converts a polynomial encrypted under some `s'`
/// (e.g. `s²` for relinearization, `φₜ(s)` for rotations) into one under
/// `s`.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    pub(crate) digits: Vec<KskDigit>,
}

/// Evaluation keys: relinearization plus any generated rotation and
/// conjugation keys.
#[derive(Debug, Clone)]
pub struct EvaluationKey {
    pub(crate) relin: KeySwitchKey,
    /// The rotation and conjugation keys by Galois element `t`, each
    /// stored permuted by `φ_{t⁻¹}` ([`EvaluationKey::add_galois`]).
    pub(crate) galois: HashMap<usize, KeySwitchKey>,
}

/// Full basis (keyswitch basis followed by special primes).
pub(crate) fn full_basis(chain: &ModulusChain) -> Vec<u64> {
    let mut f = chain.keyswitch_basis().to_vec();
    f.extend_from_slice(chain.special());
    f
}

/// Samples a fresh secret key.
pub(crate) fn gen_secret<R: Rng + ?Sized>(
    pool: &PrimePool,
    chain: &ModulusChain,
    rng: &mut R,
) -> SecretKey {
    let mut s = sampling::ternary_poly(pool, &full_basis(chain), rng);
    s.to_ntt();
    SecretKey { s }
}

/// Derives the public key from the secret key.
pub(crate) fn gen_public<R: Rng + ?Sized>(
    pool: &PrimePool,
    chain: &ModulusChain,
    sk: &SecretKey,
    rng: &mut R,
) -> PublicKey {
    let basis = full_basis(chain);
    let a = sampling::uniform_poly(pool, &basis, rng);
    let mut e = sampling::gaussian_poly(pool, &basis, rng);
    e.to_ntt();
    // b = -a*s + e
    let mut b = a
        .mul(&sk.s)
        .expect("key material shares the full basis")
        .neg();
    b.add_assign(&e)
        .expect("key material shares the full basis");
    PublicKey { b, a }
}

/// Generates a keyswitching key from `source` (a polynomial over the full
/// basis, NTT domain, playing the role of `s'`) to `sk`.
pub(crate) fn gen_ksk<R: Rng + ?Sized>(
    pool: &PrimePool,
    chain: &ModulusChain,
    sk: &SecretKey,
    source: &RnsPoly,
    rng: &mut R,
) -> KeySwitchKey {
    let basis = full_basis(chain);
    let u: &[u64] = chain.keyswitch_basis();
    let digit_of = chain.digit_assignment();
    let u_prod = BigUint::product_of(u);
    let p_tilde = BigUint::product_of(chain.special());

    let mut digits = Vec::new();
    for j in 0..chain.dnum() {
        let d_j: Vec<u64> = u
            .iter()
            .zip(digit_of)
            .filter(|&(_, &d)| d == j)
            .map(|(&q, _)| q)
            .collect();
        if d_j.is_empty() {
            continue;
        }
        // D̃ⱼ = (U/Dⱼ) · [(U/Dⱼ)⁻¹ mod Dⱼ], with the inverse reconstructed
        // from its per-prime inverses (no big-integer egcd needed).
        let d_prod = BigUint::product_of(&d_j);
        let (u_div_d, rem) = u_prod.div_rem(&d_prod);
        debug_assert!(rem.is_zero());
        let y_res: Vec<u64> = d_j
            .iter()
            .map(|&p| {
                let m = Modulus::new(p);
                m.inv(u_div_d.rem_u64(p)).expect("basis primes coprime")
            })
            .collect();
        let y = crt_reconstruct(&y_res, &d_j);
        let t_j = p_tilde.mul(&u_div_d).mul(&y);

        let a = sampling::uniform_poly(pool, &basis, rng);
        let mut e = sampling::gaussian_poly(pool, &basis, rng);
        e.to_ntt();
        // b = t_j * source - a*s + e
        let mut b = source.clone();
        b.mul_biguint(&t_j);
        b.sub_assign(&a.mul(&sk.s).expect("key material shares the full basis"))
            .expect("key material shares the full basis");
        b.add_assign(&e)
            .expect("key material shares the full basis");
        digits.push(KskDigit { moduli: d_j, b, a });
    }
    KeySwitchKey { digits }
}

/// Generates the relinearization key (source key `s²`).
pub(crate) fn gen_relin<R: Rng + ?Sized>(
    pool: &PrimePool,
    chain: &ModulusChain,
    sk: &SecretKey,
    rng: &mut R,
) -> KeySwitchKey {
    let s2 = sk.s.mul(&sk.s).expect("key material shares the full basis");
    gen_ksk(pool, chain, sk, &s2, rng)
}

/// The Galois element for a rotation by `steps` slots: `5^steps mod 2N`.
pub(crate) fn galois_element(steps: i64, n: usize) -> usize {
    let order = (n / 2) as i64; // the rotation group ⟨5⟩ has order N/2
    let k = steps.rem_euclid(order) as u64;
    let two_n = 2 * n as u64;
    bp_math::primes::pow_mod_u64(5, k, two_n) as usize
}

impl EvaluationKey {
    /// Adds the Galois key for the odd element `t` unless the table holds
    /// one: a rotation key for `t = 5^steps mod 2N` ([`galois_element`]),
    /// the conjugation key for `t = 2N − 1`. The key is generated as the
    /// switch from `φₜ(s)` to `s` and stored with every digit permuted by
    /// `φ_{t⁻¹}`, at the cost of 2·dnum full-basis gathers, so that a
    /// rotation switches the un-permuted `c1` and permutes only its result
    /// (`Evaluator::galois` says why the bytes are those of the key as
    /// generated).
    pub(crate) fn add_galois<R: Rng + ?Sized>(
        &mut self,
        pool: &PrimePool,
        chain: &ModulusChain,
        sk: &SecretKey,
        t: usize,
        rng: &mut R,
    ) {
        if self.galois.contains_key(&t) {
            return;
        }
        let s_t =
            sk.s.automorphism(t)
                .expect("Galois elements are odd and the secret key is in NTT form");
        let mut key = gen_ksk(pool, chain, sk, &s_t, rng);
        // The units mod 2N form a group of order N, so t⁻¹ = t^(N−1).
        let two_n = 2 * sk.s.n() as u64;
        let t_inv = bp_math::primes::pow_mod_u64(t as u64, two_n / 2 - 1, two_n) as usize;
        let permute = |p: &RnsPoly| {
            p.automorphism(t_inv)
                .expect("t⁻¹ is odd and key digits are in NTT form")
        };
        for digit in &mut key.digits {
            digit.b = permute(&digit.b);
            digit.a = permute(&digit.a);
        }
        self.galois.insert(t, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn galois_elements_are_odd_and_periodic() {
        let n = 1 << 6;
        for steps in [0i64, 1, 5, -1, 31] {
            let t = galois_element(steps, n);
            assert_eq!(t % 2, 1, "Galois element must be odd");
        }
        assert_eq!(galois_element(0, n), 1);
        // Rotating by the full slot count is the identity.
        assert_eq!(galois_element((n / 2) as i64, n), 1);
        // Negative steps wrap.
        assert_eq!(galois_element(-1, n), galois_element((n / 2 - 1) as i64, n));
    }
}
