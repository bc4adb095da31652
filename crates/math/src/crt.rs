//! Chinese-remainder reconstruction and decomposition.
//!
//! RNS keeps each wide coefficient `x mod Q` as residues
//! `(x mod q₀, …, x mod q_{R−1})` (paper Sec. 2.3). Reconstruction back to
//! the wide integer is only needed off the hot path: decoding, noise
//! inspection, and test oracles.

use crate::{BigUint, Modulus};

/// Reconstructs `x ∈ [0, Q)` from residues via the explicit CRT formula
/// `x = Σᵢ [rᵢ · (Q/qᵢ)⁻¹ mod qᵢ] · (Q/qᵢ) mod Q`.
///
/// # Panics
/// Panics if `residues.len() != moduli.len()`, moduli are not pairwise
/// coprime, or any `rᵢ >= qᵢ`.
///
/// # Example
/// ```
/// use bp_math::crt::crt_reconstruct;
/// use bp_math::BigUint;
/// // x = 100 with moduli {7, 11}: residues (2, 1)
/// let x = crt_reconstruct(&[100 % 7, 100 % 11], &[7, 11]);
/// assert_eq!(x, BigUint::from(23u64)); // 100 mod 77 = 23
/// ```
pub fn crt_reconstruct(residues: &[u64], moduli: &[u64]) -> BigUint {
    assert_eq!(
        residues.len(),
        moduli.len(),
        "residue/modulus count mismatch"
    );
    let q = BigUint::product_of(moduli);
    let mut acc = BigUint::zero();
    for (&r, &qi) in residues.iter().zip(moduli) {
        assert!(r < qi, "residue {r} not reduced mod {qi}");
        let (q_hat, rem) = q.div_rem_u64(qi);
        assert_eq!(rem, 0, "modulus product must be divisible by each modulus");
        let m = Modulus::new(qi);
        let q_hat_mod = q_hat.rem_u64(qi);
        let inv = m.inv(q_hat_mod).expect("moduli must be pairwise coprime");
        let coef = m.mul(r, inv);
        acc = acc.add(&q_hat.mul_u64(coef));
    }
    acc.rem(&q)
}

/// Decomposes a wide integer into its residues modulo each `qᵢ`.
pub fn crt_decompose(x: &BigUint, moduli: &[u64]) -> Vec<u64> {
    moduli.iter().map(|&q| x.rem_u64(q)).collect()
}

/// Converts `x ∈ [0, Q)` to the centered signed value in `(-Q/2, Q/2]`,
/// returned as `f64` (lossy; used for decoding and noise measurement).
pub fn centered_to_f64(x: &BigUint, q: &BigUint) -> f64 {
    let half = q.shr(1);
    if x > &half {
        -(q.sub(x).to_f64())
    } else {
        x.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reconstruct_small() {
        let moduli = [97u64, 101, 103];
        let x = BigUint::from(123456u64);
        let res = crt_decompose(&x, &moduli);
        assert_eq!(crt_reconstruct(&res, &moduli), x);
    }

    #[test]
    fn centered_positive_and_negative() {
        let q = BigUint::from(1000u64);
        assert_eq!(centered_to_f64(&BigUint::from(400u64), &q), 400.0);
        assert_eq!(centered_to_f64(&BigUint::from(600u64), &q), -400.0);
        assert_eq!(centered_to_f64(&BigUint::from(500u64), &q), 500.0);
    }

    proptest! {
        #[test]
        fn prop_crt_roundtrip(seed in any::<u64>()) {
            let moduli = [(1u64 << 40) - 87, (1u64 << 40) - 167, (1u64 << 30) - 35];
            // Derive a pseudo-random x < Q from the seed.
            let x = BigUint::from(seed).mul_u64(seed | 1).mul_u64(0x9E3779B97F4A7C15);
            let q = BigUint::product_of(&moduli);
            let x = x.rem(&q);
            let res = crt_decompose(&x, &moduli);
            prop_assert_eq!(crt_reconstruct(&res, &moduli), x);
        }
    }
}
