//! Noise tracking and measurement.
//!
//! CKKS correctness hinges on the invariant `noise ≪ scale` (paper
//! Sec. 2.2: the mantissa has `log₂S − 15..20` usable bits). This module
//! provides both sides of that story:
//!
//! * [`NoiseEstimate`] — an analytic, key-independent tracker following
//!   the standard CKKS noise heuristics (fresh ≈ σ√(4N/3+N), add sums,
//!   multiply cross-multiplies with the message bound, rescale divides),
//!   useful for planning parameter budgets;
//! * [`measure_noise_bits`] — the ground truth: decrypt with the secret
//!   key against a known plaintext and report the actual error magnitude.
//!   Used by tests and the precision experiments to validate the
//!   estimator's conservatism.

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::keys::SecretKey;
use crate::sampling::NOISE_SIGMA;

/// Analytic noise estimate carried alongside a computation.
///
/// Magnitudes are *bits* (`log₂` of the absolute noise in the integer
/// coefficient domain). The estimates use the standard worst-case-ish
/// heuristics and are intended to be conservative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseEstimate {
    /// `log₂` of the noise magnitude in coefficient units.
    pub noise_bits: f64,
    /// `log₂` of the message magnitude in coefficient units
    /// (≈ `log₂ scale` for values in `[-1, 1]`).
    pub message_bits: f64,
}

impl NoiseEstimate {
    /// Noise of a fresh public-key encryption at ring degree `n` with the
    /// given scale (paper Fig. 2: `m + e` with ternary `u` and Gaussian
    /// `e₀, e₁`).
    pub fn fresh(n: usize, scale_log2: f64) -> Self {
        // e0 + u*e1 + ... : magnitude ≈ sigma * sqrt(2N) heuristically.
        let noise = NOISE_SIGMA * (2.0 * n as f64).sqrt() * 6.0;
        Self {
            noise_bits: noise.log2(),
            message_bits: scale_log2,
        }
    }

    /// Usable (error-free) mantissa bits remaining.
    pub fn clear_bits(&self) -> f64 {
        self.message_bits - self.noise_bits
    }

    /// After a homomorphic addition.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        Self {
            noise_bits: log2_sum(self.noise_bits, other.noise_bits),
            message_bits: self.message_bits.max(other.message_bits) + 1.0,
        }
    }

    /// After a ciphertext–ciphertext multiplication (scales multiply,
    /// noises cross-multiply with the messages; paper Sec. 2.2:
    /// "multiplying two ciphertexts with scale S and noise δ produces
    /// scale S² and noise ≈ Sδ").
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        let cross1 = self.noise_bits + other.message_bits;
        let cross2 = other.noise_bits + self.message_bits;
        Self {
            noise_bits: log2_sum(cross1, cross2),
            message_bits: self.message_bits + other.message_bits,
        }
    }

    /// After multiplying by a plaintext with the given `log₂` scale: both
    /// magnitudes grow by the plaintext scale (the plaintext itself is
    /// noiseless).
    #[must_use]
    pub fn mul_plain(&self, plain_scale_log2: f64) -> Self {
        Self {
            noise_bits: self.noise_bits + plain_scale_log2,
            message_bits: self.message_bits + plain_scale_log2,
        }
    }

    /// After rescaling by `shed_bits` of modulus: message and noise shrink
    /// together, plus a fresh sub-unit rounding term.
    #[must_use]
    pub fn rescale(&self, shed_bits: f64, n: usize) -> Self {
        let scaled_noise = self.noise_bits - shed_bits;
        // Rounding term ~ sqrt(N) coefficient units.
        let rounding = 0.5 * (n as f64).log2();
        Self {
            noise_bits: log2_sum(scaled_noise, rounding),
            message_bits: self.message_bits - shed_bits,
        }
    }

    /// After a keyswitch (relinearization, rotation, conjugation): a small
    /// additive term on the order of fresh encryption noise.
    #[must_use]
    pub fn keyswitch(&self, n: usize) -> Self {
        let ks = NOISE_SIGMA * (2.0 * n as f64).sqrt() * 6.0;
        Self {
            noise_bits: log2_sum(self.noise_bits, ks.log2()),
            message_bits: self.message_bits,
        }
    }

    /// Caps the estimate at the modulus capacity of its level.
    ///
    /// Ciphertext coefficients live in `[-Q/2, Q/2)`; once the combined
    /// message-plus-noise magnitude no longer fits, the coefficients wrap
    /// and the plaintext is unrecoverable. The pre-wrap estimate would
    /// keep reporting a healthy mantissa (the arithmetic that *produced*
    /// the wrap is noise-free), so this marks the estimate as fully
    /// consumed instead: `clear_bits() == 0`, which makes
    /// [`crate::CkksContext::decrypt`] refuse with `BudgetExhausted`
    /// rather than return garbage. Found by the `bp-oracle` differential
    /// fuzzer (squaring at level 0 where `Q₀ < S₀²`).
    #[must_use]
    pub fn clamp_to_capacity(&self, log_q: f64) -> Self {
        let total = log2_sum(self.message_bits, self.noise_bits);
        if total > log_q - 1.0 {
            Self {
                noise_bits: self.noise_bits.max(self.message_bits),
                message_bits: self.message_bits,
            }
        } else {
            *self
        }
    }
}

/// `log₂(2^a + 2^b)` without overflow.
fn log2_sum(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + 2f64.powf(lo - hi)).log2()
}

/// Measures the actual noise of a ciphertext against the expected slot
/// values: returns `-log₂(max |decrypted − expected|)`, i.e. the achieved
/// error-free mantissa bits. Requires the secret key — a test facility,
/// mirroring how the paper's Table 1 measures precision.
pub fn measure_noise_bits(
    ctx: &CkksContext,
    sk: &SecretKey,
    ct: &Ciphertext,
    expected: &[f64],
) -> f64 {
    let got = {
        let mut v = ctx.decode(&ctx.decrypt_unchecked(ct, sk));
        v.truncate(expected.len());
        v
    };
    let max_err = got
        .iter()
        .zip(expected)
        .map(|(g, e)| (g - e).abs())
        .fold(0.0f64, f64::max)
        .max(1e-18);
    -max_err.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksContext, CkksParams, Representation, SecurityLevel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn log2_sum_basics() {
        assert!((log2_sum(3.0, 3.0) - 4.0).abs() < 1e-12); // 8+8=16
        assert!((log2_sum(10.0, 0.0) - 10.0014).abs() < 0.01);
        assert_eq!(log2_sum(5.0, 5.0), log2_sum(5.0, 5.0));
    }

    #[test]
    fn fresh_estimate_has_clear_mantissa() {
        let e = NoiseEstimate::fresh(1 << 12, 40.0);
        assert!(e.clear_bits() > 25.0, "clear bits {}", e.clear_bits());
    }

    #[test]
    fn mul_then_rescale_preserves_budget_shape() {
        // After mult + rescale at matched scale, noise is back near the
        // pre-mult magnitude (paper Sec. 2.2's reset argument).
        let e = NoiseEstimate::fresh(1 << 12, 40.0);
        let sq = e.mul(&e);
        assert!((sq.message_bits - 80.0).abs() < 1e-9);
        let rs = sq.rescale(40.0, 1 << 12);
        assert!((rs.message_bits - 40.0).abs() < 1e-9);
        assert!(rs.noise_bits < sq.noise_bits);
        // Each mult+rescale round loses only a few clear bits.
        assert!(e.clear_bits() - rs.clear_bits() < 8.0);
    }

    #[test]
    fn estimator_is_conservative_vs_measurement() {
        let params = CkksParams::builder()
            .log_n(9)
            .word_bits(28)
            .representation(Representation::BitPacker)
            .security(SecurityLevel::Insecure)
            .levels(3, 30)
            .base_modulus_bits(40)
            .build()
            .unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(55);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let x = vec![0.5, -0.5, 0.25];
        let ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);

        let est = NoiseEstimate::fresh(
            ctx.params().n(),
            ctx.chain().scale_at(ctx.max_level()).log2(),
        );
        let measured = measure_noise_bits(&ctx, &keys.secret, &ct, &x);
        // The estimator's predicted clear bits must not exceed what we
        // actually achieve (conservatism), within a small slack.
        assert!(
            est.clear_bits() <= measured + 4.0,
            "estimate {:.1} vs measured {measured:.1}",
            est.clear_bits()
        );

        // One mult + rescale round: measured precision stays healthy.
        let sq = ev
            .rescale(&ev.mul(&ct, &ct, &keys.evaluation).unwrap())
            .unwrap();
        let want: Vec<f64> = x.iter().map(|v| v * v).collect();
        let measured2 = measure_noise_bits(&ctx, &keys.secret, &sq, &want);
        assert!(measured2 > 8.0, "precision collapsed: {measured2:.1} bits");
    }
}
