//! CKKS ciphertexts.

use crate::context::CkksContext;
use crate::error::IntegrityError;
use crate::noise::NoiseEstimate;
use bp_math::FactoredScale;
use bp_rns::RnsPoly;

/// A CKKS ciphertext: the polynomial pair `(ct.0, ct.1)` with
/// `ct.0 + ct.1·s ≈ m` (paper Fig. 2), plus its level, exact scale, and a
/// running analytic noise estimate.
///
/// Both polynomials are kept in NTT domain between operations.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub(crate) c0: RnsPoly,
    pub(crate) c1: RnsPoly,
    pub(crate) level: usize,
    pub(crate) scale: FactoredScale,
    pub(crate) noise: NoiseEstimate,
}

impl Ciphertext {
    /// Creates a ciphertext from its parts (crate-internal; users obtain
    /// ciphertexts from encryption or evaluation).
    pub(crate) fn new(
        c0: RnsPoly,
        c1: RnsPoly,
        level: usize,
        scale: FactoredScale,
        noise: NoiseEstimate,
    ) -> Self {
        debug_assert_eq!(c0.moduli(), c1.moduli());
        Self {
            c0,
            c1,
            level,
            scale,
            noise,
        }
    }

    /// The ciphertext's current level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The exact scale of the encrypted values.
    pub fn scale(&self) -> &FactoredScale {
        &self.scale
    }

    /// The running analytic noise estimate (see [`crate::noise`]).
    pub fn noise(&self) -> &NoiseEstimate {
        &self.noise
    }

    /// The residue moduli currently backing the ciphertext (borrowed; no
    /// per-call allocation).
    pub fn moduli(&self) -> &[u64] {
        self.c0.moduli()
    }

    /// Number of residues `R` (what drives accelerator cost).
    pub fn num_residues(&self) -> usize {
        self.c0.num_residues()
    }

    /// The first polynomial (`ct.0`).
    pub fn c0(&self) -> &RnsPoly {
        &self.c0
    }

    /// The second polynomial (`ct.1`).
    pub fn c1(&self) -> &RnsPoly {
        &self.c1
    }

    /// Checks structural integrity against a context: the claimed level
    /// exists, both polynomials carry exactly the chain's residue basis for
    /// that level in a consistent domain, every coefficient is reduced
    /// modulo its prime, and the scale is plausible.
    ///
    /// Deserialized or externally-supplied ciphertexts should be validated
    /// before evaluation; [`crate::wire::read_ciphertext`] does so
    /// automatically.
    ///
    /// # Errors
    /// The first [`IntegrityError`] encountered, checked in the order
    /// above.
    pub fn validate(&self, ctx: &CkksContext) -> Result<(), IntegrityError> {
        let chain = ctx.chain();
        if self.level > chain.max_level() {
            return Err(IntegrityError::LevelOutOfRange {
                level: self.level,
                max: chain.max_level(),
            });
        }
        let expected = chain.moduli_at(self.level);
        for (name, poly) in [("c0", &self.c0), ("c1", &self.c1)] {
            let moduli = poly.moduli();
            if moduli.len() != expected.len() {
                return Err(IntegrityError::ResidueCount {
                    poly: name,
                    expected: expected.len(),
                    found: moduli.len(),
                });
            }
            for (i, (&got, &want)) in moduli.iter().zip(expected).enumerate() {
                if got != want {
                    return Err(IntegrityError::ModulusMismatch {
                        poly: name,
                        index: i,
                        expected: want,
                        found: got,
                    });
                }
            }
            poly.check_reduced()?;
        }
        if self.c0.domain() != self.c1.domain() {
            return Err(IntegrityError::DomainMismatch {
                c0: self.c0.domain(),
                c1: self.c1.domain(),
            });
        }
        // Scale sanity: positive, finite, and no larger than the squared
        // level modulus (the most a single unrescaled product can reach),
        // with slack for adjust's transient constants.
        let log2 = self.scale.log2();
        let total_bits: f64 = expected.iter().map(|&q| (q as f64).log2()).sum();
        if !log2.is_finite() || log2 <= 0.0 || log2 > 2.0 * total_bits + 64.0 {
            return Err(IntegrityError::ScaleOutOfRange { log2 });
        }
        Ok(())
    }
}
