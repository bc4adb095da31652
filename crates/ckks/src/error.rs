//! Typed errors for the evaluation pipeline.
//!
//! Every public [`crate::Evaluator`] operation returns a structured
//! [`EvalError`] instead of panicking, so application circuits (and servers
//! evaluating attacker-supplied ciphertexts) get precise, actionable
//! diagnostics: which operands were misaligned, which key was missing, and
//! what call fixes it. [`IntegrityError`] covers structural validation of a
//! ciphertext against its context ([`crate::Ciphertext::validate`]).

use bp_rns::{CancelReason, Domain, RnsError};

/// Errors from homomorphic evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Ciphertext operands sit at different chain levels.
    LevelMismatch {
        /// Level of the left operand.
        left: usize,
        /// Level of the right operand.
        right: usize,
    },
    /// Ciphertext operands share a level but have different scales
    /// (typically one was multiplied and not yet rescaled).
    ScaleMismatch {
        /// `log₂` scale of the left operand.
        left_log2: f64,
        /// `log₂` scale of the right operand.
        right_log2: f64,
    },
    /// A plaintext operand is encoded for a different level than the
    /// ciphertext.
    PlaintextLevelMismatch {
        /// The ciphertext's level.
        ciphertext: usize,
        /// The plaintext's level.
        plaintext: usize,
    },
    /// A plaintext operand's scale differs from the ciphertext's (required
    /// for add/sub; multiplication accepts any scale).
    PlaintextScaleMismatch {
        /// `log₂` scale of the ciphertext.
        ciphertext_log2: f64,
        /// `log₂` scale of the plaintext.
        plaintext_log2: f64,
    },
    /// No rotation key was generated for the requested step count.
    MissingRotationKey {
        /// The requested rotation.
        steps: i64,
        /// The normalized step count the key set was searched for.
        normalized: i64,
    },
    /// No conjugation key present in the evaluation key set.
    MissingConjugationKey,
    /// The operation needs more levels than the ciphertext has left.
    LevelExhausted {
        /// The operation attempted.
        op: &'static str,
    },
    /// An adjust was requested to a level *above* the operand's (adjusts
    /// only move down; going up needs a bootstrap).
    AdjustUpward {
        /// The ciphertext's current level.
        from: usize,
        /// The requested (higher) target level.
        to: usize,
    },
    /// `AutoAlign` could not reconcile the operands.
    AutoAlignFailed {
        /// Why alignment was abandoned.
        reason: String,
    },
    /// The analytic noise estimate says the ciphertext no longer carries
    /// any error-free message bits — decrypting would produce garbage.
    BudgetExhausted {
        /// Estimated `log₂` noise magnitude.
        noise_bits: f64,
        /// Estimated `log₂` message magnitude.
        message_bits: f64,
    },
    /// Ciphertext failed structural validation.
    Integrity(IntegrityError),
    /// An underlying RNS kernel rejected its operands.
    Rns(RnsError),
    /// The evaluator's cooperative [`bp_rns::CancelToken`] fired between
    /// operations (job cancelled or past its deadline); the partial
    /// computation was abandoned cleanly.
    Cancelled(CancelReason),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::LevelMismatch { left, right } => {
                let lo = (*left).min(*right);
                write!(
                    f,
                    "operands at levels {left} vs {right} — call adjust_to({lo}) \
                     on the higher one or enable EvalPolicy::AutoAlign"
                )
            }
            EvalError::ScaleMismatch {
                left_log2,
                right_log2,
            } => write!(
                f,
                "operands at scales 2^{left_log2:.2} vs 2^{right_log2:.2} — rescale \
                 the multiplied operand first or enable EvalPolicy::AutoAlign"
            ),
            EvalError::PlaintextLevelMismatch {
                ciphertext,
                plaintext,
            } => write!(
                f,
                "plaintext encoded for level {plaintext} but ciphertext is at \
                 level {ciphertext} — re-encode at the ciphertext's level"
            ),
            EvalError::PlaintextScaleMismatch {
                ciphertext_log2,
                plaintext_log2,
            } => write!(
                f,
                "plaintext scale 2^{plaintext_log2:.2} vs ciphertext scale \
                 2^{ciphertext_log2:.2} — encode with encode_at_scale to match"
            ),
            EvalError::MissingRotationKey { steps, normalized } => write!(
                f,
                "no rotation key for {steps} steps (normalized {normalized}) — \
                 generate it with gen_rotation_keys(&[{steps}])"
            ),
            EvalError::MissingConjugationKey => write!(
                f,
                "no conjugation key in the evaluation key set — call \
                 gen_conjugation_key first"
            ),
            EvalError::LevelExhausted { op } => write!(
                f,
                "{op} at level 0: the modulus chain is exhausted — restart from a \
                 fresh encryption or bootstrap"
            ),
            EvalError::AdjustUpward { from, to } => write!(
                f,
                "cannot adjust upward ({from} -> {to}): adjusts only shed modulus — \
                 bootstrapping is required to regain levels"
            ),
            EvalError::AutoAlignFailed { reason } => {
                write!(f, "AutoAlign could not reconcile the operands: {reason}")
            }
            EvalError::BudgetExhausted {
                noise_bits,
                message_bits,
            } => write!(
                f,
                "noise budget exhausted: estimated noise 2^{noise_bits:.1} has \
                 overtaken the message at 2^{message_bits:.1} — decryption would \
                 return garbage; use fewer levels or larger scales"
            ),
            EvalError::Integrity(e) => write!(f, "ciphertext integrity check failed: {e}"),
            EvalError::Rns(e) => write!(f, "RNS kernel error: {e}"),
            EvalError::Cancelled(reason) => write!(
                f,
                "evaluation cancelled between operations: {reason} — the job was \
                 abandoned cleanly, no partial state escapes"
            ),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Rns(e) => Some(e),
            EvalError::Integrity(e) => Some(e),
            _ => None,
        }
    }
}

impl EvalError {
    /// Whether retrying the operation with the same (pristine) inputs can
    /// plausibly succeed.
    ///
    /// Transient failures are data corruption detected in flight
    /// ([`EvalError::Integrity`], [`bp_rns::RnsError::UnreducedCoefficient`])
    /// and noise-budget exhaustion ([`EvalError::BudgetExhausted`]) —
    /// re-fetching or re-deriving the operand clears them. Everything else
    /// (misaligned operands, missing keys, exhausted chains, cancellation)
    /// is a property of the program or the request and recurs on retry.
    pub fn is_transient(&self) -> bool {
        match self {
            EvalError::Integrity(e) => e.is_transient(),
            EvalError::BudgetExhausted { .. } => true,
            EvalError::Rns(e) => e.is_transient(),
            _ => false,
        }
    }
}

impl From<RnsError> for EvalError {
    fn from(e: RnsError) -> Self {
        EvalError::Rns(e)
    }
}

impl From<IntegrityError> for EvalError {
    fn from(e: IntegrityError) -> Self {
        EvalError::Integrity(e)
    }
}

/// Structural-validation failures of a [`crate::Ciphertext`] against a
/// [`crate::CkksContext`] — what [`crate::Ciphertext::validate`] reports.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegrityError {
    /// The claimed level exceeds the chain's maximum.
    LevelOutOfRange {
        /// The ciphertext's claimed level.
        level: usize,
        /// The chain's maximum level.
        max: usize,
    },
    /// A polynomial's residue count disagrees with the chain at this level.
    ResidueCount {
        /// Which polynomial (`"c0"` or `"c1"`).
        poly: &'static str,
        /// Residues the chain prescribes at this level.
        expected: usize,
        /// Residues actually present.
        found: usize,
    },
    /// A residue's modulus disagrees with the chain's basis at this level.
    ModulusMismatch {
        /// Which polynomial (`"c0"` or `"c1"`).
        poly: &'static str,
        /// Position in the basis.
        index: usize,
        /// The chain's modulus at that position.
        expected: u64,
        /// The modulus actually found.
        found: u64,
    },
    /// The two component polynomials are in different domains.
    DomainMismatch {
        /// Domain of `c0`.
        c0: Domain,
        /// Domain of `c1`.
        c1: Domain,
    },
    /// The scale is non-positive, non-finite, or absurdly far from the
    /// chain's scale for the level.
    ScaleOutOfRange {
        /// `log₂` of the claimed scale.
        log2: f64,
    },
    /// A residue coefficient is out of range for its modulus.
    Corrupted(RnsError),
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::LevelOutOfRange { level, max } => {
                write!(f, "level {level} exceeds the chain maximum {max}")
            }
            IntegrityError::ResidueCount {
                poly,
                expected,
                found,
            } => write!(
                f,
                "{poly} has {found} residues but the chain prescribes {expected} \
                 at this level"
            ),
            IntegrityError::ModulusMismatch {
                poly,
                index,
                expected,
                found,
            } => write!(
                f,
                "{poly} residue {index} has modulus {found}, chain has {expected}"
            ),
            IntegrityError::DomainMismatch { c0, c1 } => {
                write!(f, "c0 in {c0:?} domain but c1 in {c1:?}")
            }
            IntegrityError::ScaleOutOfRange { log2 } => write!(
                f,
                "scale 2^{log2:.2} is outside the plausible range for this chain"
            ),
            IntegrityError::Corrupted(e) => write!(f, "residue data corrupted: {e}"),
        }
    }
}

impl std::error::Error for IntegrityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IntegrityError::Corrupted(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RnsError> for IntegrityError {
    fn from(e: RnsError) -> Self {
        IntegrityError::Corrupted(e)
    }
}

impl IntegrityError {
    /// Whether the failure is corruption of this particular ciphertext
    /// instance (retry with a re-fetched copy can succeed) rather than a
    /// structural incompatibility that recurs on every copy.
    ///
    /// Every integrity variant describes damaged or forged bytes of one
    /// ciphertext, so the whole class is transient for retry purposes.
    pub fn is_transient(&self) -> bool {
        true
    }
}
