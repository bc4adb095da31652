//! Homomorphic operations: add, multiply, rotate, and keyswitching.
//!
//! Everything here is representation-agnostic — BitPacker changes *only*
//! level management (paper Sec. 3.2: "all other operations are exactly the
//! same as in RNS-CKKS"). The hybrid keyswitch works over whatever residue
//! basis the ciphertext currently has, which is what lets the same
//! machinery serve both representations.
//!
//! Every operation returns a typed [`EvalError`] instead of panicking. Under
//! [`EvalPolicy::Strict`] (the default) misaligned operands are an error;
//! under [`EvalPolicy::AutoAlign`] the evaluator transparently inserts the
//! missing `adjust_to`/`rescale` calls, recording each repair in its
//! [`RepairLog`].

use crate::chain::ModulusChain;
use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::Plaintext;
use crate::error::EvalError;
use crate::keys::{galois_element, EvaluationKey, KeySwitchKey};
use crate::levels;
use crate::noise::NoiseEstimate;
use crate::params::Representation;
use bp_math::FactoredScale;
use bp_rns::rescale::scale_down;
use bp_rns::{CancelToken, Domain, ResiduePoly, RnsError, RnsPoly};
use bp_telemetry::trace::{self, OpKind, OpRecord};
use bp_telemetry::Stopwatch;
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;

/// How the evaluator treats misaligned operands (different levels or
/// scales).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalPolicy {
    /// Misaligned operands are a typed error; the circuit author inserts
    /// every `adjust_to`/`rescale` explicitly. The default.
    #[default]
    Strict,
    /// The evaluator inserts the missing level/scale fixes itself and
    /// counts them in the [`RepairLog`].
    AutoAlign,
}

/// Counters of the fixes an [`EvalPolicy::AutoAlign`] evaluator inserted.
///
/// Explicit `adjust_to`/`rescale` calls are *not* counted — only repairs
/// the evaluator decided on by itself. A Strict-mode evaluator always
/// reports zeros.
#[derive(Debug, Clone, Default)]
pub struct RepairLog {
    adjusts: Cell<u64>,
    rescales: Cell<u64>,
}

impl RepairLog {
    /// Number of automatic `adjust_to` insertions.
    pub fn adjusts(&self) -> u64 {
        self.adjusts.get()
    }

    /// Number of automatic `rescale` insertions.
    pub fn rescales(&self) -> u64 {
        self.rescales.get()
    }

    /// Total automatic repairs.
    pub fn total(&self) -> u64 {
        self.adjusts() + self.rescales()
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.adjusts.set(0);
        self.rescales.set(0);
    }
}

impl fmt::Display for RepairLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} repairs ({} adjusts, {} rescales)",
            self.total(),
            self.adjusts(),
            self.rescales()
        )
    }
}

/// A residue-wise binary polynomial op (`RnsPoly::add` or `RnsPoly::sub`).
type PolyOp = fn(&RnsPoly, &RnsPoly) -> Result<RnsPoly, RnsError>;

/// One polynomial's keyswitch digit extensions, in key-digit order:
/// digit `j`'s residues modded up to the level's basis plus the special
/// primes, or `None` when none of the digit's primes is active. In the
/// program path, the shared mod-up of a node read by several Galois ops
/// ([`crate::ProgramStepper`]).
pub(crate) type DigitExtensions = Vec<Option<RnsPoly>>;

/// Operation dispatcher bound to a [`CkksContext`].
///
/// Created via [`CkksContext::evaluator`] (Strict) or
/// [`CkksContext::evaluator_with_policy`].
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    ctx: &'a CkksContext,
    policy: EvalPolicy,
    repairs: RepairLog,
    cancel: Option<CancelToken>,
    /// The `bp_ir::Program` node a [`crate::ProgramStepper`] is
    /// executing, stamped into every trace record the op emits (including
    /// auto-align repairs). `None` for ad-hoc calls.
    pub(crate) ir_op: Cell<Option<u64>>,
}

impl<'a> Evaluator<'a> {
    pub(crate) fn new(ctx: &'a CkksContext, policy: EvalPolicy) -> Self {
        Self {
            ctx,
            policy,
            repairs: RepairLog::default(),
            cancel: None,
            ir_op: Cell::new(None),
        }
    }

    fn chain(&self) -> &ModulusChain {
        self.ctx.chain()
    }

    /// The bound context (crate-internal: used by the IR interpreter in
    /// [`crate::program`] to encode plaintext operands).
    pub(crate) fn context(&self) -> &'a CkksContext {
        self.ctx
    }

    /// The alignment policy this evaluator runs under.
    pub fn policy(&self) -> EvalPolicy {
        self.policy
    }

    /// Attaches a cooperative cancellation token: every subsequent public
    /// op first polls the token and returns [`EvalError::Cancelled`] once
    /// it fires (deadline passed or cancellation requested), so a
    /// supervisor can bound long evaluator programs without preempting a
    /// kernel mid-flight.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Cooperative cancellation checkpoint, polled at the start of every
    /// public op.
    fn check_cancel(&self) -> Result<(), EvalError> {
        match &self.cancel {
            Some(token) => token.check().map_err(EvalError::Cancelled),
            None => Ok(()),
        }
    }

    /// The repairs inserted so far (nonzero only under
    /// [`EvalPolicy::AutoAlign`]).
    pub fn repairs(&self) -> &RepairLog {
        &self.repairs
    }

    /// Records one completed op into the telemetry trace, with its
    /// level-management detail: residues shed and added, and whether it
    /// was an auto-align repair. A no-op unless telemetry is live.
    fn observe(
        &self,
        kind: OpKind,
        sw: Stopwatch,
        ct: &Ciphertext,
        shed: usize,
        added: usize,
        repair: bool,
    ) {
        if !bp_telemetry::enabled() {
            return;
        }
        let batched = matches!(kind, OpKind::Rescale | OpKind::Adjust)
            && self.chain().representation() == Representation::BitPacker;
        trace::record_op(OpRecord {
            kind,
            level: ct.level(),
            residues: ct.num_residues(),
            shed,
            added,
            word_bits: self.chain().word_bits(),
            batched,
            repair,
            duration_ns: sw.elapsed_ns(),
            noise_bits: ct.noise().noise_bits,
            clear_bits: ct.noise().clear_bits(),
            scale_log2: ct.scale().log2(),
            log_q: ct.c0().info_bits(),
            ir_op: self.ir_op.get(),
        });
    }

    /// The one wrapper every public op except `rescale`/`adjust_to` runs
    /// through: cancellation checkpoint, profiler frame, stopwatch, the
    /// op body, and its trace record.
    fn run_op(
        &self,
        kind: OpKind,
        body: impl FnOnce() -> Result<Ciphertext, EvalError>,
    ) -> Result<Ciphertext, EvalError> {
        self.check_cancel()?;
        let _frame = bp_telemetry::profile::frame(kind.name());
        let sw = Stopwatch::start();
        let ct = body()?;
        self.observe(kind, sw, &ct, 0, 0, false);
        Ok(ct)
    }

    /// Moves `ct` one level down by `kind` (`Rescale` or `Adjust`) and
    /// records the transition, with the residues it shed and added, as
    /// one trace entry — shared by the public level ops (`repair` false)
    /// and the auto-align repairs (`repair` true).
    fn level_step(&self, ct: &mut Ciphertext, kind: OpKind, repair: bool) -> Result<(), EvalError> {
        let sw = Stopwatch::start();
        let from = ct.level();
        if kind == OpKind::Rescale {
            levels::rescale(ct, self.chain(), self.ctx.pool())?;
        } else {
            levels::adjust(ct, self.chain(), self.ctx.pool())?;
        }
        if bp_telemetry::enabled() {
            let shed = self.chain().shed_between(from).len();
            let added = self.chain().added_between(from).len();
            self.observe(kind, sw, ct, shed, added, repair);
        }
        Ok(())
    }

    /// Clamps a freshly produced result's noise estimate to the modulus
    /// capacity of its level (see
    /// [`clamp_to_capacity`](crate::noise::NoiseEstimate::clamp_to_capacity)):
    /// an op whose output magnitude no longer fits `[-Q_l/2, Q_l/2)` has
    /// wrapped, and the estimate must report an exhausted budget instead
    /// of carrying the pre-wrap mantissa forward.
    fn clamp_capacity(&self, ct: &mut Ciphertext) {
        let log_q = self.chain().log_q_at(ct.level);
        ct.noise = ct.noise.clamp_to_capacity(log_q);
    }

    /// Auto-align repair: steps `ct` down to `target` by `step`
    /// (`Adjust` or `Rescale`), one repair-flagged trace entry and
    /// profiler frame per level, then counts the repair.
    fn repair(&self, ct: &mut Ciphertext, step: OpKind, target: usize) -> Result<(), EvalError> {
        let count = if step == OpKind::Adjust {
            &self.repairs.adjusts
        } else {
            &self.repairs.rescales
        };
        while ct.level() > target {
            let _frame = bp_telemetry::profile::frame(step.name());
            self.level_step(ct, step, true)?;
        }
        count.set(count.get() + 1);
        Ok(())
    }

    /// Checks level alignment — and scale alignment when `scales` is set
    /// (multiplication allows differing scales); under AutoAlign returns
    /// repaired clones, under Strict a typed error. Already-aligned
    /// operands (the common Strict path) are returned borrowed — no clone.
    fn align<'c>(
        &self,
        a: &'c Ciphertext,
        b: &'c Ciphertext,
        scales: bool,
    ) -> Result<(Cow<'c, Ciphertext>, Cow<'c, Ciphertext>), EvalError> {
        let aligned =
            |a: &Ciphertext, b: &Ciphertext| a.level == b.level && (!scales || a.scale == b.scale);
        if aligned(a, b) {
            return Ok((Cow::Borrowed(a), Cow::Borrowed(b)));
        }
        if self.policy == EvalPolicy::Strict {
            return Err(if a.level != b.level {
                EvalError::LevelMismatch {
                    left: a.level,
                    right: b.level,
                }
            } else {
                EvalError::ScaleMismatch {
                    left_log2: a.scale.log2(),
                    right_log2: b.scale.log2(),
                }
            });
        }
        let mut a = a.clone();
        let mut b = b.clone();
        // Each pass fixes one misalignment; two passes cover the worst
        // common case (one operand multiplied-but-unrescaled, the other at
        // a higher level), with slack for scale schedules that need an
        // extra round.
        for _ in 0..4 {
            if aligned(&a, &b) {
                return Ok((Cow::Owned(a), Cow::Owned(b)));
            }
            if a.level != b.level {
                let target = a.level.min(b.level);
                let hi = if a.level > b.level { &mut a } else { &mut b };
                self.repair(hi, OpKind::Adjust, target)?;
                continue;
            }
            // Same level, different scale: rescale the larger-scale operand
            // (it is the unrescaled product), then realign levels next pass.
            let hi = if a.scale.log2() > b.scale.log2() {
                &mut a
            } else {
                &mut b
            };
            if hi.level == 0 {
                return Err(EvalError::AutoAlignFailed {
                    reason: format!(
                        "scales 2^{:.2} vs 2^{:.2} at level 0: no modulus left to \
                         rescale by",
                        a.scale.log2(),
                        b.scale.log2()
                    ),
                });
            }
            let target = hi.level - 1;
            self.repair(hi, OpKind::Rescale, target)?;
        }
        Err(EvalError::AutoAlignFailed {
            reason: format!(
                "operands did not converge after 4 repair passes (levels {} vs {}, \
             scales 2^{:.2} vs 2^{:.2})",
                a.level,
                b.level,
                a.scale.log2(),
                b.scale.log2()
            ),
        })
    }

    /// Aligns a ciphertext to a plaintext's level (only downward adjusts
    /// are possible — the plaintext cannot be moved without re-encoding).
    /// Matching levels return the ciphertext borrowed — no clone.
    fn align_to_plain<'c>(
        &self,
        a: &'c Ciphertext,
        pt: &Plaintext,
    ) -> Result<Cow<'c, Ciphertext>, EvalError> {
        if a.level == pt.level {
            return Ok(Cow::Borrowed(a));
        }
        if self.policy == EvalPolicy::Strict || a.level < pt.level {
            return Err(EvalError::PlaintextLevelMismatch {
                ciphertext: a.level,
                plaintext: pt.level,
            });
        }
        let mut a = a.clone();
        self.repair(&mut a, OpKind::Adjust, pt.level)?;
        Ok(Cow::Owned(a))
    }

    /// Homomorphic elementwise addition.
    ///
    /// # Errors
    /// [`EvalError::LevelMismatch`] / [`EvalError::ScaleMismatch`] under
    /// Strict when the operands are misaligned (use [`Evaluator::adjust_to`]
    /// or [`EvalPolicy::AutoAlign`]).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.add_sub(OpKind::Add, a, b, RnsPoly::add)
    }

    /// Homomorphic elementwise subtraction.
    ///
    /// # Errors
    /// Same alignment errors as [`Evaluator::add`].
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.add_sub(OpKind::Sub, a, b, RnsPoly::sub)
    }

    /// The shared body of [`Evaluator::add`] / [`Evaluator::sub`].
    fn add_sub(
        &self,
        kind: OpKind,
        a: &Ciphertext,
        b: &Ciphertext,
        poly_op: PolyOp,
    ) -> Result<Ciphertext, EvalError> {
        self.run_op(kind, || {
            let (a, b) = self.align(a, b, true)?;
            let mut ct = Ciphertext::new(
                poly_op(&a.c0, &b.c0)?,
                poly_op(&a.c1, &b.c1)?,
                a.level,
                a.scale.clone(),
                a.noise.add(&b.noise),
            );
            self.clamp_capacity(&mut ct);
            Ok(ct)
        })
    }

    /// Adds an (unencrypted) plaintext to a ciphertext.
    ///
    /// # Errors
    /// [`EvalError::PlaintextLevelMismatch`] /
    /// [`EvalError::PlaintextScaleMismatch`] when the plaintext was not
    /// encoded for the ciphertext's level and scale.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        self.add_sub_plain(OpKind::AddPlain, a, pt, RnsPoly::add)
    }

    /// Subtracts a plaintext from a ciphertext.
    ///
    /// # Errors
    /// Same alignment errors as [`Evaluator::add_plain`].
    pub fn sub_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        self.add_sub_plain(OpKind::SubPlain, a, pt, RnsPoly::sub)
    }

    /// The shared body of [`Evaluator::add_plain`] /
    /// [`Evaluator::sub_plain`]: only `c0` changes.
    fn add_sub_plain(
        &self,
        kind: OpKind,
        a: &Ciphertext,
        pt: &Plaintext,
        poly_op: PolyOp,
    ) -> Result<Ciphertext, EvalError> {
        self.run_op(kind, || {
            let a = self.align_to_plain(a, pt)?;
            if a.scale != pt.scale {
                return Err(EvalError::PlaintextScaleMismatch {
                    ciphertext_log2: a.scale.log2(),
                    plaintext_log2: pt.scale.log2(),
                });
            }
            let mut p = pt.poly.clone();
            p.to_ntt();
            Ok(Ciphertext::new(
                poly_op(&a.c0, &p)?,
                a.c1.clone(),
                a.level,
                a.scale.clone(),
                a.noise,
            ))
        })
    }

    /// Multiplies a ciphertext by a plaintext (no relinearization needed;
    /// paper Sec. 2.2 — "multiply allows one operand to be unencrypted").
    /// The result's scale is the product of the operand scales.
    ///
    /// # Errors
    /// [`EvalError::PlaintextLevelMismatch`] when the levels differ.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        self.run_op(OpKind::MulPlain, || {
            let a = self.align_to_plain(a, pt)?;
            let mut p = pt.poly.clone();
            p.to_ntt();
            let mut ct = Ciphertext::new(
                a.c0.mul(&p)?,
                a.c1.mul(&p)?,
                a.level,
                a.scale.mul(&pt.scale),
                a.noise.mul_plain(pt.scale.log2()),
            );
            self.clamp_capacity(&mut ct);
            Ok(ct)
        })
    }

    /// Homomorphic ciphertext–ciphertext multiplication with
    /// relinearization. The result's scale is `S_a · S_b`; follow with
    /// [`Evaluator::rescale`] to bring it back to the level scale.
    ///
    /// # Errors
    /// [`EvalError::LevelMismatch`] under Strict when the levels differ.
    pub fn mul(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        ek: &EvaluationKey,
    ) -> Result<Ciphertext, EvalError> {
        self.run_op(OpKind::Mul, || {
            let (a, b) = self.align(a, b, false)?;
            let d0 = a.c0.mul(&b.c0)?;
            let mut d1 = a.c0.mul(&b.c1)?;
            // Fused: d1 += c1·c0' in one traversal, no product temporary.
            d1.mul_add_assign(&a.c1, &b.c0)?;
            let d2 = a.c1.mul(&b.c1)?;
            let noise = a.noise.mul(&b.noise);
            self.relinearize([d0, d1, d2], ek, a.level, a.scale.mul(&b.scale), noise)
        })
    }

    /// Homomorphic squaring (saves one polynomial product vs. `mul`).
    ///
    /// # Errors
    /// Propagates keyswitching failures.
    pub fn square(&self, a: &Ciphertext, ek: &EvaluationKey) -> Result<Ciphertext, EvalError> {
        self.run_op(OpKind::Square, || {
            let d0 = a.c0.mul(&a.c0)?;
            let mut d1 = a.c0.mul(&a.c1)?;
            // 2·(c0·c1) via a scalar pass — no self-clone, no add traversal.
            d1.mul_scalar_u64(2);
            let d2 = a.c1.mul(&a.c1)?;
            let noise = a.noise.mul(&a.noise);
            self.relinearize([d0, d1, d2], ek, a.level, a.scale.square(), noise)
        })
    }

    /// Folds the degree-2 tensor `(d0, d1, d2)` of a product back to a
    /// two-component ciphertext by keyswitching `d2` with the
    /// relinearization key.
    fn relinearize(
        &self,
        [d0, d1, d2]: [RnsPoly; 3],
        ek: &EvaluationKey,
        level: usize,
        scale: FactoredScale,
        noise: NoiseEstimate,
    ) -> Result<Ciphertext, EvalError> {
        let (ks_b, ks_a) = self.apply_ksk(&d2, &ek.relin, None)?;
        let mut ct = Ciphertext::new(
            d0.add_owned(&ks_b)?,
            d1.add_owned(&ks_a)?,
            level,
            scale,
            noise.keyswitch(self.ctx.params().n()),
        );
        self.clamp_capacity(&mut ct);
        Ok(ct)
    }

    /// Homomorphic slot rotation by `steps` (positive = left).
    ///
    /// # Errors
    /// [`EvalError::MissingRotationKey`] if no rotation key for `steps`
    /// exists in `ek` (generate with [`CkksContext::gen_rotation_keys`]).
    pub fn rotate(
        &self,
        a: &Ciphertext,
        steps: i64,
        ek: &EvaluationKey,
    ) -> Result<Ciphertext, EvalError> {
        self.galois(a, Some(steps), ek, None)
    }

    /// Complex conjugation of the slot values (the Galois automorphism
    /// `X → X^{2N−1}`). Requires the conjugation key (see
    /// [`CkksContext::gen_conjugation_key`]).
    ///
    /// # Errors
    /// [`EvalError::MissingConjugationKey`] if `ek` has no conjugation key.
    pub fn conjugate(&self, a: &Ciphertext, ek: &EvaluationKey) -> Result<Ciphertext, EvalError> {
        self.galois(a, None, ek, None)
    }

    /// The one body of rotation by `Some(steps)` and of conjugation
    /// (`None`), for public calls and every Galois op of a program: looks
    /// up the key of the Galois element `t`, switches the un-permuted `c1`
    /// with it into `(b, a)`, and returns `(φₜ(c0 + b), φₜ(a))`, where the
    /// automorphism `φₜ: X → X^t` is a permutation of NTT slots. A
    /// coefficient-domain operand (the wire format admits one) is brought
    /// to NTT form first, so the result is always in NTT form.
    ///
    /// The key is stored permuted by `φ_{t⁻¹}`, and `φₜ` commutes with
    /// every step of the keyswitch, so the bytes are those of the textbook
    /// `(φₜ(c0) + b', a')` with `(b', a')` the switch of `φₜ(c1)` under the
    /// key as generated (`EvaluationKey::add_galois`). `cache` is the
    /// program path's shared mod-up of a node with several Galois readers,
    /// `None` elsewhere ([`Evaluator::apply_ksk`]).
    pub(crate) fn galois(
        &self,
        a: &Ciphertext,
        steps: Option<i64>,
        ek: &EvaluationKey,
        cache: Option<&mut Option<DigitExtensions>>,
    ) -> Result<Ciphertext, EvalError> {
        fn ntt_form(p: &RnsPoly) -> Cow<'_, RnsPoly> {
            let mut p = Cow::Borrowed(p);
            if p.domain() == Domain::Coeff {
                p.to_mut().to_ntt();
            }
            p
        }
        let n = self.ctx.params().n();
        let (kind, t, missing) = match steps {
            Some(steps) => {
                let normalized = steps.rem_euclid((n / 2) as i64);
                let missing = EvalError::MissingRotationKey { steps, normalized };
                (OpKind::Rotate, galois_element(steps, n), missing)
            }
            None => (
                OpKind::Conjugate,
                2 * n - 1,
                EvalError::MissingConjugationKey,
            ),
        };
        self.run_op(kind, || {
            let key = ek.galois.get(&t).ok_or(missing)?;
            let (ks_b, ks_a) = self.apply_ksk(&ntt_form(&a.c1), key, cache)?;
            Ok(Ciphertext::new(
                ks_b.add_owned(&ntt_form(&a.c0))?.automorphism(t)?,
                ks_a.automorphism(t)?,
                a.level,
                a.scale.clone(),
                a.noise.keyswitch(n),
            ))
        })
    }

    /// Homomorphic negation.
    ///
    /// # Errors
    /// Never fails today; returns `Result` for uniformity with the rest of
    /// the evaluation API.
    pub fn negate(&self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.run_op(OpKind::Negate, || {
            Ok(Ciphertext::new(
                a.c0.neg(),
                a.c1.neg(),
                a.level,
                a.scale.clone(),
                a.noise,
            ))
        })
    }

    /// Rescales to the next level down (dispatches to the representation's
    /// rescale; paper Listings 1 and 4).
    ///
    /// # Errors
    /// [`EvalError::LevelExhausted`] at level 0.
    pub fn rescale(&self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.level_op(OpKind::Rescale, a, Ok(1))
    }

    /// Adjusts down to `target_level` (paper Listings 2 and 6), preserving
    /// the encrypted values and landing on the chain scale so the result
    /// can be added to rescaled ciphertexts. Each level step is its own
    /// `Adjust` trace entry.
    ///
    /// # Errors
    /// [`EvalError::AdjustUpward`] if `target_level` exceeds the operand's
    /// level.
    pub fn adjust_to(&self, a: &Ciphertext, target_level: usize) -> Result<Ciphertext, EvalError> {
        let steps = a
            .level()
            .checked_sub(target_level)
            .ok_or(EvalError::AdjustUpward {
                from: a.level(),
                to: target_level,
            });
        self.level_op(OpKind::Adjust, a, steps)
    }

    /// The wrapper `rescale` and `adjust_to` run through: cancellation
    /// checkpoint, one profiler frame, then `steps` level transitions by
    /// `kind`, each its own trace record. An `Err` in `steps` is the op's
    /// argument error, reported after the cancellation checkpoint.
    fn level_op(
        &self,
        kind: OpKind,
        a: &Ciphertext,
        steps: Result<usize, EvalError>,
    ) -> Result<Ciphertext, EvalError> {
        self.check_cancel()?;
        let _frame = bp_telemetry::profile::frame(kind.name());
        // Fault-injection hook: an armed rescale fault surfaces as a
        // transient corruption of the operand's residue data.
        if kind == OpKind::Rescale && crate::fault::fire(crate::fault::FaultSite::Rescale) {
            let modulus = a.moduli().first().copied().unwrap_or(0);
            return Err(EvalError::Rns(bp_rns::RnsError::UnreducedCoefficient {
                modulus,
                index: 0,
                value: modulus,
            }));
        }
        let steps = steps?;
        let mut ct = a.clone();
        for _ in 0..steps {
            self.level_step(&mut ct, kind, false)?;
        }
        Ok(ct)
    }

    /// Hybrid keyswitch: takes `d` (over the current level's basis, NTT
    /// domain) encrypted under the keyswitch key's source secret and
    /// returns `(b, a)` with `b + a·s ≈ d·s'`. A Galois key is stored
    /// permuted, so a rotation switches its un-permuted `c1` here and
    /// permutes the result ([`Evaluator::galois`]).
    ///
    /// Per digit: slice the active residues, mod-up to the extended basis
    /// `Q_ℓ ∪ P` (a CRB operation), inner-product with the key, then
    /// mod-down by the special primes `P` (another CRB; paper Sec. 4.3).
    ///
    /// Without a `cache` the inner product streams one digit extension
    /// at a time: mod it up from `d`, multiply it into both accumulators,
    /// drop it. With one, it reads every extension of `d` from the cache,
    /// which is filled here if empty, after the fault hook and inside the
    /// keyswitch span, so a shared mod-up runs within its first reader's
    /// frame. The first active digit's products start the accumulators
    /// and later digits multiply-accumulate, so nothing is zero-filled
    /// first.
    fn apply_ksk(
        &self,
        d: &RnsPoly,
        ksk: &KeySwitchKey,
        cache: Option<&mut Option<DigitExtensions>>,
    ) -> Result<(RnsPoly, RnsPoly), EvalError> {
        // Fault-injection hook: an armed keyswitch fault is reported as
        // detected corruption of the switched polynomial — the transient
        // error class a real FU/memory fault would surface as.
        if crate::fault::fire(crate::fault::FaultSite::KeySwitch) {
            let modulus = d.moduli().first().copied().unwrap_or(0);
            return Err(EvalError::Integrity(
                crate::error::IntegrityError::Corrupted(bp_rns::RnsError::UnreducedCoefficient {
                    modulus,
                    index: 0,
                    value: modulus,
                }),
            ));
        }
        bp_telemetry::counters::add(bp_telemetry::counters::Counter::KeySwitches, 1);
        let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::KeySwitch);
        let pool = self.ctx.pool();
        let special = self.chain().special();
        let mut f_l = d.moduli().to_vec();
        f_l.extend_from_slice(special);

        // Every key of one chain splits the keyswitch basis into the same
        // digits, so a cache filled with one Galois key serves the others.
        let cached = match cache {
            None => None,
            Some(cache) => {
                if cache.is_none() {
                    let exts = ksk
                        .digits
                        .iter()
                        .map(|digit| self.mod_up(d, &digit.moduli, &f_l))
                        .collect::<Result<_, _>>()?;
                    *cache = Some(exts);
                }
                cache.as_ref()
            }
        };

        let mut acc: Option<(RnsPoly, RnsPoly)> = None;
        for (j, digit) in ksk.digits.iter().enumerate() {
            let ext = match cached {
                None => self.mod_up(d, &digit.moduli, &f_l)?.map(Cow::Owned),
                Some(exts) => exts[j].as_ref().map(Cow::Borrowed),
            };
            let Some(ext) = ext else {
                continue;
            };
            // The key digits span the full basis and are read in place at
            // `f_l`'s moduli, never copied. `mul_add(x, y, 0)` and
            // `mul(x, y)` reduce the same product, so starting from the
            // first product gives the bytes of accumulating into zeros.
            // A streamed extension's buffers go back to the pool when it
            // drops, for the next digit and the next keyswitch.
            match &mut acc {
                None => acc = Some((ext.mul_wide(&digit.b)?, ext.mul_wide(&digit.a)?)),
                Some((acc_b, acc_a)) => {
                    acc_b.mul_add_assign(&ext, &digit.b)?;
                    acc_a.mul_add_assign(&ext, &digit.a)?;
                }
            }
        }
        // With no active digit the inner product is zero.
        let (mut acc_b, mut acc_a) = acc.unwrap_or_else(|| {
            let zero = || RnsPoly::zero(pool, &f_l, Domain::Ntt);
            (zero(), zero())
        });

        // Mod-down by the special primes through the pool's memoized
        // P → Q_ℓ converter (extracting `special` from `f_l` leaves
        // exactly `d`'s moduli, in order).
        scale_down(&mut acc_b, special, pool)?;
        scale_down(&mut acc_a, special, pool)?;
        Ok((acc_b, acc_a))
    }

    /// One digit's mod-up: `d`'s residues at the digit's active primes,
    /// extended by basis conversion to the rest of `f_l` (the active
    /// moduli followed by the special primes) and laid out in `f_l`
    /// order. `None` when none of the digit's primes is active.
    fn mod_up(
        &self,
        d: &RnsPoly,
        digit: &[u64],
        f_l: &[u64],
    ) -> Result<Option<RnsPoly>, EvalError> {
        let active = d.moduli();
        let c_j: Vec<u64> = digit
            .iter()
            .copied()
            .filter(|q| active.contains(q))
            .collect();
        if c_j.is_empty() {
            return Ok(None);
        }
        let src = d.restricted(&c_j)?;
        let rest: Vec<u64> = f_l.iter().copied().filter(|q| !c_j.contains(q)).collect();
        if rest.is_empty() {
            return Ok(Some(src));
        }
        let conv = self.ctx.pool().converter(&c_j, &rest)?;
        let converted = conv.convert_from(src.residues(), Domain::Ntt, Domain::Ntt)?;
        // Assemble in f_l order: originals where present, converted
        // otherwise. Option slots let every residue move exactly once —
        // no clones, no zero-filled placeholders.
        let mut src_slots: Vec<Option<ResiduePoly>> =
            src.into_residues().into_iter().map(Some).collect();
        let mut conv_slots: Vec<Option<ResiduePoly>> = converted.into_iter().map(Some).collect();
        let mut residues = Vec::with_capacity(f_l.len());
        for &q in f_l {
            let r = if let Some(pos) = c_j.iter().position(|&c| c == q) {
                src_slots[pos]
                    .take()
                    .expect("each source residue is used exactly once")
            } else {
                let pos = rest.iter().position(|&r| r == q).expect("in rest");
                conv_slots[pos]
                    .take()
                    .expect("each converted residue is used exactly once")
            };
            residues.push(r);
        }
        Ok(Some(RnsPoly::from_residues(Domain::Ntt, residues)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::gen_ksk;
    use crate::wire::write_ciphertext;
    use crate::{CkksParams, SecurityLevel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    /// Every rotation and the conjugation give the bytes of the textbook
    /// Galois keyswitch `(φₜ(c0) + b, a)`, where `(b, a)` switches
    /// `φₜ(c1)` with the key as generated, drawn again from a copy of the
    /// RNG: for steps {1, 2, 3, 7, −1} and the conjugation, under both
    /// representations, at the top level and two lower ones. The wire
    /// format admits coefficient-domain ciphertexts; such an operand gives
    /// the bytes of the op on its NTT form (the automorphism permutes NTT
    /// slots, so coefficient data must be transformed first, never
    /// gathered).
    #[test]
    fn galois_ops_match_the_textbook_keyswitch() {
        const STEPS: [i64; 5] = [1, 2, 3, 7, -1];
        for repr in [Representation::BitPacker, Representation::RnsCkks] {
            let params = CkksParams::builder()
                .log_n(7)
                .word_bits(28)
                .representation(repr)
                .security(SecurityLevel::Insecure)
                .levels(4, 26)
                .base_modulus_bits(30)
                .dnum(2)
                .build()
                .unwrap();
            let ctx = CkksContext::new(&params).unwrap();
            let n = ctx.params().n();
            let mut rng = ChaCha20Rng::seed_from_u64(31);
            let mut keys = ctx.keygen(&mut rng);
            let mut ops = Vec::new();
            for steps in STEPS.map(Some).into_iter().chain([None]) {
                let t = match steps {
                    Some(steps) => galois_element(steps, n),
                    None => 2 * n - 1,
                };
                let s_t = keys.secret.s.automorphism(t).unwrap();
                let (pool, chain) = (ctx.pool(), ctx.chain());
                let generated = gen_ksk(pool, chain, &keys.secret, &s_t, &mut rng.clone());
                match steps {
                    Some(steps) => ctx.gen_rotation_keys(&mut keys, &[steps], &mut rng),
                    None => ctx.gen_conjugation_key(&mut keys, &mut rng),
                }
                ops.push((steps, t, generated));
            }
            let ek = &keys.evaluation;
            let vals: Vec<f64> = (0..ctx.params().slots())
                .map(|i| (i as f64 * 0.3).cos() / 2.0)
                .collect();
            let pt = ctx.encode(&vals, ctx.max_level());
            let top = ctx.encrypt(&pt, &keys.public, &mut rng);
            let ev = ctx.evaluator();
            let rescaled = ev.rescale(&ev.mul_plain(&top, &pt).unwrap()).unwrap();
            let adjusted = ev.adjust_to(&top, 1).unwrap();

            for ntt in [top, rescaled, adjusted] {
                let level = ntt.level();
                let mut coeff = ntt.clone();
                coeff.c0.to_coeff();
                coeff.c1.to_coeff();
                assert_ne!(write_ciphertext(&coeff), write_ciphertext(&ntt));
                for &(steps, t, ref key) in &ops {
                    let c1t = ntt.c1.automorphism(t).unwrap();
                    let (b, a) = ev.apply_ksk(&c1t, key, None).unwrap();
                    let c0t = ntt.c0.automorphism(t).unwrap();
                    let want = Ciphertext::new(
                        c0t.add_owned(&b).unwrap(),
                        a,
                        level,
                        ntt.scale.clone(),
                        ntt.noise.keyswitch(n),
                    );
                    for (form, ct) in [("ntt", &ntt), ("coeff", &coeff)] {
                        let got = match steps {
                            Some(steps) => ev.rotate(ct, steps, ek),
                            None => ev.conjugate(ct, ek),
                        }
                        .unwrap();
                        assert_eq!(got.c0.domain(), Domain::Ntt, "{repr} l{level} {form}");
                        assert_eq!(
                            write_ciphertext(&got),
                            write_ciphertext(&want),
                            "{repr} l{level} {form}: steps {steps:?}"
                        );
                    }
                }
            }
        }
    }
}
