//! Exhaustive coverage of the unified error taxonomy: every variant of
//! every layer's error enum must (1) render a non-empty, informative
//! `Display`, (2) expose a consistent `source()` chain (wrappers link to
//! the wrapped error, leaves return `None`), and (3) carry the correct
//! transience classification — the contract the fault-tolerant runtime's
//! retry machinery is built on.
//!
//! This test is deliberately brittle against taxonomy growth: adding a
//! variant without extending the constructors below fails the
//! completeness assertions, which is the point.

use bitpacker::ckks::wire::WireError;
use bitpacker::ckks::{ChainError, ContextError, EvalError, IntegrityError, ParamsError};
use bitpacker::rns::{CancelReason, Domain, RnsError};
use bitpacker::runtime::{CheckpointError, RuntimeError};
use bitpacker::Error;
use std::error::Error as StdError;

/// Every `RnsError` variant. Transient: only `UnreducedCoefficient`
/// (detected data corruption); everything else is a programming or
/// structural error that retry reproduces.
fn all_rns() -> Vec<(RnsError, bool)> {
    vec![
        (RnsError::DegreeMismatch { left: 8, right: 16 }, false),
        (
            RnsError::DomainMismatch {
                left: Domain::Coeff,
                right: Domain::Ntt,
            },
            false,
        ),
        (
            RnsError::WrongDomain {
                op: "ntt_mul",
                found: Domain::Coeff,
                required: Domain::Ntt,
            },
            false,
        ),
        (
            RnsError::BasisMismatch {
                left: vec![17],
                right: vec![23],
            },
            false,
        ),
        (RnsError::MissingModulus { modulus: 97 }, false),
        (
            RnsError::NotEnoughResidues {
                op: "rescale",
                have: 1,
                need: 2,
            },
            false,
        ),
        (RnsError::EmptyBasis, false),
        (RnsError::DuplicateModulus { modulus: 97 }, false),
        (
            RnsError::LengthMismatch {
                what: "scales",
                expected: 3,
                found: 2,
            },
            false,
        ),
        (RnsError::EvenGaloisElement { t: 4 }, false),
        (
            RnsError::UnreducedCoefficient {
                modulus: 97,
                index: 3,
                value: 120,
            },
            true,
        ),
    ]
}

/// Every `IntegrityError` variant — all transient: integrity failures
/// mean *this copy* of the data is damaged; a fresh copy can clear them.
fn all_integrity() -> Vec<IntegrityError> {
    vec![
        IntegrityError::LevelOutOfRange { level: 9, max: 3 },
        IntegrityError::ResidueCount {
            poly: "c0",
            expected: 3,
            found: 2,
        },
        IntegrityError::ModulusMismatch {
            poly: "c1",
            index: 0,
            expected: 97,
            found: 89,
        },
        IntegrityError::DomainMismatch {
            c0: Domain::Coeff,
            c1: Domain::Ntt,
        },
        IntegrityError::ScaleOutOfRange { log2: -3.0 },
        IntegrityError::Corrupted(RnsError::UnreducedCoefficient {
            modulus: 97,
            index: 0,
            value: 97,
        }),
    ]
}

/// Every `EvalError` variant with its expected transience.
fn all_eval() -> Vec<(EvalError, bool)> {
    vec![
        (EvalError::LevelMismatch { left: 3, right: 1 }, false),
        (
            EvalError::ScaleMismatch {
                left_log2: 30.0,
                right_log2: 60.0,
            },
            false,
        ),
        (
            EvalError::PlaintextLevelMismatch {
                ciphertext: 2,
                plaintext: 3,
            },
            false,
        ),
        (
            EvalError::PlaintextScaleMismatch {
                ciphertext_log2: 30.0,
                plaintext_log2: 35.0,
            },
            false,
        ),
        (
            EvalError::MissingRotationKey {
                steps: 5,
                normalized: 5,
            },
            false,
        ),
        (EvalError::MissingConjugationKey, false),
        (EvalError::LevelExhausted { op: "rescale" }, false),
        (EvalError::AdjustUpward { from: 1, to: 3 }, false),
        (
            EvalError::AutoAlignFailed {
                reason: "diverging scales".into(),
            },
            false,
        ),
        (
            EvalError::BudgetExhausted {
                noise_bits: 30.0,
                message_bits: 29.0,
            },
            true,
        ),
        (
            EvalError::Integrity(IntegrityError::LevelOutOfRange { level: 9, max: 3 }),
            true,
        ),
        (
            EvalError::Rns(RnsError::UnreducedCoefficient {
                modulus: 97,
                index: 0,
                value: 97,
            }),
            true,
        ),
        (EvalError::Rns(RnsError::EmptyBasis), false),
        (EvalError::Cancelled(CancelReason::Requested), false),
        (EvalError::Cancelled(CancelReason::DeadlineExceeded), false),
    ]
}

/// Every `WireError` variant with its expected transience.
fn all_wire() -> Vec<(WireError, bool)> {
    vec![
        (WireError::Malformed("bad magic".into()), false),
        (WireError::Incompatible("ring degree".into()), false),
        (
            WireError::Integrity(IntegrityError::ScaleOutOfRange { log2: 0.0 }),
            true,
        ),
    ]
}

/// Every `CheckpointError` variant with its expected transience.
fn all_checkpoint() -> Vec<(CheckpointError, bool)> {
    vec![
        (CheckpointError::Truncated { need: 8, have: 3 }, false),
        (CheckpointError::BadMagic { found: *b"XXXX" }, false),
        (CheckpointError::UnsupportedVersion { found: 99 }, false),
        (
            CheckpointError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            true,
        ),
        (CheckpointError::Malformed("trailing bytes"), false),
        (CheckpointError::MissingSlot { name: "w".into() }, false),
        (
            CheckpointError::Wire {
                name: "w".into(),
                source: WireError::Integrity(IntegrityError::ScaleOutOfRange { log2: 0.0 }),
            },
            true,
        ),
        (
            CheckpointError::Wire {
                name: "w".into(),
                source: WireError::Malformed("short".into()),
            },
            false,
        ),
    ]
}

/// Every `RuntimeError` variant with its expected transience.
fn all_runtime() -> Vec<(RuntimeError, bool)> {
    vec![
        (
            RuntimeError::JobPanicked {
                workload: "w".into(),
                message: "boom".into(),
            },
            false,
        ),
        (RuntimeError::DeadlineExceeded, false),
        (RuntimeError::Cancelled, false),
        (
            RuntimeError::CircuitOpen {
                workload: "w".into(),
            },
            false,
        ),
        (
            RuntimeError::RetriesExhausted {
                workload: "w".into(),
                attempts: 3,
                last: Box::new(RuntimeError::Checkpoint(
                    CheckpointError::ChecksumMismatch {
                        stored: 1,
                        computed: 2,
                    },
                )),
            },
            false,
        ),
        (
            RuntimeError::Eval(EvalError::BudgetExhausted {
                noise_bits: 1.0,
                message_bits: 0.0,
            }),
            true,
        ),
        (RuntimeError::Wire(WireError::Malformed("x".into())), false),
        (
            RuntimeError::Checkpoint(CheckpointError::ChecksumMismatch {
                stored: 0,
                computed: 1,
            }),
            true,
        ),
    ]
}

fn assert_display_nonempty(err: &dyn StdError, ctx: &str) {
    let msg = err.to_string();
    assert!(!msg.trim().is_empty(), "{ctx}: empty Display");
    // Walk the full source chain: every link must also render.
    let mut cur = err.source();
    let mut depth = 0;
    while let Some(e) = cur {
        assert!(!e.to_string().trim().is_empty(), "{ctx}: empty source link");
        cur = e.source();
        depth += 1;
        assert!(depth < 10, "{ctx}: cyclic source chain");
    }
}

#[test]
fn rns_errors_display_and_classify() {
    let all = all_rns();
    assert_eq!(all.len(), 11, "update this test when RnsError grows");
    for (e, transient) in &all {
        assert_display_nonempty(e, &format!("{e:?}"));
        assert_eq!(e.is_transient(), *transient, "{e:?}");
        assert!(e.source().is_none(), "RnsError is a leaf: {e:?}");
    }
}

#[test]
fn integrity_errors_display_and_are_all_transient() {
    let all = all_integrity();
    assert_eq!(all.len(), 6, "update this test when IntegrityError grows");
    for e in &all {
        assert_display_nonempty(e, &format!("{e:?}"));
        assert!(e.is_transient(), "integrity failures are transient: {e:?}");
    }
}

#[test]
fn eval_errors_display_and_classify() {
    let all = all_eval();
    assert_eq!(all.len(), 15, "update this test when EvalError grows");
    for (e, transient) in &all {
        assert_display_nonempty(e, &format!("{e:?}"));
        assert_eq!(e.is_transient(), *transient, "{e:?}");
    }
    // Wrapper variants expose their source.
    assert!(
        EvalError::Integrity(IntegrityError::LevelOutOfRange { level: 1, max: 0 })
            .source()
            .is_some()
    );
    assert!(EvalError::Rns(RnsError::EmptyBasis).source().is_some());
}

#[test]
fn wire_errors_display_and_classify() {
    for (e, transient) in &all_wire() {
        assert_display_nonempty(e, &format!("{e:?}"));
        assert_eq!(e.is_transient(), *transient, "{e:?}");
    }
}

#[test]
fn checkpoint_errors_display_and_classify() {
    for (e, transient) in &all_checkpoint() {
        assert_display_nonempty(e, &format!("{e:?}"));
        assert_eq!(e.is_transient(), *transient, "{e:?}");
    }
    // The Wire wrapper links its source.
    let wrapped = CheckpointError::Wire {
        name: "w".into(),
        source: WireError::Malformed("x".into()),
    };
    assert!(wrapped.source().is_some());
}

#[test]
fn runtime_errors_display_and_classify() {
    for (e, transient) in &all_runtime() {
        assert_display_nonempty(e, &format!("{e:?}"));
        assert_eq!(e.is_transient(), *transient, "{e:?}");
    }
    // RetriesExhausted chains to the final attempt's error.
    let exhausted = RuntimeError::RetriesExhausted {
        workload: "w".into(),
        attempts: 2,
        last: Box::new(RuntimeError::Eval(EvalError::MissingConjugationKey)),
    };
    assert!(exhausted.source().is_some());
}

#[test]
fn facade_error_wraps_every_layer_and_preserves_transience() {
    let cases: Vec<(Error, bool)> = vec![
        (Error::Params(ParamsError::Invalid("log_n".into())), false),
        (
            Error::Chain(ChainError::TargetUnmatched { level: 2 }),
            false,
        ),
        (
            Error::Chain(ChainError::NotEnoughPrimes("w=20".into())),
            false,
        ),
        (
            Error::Chain(ChainError::SecurityExceeded {
                needed: 900,
                allowed: 881,
            }),
            false,
        ),
        (
            Error::Context(ContextError::Unsupported("w>61".into())),
            false,
        ),
        (
            Error::Context(ContextError::Chain(ChainError::TargetUnmatched {
                level: 0,
            })),
            false,
        ),
        (
            Error::Eval(EvalError::BudgetExhausted {
                noise_bits: 2.0,
                message_bits: 1.0,
            }),
            true,
        ),
        (Error::Wire(WireError::Malformed("m".into())), false),
        (
            Error::Rns(RnsError::UnreducedCoefficient {
                modulus: 97,
                index: 0,
                value: 97,
            }),
            true,
        ),
        (Error::Runtime(RuntimeError::DeadlineExceeded), false),
        (
            Error::Runtime(RuntimeError::Checkpoint(
                CheckpointError::ChecksumMismatch {
                    stored: 0,
                    computed: 1,
                },
            )),
            true,
        ),
    ];
    for (e, transient) in &cases {
        assert_display_nonempty(e, &format!("{e:?}"));
        assert_eq!(e.is_transient(), *transient, "{e:?}");
        assert!(
            e.source().is_some(),
            "every facade variant wraps a layer error: {e:?}"
        );
    }

    // From impls cover the runtime layer too.
    let via_from: Error = RuntimeError::Cancelled.into();
    assert!(matches!(via_from, Error::Runtime(RuntimeError::Cancelled)));
}
