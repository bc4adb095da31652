//! The runtime's error taxonomy.
//!
//! Every job submitted to [`crate::Runtime::run_program`] terminates in
//! exactly one of these states — including jobs that panicked, missed
//! their deadline, or were refused admission by an open circuit breaker.
//! The taxonomy extends the layered `bp-ckks` scheme: evaluator and wire
//! errors pass through unchanged (so callers keep their typed detail),
//! and the runtime adds the supervision-level outcomes on top.

use bp_ckks::wire::WireError;
use bp_ckks::{CancelReason, EvalError};
use std::fmt;

use crate::checkpoint::CheckpointError;

/// Terminal state of a runtime job (or a checkpoint operation).
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The job body panicked; the panic was contained by the runtime and
    /// did not cross the job boundary.
    JobPanicked {
        /// Workload key of the panicking job.
        workload: String,
        /// Panic payload rendered to text (best effort).
        message: String,
    },
    /// The job's deadline elapsed before it completed. Raised either by
    /// the evaluator's cooperative cancellation mid-op or by the runtime
    /// between attempts.
    DeadlineExceeded,
    /// The job's cancel token was cancelled explicitly.
    Cancelled,
    /// The workload's circuit breaker is open: the job was rejected
    /// without running to let the failing dependency recover.
    CircuitOpen {
        /// Workload key whose breaker rejected the job.
        workload: String,
    },
    /// Every permitted attempt failed with a transient error; `last` is
    /// the error of the final attempt.
    RetriesExhausted {
        /// Workload key of the failed job.
        workload: String,
        /// Number of attempts made.
        attempts: u32,
        /// The final attempt's error.
        last: Box<RuntimeError>,
    },
    /// The job was asked to execute an IR program it cannot: the spec
    /// carries none, the program fails structural/level validation, or
    /// the supplied inputs do not match its declared input count.
    InvalidProgram {
        /// What was wrong.
        reason: String,
    },
    /// An evaluation error surfaced by the job body.
    Eval(EvalError),
    /// A wire (de)serialization error surfaced by the job body.
    Wire(WireError),
    /// A checkpoint could not be encoded, decoded, or restored.
    Checkpoint(CheckpointError),
}

impl RuntimeError {
    /// True when retrying the same job may succeed: wrapped evaluator,
    /// wire and checkpoint errors keep their own classification —
    /// data-corruption-class failures (detected integrity violations,
    /// unreduced residues, checksum mismatches) are transient. Structural
    /// errors, panics, deadline and cancellation outcomes are permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            RuntimeError::Eval(e) => e.is_transient(),
            RuntimeError::Wire(e) => e.is_transient(),
            RuntimeError::Checkpoint(e) => e.is_transient(),
            RuntimeError::JobPanicked { .. }
            | RuntimeError::DeadlineExceeded
            | RuntimeError::Cancelled
            | RuntimeError::CircuitOpen { .. }
            | RuntimeError::InvalidProgram { .. }
            | RuntimeError::RetriesExhausted { .. } => false,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::JobPanicked { workload, message } => {
                write!(f, "job '{workload}' panicked (contained): {message}")
            }
            RuntimeError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            RuntimeError::Cancelled => write!(f, "job cancelled"),
            RuntimeError::CircuitOpen { workload } => {
                write!(f, "circuit breaker open for workload '{workload}'")
            }
            RuntimeError::RetriesExhausted {
                workload,
                attempts,
                last,
            } => write!(
                f,
                "workload '{workload}' failed after {attempts} attempts; last error: {last}"
            ),
            RuntimeError::InvalidProgram { reason } => write!(f, "invalid IR program: {reason}"),
            RuntimeError::Eval(e) => write!(f, "evaluation failed: {e}"),
            RuntimeError::Wire(e) => write!(f, "wire format error: {e}"),
            RuntimeError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Eval(e) => Some(e),
            RuntimeError::Wire(e) => Some(e),
            RuntimeError::Checkpoint(e) => Some(e),
            RuntimeError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<EvalError> for RuntimeError {
    fn from(e: EvalError) -> Self {
        // Cooperative cancellation surfaces from the evaluator as an
        // EvalError; fold it into the runtime's terminal states so the
        // caller sees one canonical deadline/cancel outcome.
        match e {
            EvalError::Cancelled(CancelReason::DeadlineExceeded) => RuntimeError::DeadlineExceeded,
            EvalError::Cancelled(CancelReason::Requested) => RuntimeError::Cancelled,
            other => RuntimeError::Eval(other),
        }
    }
}

impl From<WireError> for RuntimeError {
    fn from(e: WireError) -> Self {
        RuntimeError::Wire(e)
    }
}

impl From<CheckpointError> for RuntimeError {
    fn from(e: CheckpointError) -> Self {
        RuntimeError::Checkpoint(e)
    }
}
