//! The job supervisor: deadlines, panic isolation, retry, circuit breaking.
//!
//! [`Runtime::run_program`] runs each attempt of a job under the private
//! supervisor loop, which gives it:
//!
//! * a per-job **deadline** as a [`CancelToken`] the attempt threads into
//!   its evaluator ([`bp_ckks::Evaluator::with_cancel`]), so a runaway
//!   circuit stops cooperatively at the next op boundary;
//! * **panic containment** at the job boundary (`catch_unwind`): a panic
//!   surfaces as [`RuntimeError::JobPanicked`] carrying the workload key
//!   and panic text, so a buggy workload never takes down the host;
//! * **retry** of transient failures ([`RuntimeError::is_transient`])
//!   with exponential backoff and deterministic jitter, bounded by the
//!   retry budget and the remaining deadline;
//! * a per-workload **circuit breaker** that fail-fasts workloads that
//!   keep failing (see [`crate::breaker`]).

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::checkpoint::fnv1a64;
use crate::error::RuntimeError;
use bp_ckks::{CancelReason, CancelToken};
use bp_ir::Program;
use bp_telemetry::counters::{self, Counter};
use bp_telemetry::events::BreakerPhase;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Retry tuning for transient failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_delay: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_delay: Duration,
    /// Scale each sleep by a deterministic pseudo-random factor in
    /// [0.5, 1.0) so co-failing jobs do not retry in lockstep.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first failure is terminal.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }
}

/// A supervised job description.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub(crate) workload: String,
    deadline: Option<Duration>,
    token: Option<CancelToken>,
    retry: RetryPolicy,
    pub(crate) program: Option<Arc<Program>>,
    pub(crate) checkpoint_every: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            workload: String::new(),
            deadline: None,
            token: None,
            retry: RetryPolicy::default(),
            program: None,
            checkpoint_every: 1,
        }
    }
}

impl JobSpec {
    /// A job for `workload` with default retry and no deadline.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            ..Self::default()
        }
    }

    /// Total wall-clock budget across all attempts (enforced
    /// cooperatively through the job's [`CancelToken`]).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Supplies an external cancel token (e.g. wired to a shutdown
    /// signal). Takes precedence over [`JobSpec::deadline`].
    pub fn token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Retry tuning.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches the IR program this job executes. Required by
    /// [`Runtime::run_program`].
    pub fn program(mut self, program: Arc<Program>) -> Self {
        self.program = Some(program);
        self
    }

    /// Checkpoint cadence for [`Runtime::run_program`]: snapshot after
    /// every `every`-th op (1 = after each op, the default; 0 disables
    /// checkpointing). A snapshot is always taken after the final op when
    /// checkpointing is enabled.
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }
}

/// The terminal state a fired cancel token stands for.
pub(crate) fn terminal_for(reason: CancelReason) -> RuntimeError {
    match reason {
        CancelReason::DeadlineExceeded => RuntimeError::DeadlineExceeded,
        CancelReason::Requested => RuntimeError::Cancelled,
    }
}

/// The fault-tolerant job runtime.
///
/// Cheap to share behind an `Arc`; all interior state (the breaker map)
/// is synchronized.
#[derive(Debug, Default)]
pub struct Runtime {
    breaker_cfg: BreakerConfig,
    breakers: Mutex<HashMap<String, Arc<CircuitBreaker>>>,
}

impl Runtime {
    /// A runtime with default breaker tuning. Jobs evaluate on the thread
    /// pool of the context they are given.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the breaker tuning for breakers created after this call.
    pub fn breaker_config(mut self, cfg: BreakerConfig) -> Self {
        self.breaker_cfg = cfg;
        self
    }

    /// Current breaker phase for `workload` (Closed if the workload has
    /// never run).
    pub fn breaker_phase(&self, workload: &str) -> BreakerPhase {
        let breakers = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        breakers
            .get(workload)
            .map(|b| b.phase())
            .unwrap_or(BreakerPhase::Closed)
    }

    fn breaker(&self, workload: &str) -> Arc<CircuitBreaker> {
        let mut breakers = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        breakers
            .entry(workload.to_string())
            .or_insert_with(|| Arc::new(CircuitBreaker::new(workload, self.breaker_cfg)))
            .clone()
    }

    /// Runs `job` under supervision until it reaches a terminal state:
    /// success, a permanent error, retry exhaustion, deadline,
    /// cancellation, contained panic, or breaker rejection. `job` is
    /// called once per attempt with the job's cancel token and must not
    /// leak partial state from one attempt into the next.
    pub(crate) fn supervise<T>(
        &self,
        spec: &JobSpec,
        job: impl Fn(&CancelToken) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let breaker = self.breaker(&spec.workload);
        let token = match (&spec.token, spec.deadline) {
            (Some(t), _) => t.clone(),
            (None, Some(budget)) => CancelToken::with_deadline(budget),
            (None, None) => CancelToken::new(),
        };
        counters::add(Counter::RtJobs, 1);
        let max_attempts = spec.retry.max_attempts.max(1);
        let mut attempt: u32 = 0;
        loop {
            if !breaker.admit() {
                return Err(RuntimeError::CircuitOpen {
                    workload: spec.workload.clone(),
                });
            }
            if let Err(reason) = token.check() {
                let err = terminal_for(reason);
                if err == RuntimeError::DeadlineExceeded {
                    counters::add(Counter::RtDeadlines, 1);
                }
                return Err(err);
            }
            match catch_unwind(AssertUnwindSafe(|| job(&token))) {
                Err(payload) => {
                    counters::add(Counter::RtPanics, 1);
                    breaker.on_failure();
                    return Err(RuntimeError::JobPanicked {
                        workload: spec.workload.clone(),
                        message: panic_message(payload.as_ref()),
                    });
                }
                Ok(Ok(value)) => {
                    breaker.on_success();
                    return Ok(value);
                }
                Ok(Err(RuntimeError::DeadlineExceeded)) => {
                    counters::add(Counter::RtDeadlines, 1);
                    return Err(RuntimeError::DeadlineExceeded);
                }
                Ok(Err(RuntimeError::Cancelled)) => return Err(RuntimeError::Cancelled),
                Ok(Err(err)) => {
                    breaker.on_failure();
                    if err.is_transient() && attempt + 1 < max_attempts {
                        counters::add(Counter::RtRetries, 1);
                        let mut delay = backoff_delay(&spec.retry, attempt, &spec.workload);
                        if let Some(remaining) = token.remaining() {
                            delay = delay.min(remaining);
                        }
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        attempt += 1;
                        continue;
                    }
                    if err.is_transient() && max_attempts > 1 {
                        return Err(RuntimeError::RetriesExhausted {
                            workload: spec.workload.clone(),
                            attempts: attempt + 1,
                            last: Box::new(err),
                        });
                    }
                    return Err(err);
                }
            }
        }
    }
}

/// Renders a contained panic payload to text (best effort: `&str` and
/// `String` payloads — the overwhelmingly common cases — are preserved).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Exponential backoff with deterministic jitter: `base * 2^attempt`,
/// capped at `max_delay`, optionally scaled by a factor in [0.5, 1.0)
/// derived from (workload, attempt) via FNV-1a + xorshift — reproducible
/// across runs, decorrelated across workloads.
fn backoff_delay(policy: &RetryPolicy, attempt: u32, workload: &str) -> Duration {
    let exp = policy
        .base_delay
        .saturating_mul(2u32.saturating_pow(attempt));
    let capped = exp.min(policy.max_delay);
    if !policy.jitter {
        return capped;
    }
    let mut h = fnv1a64(workload.as_bytes());
    h ^= u64::from(attempt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    // Map to [0.5, 1.0): keep at least half the nominal delay so backoff
    // still backs off.
    let frac = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
    capped.mul_f64(frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointError;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn backoff_grows_caps_and_keeps_half_delay_under_jitter() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(8),
            max_delay: Duration::from_millis(100),
            jitter: false,
        };
        assert_eq!(backoff_delay(&p, 0, "w"), Duration::from_millis(8));
        assert_eq!(backoff_delay(&p, 1, "w"), Duration::from_millis(16));
        assert_eq!(backoff_delay(&p, 6, "w"), Duration::from_millis(100));
        let jittered = RetryPolicy { jitter: true, ..p };
        for attempt in 0..6 {
            let nominal = backoff_delay(&p, attempt, "w");
            let j = backoff_delay(&jittered, attempt, "w");
            assert!(j >= nominal / 2 && j <= nominal, "jitter in [0.5, 1.0]");
            assert_eq!(
                j,
                backoff_delay(&jittered, attempt, "w"),
                "jitter is deterministic"
            );
        }
    }

    #[test]
    fn panic_is_contained_and_typed() {
        let rt = Runtime::new();
        let spec = JobSpec::new("panicky");
        let result: Result<(), _> = rt.supervise(&spec, |_| panic!("boom {}", 42));
        match result {
            Err(RuntimeError::JobPanicked { workload, message }) => {
                assert_eq!(workload, "panicky");
                assert!(message.contains("boom 42"), "payload text kept: {message}");
            }
            other => panic!("expected JobPanicked, got {other:?}"),
        }
    }

    #[test]
    fn transient_errors_retry_then_succeed() {
        let rt = Runtime::new();
        let spec = JobSpec::new("flaky").retry(RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter: true,
        });
        let calls = AtomicU32::new(0);
        let out = rt.supervise(&spec, |_| {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(RuntimeError::Checkpoint(
                    CheckpointError::ChecksumMismatch {
                        stored: 0,
                        computed: 1,
                    },
                ))
            } else {
                Ok("recovered")
            }
        });
        assert_eq!(out, Ok("recovered"));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let rt = Runtime::new();
        let spec = JobSpec::new("broken").retry(RetryPolicy::default());
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = rt.supervise(&spec, |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(RuntimeError::Checkpoint(CheckpointError::Malformed(
                "structural",
            )))
        });
        assert!(matches!(out, Err(RuntimeError::Checkpoint(_))));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry on permanent");
    }

    #[test]
    fn retries_exhausted_wraps_the_last_transient_error() {
        let rt = Runtime::new();
        let spec = JobSpec::new("hopeless").retry(RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
            jitter: false,
        });
        let out: Result<(), _> = rt.supervise(&spec, |_| {
            Err(RuntimeError::Checkpoint(
                CheckpointError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
            ))
        });
        match out {
            Err(RuntimeError::RetriesExhausted {
                workload, attempts, ..
            }) => {
                assert_eq!(workload, "hopeless");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_is_terminal_before_running() {
        let rt = Runtime::new();
        let spec = JobSpec::new("late").deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = rt.supervise(&spec, |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert_eq!(out, Err(RuntimeError::DeadlineExceeded));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "job body never ran");
    }

    #[test]
    fn explicit_cancellation_is_terminal() {
        let rt = Runtime::new();
        let token = CancelToken::new();
        token.cancel();
        let spec = JobSpec::new("shutdown").token(token);
        let out: Result<(), _> = rt.supervise(&spec, |_| Ok(()));
        assert_eq!(out, Err(RuntimeError::Cancelled));
    }

    #[test]
    fn breaker_rejects_after_repeated_failures() {
        let rt = Runtime::new().breaker_config(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60),
        });
        let spec = JobSpec::new("sick").retry(RetryPolicy::none());
        for _ in 0..2 {
            let _ = rt.supervise::<()>(&spec, |_| {
                Err(RuntimeError::Checkpoint(CheckpointError::Malformed("x")))
            });
        }
        assert_eq!(rt.breaker_phase("sick"), BreakerPhase::Open);
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = rt.supervise(&spec, |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(matches!(out, Err(RuntimeError::CircuitOpen { .. })));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "rejected without running");
        // Other workloads are unaffected.
        assert!(rt.supervise(&JobSpec::new("healthy"), |_| Ok(1)).is_ok());
    }
}
