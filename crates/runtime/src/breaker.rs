//! Per-workload circuit breaker.
//!
//! The production-scale deployment the roadmap targets runs many workload
//! classes against shared evaluator capacity. When one class starts
//! failing persistently (bad parameters, corrupted key material, a broken
//! downstream), retrying it burns capacity that healthy classes need. The
//! breaker fail-fasts such workloads: after `failure_threshold`
//! *consecutive* failures it opens and rejects jobs outright; once
//! `cooldown` elapses it half-opens and admits a single probe, closing
//! again on the probe's success.
//!
//! Every trip into the open phase bumps the `bp-telemetry`
//! `rt_breaker_trips` counter; [`CircuitBreaker::phase`] (and
//! `Runtime::breaker_phase`) report the current phase.

use bp_telemetry::counters::{self, Counter};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Circuit-breaker phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Healthy: every job is admitted.
    Closed,
    /// Tripped: jobs are rejected until the cooldown elapses.
    Open,
    /// Cooling down: a single probe job is admitted to test recovery.
    HalfOpen,
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: Duration::from_secs(30),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { since: Instant },
    HalfOpen,
}

impl State {
    fn phase(self) -> BreakerPhase {
        match self {
            State::Closed { .. } => BreakerPhase::Closed,
            State::Open { .. } => BreakerPhase::Open,
            State::HalfOpen => BreakerPhase::HalfOpen,
        }
    }
}

/// A circuit breaker guarding one workload key.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: Mutex::new(State::Closed {
                consecutive_failures: 0,
            }),
        }
    }

    /// Current phase (for observability; racy by nature).
    pub fn phase(&self) -> BreakerPhase {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.phase()
    }

    /// Admission check: `true` admits the job, `false` means the breaker
    /// is open and the job must be rejected. Transitions `Open → HalfOpen`
    /// when the cooldown has elapsed (the admitted job is the probe).
    pub fn admit(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match *state {
            State::Closed { .. } | State::HalfOpen => true,
            State::Open { since } => {
                if since.elapsed() >= self.cfg.cooldown {
                    *state = State::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful job: closes the breaker and clears the
    /// failure streak.
    pub fn on_success(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = State::Closed {
            consecutive_failures: 0,
        };
    }

    /// Records a failed job: extends the failure streak, opening the
    /// breaker at the threshold. A failed half-open probe re-opens
    /// immediately.
    pub fn on_failure(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match *state {
            State::Closed {
                consecutive_failures,
            } => {
                let streak = consecutive_failures + 1;
                if streak >= self.cfg.failure_threshold {
                    counters::add(Counter::RtBreakerTrips, 1);
                    *state = State::Open {
                        since: Instant::now(),
                    };
                } else {
                    *state = State::Closed {
                        consecutive_failures: streak,
                    };
                }
            }
            State::HalfOpen => {
                counters::add(Counter::RtBreakerTrips, 1);
                *state = State::Open {
                    since: Instant::now(),
                };
            }
            State::Open { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, cooldown_ms: u64) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: threshold,
            cooldown: Duration::from_millis(cooldown_ms),
        }
    }

    #[test]
    fn opens_after_consecutive_failures_and_probes_after_cooldown() {
        let b = CircuitBreaker::new(cfg(3, 0));
        assert_eq!(b.phase(), BreakerPhase::Closed);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.phase(), BreakerPhase::Closed);
        assert!(b.admit());
        b.on_failure();
        assert_eq!(b.phase(), BreakerPhase::Open);
        // Zero cooldown: the next admit is the half-open probe.
        assert!(b.admit());
        assert_eq!(b.phase(), BreakerPhase::HalfOpen);
        b.on_success();
        assert_eq!(b.phase(), BreakerPhase::Closed);
    }

    #[test]
    fn open_breaker_rejects_until_cooldown() {
        let b = CircuitBreaker::new(cfg(1, 10_000));
        b.on_failure();
        assert_eq!(b.phase(), BreakerPhase::Open);
        assert!(!b.admit(), "cooldown has not elapsed");
        assert!(!b.admit(), "still open");
    }

    #[test]
    fn failed_probe_reopens() {
        let b = CircuitBreaker::new(cfg(1, 0));
        b.on_failure();
        assert!(b.admit());
        assert_eq!(b.phase(), BreakerPhase::HalfOpen);
        b.on_failure();
        assert_eq!(b.phase(), BreakerPhase::Open);
    }

    #[test]
    fn success_resets_failure_streak() {
        let b = CircuitBreaker::new(cfg(2, 0));
        b.on_failure();
        b.on_success();
        b.on_failure();
        assert_eq!(b.phase(), BreakerPhase::Closed, "streak was reset");
    }
}
