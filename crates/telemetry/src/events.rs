//! A bounded in-process event stream.
//!
//! Every recorded evaluator op flows through here as an
//! [`Event::Op`] carrying its noise/scale snapshot, and evaluator
//! auto-repairs (the `RepairLog` of `bp-ckks`) flow through the same
//! stream as [`Event::Repair`], so a consumer draining the stream sees
//! ops and the repairs interleaved in program order. The stream is a
//! mutex-guarded vector capped at [`EVENT_CAP`] entries; overflow is
//! counted, never blocking the hot path.

use crate::trace::{OpKind, TraceEntry};

/// Maximum events retained between [`drain`] calls.
pub const EVENT_CAP: usize = 1 << 16;

/// Which repair the evaluator performed to align operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// A deferred rescale applied by the auto-align policy.
    Rescale,
    /// A level adjust applied by the auto-align policy.
    Adjust,
}

impl RepairKind {
    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RepairKind::Rescale => "rescale",
            RepairKind::Adjust => "adjust",
        }
    }
}

/// Circuit-breaker phase, as exported on the event stream by the
/// fault-tolerant runtime (`bp-runtime`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Healthy: every job is admitted.
    Closed,
    /// Tripped: jobs are rejected until the cooldown elapses.
    Open,
    /// Cooling down: a single probe job is admitted to test recovery.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half_open",
        }
    }
}

/// One entry of the telemetry event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed evaluator op with its noise/scale snapshot.
    Op(TraceEntry),
    /// An auto-align repair performed while preparing operands for `op`.
    Repair {
        /// What the repair did.
        kind: RepairKind,
        /// The public op whose operand alignment triggered the repair.
        op: OpKind,
        /// Ciphertext level after the repair step.
        level: usize,
    },
    /// A circuit-breaker state transition in the fault-tolerant runtime.
    Breaker {
        /// Workload key the breaker guards.
        workload: String,
        /// Phase before the transition.
        from: BreakerPhase,
        /// Phase after the transition.
        to: BreakerPhase,
    },
}

#[cfg(feature = "enabled")]
mod store {
    use super::{Event, EVENT_CAP};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    static STREAM: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    static DROPPED: AtomicU64 = AtomicU64::new(0);

    pub fn emit(ev: Event) {
        let mut guard = STREAM.lock().unwrap_or_else(|e| e.into_inner());
        if guard.len() < EVENT_CAP {
            guard.push(ev);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn drain() -> Vec<Event> {
        let mut guard = STREAM.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *guard)
    }

    pub fn dropped() -> u64 {
        DROPPED.load(Ordering::Relaxed)
    }

    pub fn reset() {
        let mut guard = STREAM.lock().unwrap_or_else(|e| e.into_inner());
        guard.clear();
        DROPPED.store(0, Ordering::Relaxed);
    }
}

/// Appends an event to the stream (feature off: no-op). Beyond
/// [`EVENT_CAP`] pending events, new events are counted as dropped. The
/// event is also tee'd into the [`crate::export`] JSONL ring buffer,
/// which retains the newest [`crate::export::JSONL_RING_CAP`] events.
#[cfg(feature = "enabled")]
#[inline]
pub fn emit(ev: Event) {
    if crate::enabled() {
        crate::export::record_event(&ev);
        store::emit(ev);
    }
}

/// Appends an event to the stream (feature off: no-op).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn emit(_ev: Event) {}

/// Removes and returns all pending events in emission order (feature
/// off: always empty).
pub fn drain() -> Vec<Event> {
    #[cfg(feature = "enabled")]
    {
        store::drain()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Events discarded because the stream was full (feature off: 0).
pub fn dropped() -> u64 {
    #[cfg(feature = "enabled")]
    {
        store::dropped()
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Clears the stream and the dropped counter.
pub fn reset() {
    #[cfg(feature = "enabled")]
    store::reset();
}
