//! Lock-free global counters for the arithmetic kernels and the thread
//! pool.
//!
//! Counters split into two classes, distinguished by
//! [`Counter::deterministic`]:
//!
//! * **deterministic** — kernel invocation counts (NTTs, elementwise ops,
//!   basis conversions, keyswitches, rescales, adjusts, residue moves,
//!   serialized bytes, evaluator ops). For a fixed op program these are
//!   exact and bit-identical at every worker count, because the runtime
//!   fans out *within* kernels, never across them.
//! * **utilization** — thread-pool statistics (dispatches, chunks, busy
//!   nanoseconds, imbalance nanoseconds). These depend on the worker
//!   count and wall-clock timing and are reported for pool tuning only.
//!
//! All updates are relaxed atomic adds; reads are relaxed loads. While
//! recording is off, [`add`] is a single relaxed flag load.

use std::sync::atomic::{AtomicU64, Ordering};

/// The global counter set. `repr(usize)` indices into a static array.
#[repr(usize)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Forward negacyclic NTT invocations (one per residue polynomial).
    NttForward,
    /// Inverse negacyclic NTT invocations (one per residue polynomial).
    NttInverse,
    /// Elementwise residue-polynomial operations (add/sub/mul/…, one per
    /// residue touched).
    ElemwiseOps,
    /// Approximate RNS basis-conversion kernel invocations.
    BasisConversions,
    /// Key-switch (digit-decompose + inner-product) invocations.
    KeySwitches,
    /// Rescale kernel (`scale_down`, paper Listing 5) invocations, one per
    /// polynomial: once per BitPacker level step or keyswitch mod-down,
    /// once per shed prime for an RNS-CKKS level step (Listing 1).
    Rescales,
    /// Level-adjust steps performed by the level manager.
    Adjusts,
    /// Residues shed, extracted, or appended on structural ops.
    ResidueMoves,
    /// Ciphertext bytes produced by the wire serializer.
    BytesSerialized,
    /// Evaluator ops recorded through the trace recorder.
    EvalOps,
    /// Thread-pool parallel dispatches (fan-outs with more than one
    /// chunk). Utilization class.
    ParDispatches,
    /// Chunks spawned across all parallel dispatches. Utilization class.
    ParChunks,
    /// Total busy nanoseconds summed over workers. Utilization class.
    ParBusyNs,
    /// Per-dispatch max−min chunk time, accumulated. Utilization class.
    ParImbalanceNs,
    /// Fan-outs the adaptive cutoff ran inline because the estimated
    /// per-chunk work was below the dispatch threshold. Utilization
    /// class.
    ParInline,
    /// Scratch-buffer requests served from the thread-local scratch pool
    /// (no allocator round-trip). Utilization class.
    ScratchReuses,
    /// Scratch-buffer requests that fell through to a fresh allocation.
    /// Utilization class.
    ScratchAllocs,
    /// Jobs submitted to the fault-tolerant runtime. Utilization class.
    RtJobs,
    /// Job attempts retried after a transient failure. Utilization class.
    RtRetries,
    /// Panics caught at a job boundary and converted into typed errors.
    /// Utilization class.
    RtPanics,
    /// Jobs terminated by deadline or cancellation. Utilization class.
    RtDeadlines,
    /// Circuit-breaker transitions into the open state. Utilization
    /// class.
    RtBreakerTrips,
}

/// Number of counters in [`Counter::ALL`].
pub const NUM_COUNTERS: usize = 22;

impl Counter {
    /// Every counter, in stable report order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::NttForward,
        Counter::NttInverse,
        Counter::ElemwiseOps,
        Counter::BasisConversions,
        Counter::KeySwitches,
        Counter::Rescales,
        Counter::Adjusts,
        Counter::ResidueMoves,
        Counter::BytesSerialized,
        Counter::EvalOps,
        Counter::ParDispatches,
        Counter::ParChunks,
        Counter::ParBusyNs,
        Counter::ParImbalanceNs,
        Counter::ParInline,
        Counter::ScratchReuses,
        Counter::ScratchAllocs,
        Counter::RtJobs,
        Counter::RtRetries,
        Counter::RtPanics,
        Counter::RtDeadlines,
        Counter::RtBreakerTrips,
    ];

    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::NttForward => "ntt_forward",
            Counter::NttInverse => "ntt_inverse",
            Counter::ElemwiseOps => "elemwise_ops",
            Counter::BasisConversions => "basis_conversions",
            Counter::KeySwitches => "keyswitches",
            Counter::Rescales => "rescales",
            Counter::Adjusts => "adjusts",
            Counter::ResidueMoves => "residue_moves",
            Counter::BytesSerialized => "bytes_serialized",
            Counter::EvalOps => "eval_ops",
            Counter::ParDispatches => "par_dispatches",
            Counter::ParChunks => "par_chunks",
            Counter::ParBusyNs => "par_busy_ns",
            Counter::ParImbalanceNs => "par_imbalance_ns",
            Counter::ParInline => "par_inline",
            Counter::ScratchReuses => "scratch_reuses",
            Counter::ScratchAllocs => "scratch_allocs",
            Counter::RtJobs => "rt_jobs",
            Counter::RtRetries => "rt_retries",
            Counter::RtPanics => "rt_panics",
            Counter::RtDeadlines => "rt_deadlines",
            Counter::RtBreakerTrips => "rt_breaker_trips",
        }
    }

    /// `true` for counters whose value is a pure function of the op
    /// program (worker-count independent); `false` for pool-utilization
    /// statistics.
    pub fn deterministic(self) -> bool {
        !matches!(
            self,
            Counter::ParDispatches
                | Counter::ParChunks
                | Counter::ParBusyNs
                | Counter::ParImbalanceNs
                | Counter::ParInline
                | Counter::ScratchReuses
                | Counter::ScratchAllocs
                | Counter::RtJobs
                | Counter::RtRetries
                | Counter::RtPanics
                | Counter::RtDeadlines
                | Counter::RtBreakerTrips
        )
    }
}

static COUNTERS: [AtomicU64; NUM_COUNTERS] = [const { AtomicU64::new(0) }; NUM_COUNTERS];

/// Adds `delta` to counter `c` while recording is on; otherwise a single
/// relaxed flag load.
#[inline]
pub fn add(c: Counter, delta: u64) {
    if crate::enabled() {
        COUNTERS[c as usize].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Current value of counter `c`.
#[inline]
pub fn get(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

/// Zeroes every counter.
pub fn reset_all() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of every counter, in [`Counter::ALL`] order.
pub fn snapshot() -> Vec<(Counter, u64)> {
    Counter::ALL.iter().map(|&c| (c, get(c))).collect()
}

/// The deterministic subset of [`snapshot`] — the values that must be
/// bit-identical across worker counts for a fixed op program.
pub fn deterministic_snapshot() -> Vec<(Counter, u64)> {
    Counter::ALL
        .iter()
        .filter(|c| c.deterministic())
        .map(|&c| (c, get(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            let n = c.name();
            assert!(seen.insert(n), "duplicate counter name {n}");
            assert!(n
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'));
        }
    }

    #[test]
    fn par_counters_are_not_deterministic() {
        assert!(!Counter::ParBusyNs.deterministic());
        assert!(!Counter::ParDispatches.deterministic());
        assert!(Counter::NttForward.deterministic());
        assert!(Counter::BytesSerialized.deterministic());
    }
}
