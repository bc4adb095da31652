//! Instrumentation layer for the BitPacker stack.
//!
//! The paper's evaluation (Sec. 5–6) is built on kernel-level accounting:
//! per-benchmark op mixes, keyswitch/NTT counts, and noise/scale
//! trajectories. This crate gives the Rust reproduction the same
//! visibility. It keeps three stores — the atomic [`counters`], one
//! record per evaluator op in the [`trace`] recorder, and one timing
//! tree in the [`profile`] module — plus the exposition's gauge
//! registry, and computes every other report from them:
//!
//! * [`counters`] — lock-free global counters for the arithmetic kernels
//!   (NTT/INTT invocations, elementwise residue ops, basis conversions,
//!   keyswitches, rescales, residue moves, serialized bytes) and for the
//!   thread pool (dispatches, chunks, busy time, imbalance),
//! * [`trace`] — the [`trace::EvalTrace`] op-trace recorder, keyed by IR
//!   node and serialized to JSON,
//! * [`profile`] — a hierarchical profiler nesting RAII frames into a
//!   span tree with inclusive/exclusive times and flamegraph-compatible
//!   folded-stack output,
//! * [`spans`] — timing spans over the hot paths: each is a profiler
//!   frame named after its kind, and the per-kind rows are sums over the
//!   tree,
//! * [`efficiency`] — bit-utilization accounting: the trace records'
//!   packing efficiency `log Q / (R·w)` folded into a per-program
//!   [`efficiency::EfficiencyReport`] (mean/min/max, wasted-bit
//!   histogram, per-level breakdown),
//! * [`export`] — metrics exposition: Prometheus text-format 0.0.4
//!   rendering of every counter/span/gauge plus a JSON-lines tail of the
//!   trace records, flushed to the destination named by the
//!   `BITPACKER_METRICS` environment variable,
//! * [`json`] — the dependency-free JSON reader/writer (re-exported from
//!   `bp-ir`, which owns it) used by the trace codec and the bench
//!   metadata headers.
//!
//! # Runtime gating and overhead
//!
//! Recording is a runtime switch: it is off unless the
//! `BITPACKER_TELEMETRY` environment variable (read once) or
//! [`set_enabled`] turns it on. While it is off, every recording entry
//! point — [`counters::add`], [`spans::span`], [`profile::frame`],
//! [`trace::record_op`], the gauge writers — costs one relaxed flag load
//! and records nothing, and every read returns zero or empty. Counters
//! are relaxed atomics; the trace recorder and the profiler tree are
//! bounded, mutex-guarded stores.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod efficiency;
pub mod export;
pub mod profile;
pub mod spans;
pub mod trace;

pub use bp_ir::json;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Environment variable gating recording at runtime. Unset, `0`,
/// `false` or `off` (trimmed, any case) means recording is off; any other
/// value means on. [`set_enabled`] overrides it.
pub const TELEMETRY_ENV_VAR: &str = "BITPACKER_TELEMETRY";

/// Whether a [`TELEMETRY_ENV_VAR`] value (`None` when unset) turns
/// recording on.
fn env_value_enables(value: Option<&str>) -> bool {
    value.is_some_and(|v| {
        !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off"
        )
    })
}

fn gate() -> &'static AtomicBool {
    static GATE: OnceLock<AtomicBool> = OnceLock::new();
    GATE.get_or_init(|| {
        let value = std::env::var(TELEMETRY_ENV_VAR).ok();
        AtomicBool::new(env_value_enables(value.as_deref()))
    })
}

/// Whether telemetry recording is live.
#[inline]
pub fn enabled() -> bool {
    gate().load(Ordering::Relaxed)
}

/// Turns recording on or off, overriding [`TELEMETRY_ENV_VAR`] (tests,
/// embedding harnesses, reporting tools).
pub fn set_enabled(on: bool) {
    gate().store(on, Ordering::Relaxed);
}

/// Resets every telemetry store — counters, the trace recorder, the
/// profiler tree, and the exposition gauges — to the pristine state.
/// Intended for test isolation and windowed reporting.
pub fn reset() {
    counters::reset_all();
    trace::reset();
    profile::reset();
    export::reset();
}

/// A monotonic stopwatch that only pays for `Instant::now()` when
/// telemetry is live. It is inert while recording is off: its reading is
/// 0 ns.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts a stopwatch (a no-op unless telemetry is live).
    #[inline]
    pub fn start() -> Self {
        Self {
            start: enabled().then(Instant::now),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`]; 0 if telemetry was not live
    /// when the stopwatch was started.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::env_value_enables;

    #[test]
    fn env_value_parsing() {
        for off in [None, Some("0"), Some("false"), Some("OFF"), Some(" off ")] {
            assert!(!env_value_enables(off), "{off:?} must mean off");
        }
        for on in ["1", "true", "yes"] {
            assert!(env_value_enables(Some(on)), "{on:?} must mean on");
        }
    }
}
