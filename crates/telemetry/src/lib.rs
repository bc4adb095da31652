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
//! # Feature gating and overhead
//!
//! The crate compiles in two modes controlled by the `enabled` cargo
//! feature (downstream crates forward it as `telemetry`):
//!
//! * **feature off** (default): every recording entry point —
//!   [`counters::add`], [`spans::span`], [`profile::frame`],
//!   [`trace::record_op`] — compiles to nothing and [`enabled`] is a
//!   `const false`, so guarded blocks are eliminated at compile time. All
//!   reads return zero or empty. The data model types
//!   ([`trace::EvalTrace`], [`efficiency::EfficiencyReport`], …) and the
//!   [`json`] module remain available so reporting tools build without
//!   the feature.
//! * **feature on**: recording is live, gated at runtime by the
//!   `BITPACKER_TELEMETRY` environment variable (read once; set it to
//!   `0`, `false`, or `off` to disable) or programmatically via
//!   [`set_enabled`]. Counters are relaxed atomics; the trace recorder
//!   and the profiler tree are bounded, mutex-guarded stores.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod efficiency;
pub mod export;
pub mod profile;
pub mod spans;
pub mod trace;

pub use bp_ir::json;

/// Environment variable gating recording at runtime when the `enabled`
/// feature is compiled in. Unset or any value other than `0` / `false` /
/// `off` (case-insensitive) means recording is on.
pub const TELEMETRY_ENV_VAR: &str = "BITPACKER_TELEMETRY";

#[cfg(feature = "enabled")]
mod gate {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    static OVERRIDE: OnceLock<AtomicBool> = OnceLock::new();

    fn cell() -> &'static AtomicBool {
        OVERRIDE.get_or_init(|| {
            let on = match std::env::var(super::TELEMETRY_ENV_VAR) {
                Ok(v) => !matches!(
                    v.trim().to_ascii_lowercase().as_str(),
                    "0" | "false" | "off"
                ),
                Err(_) => true,
            };
            AtomicBool::new(on)
        })
    }

    #[inline]
    pub fn enabled() -> bool {
        cell().load(Ordering::Relaxed)
    }

    pub fn set_enabled(on: bool) {
        cell().store(on, Ordering::Relaxed);
    }
}

/// Whether telemetry recording is live.
///
/// With the `enabled` feature off this is a constant `false`, so
/// `if telemetry::enabled() { … }` blocks compile away entirely.
#[cfg(feature = "enabled")]
#[inline]
pub fn enabled() -> bool {
    gate::enabled()
}

/// Whether telemetry recording is live (feature off: always `false`).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// Overrides the runtime gate (tests, embedding harnesses). A no-op when
/// the `enabled` feature is off.
#[cfg(feature = "enabled")]
pub fn set_enabled(on: bool) {
    gate::set_enabled(on);
}

/// Overrides the runtime gate (feature off: no-op).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn set_enabled(_on: bool) {}

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
/// telemetry is live. The disabled reading is 0 ns.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    #[cfg(feature = "enabled")]
    start: Option<std::time::Instant>,
}

impl Stopwatch {
    /// Starts a stopwatch (a no-op unless telemetry is live).
    #[inline]
    pub fn start() -> Self {
        Self {
            #[cfg(feature = "enabled")]
            start: if enabled() {
                Some(std::time::Instant::now())
            } else {
                None
            },
        }
    }

    /// Nanoseconds since [`Stopwatch::start`]; 0 if telemetry was not live
    /// when the stopwatch was started.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.start
                .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
                .unwrap_or(0)
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }
}
