//! The op-trace recorder: an append-only record of every evaluator op
//! (kind, level, basis size, word size, timing, noise/scale snapshot,
//! and the IR node it computed) that serializes to JSON.
//!
//! This is the crate's only per-op store. Recording goes through a
//! single entry point, [`record_op`], which bumps the `eval_ops` counter
//! and appends a [`TraceEntry`] to the global recorder. The recorder is
//! read with [`snapshot`] or drained with [`take`], yielding an
//! [`EvalTrace`]; the packing-efficiency report
//! ([`crate::efficiency::EfficiencyReport::of`]), the `eval_op` span row
//! and the JSONL tail ([`crate::export::jsonl`]) are computed from the
//! records it holds.
//!
//! While recording is off, [`record_op`] records nothing.

use crate::counters::{self, Counter};
use crate::json::Obj;
use std::sync::Mutex;

/// Schema identifier written into serialized traces. `v3` adds the
/// optional per-entry `ir_op` field (the [`bp_ir::Program`] node the op
/// computed, when the evaluator ran under `run_program`); `v2` adds the
/// per-entry `log_q` field (modulus bits in use at the result level).
pub const TRACE_SCHEMA: &str = "bitpacker-eval-trace/v3";

/// Maximum entries retained by the global recorder between [`take`]
/// calls; overflow is counted in [`EvalTrace::dropped`].
pub const TRACE_CAP: usize = 1 << 20;

// The op vocabulary is owned by `bp-ir` — traces, programs, Prometheus
// labels, and the accelerator lowering all share `bp_ir::OpKind::name`
// as the single source of op-name truth.
pub use bp_ir::{OpKind, NUM_OP_KINDS};

/// One recorded evaluator op, before sequencing.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Which op ran.
    pub kind: OpKind,
    /// Result ciphertext level.
    pub level: usize,
    /// Result basis size (residue count) — the paper's `R`.
    pub residues: usize,
    /// Residues shed by this op (rescale/adjust; 0 otherwise).
    pub shed: usize,
    /// Residues added by this op (BitPacker adjust; 0 otherwise).
    pub added: usize,
    /// Residue word width in bits — the paper's `w`.
    pub word_bits: u32,
    /// Whether shed/added limbs move through the batched (packed)
    /// BitPacker path rather than the RNS-CKKS baseline path.
    pub batched: bool,
    /// `true` when the op was performed by the auto-align repair loop
    /// rather than requested by the caller.
    pub repair: bool,
    /// Wall-clock duration of the op in nanoseconds.
    pub duration_ns: u64,
    /// Estimated noise magnitude of the result, in bits.
    pub noise_bits: f64,
    /// Remaining clear bits (message headroom) of the result.
    pub clear_bits: f64,
    /// `log2` of the exact scale of the result.
    pub scale_log2: f64,
    /// `log2 Q` — total modulus bits in use at the result level (the
    /// numerator of the paper's packing efficiency `log Q / (R·w)`).
    pub log_q: f64,
    /// The `bp_ir::Program` node this op computed, when the evaluator
    /// was executing an IR program via `step_op`. `None` for ad-hoc
    /// evaluator calls.
    pub ir_op: Option<u64>,
}

impl OpRecord {
    /// Datapath bits the result's residues occupy: `R·w`.
    pub fn capacity_bits(&self) -> f64 {
        self.residues as f64 * f64::from(self.word_bits)
    }

    /// Packing efficiency `log Q / (R·w)` in `[0, 1]` (paper Fig. 1; 0
    /// when the result has no residues).
    pub fn efficiency(&self) -> f64 {
        let cap = self.capacity_bits();
        if cap > 0.0 {
            (self.log_q / cap).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Datapath bits carrying no modulus information: `R·w − log Q`.
    pub fn wasted_bits(&self) -> f64 {
        (self.capacity_bits() - self.log_q).max(0.0)
    }
}

/// A sequenced [`OpRecord`] inside a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Position in the recorded op stream (0-based, monotonic).
    pub seq: u64,
    /// The recorded op.
    pub op: OpRecord,
}

/// Static context a trace carries: the parameters it was recorded under.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Workload label (e.g. `mul_relin_rescale`).
    pub workload: String,
    /// Ring dimension `N`.
    pub n: usize,
    /// Hybrid keyswitch digit count (`dnum`).
    pub dnum: usize,
    /// Number of special (raised-basis) primes.
    pub special: usize,
    /// Residue word width in bits.
    pub word_bits: u32,
}

impl Default for TraceMeta {
    fn default() -> Self {
        Self {
            workload: String::from("unlabeled"),
            n: 0,
            dnum: 1,
            special: 1,
            word_bits: 28,
        }
    }
}

/// A complete recorded op trace: metadata plus sequenced entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalTrace {
    /// Recording parameters.
    pub meta: TraceMeta,
    /// The recorded ops in program order.
    pub entries: Vec<TraceEntry>,
    /// Entries discarded because the recorder was full.
    pub dropped: u64,
}

impl EvalTrace {
    /// Total recorded wall-clock nanoseconds across entries.
    pub fn total_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.op.duration_ns).sum()
    }

    /// Serializes the trace as a compact JSON document with the
    /// [`TRACE_SCHEMA`] header. The word size is written once, in
    /// `meta`; entries do not repeat their [`OpRecord::word_bits`].
    pub fn to_json(&self) -> String {
        self.write_into(Obj::new().str("schema", TRACE_SCHEMA))
    }

    /// Appends the trace payload (`meta`, `dropped`, `entries`) to an
    /// order-preserving object builder — callers prepend their own
    /// metadata header fields — and serializes the result.
    pub fn write_into(&self, obj: Obj) -> String {
        let meta = Obj::new()
            .str("workload", &self.meta.workload)
            .u64("n", self.meta.n as u64)
            .u64("dnum", self.meta.dnum as u64)
            .u64("special", self.meta.special as u64)
            .u64("word_bits", u64::from(self.meta.word_bits))
            .build();
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                let mut obj = Obj::new()
                    .u64("seq", e.seq)
                    .str("op", e.op.kind.name())
                    .u64("level", e.op.level as u64)
                    .u64("residues", e.op.residues as u64)
                    .u64("shed", e.op.shed as u64)
                    .u64("added", e.op.added as u64)
                    .bool("batched", e.op.batched)
                    .bool("repair", e.op.repair)
                    .u64("duration_ns", e.op.duration_ns)
                    .f64("noise_bits", e.op.noise_bits)
                    .f64("clear_bits", e.op.clear_bits)
                    .f64("scale_log2", e.op.scale_log2)
                    .f64("log_q", e.op.log_q);
                if let Some(node) = e.op.ir_op {
                    obj = obj.u64("ir_op", node);
                }
                obj.build()
            })
            .collect();
        obj.raw("meta", meta)
            .u64("dropped", self.dropped)
            .arr("entries", entries)
            .build()
    }
}

// Entry `i` of the recorded trace has `seq == i`.
static RECORDER: Mutex<Option<EvalTrace>> = Mutex::new(None);

/// Runs `f` over the global recorder, creating it empty on first use.
fn with<R>(f: impl FnOnce(&mut EvalTrace) -> R) -> R {
    let mut guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(EvalTrace::default))
}

/// Sets the static trace context attached to the next [`take`].
pub fn set_meta(meta: TraceMeta) {
    with(|t| t.meta = meta);
}

/// Records one completed evaluator op while recording is on: bumps the
/// `eval_ops` counter and appends to the trace recorder, or counts the
/// op as dropped when the recorder holds [`TRACE_CAP`] entries.
#[inline]
pub fn record_op(op: OpRecord) {
    if !crate::enabled() {
        return;
    }
    counters::add(Counter::EvalOps, 1);
    with(|t| {
        if t.entries.len() < TRACE_CAP {
            let seq = t.entries.len() as u64;
            t.entries.push(TraceEntry { seq, op });
        } else {
            t.dropped += 1;
        }
    })
}

/// Runs `f` over the recorded trace without copying it.
pub(crate) fn read<R>(f: impl FnOnce(&EvalTrace) -> R) -> R {
    with(|t| f(t))
}

/// A copy of the trace accumulated since the last [`take`], leaving the
/// recorder in place.
pub fn snapshot() -> EvalTrace {
    read(EvalTrace::clone)
}

/// Drains the recorder, returning the trace accumulated since the last
/// [`take`]. The metadata stays in place for the next trace.
pub fn take() -> EvalTrace {
    with(|t| {
        let meta = t.meta.clone();
        std::mem::replace(
            t,
            EvalTrace {
                meta,
                ..EvalTrace::default()
            },
        )
    })
}

/// Clears the recorder, including its metadata.
pub fn reset() {
    with(|t| *t = EvalTrace::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_trace() -> EvalTrace {
        EvalTrace {
            meta: TraceMeta {
                workload: "unit".into(),
                n: 8192,
                dnum: 3,
                special: 1,
                word_bits: 28,
            },
            entries: vec![
                TraceEntry {
                    seq: 0,
                    op: OpRecord {
                        kind: OpKind::Mul,
                        level: 3,
                        residues: 5,
                        shed: 0,
                        added: 0,
                        word_bits: 28,
                        batched: false,
                        repair: false,
                        duration_ns: 12_345,
                        noise_bits: 7.25,
                        clear_bits: 101.5,
                        scale_log2: 80.0,
                        log_q: 140.0,
                        ir_op: Some(4),
                    },
                },
                TraceEntry {
                    seq: 1,
                    op: OpRecord {
                        kind: OpKind::Rescale,
                        level: 2,
                        residues: 4,
                        shed: 1,
                        added: 2,
                        word_bits: 28,
                        batched: true,
                        repair: true,
                        duration_ns: 2_000,
                        noise_bits: 3.0,
                        clear_bits: 100.0,
                        scale_log2: 40.5,
                        log_q: 112.0,
                        ir_op: None,
                    },
                },
            ],
            dropped: 7,
        }
    }

    #[test]
    fn trace_json_carries_every_field() {
        let trace = sample_trace();
        assert_eq!(trace.total_ns(), 14_345);
        // The writer is deterministic, so the whole document is pinned:
        // every meta and entry field, in order. `ir_op` is written only
        // when the op ran under a program.
        let expected = concat!(
            r#"{"schema":"bitpacker-eval-trace/v3","#,
            r#""meta":{"workload":"unit","n":8192,"dnum":3,"special":1,"word_bits":28},"#,
            r#""dropped":7,"entries":["#,
            r#"{"seq":0,"op":"mul","level":3,"residues":5,"shed":0,"added":0,"#,
            r#""batched":false,"repair":false,"duration_ns":12345,"noise_bits":7.25,"#,
            r#""clear_bits":101.5,"scale_log2":80,"log_q":140,"ir_op":4},"#,
            r#"{"seq":1,"op":"rescale","level":2,"residues":4,"shed":1,"added":2,"#,
            r#""batched":true,"repair":true,"duration_ns":2000,"noise_bits":3,"#,
            r#""clear_bits":100,"scale_log2":40.5,"log_q":112}]}"#,
        );
        assert_eq!(trace.to_json(), expected);
        assert!(Json::parse(expected).is_ok());
    }

    #[test]
    fn op_kind_names_roundtrip() {
        for k in OpKind::ALL {
            assert_eq!(OpKind::from_name(k.name()), Some(k));
        }
        assert_eq!(OpKind::from_name("nope"), None);
    }
}
