//! The single-source-of-truth contract for op names: the telemetry trace
//! schema, the JSONL tail, and the IR wire format must all serialize the
//! identical `bp_ir::OpKind::name` strings. Before the IR unification
//! these were three hand-maintained string tables; this test pins the
//! surfaces to the one that remains.

use bp_telemetry::export::op_json;
use bp_telemetry::trace::{EvalTrace, OpKind, OpRecord, TraceEntry, TraceMeta, NUM_OP_KINDS};

/// The canonical twelve names, in `OpKind::ALL` order. Changing any of
/// these breaks recorded traces and dashboards — the test exists so that
/// can only happen deliberately.
const GOLDEN: [&str; 12] = [
    "add",
    "sub",
    "negate",
    "add_plain",
    "sub_plain",
    "mul_plain",
    "mul",
    "square",
    "rotate",
    "conjugate",
    "rescale",
    "adjust",
];

fn entry(kind: OpKind) -> TraceEntry {
    TraceEntry {
        seq: 0,
        op: OpRecord {
            kind,
            level: 1,
            residues: 2,
            shed: 0,
            added: 0,
            word_bits: 28,
            batched: false,
            repair: false,
            duration_ns: 1,
            noise_bits: 1.0,
            clear_bits: 1.0,
            scale_log2: 1.0,
            log_q: 56.0,
            ir_op: None,
        },
    }
}

#[test]
fn op_names_match_the_golden_list() {
    assert_eq!(NUM_OP_KINDS, GOLDEN.len());
    for (kind, golden) in OpKind::ALL.iter().zip(GOLDEN) {
        assert_eq!(kind.name(), golden);
        assert_eq!(OpKind::from_name(golden), Some(*kind));
    }
}

#[test]
fn telemetry_trace_jsonl_and_ir_wire_serialize_the_same_names() {
    for (kind, golden) in OpKind::ALL.iter().zip(GOLDEN) {
        let needle = format!("\"op\":\"{golden}\"");

        // Surface 1: the eval-trace codec.
        let trace = EvalTrace {
            meta: TraceMeta::default(),
            entries: vec![entry(*kind)],
            dropped: 0,
        };
        assert!(
            trace.to_json().contains(&needle),
            "trace codec does not write {golden:?}"
        );

        // Surface 2: the JSONL tail of the metrics exposition.
        let line = op_json(&entry(*kind));
        assert!(
            line.contains(&needle),
            "JSONL tail does not write {golden:?}"
        );

        // Surface 3: the IR wire format (also the oracle trace format).
        // Adjust/rotate/plain ops need their extra operand; build the
        // smallest op of each kind.
        let op = match kind {
            OpKind::Add => bp_ir::Op::Add { a: 0, b: 0 },
            OpKind::Sub => bp_ir::Op::Sub { a: 0, b: 0 },
            OpKind::Negate => bp_ir::Op::Negate { a: 0 },
            OpKind::AddPlain => bp_ir::Op::AddPlain { a: 0, pseed: 0 },
            OpKind::SubPlain => bp_ir::Op::SubPlain { a: 0, pseed: 0 },
            OpKind::MulPlain => bp_ir::Op::MulPlain { a: 0, pseed: 0 },
            OpKind::Mul => bp_ir::Op::Mul { a: 0, b: 0 },
            OpKind::Square => bp_ir::Op::Square { a: 0 },
            OpKind::Rotate => bp_ir::Op::Rotate { a: 0, steps: 1 },
            OpKind::Conjugate => bp_ir::Op::Conjugate { a: 0 },
            OpKind::Rescale => bp_ir::Op::Rescale { a: 0 },
            OpKind::Adjust => bp_ir::Op::Adjust { a: 0, target: 0 },
        };
        let program = bp_ir::Program::new(0, 28, 1, vec![op]);
        assert!(
            program.to_json(None).contains(&needle),
            "IR wire format does not write {golden:?}"
        );
    }
}
