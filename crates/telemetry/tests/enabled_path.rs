//! End-to-end behaviour of the telemetry stores with the `enabled`
//! feature compiled in. Global state means the whole flow lives in one
//! test function.

#![cfg(feature = "enabled")]

use bp_telemetry::counters::{self, Counter};
use bp_telemetry::events::{self, Event, RepairKind};
use bp_telemetry::json::Json;
use bp_telemetry::spans::{self, SpanKind};
use bp_telemetry::trace::{self, OpKind, OpRecord, TraceMeta};

fn record(kind: OpKind, ns: u64, ir_op: Option<u64>) {
    trace::record_op(OpRecord {
        kind,
        level: 2,
        residues: 3,
        shed: 0,
        added: 0,
        batched: false,
        repair: false,
        duration_ns: ns,
        noise_bits: 5.0,
        clear_bits: 90.0,
        scale_log2: 40.0,
        log_q: 81.0,
        ir_op,
    });
}

#[test]
fn counters_spans_events_and_trace_flow_together() {
    bp_telemetry::set_enabled(true);
    bp_telemetry::reset();

    // Counters accumulate and reset.
    counters::add(Counter::NttForward, 3);
    counters::add(Counter::NttForward, 2);
    counters::add(Counter::ParBusyNs, 10);
    assert_eq!(counters::get(Counter::NttForward), 5);
    let det = counters::deterministic_snapshot();
    assert!(det.iter().any(|&(c, v)| c == Counter::NttForward && v == 5));
    assert!(det.iter().all(|&(c, _)| c.deterministic()));

    // Spans aggregate count + total.
    {
        let _sp = spans::span(SpanKind::BasisConvert);
        std::hint::black_box(42u64);
    }
    spans::record(SpanKind::BasisConvert, 1_000);
    let stat = spans::stat(SpanKind::BasisConvert);
    assert_eq!(stat.count, 2);
    assert!(stat.total_ns >= 1_000);

    // Ops and repairs interleave on one event stream, and the trace
    // recorder sequences the same ops.
    trace::set_meta(TraceMeta {
        workload: "flow".into(),
        n: 1 << 13,
        dnum: 3,
        special: 1,
        word_bits: 28,
    });
    record(OpKind::Mul, 500, Some(9));
    events::emit(Event::Repair {
        kind: RepairKind::Rescale,
        op: OpKind::Add,
        level: 1,
    });
    record(OpKind::Add, 200, None);

    assert_eq!(counters::get(Counter::EvalOps), 2);
    assert_eq!(spans::stat(SpanKind::EvalOp).count, 2);

    let stream = events::drain();
    assert_eq!(stream.len(), 3);
    assert!(matches!(&stream[0], Event::Op(e) if e.op.kind == OpKind::Mul));
    assert!(matches!(
        &stream[1],
        Event::Repair {
            kind: RepairKind::Rescale,
            ..
        }
    ));
    assert!(matches!(&stream[2], Event::Op(e) if e.op.kind == OpKind::Add));
    assert!(events::drain().is_empty(), "drain empties the stream");

    let t = trace::take();
    assert_eq!(t.meta.workload, "flow");
    assert_eq!(t.entries.len(), 2);
    assert_eq!(t.entries[0].seq, 0);
    assert_eq!(t.entries[1].seq, 1);
    assert_eq!(t.total_ns(), 700);
    assert_eq!(t.dropped, 0);

    assert_eq!(t.entries[0].op.ir_op, Some(9));
    assert_eq!(t.entries[1].op.ir_op, None);

    // A live-recorded trace serializes every entry as recorded.
    let doc = Json::parse(&t.to_json()).expect("valid JSON");
    assert_eq!(
        doc.get("meta")
            .and_then(|m| m.get("workload"))
            .and_then(Json::as_str),
        Some("flow")
    );
    let entries = doc.get("entries").and_then(Json::as_arr).expect("entries");
    assert_eq!(entries.len(), t.entries.len());
    for (json, e) in entries.iter().zip(&t.entries) {
        let field = |k: &str| json.get(k).and_then(Json::as_u64);
        assert_eq!(field("seq"), Some(e.seq));
        assert_eq!(
            json.get("op").and_then(Json::as_str),
            Some(e.op.kind.name())
        );
        assert_eq!(field("level"), Some(e.op.level as u64));
        assert_eq!(field("residues"), Some(e.op.residues as u64));
        assert_eq!(field("duration_ns"), Some(e.op.duration_ns));
        assert_eq!(field("ir_op"), e.op.ir_op);
    }

    // The runtime gate stops recording without a rebuild.
    bp_telemetry::set_enabled(false);
    record(OpKind::Sub, 100, None);
    counters::add(Counter::NttForward, 7);
    assert_eq!(
        counters::get(Counter::NttForward),
        5,
        "gated add is a no-op"
    );
    assert!(trace::take().entries.is_empty());
    bp_telemetry::set_enabled(true);

    // Full reset clears every store.
    bp_telemetry::reset();
    assert_eq!(counters::get(Counter::NttForward), 0);
    assert_eq!(spans::stat(SpanKind::BasisConvert).count, 0);
    assert!(events::drain().is_empty());
    assert!(trace::take().entries.is_empty());
}
