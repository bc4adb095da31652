//! End-to-end behaviour of the telemetry stores with recording switched
//! on. Global state means the whole flow lives in one test function.

use bp_telemetry::counters::{self, Counter};
use bp_telemetry::json::Json;
use bp_telemetry::profile;
use bp_telemetry::spans::{self, SpanKind, SpanStat};
use bp_telemetry::trace::{self, OpKind, OpRecord, TraceMeta};

fn record(kind: OpKind, ns: u64, ir_op: Option<u64>) {
    trace::record_op(OpRecord {
        kind,
        level: 2,
        residues: 3,
        shed: 0,
        added: 0,
        word_bits: 28,
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

fn row(kind: SpanKind) -> SpanStat {
    spans::stats()
        .into_iter()
        .find(|s| s.kind == kind)
        .expect("every kind has a row")
}

#[test]
fn counters_spans_and_trace_flow_together() {
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

    // A span is a profiler frame named after its kind, and the kind's
    // row sums every path that ends in that name: at the root, nested
    // under another frame, and on another thread. A frame whose name
    // merely ends in the same letters is not counted.
    {
        let _sp = spans::span(SpanKind::BasisConvert);
        std::hint::black_box(42u64);
    }
    {
        let _outer = profile::frame("flow_outer");
        let _sp = spans::span(SpanKind::BasisConvert);
    }
    std::thread::spawn(|| {
        let _sp = spans::span(SpanKind::BasisConvert);
    })
    .join()
    .expect("span thread");
    {
        let _f = profile::frame("not_basis_convert");
    }
    let tree = profile::snapshot();
    let root = tree.get("basis_convert").expect("root path");
    let nested = tree.get("flow_outer;basis_convert").expect("nested path");
    assert_eq!((root.count, nested.count), (2, 1));
    let stat = row(SpanKind::BasisConvert);
    assert_eq!(stat.count, 3);
    assert_eq!(stat.total_ns, root.inclusive_ns + nested.inclusive_ns);

    // The trace recorder sequences ops; the eval_op row sums the records
    // it holds, and a snapshot leaves them in place.
    trace::set_meta(TraceMeta {
        workload: "flow".into(),
        n: 1 << 13,
        dnum: 3,
        special: 1,
        word_bits: 28,
    });
    record(OpKind::Mul, 500, Some(9));
    record(OpKind::Add, 200, None);

    assert_eq!(counters::get(Counter::EvalOps), 2);
    let ops = row(SpanKind::EvalOp);
    assert_eq!((ops.count, ops.total_ns), (2, 700));

    let snap = trace::snapshot();
    let t = trace::take();
    assert_eq!(snap, t, "a snapshot reads what take drains");
    assert_eq!(row(SpanKind::EvalOp).count, 0, "take drains the records");
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
    {
        let _sp = spans::span(SpanKind::BasisConvert);
    }
    assert_eq!(
        counters::get(Counter::NttForward),
        5,
        "gated add is a no-op"
    );
    assert_eq!(row(SpanKind::BasisConvert).count, 3, "gated span is inert");
    assert!(trace::take().entries.is_empty());
    bp_telemetry::set_enabled(true);

    // Full reset clears every store.
    record(OpKind::Sub, 100, None);
    bp_telemetry::reset();
    assert_eq!(counters::get(Counter::NttForward), 0);
    assert_eq!(row(SpanKind::BasisConvert).count, 0);
    assert_eq!(row(SpanKind::EvalOp).count, 0);
    assert!(trace::take().entries.is_empty());
}
