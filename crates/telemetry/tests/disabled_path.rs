//! While recording is switched off, every recording entry point must be
//! a no-op and every read must come back zero/empty — the contract the
//! hot paths rely on.

use bp_telemetry::counters::{self, Counter};
use bp_telemetry::spans::{self, SpanKind};
use bp_telemetry::trace::{self, OpKind, OpRecord, TraceMeta};
use bp_telemetry::{export, profile};

#[test]
fn all_reads_are_zero_after_recording_attempts() {
    bp_telemetry::set_enabled(false);
    assert!(!bp_telemetry::enabled());

    counters::add(Counter::NttForward, 99);
    counters::add(Counter::BytesSerialized, 1024);
    {
        let _sp = spans::span(SpanKind::KeySwitch);
    }
    trace::set_meta(TraceMeta::default());
    trace::record_op(OpRecord {
        kind: OpKind::Mul,
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
    });
    {
        let _f = profile::frame("disabled_path_frame");
    }
    export::gauge_set("some_gauge", &[("k", "v")], 1.0);
    export::gauge_add("some_gauge", &[("k", "v")], 1.0);

    for c in Counter::ALL {
        assert_eq!(counters::get(c), 0, "counter {} must read zero", c.name());
    }
    for s in spans::stats() {
        assert_eq!(
            (s.count, s.total_ns),
            (0, 0),
            "span {} must be zero",
            s.kind.name()
        );
    }
    assert_eq!(trace::snapshot(), trace::take());
    let t = trace::take();
    assert!(t.entries.is_empty());
    assert_eq!(t.dropped, 0);

    let tree = profile::snapshot();
    assert!(tree.paths.is_empty(), "profiler must record nothing");
    assert_eq!(tree.dropped, 0);
    assert!(export::jsonl().is_empty(), "JSONL tail must be empty");

    // The exposition still renders, but every value reads zero and no
    // registered gauge appears.
    let prom = export::prometheus();
    assert!(prom.contains("bitpacker_eval_ops_total 0"));
    assert!(prom.contains("bitpacker_packing_samples_total 0"));
    assert!(prom.contains("bitpacker_span_completed_total{kind=\"keyswitch\"} 0"));
    assert!(!prom.contains("some_gauge"), "gauge writes must be no-ops");

    let sw = bp_telemetry::Stopwatch::start();
    assert_eq!(sw.elapsed_ns(), 0, "disabled stopwatch reads zero");
}

#[test]
fn data_model_and_json_work_while_recording_is_off() {
    // Trace consumers serialize traces whether or not anything was
    // recorded (the entry encoding is pinned by the trace module's unit
    // test).
    bp_telemetry::set_enabled(false);
    assert_eq!(
        trace::take().to_json(),
        concat!(
            r#"{"schema":"bitpacker-eval-trace/v3","meta":{"workload":"unlabeled","n":0,"#,
            r#""dnum":1,"special":1,"word_bits":28},"dropped":0,"entries":[]}"#
        )
    );
}
