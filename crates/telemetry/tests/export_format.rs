//! Prometheus text-format exposition contract with recording switched
//! on: escaping, counter monotonicity, deterministic ordering, the
//! efficiency statistics and the JSONL tail computed from the trace
//! records, and the hierarchical profiler feeding the folded-stack
//! output. Global state means each concern lives in one
//! serialized test function.

use bp_telemetry::counters::{self, Counter};
use bp_telemetry::export;
use bp_telemetry::profile;
use bp_telemetry::trace::{self, OpKind, OpRecord};

fn record(level: usize, residues: usize, log_q: f64) {
    trace::record_op(OpRecord {
        kind: OpKind::Mul,
        level,
        residues,
        shed: 0,
        added: 0,
        word_bits: 28,
        batched: false,
        repair: false,
        duration_ns: 1,
        noise_bits: 1.0,
        clear_bits: 1.0,
        scale_log2: 1.0,
        log_q,
        ir_op: None,
    });
}

fn parse_metric(doc: &str, line_prefix: &str) -> f64 {
    doc.lines()
        .find(|l| l.starts_with(line_prefix) && !l.starts_with("# "))
        .unwrap_or_else(|| panic!("metric {line_prefix} missing"))
        .rsplit(' ')
        .next()
        .expect("value")
        .parse()
        .expect("numeric value")
}

#[test]
fn exposition_escaping_monotonicity_ordering_and_tail() {
    bp_telemetry::set_enabled(true);
    bp_telemetry::reset();

    // --- Escaping: label values with quotes, backslashes, newlines. ---
    export::gauge_set("escape_check", &[("label", "a\"b\\c\nd")], 1.5);
    let doc = export::prometheus();
    assert!(
        doc.contains(r#"bitpacker_escape_check{label="a\"b\\c\nd"} 1.5"#),
        "escaped gauge line missing from:\n{doc}"
    );

    // --- Exposition structure: every family has HELP and TYPE. ---
    for line in doc.lines() {
        assert!(!line.trim_end().is_empty(), "no blank lines in exposition");
    }
    for family in [
        "bitpacker_eval_ops_total",
        "bitpacker_span_completed_total",
        "bitpacker_span_seconds_total",
        "bitpacker_packing_wasted_bits",
        "bitpacker_escape_check",
    ] {
        assert!(doc.contains(&format!("# HELP {family} ")), "{family} HELP");
        assert!(doc.contains(&format!("# TYPE {family} ")), "{family} TYPE");
    }

    // --- Counter monotonicity across renders. ---
    counters::add(Counter::EvalOps, 3);
    let before = parse_metric(&export::prometheus(), "bitpacker_eval_ops_total");
    counters::add(Counter::EvalOps, 2);
    let after = parse_metric(&export::prometheus(), "bitpacker_eval_ops_total");
    assert_eq!(before, 3.0);
    assert_eq!(after, 5.0);
    assert!(after >= before, "counters must not regress between renders");

    // --- Deterministic output: same state renders byte-identical, and
    // gauge families come out in lexicographic order regardless of
    // registration order. ---
    export::gauge_set("zz_last", &[], 1.0);
    export::gauge_set("aa_first", &[], 2.0);
    let a = export::prometheus();
    let b = export::prometheus();
    assert_eq!(a, b, "repeated renders must be byte-identical");
    let aa = a.find("bitpacker_aa_first").expect("aa_first");
    let zz = a.find("bitpacker_zz_last").expect("zz_last");
    assert!(aa < zz, "gauges must render in sorted order");

    // --- Efficiency surface, from the trace records: histogram buckets
    // are cumulative and end at +Inf. ---
    record(2, 4, 84.0); // 28 wasted bits → le="32" bucket
    record(2, 4, 112.0); // 0 wasted bits → le="1" bucket
    let doc = export::prometheus();
    let b1 = parse_metric(&doc, "bitpacker_packing_wasted_bits_bucket{le=\"1\"}");
    let b32 = parse_metric(&doc, "bitpacker_packing_wasted_bits_bucket{le=\"32\"}");
    let binf = parse_metric(&doc, "bitpacker_packing_wasted_bits_bucket{le=\"+Inf\"}");
    assert_eq!((b1, b32, binf), (1.0, 2.0, 2.0));
    assert_eq!(
        parse_metric(&doc, "bitpacker_packing_wasted_bits_count"),
        2.0
    );
    assert_eq!(
        parse_metric(&doc, "bitpacker_packing_level_ops_total{level=\"2\"}"),
        2.0
    );
    let mean = parse_metric(&doc, "bitpacker_packing_efficiency_mean");
    assert!((mean - 0.875).abs() < 1e-9);
    assert_eq!(
        parse_metric(&doc, "bitpacker_span_completed_total{kind=\"eval_op\"}"),
        2.0
    );

    // --- JSONL tail: the newest JSONL_TAIL records, one op line each;
    // older records are counted as overwritten. Reading drains nothing. ---
    bp_telemetry::reset();
    for level in 0..export::JSONL_TAIL + 10 {
        record(level, 4, 84.0);
    }
    let doc = export::prometheus();
    assert_eq!(
        parse_metric(&doc, "bitpacker_events_jsonl_overwritten_total"),
        10.0
    );
    assert_eq!(parse_metric(&doc, "bitpacker_events_dropped_total"), 0.0);
    let lines = export::jsonl();
    assert_eq!(lines.len(), export::JSONL_TAIL);
    let entries = trace::snapshot().entries;
    for (line, entry) in lines.iter().zip(&entries[10..]) {
        assert_eq!(*line, export::op_json(entry));
    }
    // The oldest line is the 11th record, and the line format is pinned.
    assert_eq!(
        lines[0],
        concat!(
            r#"{"type":"op","seq":10,"op":"mul","level":10,"residues":4,"shed":0,"#,
            r#""added":0,"repair":false,"duration_ns":1,"noise_bits":1,"#,
            r#""scale_log2":1,"log_q":84}"#
        )
    );
    assert_eq!(
        export::jsonl(),
        lines,
        "reading leaves the records in place"
    );

    // --- Profiler paths render in folded output. ---
    {
        let _outer = profile::frame("export_outer");
        let _inner = profile::frame("export_inner");
    }
    let tree = profile::snapshot();
    let folded = tree.folded();
    assert!(folded.contains("export_outer;export_inner "));
    let row = tree.get("export_outer;export_inner").expect("row");
    assert!(row.exclusive_ns <= row.inclusive_ns);

    // --- flush_to_env writes both sinks next to each other. ---
    let dir = std::env::temp_dir().join(format!("bp_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.prom");
    std::env::set_var(export::METRICS_ENV_VAR, &path);
    let dest = export::flush_to_env().expect("flush");
    std::env::remove_var(export::METRICS_ENV_VAR);
    assert_eq!(dest.as_deref(), path.to_str());
    let prom = std::fs::read_to_string(&path).expect("exposition file");
    assert!(prom.contains("# TYPE bitpacker_eval_ops_total counter"));
    let tail = std::fs::read_to_string(format!("{}.jsonl", path.display())).expect("JSONL file");
    assert_eq!(tail.lines().collect::<Vec<_>>(), lines);
    std::fs::remove_dir_all(&dir).ok();
}
