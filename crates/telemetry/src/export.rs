//! Metrics exposition: Prometheus text-format 0.0.4 rendering of every
//! counter, span aggregate, efficiency statistic and registered gauge,
//! plus a JSON-lines tail of the trace records.
//!
//! [`prometheus`] renders a deterministic snapshot of the whole
//! telemetry surface — counters as `bitpacker_<name>_total`, span
//! aggregates as labeled `bitpacker_span_*` families, the bit-
//! utilization report as gauges plus a native histogram, and any gauges
//! registered through [`gauge_set`]/[`gauge_add`] (the path `bp-accel`
//! uses for per-FU occupancy). Output ordering is fixed (declaration
//! order for built-ins, lexicographic for gauges) so repeated renders of
//! the same state are byte-identical.
//!
//! The span rows, the efficiency statistics and the JSONL tail are
//! computed at render time from the trace recorder and the profiler
//! tree ([`crate::trace`], [`crate::profile`]); only the gauges have a
//! store here. [`jsonl`] renders the newest [`JSONL_TAIL`] trace records
//! as one [`op_json`] line each, so a post-mortem always holds the tail.
//!
//! [`flush_to_env`] writes both sinks to the destination named by the
//! `BITPACKER_METRICS` environment variable: a path (exposition at
//! `<path>`, JSONL tail at `<path>.jsonl`) or `-` for stdout.

use crate::counters::{self, Counter};
use crate::efficiency::{EfficiencyReport, WASTE_BUCKET_BOUNDS};
use crate::json::Obj;
use crate::spans;
use crate::trace::{self, TraceEntry};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Environment variable selecting the metrics sink destination:
/// a file path, or `-` for stdout. Unset: [`flush_to_env`] is a no-op.
pub const METRICS_ENV_VAR: &str = "BITPACKER_METRICS";

/// Trace records rendered by [`jsonl`]: the newest this many. Older
/// records are counted by `bitpacker_events_jsonl_overwritten_total`.
pub const JSONL_TAIL: usize = 4096;

/// Escapes a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n`.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a metric value the way Prometheus expects (shortest float
/// form; `+Inf`/`-Inf`/`NaN` spelled out).
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

// name → (rendered label set → value). BTreeMaps keep rendering
// deterministic.
type Gauges = BTreeMap<String, BTreeMap<String, f64>>;

static GAUGES: Mutex<Option<Gauges>> = Mutex::new(None);

fn label_key(labels: &[(&str, &str)]) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.sort();
    parts.join(",")
}

/// Applies `f` to a labeled gauge's value, creating it at zero, while
/// recording is on.
fn with_gauge(name: &str, labels: &[(&str, &str)], f: impl FnOnce(&mut f64)) {
    if !crate::enabled() {
        return;
    }
    let mut guard = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
    let gauges = guard.get_or_insert_with(BTreeMap::new);
    let slot = gauges
        .entry(name.to_string())
        .or_default()
        .entry(label_key(labels))
        .or_insert(0.0);
    f(slot);
}

/// Sets a labeled gauge to `value` while recording is on. Labels are
/// rendered and sorted at registration so exposition stays
/// deterministic.
#[inline]
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    with_gauge(name, labels, |slot| *slot = value);
}

/// Adds `delta` to a labeled gauge, creating it at zero, while recording
/// is on.
#[inline]
pub fn gauge_add(name: &str, labels: &[(&str, &str)], delta: f64) {
    with_gauge(name, labels, |slot| *slot += delta);
}

/// Encodes one trace record as a single JSON line.
pub fn op_json(entry: &TraceEntry) -> String {
    Obj::new()
        .str("type", "op")
        .u64("seq", entry.seq)
        .str("op", entry.op.kind.name())
        .u64("level", entry.op.level as u64)
        .u64("residues", entry.op.residues as u64)
        .u64("shed", entry.op.shed as u64)
        .u64("added", entry.op.added as u64)
        .bool("repair", entry.op.repair)
        .u64("duration_ns", entry.op.duration_ns)
        .f64("noise_bits", entry.op.noise_bits)
        .f64("scale_log2", entry.op.scale_log2)
        .f64("log_q", entry.op.log_q)
        .build()
}

/// The newest [`JSONL_TAIL`] trace records as JSON lines, oldest first.
/// Reading leaves the recorder in place.
pub fn jsonl() -> Vec<String> {
    trace::read(|t| {
        t.entries[t.entries.len().saturating_sub(JSONL_TAIL)..]
            .iter()
            .map(op_json)
            .collect()
    })
}

/// Clears the gauge registry.
pub fn reset() {
    *GAUGES.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

fn push_metric(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Renders the full telemetry surface in Prometheus text format 0.0.4.
/// Deterministic: the same telemetry state always renders byte-identical
/// output.
pub fn prometheus() -> String {
    let mut out = String::with_capacity(4096);

    // Kernel/pool counters.
    for c in Counter::ALL {
        let name = format!("bitpacker_{}_total", c.name());
        push_metric(
            &mut out,
            &name,
            &format!("BitPacker telemetry counter `{}`.", c.name()),
            "counter",
        );
        out.push_str(&format!("{name} {}\n", counters::get(c)));
    }

    // Span aggregates, labeled by hot-path kind.
    let span_rows = spans::stats();
    push_metric(
        &mut out,
        "bitpacker_span_completed_total",
        "Completed RAII timing spans per hot-path kind.",
        "counter",
    );
    for s in &span_rows {
        out.push_str(&format!(
            "bitpacker_span_completed_total{{kind=\"{}\"}} {}\n",
            s.kind.name(),
            s.count
        ));
    }
    push_metric(
        &mut out,
        "bitpacker_span_seconds_total",
        "Summed wall-clock seconds per hot-path kind.",
        "counter",
    );
    for s in &span_rows {
        out.push_str(&format!(
            "bitpacker_span_seconds_total{{kind=\"{}\"}} {}\n",
            s.kind.name(),
            format_value(s.total_ns as f64 / 1e9)
        ));
    }

    // Trace-recorder health: records dropped at the recorder's cap, and
    // records older than the JSONL tail.
    let (eff, dropped, overwritten) = trace::read(|t| {
        (
            EfficiencyReport::of(&t.entries),
            t.dropped,
            t.entries.len().saturating_sub(JSONL_TAIL),
        )
    });
    push_metric(
        &mut out,
        "bitpacker_events_dropped_total",
        "Events discarded because the bounded stream was full.",
        "counter",
    );
    out.push_str(&format!("bitpacker_events_dropped_total {dropped}\n"));
    push_metric(
        &mut out,
        "bitpacker_events_jsonl_overwritten_total",
        "JSONL ring-buffer lines overwritten by newer events.",
        "counter",
    );
    out.push_str(&format!(
        "bitpacker_events_jsonl_overwritten_total {overwritten}\n"
    ));

    // Bit-utilization accounting.
    push_metric(
        &mut out,
        "bitpacker_packing_samples_total",
        "Evaluator ops observed by the bit-utilization accounting.",
        "counter",
    );
    out.push_str(&format!(
        "bitpacker_packing_samples_total {}\n",
        eff.samples
    ));
    for (name, help, value) in [
        (
            "bitpacker_packing_efficiency_mean",
            "Mean packing efficiency log2(Q)/(R*w) across observed ops.",
            eff.mean_efficiency(),
        ),
        (
            "bitpacker_packing_efficiency_min",
            "Minimum per-op packing efficiency observed.",
            eff.min_efficiency,
        ),
        (
            "bitpacker_packing_efficiency_max",
            "Maximum per-op packing efficiency observed.",
            eff.max_efficiency,
        ),
    ] {
        push_metric(&mut out, name, help, "gauge");
        out.push_str(&format!("{name} {}\n", format_value(value)));
    }
    push_metric(
        &mut out,
        "bitpacker_packing_wasted_bits",
        "Per-op wasted datapath bits (R*w - log2 Q).",
        "histogram",
    );
    let mut cumulative = 0u64;
    for (i, &count) in eff.histogram.iter().enumerate() {
        cumulative += count;
        let le = if i < WASTE_BUCKET_BOUNDS.len() {
            format_value(WASTE_BUCKET_BOUNDS[i])
        } else {
            "+Inf".to_string()
        };
        out.push_str(&format!(
            "bitpacker_packing_wasted_bits_bucket{{le=\"{le}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "bitpacker_packing_wasted_bits_sum {}\n",
        format_value(eff.wasted_bits)
    ));
    out.push_str(&format!(
        "bitpacker_packing_wasted_bits_count {}\n",
        eff.samples
    ));
    push_metric(
        &mut out,
        "bitpacker_packing_level_efficiency_mean",
        "Mean packing efficiency per chain level.",
        "gauge",
    );
    for row in &eff.levels {
        out.push_str(&format!(
            "bitpacker_packing_level_efficiency_mean{{level=\"{}\"}} {}\n",
            row.level,
            format_value(row.mean_efficiency())
        ));
    }
    push_metric(
        &mut out,
        "bitpacker_packing_level_ops_total",
        "Ops observed per chain level.",
        "counter",
    );
    for row in &eff.levels {
        out.push_str(&format!(
            "bitpacker_packing_level_ops_total{{level=\"{}\"}} {}\n",
            row.level, row.ops
        ));
    }

    // Registered gauges (e.g. bp-accel per-FU occupancy), lexicographic.
    let gauges = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
    for (name, series) in gauges.iter().flatten() {
        let full = format!("bitpacker_{name}");
        push_metric(
            &mut out,
            &full,
            &format!("BitPacker registered gauge `{name}`."),
            "gauge",
        );
        for (labels, value) in series {
            if labels.is_empty() {
                out.push_str(&format!("{full} {}\n", format_value(*value)));
            } else {
                out.push_str(&format!("{full}{{{labels}}} {}\n", format_value(*value)));
            }
        }
    }

    out
}

/// Writes the Prometheus exposition and the [`jsonl`] tail to the
/// destination named by [`METRICS_ENV_VAR`]: `-` appends both to
/// stdout; any other value is treated as a path (exposition at
/// `<path>`, JSONL tail at `<path>.jsonl`). Returns the destination
/// used, or `Ok(None)` when the variable is unset or empty.
pub fn flush_to_env() -> std::io::Result<Option<String>> {
    let dest = match std::env::var(METRICS_ENV_VAR) {
        Ok(v) if !v.trim().is_empty() => v,
        _ => return Ok(None),
    };
    let exposition = prometheus();
    let lines = jsonl();
    if dest.trim() == "-" {
        print!("{exposition}");
        for line in &lines {
            println!("{line}");
        }
        return Ok(Some("-".to_string()));
    }
    std::fs::write(&dest, &exposition)?;
    let mut tail = String::new();
    for line in &lines {
        tail.push_str(line);
        tail.push('\n');
    }
    std::fs::write(format!("{dest}.jsonl"), tail)?;
    Ok(Some(dest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping_covers_backslash_quote_newline() {
        assert_eq!(escape_label(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label("x\ny"), "x\\ny");
        assert_eq!(escape_label("plain"), "plain");
    }

    #[test]
    fn format_value_spells_out_non_finite() {
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(0.5), "0.5");
    }

    #[test]
    fn exposition_always_contains_the_builtin_families() {
        let doc = prometheus();
        assert!(doc.contains("# TYPE bitpacker_eval_ops_total counter"));
        assert!(doc.contains("# TYPE bitpacker_span_seconds_total counter"));
        assert!(doc.contains("# TYPE bitpacker_packing_wasted_bits histogram"));
        assert!(doc.contains("bitpacker_packing_wasted_bits_bucket{le=\"+Inf\"}"));
    }
}
