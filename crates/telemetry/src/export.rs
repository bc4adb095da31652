//! Metrics exposition: Prometheus text-format 0.0.4 rendering of every
//! counter, span aggregate, efficiency statistic and registered gauge,
//! plus a bounded JSONL structured-event ring buffer.
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
//! Structured events tee'd off the [`crate::events`] stream land in a
//! ring buffer of [`JSONL_RING_CAP`] entries, rendered to JSON lines at
//! drain time — unlike the event stream (which drops *new* events at
//! capacity), the ring overwrites the *oldest* entry so a post-mortem
//! always holds the tail.
//!
//! [`flush_to_env`] writes both sinks to the destination named by the
//! `BITPACKER_METRICS` environment variable: a path (exposition at
//! `<path>`, events at `<path>.jsonl`) or `-` for stdout.

use crate::counters::{self, Counter};
use crate::efficiency::{self, WASTE_BUCKET_BOUNDS};
use crate::events::Event;
use crate::json::Obj;
use crate::spans;

/// Environment variable selecting the metrics sink destination:
/// a file path, or `-` for stdout. Unset: [`flush_to_env`] is a no-op.
pub const METRICS_ENV_VAR: &str = "BITPACKER_METRICS";

/// Maximum JSON lines retained by the structured-event ring buffer;
/// beyond this the oldest line is overwritten (counted by
/// [`jsonl_overwritten`]).
pub const JSONL_RING_CAP: usize = 4096;

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

#[cfg(feature = "enabled")]
mod store {
    use super::Event;
    use std::collections::BTreeMap;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    // name → (rendered label set → value). BTreeMaps keep rendering
    // deterministic.
    type Gauges = BTreeMap<String, BTreeMap<String, f64>>;

    static GAUGES: Mutex<Option<Gauges>> = Mutex::new(None);
    // The ring holds Event values, not rendered lines: cloning an event
    // is ~10x cheaper than JSON-rendering it, and emit() sits on the
    // evaluator hot path while drain is a once-per-run flush.
    static RING: Mutex<VecDeque<Event>> = Mutex::new(VecDeque::new());
    static OVERWRITTEN: AtomicU64 = AtomicU64::new(0);

    fn label_key(labels: &[(&str, &str)]) -> String {
        let mut parts: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", super::escape_label(v)))
            .collect();
        parts.sort();
        parts.join(",")
    }

    fn with_gauge(name: &str, labels: &[(&str, &str)], f: impl FnOnce(&mut f64)) {
        let mut guard = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
        let gauges = guard.get_or_insert_with(BTreeMap::new);
        let slot = gauges
            .entry(name.to_string())
            .or_default()
            .entry(label_key(labels))
            .or_insert(0.0);
        f(slot);
    }

    pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
        with_gauge(name, labels, |slot| *slot = value);
    }

    pub fn gauge_add(name: &str, labels: &[(&str, &str)], delta: f64) {
        with_gauge(name, labels, |slot| *slot += delta);
    }

    pub fn gauges_snapshot() -> Vec<(String, Vec<(String, f64)>)> {
        let guard = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
        guard
            .as_ref()
            .map(|g| {
                g.iter()
                    .map(|(name, series)| {
                        (
                            name.clone(),
                            series.iter().map(|(k, &v)| (k.clone(), v)).collect(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    pub fn ring_push(ev: Event) {
        let mut guard = RING.lock().unwrap_or_else(|e| e.into_inner());
        if guard.len() >= super::JSONL_RING_CAP {
            guard.pop_front();
            OVERWRITTEN.fetch_add(1, Ordering::Relaxed);
        }
        guard.push_back(ev);
    }

    pub fn ring_drain() -> Vec<Event> {
        let mut guard = RING.lock().unwrap_or_else(|e| e.into_inner());
        guard.drain(..).collect()
    }

    pub fn ring_overwritten() -> u64 {
        OVERWRITTEN.load(Ordering::Relaxed)
    }

    pub fn reset() {
        let mut gauges = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
        *gauges = None;
        let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
        ring.clear();
        OVERWRITTEN.store(0, Ordering::Relaxed);
    }

    pub fn record_event(ev: &Event) {
        ring_push(ev.clone());
    }
}

/// Sets a labeled gauge to `value` (feature off: no-op). Labels are
/// rendered and sorted at registration so exposition stays
/// deterministic.
#[inline]
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    #[cfg(feature = "enabled")]
    {
        if crate::enabled() {
            store::gauge_set(name, labels, value);
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, labels, value);
    }
}

/// Adds `delta` to a labeled gauge, creating it at zero (feature off:
/// no-op).
#[inline]
pub fn gauge_add(name: &str, labels: &[(&str, &str)], delta: f64) {
    #[cfg(feature = "enabled")]
    {
        if crate::enabled() {
            store::gauge_add(name, labels, delta);
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, labels, delta);
    }
}

/// Encodes one telemetry event as a single JSON line (compiles
/// regardless of the `enabled` feature).
pub fn event_json(ev: &Event) -> String {
    match ev {
        Event::Op(entry) => Obj::new()
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
            .build(),
        Event::Repair { kind, op, level } => Obj::new()
            .str("type", "repair")
            .str("kind", kind.name())
            .str("op", op.name())
            .u64("level", *level as u64)
            .build(),
        Event::Breaker { workload, from, to } => Obj::new()
            .str("type", "breaker")
            .str("workload", workload)
            .str("from", from.name())
            .str("to", to.name())
            .build(),
    }
}

/// Tees an event into the JSONL ring buffer (feature off: no-op).
/// Called by [`crate::events::emit`]; external emitters need not call
/// this themselves.
#[inline]
pub fn record_event(ev: &Event) {
    #[cfg(feature = "enabled")]
    {
        if crate::enabled() {
            store::record_event(ev);
        }
    }
    #[cfg(not(feature = "enabled"))]
    let _ = ev;
}

/// Drains the JSONL ring buffer, returning the retained events as JSON
/// lines, oldest first (feature off: empty). Rendering happens here
/// rather than at emit time so the hot path only pays for a clone.
pub fn drain_jsonl() -> Vec<String> {
    #[cfg(feature = "enabled")]
    {
        store::ring_drain().iter().map(event_json).collect()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Lines overwritten because the ring was full (feature off: 0).
pub fn jsonl_overwritten() -> u64 {
    #[cfg(feature = "enabled")]
    {
        store::ring_overwritten()
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Clears the gauge registry and the JSONL ring.
pub fn reset() {
    #[cfg(feature = "enabled")]
    store::reset();
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
/// output. With the `enabled` feature off every value reads zero.
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
    push_metric(
        &mut out,
        "bitpacker_span_completed_total",
        "Completed RAII timing spans per hot-path kind.",
        "counter",
    );
    for s in spans::stats() {
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
    for s in spans::stats() {
        out.push_str(&format!(
            "bitpacker_span_seconds_total{{kind=\"{}\"}} {}\n",
            s.kind.name(),
            format_value(s.total_ns as f64 / 1e9)
        ));
    }

    // Event-stream health.
    push_metric(
        &mut out,
        "bitpacker_events_dropped_total",
        "Events discarded because the bounded stream was full.",
        "counter",
    );
    out.push_str(&format!(
        "bitpacker_events_dropped_total {}\n",
        crate::events::dropped()
    ));
    push_metric(
        &mut out,
        "bitpacker_events_jsonl_overwritten_total",
        "JSONL ring-buffer lines overwritten by newer events.",
        "counter",
    );
    out.push_str(&format!(
        "bitpacker_events_jsonl_overwritten_total {}\n",
        jsonl_overwritten()
    ));

    // Bit-utilization accounting.
    let eff = efficiency::snapshot();
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
    #[cfg(feature = "enabled")]
    for (name, series) in store::gauges_snapshot() {
        let full = format!("bitpacker_{name}");
        push_metric(
            &mut out,
            &full,
            &format!("BitPacker registered gauge `{name}`."),
            "gauge",
        );
        for (labels, value) in series {
            if labels.is_empty() {
                out.push_str(&format!("{full} {}\n", format_value(value)));
            } else {
                out.push_str(&format!("{full}{{{labels}}} {}\n", format_value(value)));
            }
        }
    }

    out
}

/// Writes the Prometheus exposition and the drained JSONL events to the
/// destination named by [`METRICS_ENV_VAR`]: `-` appends both to
/// stdout; any other value is treated as a path (exposition at
/// `<path>`, events at `<path>.jsonl`). Returns the destination used,
/// or `Ok(None)` when the variable is unset or empty.
pub fn flush_to_env() -> std::io::Result<Option<String>> {
    let dest = match std::env::var(METRICS_ENV_VAR) {
        Ok(v) if !v.trim().is_empty() => v,
        _ => return Ok(None),
    };
    let exposition = prometheus();
    let events = drain_jsonl();
    if dest.trim() == "-" {
        print!("{exposition}");
        for line in &events {
            println!("{line}");
        }
        return Ok(Some("-".to_string()));
    }
    std::fs::write(&dest, &exposition)?;
    let mut jsonl = String::new();
    for line in &events {
        jsonl.push_str(line);
        jsonl.push('\n');
    }
    std::fs::write(format!("{dest}.jsonl"), jsonl)?;
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

    #[test]
    fn event_json_is_one_line_per_variant() {
        use crate::events::{BreakerPhase, RepairKind};
        use crate::trace::OpKind;
        let repair = Event::Repair {
            kind: RepairKind::Rescale,
            op: OpKind::Mul,
            level: 3,
        };
        let line = event_json(&repair);
        assert!(line.contains("\"type\":\"repair\""));
        assert!(!line.contains('\n'));
        let breaker = Event::Breaker {
            workload: "w".into(),
            from: BreakerPhase::Closed,
            to: BreakerPhase::Open,
        };
        assert!(event_json(&breaker).contains("\"to\":\"open\""));
    }
}
