//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure from the
//! paper's evaluation (see DESIGN.md's per-experiment index). They print an
//! aligned table to stdout and drop a CSV under `results/` so the series
//! can be re-plotted.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use bp_accel::{simulate, AcceleratorConfig, SimReport};
use bp_ckks::{Representation, SecurityLevel};
use bp_telemetry::json::Obj;
use bp_workloads::WorkloadSpec;
use std::io::Write;
use std::path::PathBuf;

/// Stable run-environment metadata stamped as the header of every JSON
/// document the benchmarks emit — `bench_e2e`'s run documents,
/// `trace_report`'s `TRACE_*.json` and `bench_json`'s thread-scaling
/// document: schema version, git commit, machine shape, and the
/// harness-supplied timestamp. Keeping the header shape fixed lets
/// successive changes diff emitted documents mechanically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Document schema identifier (e.g. `bitpacker-cpu-bench/v2`).
    pub schema: String,
    /// `git rev-parse HEAD` of the emitting checkout, or `unknown`.
    pub git_commit: String,
    /// Available hardware parallelism on the emitting machine.
    pub cores: usize,
    /// The worker count the global `BpThreadPool` actually resolved to
    /// (decimal string) — the effective value after `BITPACKER_THREADS`
    /// and core-count defaulting, not the raw env var.
    pub bitpacker_threads: String,
    /// RFC 3339 UTC emission time. `BP_BENCH_TIMESTAMP` overrides the
    /// clock so reruns with the same inputs can emit byte-identical
    /// headers.
    pub timestamp: String,
}

/// Formats seconds since the Unix epoch as an RFC 3339 UTC timestamp
/// (`YYYY-MM-DDTHH:MM:SSZ`). Civil-date conversion is done inline (no
/// date-time dependency in the workspace).
pub fn rfc3339_utc(secs_since_epoch: u64) -> String {
    let days = (secs_since_epoch / 86_400) as i64;
    let rem = secs_since_epoch % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

impl RunMeta {
    /// Collects the header for a document with the given schema.
    pub fn collect(schema: &str) -> Self {
        let git_commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        RunMeta {
            schema: schema.to_string(),
            git_commit,
            cores: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            bitpacker_threads: bp_ckks::BpThreadPool::global().workers().to_string(),
            timestamp: std::env::var("BP_BENCH_TIMESTAMP").unwrap_or_else(|_| {
                let secs = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                rfc3339_utc(secs)
            }),
        }
    }

    /// Starts an order-preserving JSON object with the header fields;
    /// callers chain their payload fields after it.
    pub fn header(&self) -> Obj {
        Obj::new()
            .str("schema", &self.schema)
            .str("git_commit", &self.git_commit)
            .u64("cores", self.cores as u64)
            .str("bitpacker_threads", &self.bitpacker_threads)
            .str("timestamp", &self.timestamp)
    }
}

/// Geometric mean of a slice.
///
/// # Panics
/// Panics if `xs` is empty or contains non-positive values.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "gmean of empty slice");
    let s: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "gmean requires positive values");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

/// Writes a CSV file under `results/` (created if needed), returning the
/// path. Errors are reported but non-fatal (the table already went to
/// stdout).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> Option<PathBuf> {
    let dir =
        PathBuf::from(std::env::var("BP_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(name);
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{header}");
            for r in rows {
                let _ = writeln!(f, "{r}");
            }
            println!("\n[csv] {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Simulates one workload under one representation at the given machine.
///
/// # Panics
/// Panics if the chain cannot be built (paper parameters always can).
pub fn run_workload(
    spec: &WorkloadSpec,
    repr: Representation,
    cfg: &AcceleratorConfig,
    security: SecurityLevel,
) -> SimReport {
    let (chain, app_levels) = spec
        .build_chain(repr, cfg.word_bits, security)
        .unwrap_or_else(|e| panic!("{}: chain build failed: {e}", spec.name()));
    let (trace, ctx) = spec.trace(&chain, app_levels);
    let ws = spec.working_set_mb(&chain);
    simulate(&trace, cfg, &ctx, ws)
}

/// The word sizes swept in Figs. 14–16.
pub const WORD_SIZES: [u32; 10] = [28, 32, 36, 40, 44, 48, 52, 56, 60, 64];

/// Quartile summary of a sample (used by the Fig. 18/19 box plots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes box-plot statistics.
///
/// # Panics
/// Panics if `xs` is empty.
pub fn box_stats(xs: &mut [f64]) -> BoxStats {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let pick = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    BoxStats {
        min: xs[0],
        q1: pick(0.25),
        median: pick(0.5),
        q3: pick(0.75),
        max: xs[xs.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_matches_definition() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn box_stats_ordering() {
        let mut xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let b = box_stats(&mut xs);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert!(b.q1 <= b.median && b.median <= b.q3);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn gmean_empty_panics() {
        gmean(&[]);
    }

    #[test]
    fn run_meta_header_has_the_stable_field_set() {
        use bp_telemetry::json::Json;
        let meta = RunMeta::collect("bitpacker-cpu-bench/v2");
        let doc = Json::parse(&meta.header().u64("payload", 1).build()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("bitpacker-cpu-bench/v2")
        );
        // Commit hash or the explicit "unknown" sentinel — never absent.
        let commit = doc.get("git_commit").and_then(Json::as_str).expect("str");
        assert!(!commit.is_empty());
        assert!(doc.get("cores").and_then(Json::as_u64).expect("u64") >= 1);
        // The thread count is the pool's resolved worker count — an
        // actual number, never the literal "unset".
        let threads = doc
            .get("bitpacker_threads")
            .and_then(Json::as_str)
            .expect("str");
        assert!(threads.parse::<usize>().expect("numeric thread count") >= 1);
        // The timestamp is RFC 3339 UTC (or the BP_BENCH_TIMESTAMP
        // override) — never the literal "unset".
        let ts = doc.get("timestamp").and_then(Json::as_str).expect("str");
        assert_ne!(ts, "unset");
        if std::env::var("BP_BENCH_TIMESTAMP").is_err() {
            assert_eq!(ts.len(), 20, "RFC 3339 shape: {ts}");
            assert_eq!(&ts[4..5], "-");
            assert_eq!(&ts[10..11], "T");
            assert!(ts.ends_with('Z'));
        }
        // Header fields come first so documents stay mechanically diffable.
        let text = meta.header().u64("payload", 1).build();
        assert!(text.starts_with("{\"schema\":"));
    }

    #[test]
    fn rfc3339_utc_converts_known_instants() {
        assert_eq!(rfc3339_utc(0), "1970-01-01T00:00:00Z");
        // 2026-08-07 12:34:56 UTC.
        assert_eq!(rfc3339_utc(1_786_106_096), "2026-08-07T12:34:56Z");
        // Leap-day handling.
        assert_eq!(rfc3339_utc(1_709_164_800), "2024-02-29T00:00:00Z");
    }
}
