//! `bench_e2e`: end-to-end and per-layer benchmark of whole IR programs.
//!
//! ```text
//! bench_e2e --workload W --seed N (--seconds S | --iters K) --trace 0|1
//! bench_e2e run [--seed N] [--fast] [--repeat R] [out.json]
//! bench_e2e compare A.json B.json
//! ```
//!
//! The first form measures one workload in this process and prints every
//! metric by name and unit, then one JSON result line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `run` spawns that form once per workload (and per repeat), so each
//! workload gets fresh process-global caches and its own peak RSS, and
//! writes a `bitpacker-e2e-bench/v1` document. `compare` applies the
//! bounds in `BENCHMARK.json` (read from the working directory) to two
//! such documents. See README.md.

use bp_bench::RunMeta;
use bp_e2e_bench::{
    median, to_reference, verdict, Bench, Budget, MetricDef, Report, SpeedProbe, Workload,
    END_TO_END, PER_LAYER, WORKLOADS,
};
use bp_ir::json::{Json, Obj};
use std::process::{Command, ExitCode, Stdio};

/// Seed used when none is given; recorded in every document.
const DEFAULT_SEED: u64 = 2024;

/// Fresh processes whose set-up times give `setup_s` (their median).
const SETUP_PROCESSES: usize = 5;

const USAGE: &str = "usage:
  bench_e2e --workload W --seed N (--seconds S | --iters K) --trace 0|1
  bench_e2e run [--seed N] [--fast] [--repeat R] [out.json]
  bench_e2e compare A.json B.json";

type Result<T> = std::result::Result<T, String>;

fn main() -> ExitCode {
    // One pool worker for every layer, this process and its children
    // alike, before anything resolves the global pool.
    std::env::set_var("BITPACKER_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("setup") => setup_child(&args[1..]),
        _ => measure(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare positional arguments.
struct Args<'a> {
    flags: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String], switches: &[&str]) -> Result<Self> {
        let mut parsed = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(a) = it.next() {
            if switches.contains(&a) {
                parsed.switches.push(a);
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                parsed.flags.push((a, v));
            } else {
                parsed.positional.push(a);
            }
        }
        Ok(parsed)
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")))
            .transpose()
    }

    fn workload(&self) -> Result<&'static Workload> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn seed(&self) -> Result<u64> {
        Ok(self.num("--seed")?.unwrap_or(DEFAULT_SEED))
    }
}

/// Measures one workload in this process and prints the result line.
fn measure(args: &[String]) -> Result<bool> {
    let a = Args::parse(args, &[])?;
    let w = a.workload()?;
    let seed = a.seed()?;
    let budget = match (a.num::<f64>("--seconds")?, a.num::<u64>("--iters")?) {
        (Some(s), None) if s > 0.0 => Budget::Seconds(s),
        (None, Some(k)) if k > 0 => Budget::Iterations(k),
        _ => return Err("give exactly one of --seconds S or --iters K, positive".into()),
    };
    let (report, defs) = match a.get("--trace") {
        Some("0") => {
            let setup_s = (0..SETUP_PROCESSES)
                .map(|_| setup_in_fresh_process(w, seed))
                .collect::<Result<Vec<f64>>>()?;
            let bench = Bench::setup(w, seed, w.log_n);
            (bench.measure_e2e(budget, &setup_s), &END_TO_END[..])
        }
        Some("1") => {
            let bench = Bench::setup(w, seed, w.log_n);
            (bench.measure_traced(budget), &PER_LAYER[..])
        }
        _ => return Err("--trace must be 0 or 1".into()),
    };
    println!("{} (seed {seed})", w.name);
    for (d, v) in values(&report, defs) {
        print_metric(d, v);
    }
    println!("{}", result_line(&report, defs));
    Ok(report.failed == 0)
}

/// `bench_e2e setup`: one set-up in this (fresh) process; prints its
/// wall time in reference seconds.
fn setup_child(args: &[String]) -> Result<bool> {
    let a = Args::parse(args, &[])?;
    let w = a.workload()?;
    let seed = a.seed()?;
    let mut probe = SpeedProbe::default();
    // The first run in a fresh process finds the core idle and reads slow.
    probe.measure();
    let before = probe.measure();
    let setup_s = Bench::setup(w, seed, w.log_n).setup.total_s;
    println!("{}", setup_s * to_reference(before, probe.measure()));
    Ok(true)
}

fn setup_in_fresh_process(w: &Workload, seed: u64) -> Result<f64> {
    let seed = seed.to_string();
    let stdout = child(&["setup", "--workload", w.name, "--seed", &seed])?;
    stdout
        .trim()
        .parse()
        .map_err(|_| format!("setup child printed {stdout:?}"))
}

/// Runs this executable with `args`, returning its standard output. A
/// child that exits non-zero after printing a result still returns it:
/// the result line records its failures.
fn child(args: &[&str]) -> Result<String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating bench_e2e: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning bench_e2e {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() && !stdout.contains("\"metrics\"") {
        return Err(format!("bench_e2e {args:?} failed: {}", out.status));
    }
    Ok(stdout)
}

/// The report's value of each metric in `defs`, in catalog order.
fn values<'d>(report: &Report, defs: &'d [MetricDef]) -> Vec<(&'d MetricDef, f64)> {
    defs.iter()
        .map(|d| (d, report.metrics.get(d.name).copied().unwrap_or(f64::NAN)))
        .collect()
}

fn print_metric(d: &MetricDef, v: f64) {
    println!("  {:<26} {:>16.6} {}", d.name, v, d.unit);
}

/// The one-line result: `correct`, `attempted`, `failed`, and each
/// metric's value and unit.
fn result_line(report: &Report, defs: &[MetricDef]) -> String {
    let metrics = values(report, defs)
        .into_iter()
        .fold(Obj::new(), |obj, (d, v)| {
            obj.raw(
                d.name,
                Obj::new().f64("value", v).str("unit", d.unit).build(),
            )
        });
    Obj::new()
        .bool("correct", report.failed == 0)
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .raw("metrics", metrics.build())
        .build()
}

/// Measures `w` for `iters` iterations in a child process, with
/// `--trace` set to `trace`, and parses its result line (the last line).
fn measure_child(w: &Workload, seed: u64, iters: u64, trace: &str) -> Result<Json> {
    let (seed, iters) = (seed.to_string(), iters.to_string());
    let args = [
        "--workload",
        w.name,
        "--seed",
        &seed,
        "--iters",
        &iters,
        "--trace",
        trace,
    ];
    let stdout = child(&args)?;
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("child result line {line:?}: {e}"))
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn num_arr(xs: &[f64]) -> String {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()).to_string_compact()
}

/// `bench_e2e run`: every workload in its own processes, one document.
fn run(args: &[String]) -> Result<bool> {
    let a = Args::parse(args, &["--fast"])?;
    let seed = a.seed()?;
    let fast = a.switches.contains(&"--fast");
    let repeat: u64 = a.num("--repeat")?.unwrap_or(1).max(1);
    let (timed, traced) = if fast { (10u64, 3u64) } else { (100, 20) };
    let meta = RunMeta::collect("bitpacker-e2e-bench/v1");
    let mut all_ok = true;
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        let mut attempted = 0;
        let mut failed = 0;
        let mut runs = Vec::new();
        for r in 0..repeat {
            runs.push(measure_child(w, seed.wrapping_add(r), timed, "0")?);
        }
        let layer = measure_child(w, seed, traced, "1")?;
        for res in runs.iter().chain([&layer]) {
            attempted += count(res, "attempted");
            failed += count(res, "failed");
        }
        all_ok &= failed == 0;
        let error_rate = failed as f64 / attempted.max(1) as f64;

        println!("\n{} — {attempted} iterations, {failed} failed", w.name);
        let mut e2e = Obj::new();
        for d in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|res| metric(res, d.name)).collect();
            let v = median(&values);
            print_metric(d, v);
            e2e = e2e.raw(
                d.name,
                Obj::new()
                    .f64("value", v)
                    .str("unit", d.unit)
                    .raw("runs", num_arr(&values))
                    .build(),
            );
        }
        println!("  {:<26} {:>16.6} ratio", "error_rate", error_rate);
        let mut layers = Obj::new();
        for d in &PER_LAYER {
            let v = metric(&layer, d.name);
            print_metric(d, v);
            layers = layers.raw(
                d.name,
                Obj::new().f64("value", v).str("unit", d.unit).build(),
            );
        }
        docs.push(
            Obj::new()
                .str("name", w.name)
                .u64("attempted", attempted)
                .u64("failed", failed)
                .f64("error_rate", error_rate)
                .raw("end_to_end", e2e.build())
                .raw("per_layer", layers.build())
                .build(),
        );
    }
    let doc = meta
        .header()
        .u64("seed", seed)
        .bool("fast", fast)
        .u64("repeat", repeat)
        .u64("timed_iterations", timed)
        .u64("traced_iterations", traced)
        .arr("workloads", docs)
        .build();
    match a.positional.first() {
        Some(path) => {
            std::fs::write(path, doc + "\n").map_err(|e| format!("writing {path}: {e}"))?;
            println!("\n[json] {path}");
        }
        None => println!("{doc}"),
    }
    Ok(all_ok)
}

fn read_json(path: &str) -> Result<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload<'j>(doc: &'j Json, name: &str) -> Option<&'j Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// `bench_e2e compare A.json B.json`: B against A under the bounds in
/// `BENCHMARK.json`. Exits non-zero when any metric is worse, the error
/// rate rose, or an exact count changed.
fn compare(args: &[String]) -> Result<bool> {
    let [a_path, b_path] = args else {
        return Err("compare takes two documents".into());
    };
    let bench = read_json("BENCHMARK.json")?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let bounds: Vec<(&str, f64, bool)> = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?,
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "higher",
            ))
        })
        .collect();
    let runs = |w: &Json, name: &str| -> Vec<f64> {
        w.get("end_to_end")
            .and_then(|e| e.get(name)?.get("runs")?.as_arr())
            .map(|rs| rs.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let layer = |w: &Json, name: &str| {
        w.get("per_layer")
            .and_then(|l| l.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let mut ok = true;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse_by", "spread", "bound"
    );
    for w in &WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(&a, w.name), workload(&b, w.name)) else {
            println!("{:<16} missing from one document", w.name);
            ok = false;
            continue;
        };
        for &(name, bound, higher) in &bounds {
            let (ra, rb) = (runs(wa, name), runs(wb, name));
            let (word, worse_by, spread) = verdict(&ra, &rb, bound, higher);
            ok &= word != "worse";
            println!(
                "{:<16} {name:<24} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>5.1}%  {word}",
                w.name,
                median(&ra),
                median(&rb),
                worse_by * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
        let rate = |d: &Json| {
            d.get("error_rate")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        let (ea, eb) = (rate(wa), rate(wb));
        let word = if eb > ea || eb.is_nan() {
            "worse"
        } else {
            "ok"
        };
        ok &= word == "ok";
        println!(
            "{:<16} {:<24} {ea:>14.6} {eb:>14.6} {:>35}",
            w.name, "error_rate", word
        );
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (va, vb) = (layer(wa, d.name), layer(wb, d.name));
            let word = if va == vb { "ok" } else { "changed" };
            ok &= va == vb;
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
            println!(
                "{:<16} {:<24} {:>14} {:>14} {:>35}",
                w.name,
                d.name,
                show(va),
                show(vb),
                word
            );
        }
    }
    Ok(ok)
}
