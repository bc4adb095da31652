//! Telemetry trace reporter: runs an instrumented IR program through the
//! evaluator, prints a per-op summary table, emits `TRACE_<workload>.json`,
//! and lowers the same program through the accelerator model for a cycle
//! estimate.
//!
//! Requires the `telemetry` feature (the binary exits with an error
//! otherwise):
//!
//! ```text
//! cargo run --release -p bp-bench --features telemetry --bin trace_report
//! cargo run --release -p bp-bench --features telemetry --bin trace_report -- --small
//! ```
//!
//! `--small` drops the ring degree to N=1024 for CI smoke runs; the
//! default is the paper-scale N=8192 mul+relin+rescale pipeline.
//! `--repairs` adds a per-op column counting ops performed by the
//! auto-align repair loop (rather than requested by the circuit) and
//! prints the drained repair/breaker event stream.
//! `--folded <path>` writes the hierarchical profiler's flamegraph-
//! compatible folded-stack output. An optional trailing argument
//! overrides the trace output path. When `BITPACKER_METRICS` is set the
//! Prometheus exposition (and the JSONL event tail) is flushed there on
//! exit.

use bp_accel::{lower_program, simulate, AcceleratorConfig, TraceContext};
use bp_bench::RunMeta;
use bp_ckks::ir::{Program, ProgramBuilder};
use bp_ckks::telemetry::trace::{self, EvalTrace, OpKind, TRACE_SCHEMA};
use bp_ckks::telemetry::{self, counters, efficiency, events, export, profile, spans};
use bp_ckks::{CkksContext, CkksParams, ProgramError, Representation, SecurityLevel};
use bp_workloads::chain_profile;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

const WORKLOAD: &str = "mul_relin_rescale";

/// The mul+relin+rescale pipeline down the whole chain, with one
/// rotate+add per level so every hot path shows up in the trace.
fn pipeline(ctx: &CkksContext) -> Program {
    let mut b = ProgramBuilder::new(ctx.params().word_bits());
    let mut ct = b.input();
    for _ in 0..ctx.max_level() {
        let prod = b.mul(ct, ct);
        let rot = b.rotate(prod, 1);
        let sum = b.add(prod, rot);
        ct = b.rescale(sum);
    }
    b.output("result", ct);
    b.finish()
}

/// Runs `program` on a fresh encryption through `Evaluator::run_program`.
fn run_pipeline(ctx: &CkksContext, program: &Program) -> Result<(), ProgramError> {
    let mut rng = ChaCha20Rng::seed_from_u64(7);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);
    let vals: Vec<f64> = (0..ctx.params().slots())
        .map(|i| (i as f64).sin() / 2.0)
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
    let mut no_plain = |_: u64, _: usize| -> Vec<f64> { unreachable!("no plaintext operands") };
    ctx.evaluator()
        .run_program(program, vec![ct], &keys.evaluation, &mut no_plain)
        .map(|_| ())
}

struct OpSummary {
    kind: OpKind,
    count: u64,
    total_ns: u64,
    noise_consumed: f64,
    repairs: u64,
    eff_sum: f64,
}

/// Aggregates the trace per op kind. "Noise consumed" is the growth in
/// the result's noise magnitude attributed to each op, i.e. the
/// noise-bits delta against the previous entry in program order (the
/// first entry is charged its full noise). `eff_sum` accumulates per-op
/// packing efficiency `log2 Q / (R·w)` for the mean-efficiency column.
fn summarize(tr: &EvalTrace) -> Vec<OpSummary> {
    let mut out: Vec<OpSummary> = Vec::new();
    let mut prev_noise = 0.0f64;
    for e in &tr.entries {
        let consumed = (e.op.noise_bits - prev_noise).max(0.0);
        prev_noise = e.op.noise_bits;
        let repair = u64::from(e.op.repair);
        let capacity = e.op.residues as f64 * f64::from(tr.meta.word_bits);
        let eff = if capacity > 0.0 {
            (e.op.log_q / capacity).clamp(0.0, 1.0)
        } else {
            0.0
        };
        match out.iter_mut().find(|s| s.kind == e.op.kind) {
            Some(s) => {
                s.count += 1;
                s.total_ns += e.op.duration_ns;
                s.noise_consumed += consumed;
                s.repairs += repair;
                s.eff_sum += eff;
            }
            None => out.push(OpSummary {
                kind: e.op.kind,
                count: 1,
                total_ns: e.op.duration_ns,
                noise_consumed: consumed,
                repairs: repair,
                eff_sum: eff,
            }),
        }
    }
    out.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
    out
}

fn main() {
    let mut small = false;
    let mut show_repairs = false;
    let mut folded_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--repairs" => show_repairs = true,
            "--folded" => match argv.next() {
                Some(p) => folded_path = Some(p),
                None => {
                    eprintln!("error: --folded needs a path");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
            other => out_path = Some(other.to_string()),
        }
    }
    let out_path = out_path.unwrap_or_else(|| format!("TRACE_{WORKLOAD}.json"));

    telemetry::set_enabled(true);
    if !telemetry::enabled() {
        eprintln!(
            "error: telemetry is compiled out — rebuild with \
             `--features telemetry`"
        );
        std::process::exit(2);
    }

    let log_n = if small { 10 } else { 13 };
    let params = CkksParams::builder()
        .log_n(log_n)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(4, 40)
        .base_modulus_bits(50)
        .build()
        .expect("params");
    let ctx = CkksContext::new(&params).expect("context");

    let program = pipeline(&ctx);
    telemetry::reset();
    trace::set_meta(ctx.telemetry_meta(WORKLOAD));
    let wall = std::time::Instant::now();
    run_pipeline(&ctx, &program).expect("pipeline");
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let tr = trace::take();
    // Snapshots, not `take()`: the Prometheus flush at the end renders
    // the efficiency store, so it must stay populated.
    let eff_report = efficiency::snapshot();
    let tree = profile::snapshot();
    if tr.entries.is_empty() {
        eprintln!("error: pipeline recorded no trace entries");
        std::process::exit(2);
    }

    println!(
        "workload: {WORKLOAD} (N = {}, {} ops recorded)",
        params.n(),
        tr.entries.len()
    );
    println!();
    print!(
        "{:<10} {:>6} {:>12} {:>10} {:>10} {:>8} {:>6} {:>14}",
        "op", "count", "total ms", "excl ms", "mean us", "% wall", "eff", "noise (bits)"
    );
    if show_repairs {
        print!(" {:>8}", "repairs");
    }
    println!();
    for s in summarize(&tr) {
        // Evaluator ops frame at the top of the span tree, so the op name
        // is its own profile path; exclusive time is the op's cost net of
        // the kernels (NTT, base conversion, ...) it called into.
        let excl_ns = tree.get(s.kind.name()).map_or(0, |p| p.exclusive_ns);
        print!(
            "{:<10} {:>6} {:>12.3} {:>10.3} {:>10.1} {:>7.1}% {:>5.1}% {:>14.1}",
            s.kind.name(),
            s.count,
            s.total_ns as f64 / 1e6,
            excl_ns as f64 / 1e6,
            s.total_ns as f64 / 1e3 / s.count as f64,
            s.total_ns as f64 / wall_ns as f64 * 100.0,
            s.eff_sum / s.count as f64 * 100.0,
            s.noise_consumed,
        );
        if show_repairs {
            print!(" {:>8}", s.repairs);
        }
        println!();
    }
    if show_repairs {
        // Repairs also flow through the event stream interleaved with
        // runtime breaker activity; drain and summarize it.
        let evs = events::drain();
        let mut repairs = 0u64;
        let mut breaker_moves = 0u64;
        for ev in &evs {
            match ev {
                events::Event::Repair { .. } => repairs += 1,
                events::Event::Breaker { .. } => breaker_moves += 1,
                events::Event::Op(_) => {}
            }
        }
        println!();
        println!(
            "repairs: {repairs} repair event(s), {breaker_moves} breaker transition(s), \
             {} event(s) dropped",
            events::dropped()
        );
    }
    println!();
    println!("counters:");
    for c in counters::Counter::ALL {
        let v = counters::get(c);
        if v > 0 {
            println!("  {:<20} {v}", c.name());
        }
    }
    println!();
    println!("spans:");
    for s in spans::stats() {
        if s.count > 0 {
            println!(
                "  {:<14} count {:>6}  total {:>10.3} ms  mean {:>8.1} us",
                format!("{:?}", s.kind),
                s.count,
                s.total_ns as f64 / 1e6,
                s.mean_ns() / 1e3,
            );
        }
    }

    println!();
    println!("packing efficiency:");
    println!("{}", eff_report.render_table());

    println!();
    println!("cost attribution (span tree):");
    println!("{}", tree.render_table());

    if let Some(path) = &folded_path {
        std::fs::write(path, tree.folded()).expect("write folded profile");
        println!("[profile] wrote folded stacks to {path}");
    }

    // Emit the trace with the stable run-metadata header.
    let json = tr.write_into(RunMeta::collect(TRACE_SCHEMA).header());
    std::fs::write(&out_path, &json).expect("write trace JSON");
    println!();
    println!("[trace] wrote {out_path} ({} bytes)", json.len());

    let ops = lower_program(&program, &chain_profile(ctx.chain())).expect("program fits its chain");
    let machine = TraceContext {
        n: params.n(),
        dnum: params.dnum(),
        special: ctx.chain().special().len(),
    };
    let cfg = AcceleratorConfig::craterlake().with_word_bits(params.word_bits());
    let report = simulate(&ops, &cfg, &machine, 0.0);
    println!(
        "[accel] accelerator estimate: {:.0} cycles, {:.4} ms, {:.3} mJ",
        report.cycles,
        report.ms,
        report.energy.total_mj()
    );
    let occ = report.fu_occupancy();
    print!("[accel] FU occupancy:");
    for (fu, o) in bp_accel::FU_KINDS.iter().zip(occ) {
        print!(" {} {:.0}%", fu.name(), o * 100.0);
    }
    println!();

    // Flush the Prometheus exposition (and JSONL event tail) when
    // BITPACKER_METRICS points somewhere.
    match export::flush_to_env() {
        Ok(Some(dest)) => println!("[metrics] exposition flushed to {dest}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: metrics flush failed: {e}");
            std::process::exit(2);
        }
    }
}
