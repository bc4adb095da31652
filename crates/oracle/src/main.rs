//! `bp-oracle` CLI: seed-driven differential fuzzing and trace replay.
//!
//! ```text
//! bp-oracle fuzz --seeds 0..1000 --word-sizes 28,32,48,64 [--dump-dir DIR]
//! bp-oracle replay <trace.json>
//! ```
//!
//! `fuzz` runs every `(seed, word_size)` pair, shrinks each failing
//! program, writes the shrunk trace as JSON (to `--dump-dir`, default the
//! working directory), and exits non-zero if anything diverged. `replay`
//! re-executes a dumped trace and exits non-zero if it still diverges.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bp_oracle::{generate, run_program, shrink, OracleEnv, WORD_LABELS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => fuzz(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => {
            eprintln!(
                "usage: bp-oracle fuzz --seeds A..B [--word-sizes 28,32,...] [--dump-dir DIR]"
            );
            eprintln!("       bp-oracle replay <trace.json>");
            ExitCode::from(2)
        }
    }
}

struct FuzzOpts {
    seeds: Range<u64>,
    word_sizes: Vec<u32>,
    dump_dir: PathBuf,
}

fn parse_fuzz_opts(args: &[String]) -> Result<FuzzOpts, String> {
    let mut opts = FuzzOpts {
        seeds: 0..100,
        word_sizes: WORD_LABELS.to_vec(),
        dump_dir: PathBuf::from("."),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => {
                let v = value_for("--seeds")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds expects A..B, got {v:?}"))?;
                let start: u64 = a.parse().map_err(|_| format!("bad seed start {a:?}"))?;
                let end: u64 = b.parse().map_err(|_| format!("bad seed end {b:?}"))?;
                if end < start {
                    return Err(format!("empty seed range {v:?}"));
                }
                opts.seeds = start..end;
            }
            "--word-sizes" => {
                let v = value_for("--word-sizes")?;
                opts.word_sizes = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u32>()
                            .map_err(|_| format!("bad word size {s:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--dump-dir" => opts.dump_dir = PathBuf::from(value_for("--dump-dir")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn fuzz(args: &[String]) -> ExitCode {
    let opts = match parse_fuzz_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bp-oracle: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    let mut total = 0usize;
    for &label in &opts.word_sizes {
        let env = match OracleEnv::new(label) {
            Ok(env) => env,
            Err(e) => {
                eprintln!("bp-oracle: cannot build environment for w={label}: {e}");
                return ExitCode::from(2);
            }
        };
        let mut word_failures = 0usize;
        for seed in opts.seeds.clone() {
            total += 1;
            let program = generate(seed, label, env.limits);
            let Some(div) = run_program(&env, &program) else {
                continue;
            };
            failures += 1;
            word_failures += 1;
            eprintln!("[w={label} seed={seed}] DIVERGENCE: {div}");
            let shrunk = shrink(&env, &program, div);
            eprintln!(
                "[w={label} seed={seed}] shrunk to {} ops ({} runs): {}",
                shrunk.program.ops.len(),
                shrunk.runs,
                shrunk.divergence
            );
            let note = format!("shrunk from seed {seed}: {}", shrunk.divergence);
            let path = opts.dump_dir.join(format!("fail-w{label}-s{seed}.json"));
            match std::fs::write(&path, shrunk.program.to_json(Some(&note))) {
                Ok(()) => eprintln!(
                    "[w={label} seed={seed}] trace written to {}",
                    path.display()
                ),
                Err(e) => eprintln!("[w={label} seed={seed}] cannot write trace: {e}"),
            }
        }
        println!(
            "w={label}: {} programs, {} divergences",
            opts.seeds.clone().count(),
            word_failures
        );
    }

    if failures == 0 {
        println!("oracle: {total} programs, all clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("oracle: {failures}/{total} programs diverged");
        ExitCode::FAILURE
    }
}

fn replay(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: bp-oracle replay <trace.json>");
        return ExitCode::from(2);
    };
    match replay_file(Path::new(path)) {
        Ok(None) => {
            println!("replay {path}: clean (no divergence)");
            ExitCode::SUCCESS
        }
        Ok(Some(msg)) => {
            eprintln!("replay {path}: DIVERGENCE: {msg}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("replay {path}: {e}");
            ExitCode::from(2)
        }
    }
}

fn replay_file(path: &Path) -> Result<Option<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = bp_ir::IrDoc::from_json(&text).map_err(|e| format!("bad trace: {e}"))?;
    // Traces must be byte-canonical, so a dumped trace never drifts from
    // what `bp_ir` would re-encode.
    if doc.to_json() != text.trim_end() {
        return Err("trace is not canonical bitpacker-ir/v1 JSON; \
             re-encode it with bp_ir::canonical_json"
            .to_string());
    }
    let program = doc.program;
    let env =
        OracleEnv::new(program.word_bits).map_err(|e| format!("cannot build environment: {e}"))?;
    Ok(run_program(&env, &program).map(|d| d.to_string()))
}
