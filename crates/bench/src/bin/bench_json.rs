//! Thread-scaling check for the persistent worker pool.
//!
//! Times the hot evaluator operations (`ntt`, ciphertext
//! `mul + relinearize + rescale`, `rotate`, `adjust`) at N ∈ {4096, 8192}
//! and thread counts {1, 4}, and writes the medians and the t4/t1
//! speedups as a `bitpacker-cpu-bench/v2` document. CI's `thread-scaling`
//! job runs it with `--enforce-scaling`; end-to-end performance is
//! measured by `bench_e2e` (`e2e-bench/`). Run with `--release`:
//!
//! ```text
//! cargo run --release -p bp-bench --bin bench_json [-- output.json] [--fast] [--enforce-scaling]
//! ```
//!
//! * The document goes to `thread_scaling.json` unless a path is given.
//! * `--fast` cuts the sample count (3 instead of 7) for smoke jobs where
//!   wall-clock matters more than noise floor.
//! * `--enforce-scaling` exits nonzero when any n=8192 op has
//!   `t4/t1 < 1.0` — i.e. when multithreading *lost* to sequential at the
//!   size where it must at least break even. Sub-1.0 ratios are always
//!   reported loudly on stderr, enforced or not.

use bp_bench::RunMeta;
use bp_ckks::{BpThreadPool, CkksContext, CkksParams, KeySet, Representation, SecurityLevel};
use bp_telemetry::json::Obj;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 7;
const FAST_SAMPLES: usize = 3;
const THREAD_CONFIGS: [usize; 2] = [1, 4];
/// `--enforce-scaling` fails the run when any op at this ring size has a
/// t4/t1 ratio below [`SCALING_FLOOR`].
const ENFORCED_N: usize = 8192;
const SCALING_FLOOR: f64 = 1.0;

struct Record {
    op: &'static str,
    n: usize,
    threads: usize,
    median_us: f64,
}

fn median_us(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

fn time_op<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    // One warm-up call outside measurement.
    f();
    let mut samples: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median_us(&mut samples)
}

fn setup(log_n: u32, threads: usize) -> (CkksContext, KeySet) {
    let params = CkksParams::builder()
        .log_n(log_n)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(4, 40)
        .base_modulus_bits(50)
        .build()
        .expect("params");
    let ctx =
        CkksContext::with_threads(&params, Arc::new(BpThreadPool::new(threads))).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(99);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);
    (ctx, keys)
}

fn main() {
    let mut out_path = "thread_scaling.json".to_string();
    let mut fast = false;
    let mut enforce_scaling = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--fast" => fast = true,
            "--enforce-scaling" => enforce_scaling = true,
            other if other.starts_with("--") => {
                eprintln!("[bench_json] unknown flag {other}");
                std::process::exit(2);
            }
            path => out_path = path.to_string(),
        }
    }
    let samples = if fast { FAST_SAMPLES } else { SAMPLES };
    let mut records: Vec<Record> = Vec::new();

    for log_n in [12u32, 13] {
        let n = 1usize << log_n;
        for threads in THREAD_CONFIGS {
            eprintln!("[bench_json] N = {n}, threads = {threads}");
            let (ctx, keys) = setup(log_n, threads);
            let mut rng = ChaCha20Rng::seed_from_u64(7);
            let vals: Vec<f64> = (0..ctx.params().slots())
                .map(|i| (i as f64).sin() / 2.0)
                .collect();
            let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
            let ev = ctx.evaluator();

            let mut ntt_poly = ct.c0().clone();
            records.push(Record {
                op: "ntt_roundtrip",
                n,
                threads,
                median_us: time_op(samples, || {
                    ntt_poly.to_coeff();
                    ntt_poly.to_ntt();
                }),
            });
            records.push(Record {
                op: "mul_relin_rescale",
                n,
                threads,
                median_us: time_op(samples, || {
                    let prod = ev.mul(&ct, &ct, &keys.evaluation).expect("aligned");
                    std::hint::black_box(ev.rescale(&prod).expect("levels left"));
                }),
            });
            records.push(Record {
                op: "rotate",
                n,
                threads,
                median_us: time_op(samples, || {
                    std::hint::black_box(ev.rotate(&ct, 1, &keys.evaluation).expect("key exists"));
                }),
            });
            records.push(Record {
                op: "adjust",
                n,
                threads,
                median_us: time_op(samples, || {
                    std::hint::black_box(
                        ev.adjust_to(&ct, ctx.max_level() - 1).expect("level > 0"),
                    );
                }),
            });
        }
    }

    let results: Vec<String> = records
        .iter()
        .map(|r| {
            Obj::new()
                .str("op", r.op)
                .u64("n", r.n as u64)
                .u64("threads", r.threads as u64)
                .f64("median_us", (r.median_us * 10.0).round() / 10.0)
                .build()
        })
        .collect();

    // threads=4 vs threads=1 speedup per (op, n) when both exist. Any
    // sub-1.0 ratio means the fan-out machinery cost more than it bought
    // — shout about it rather than burying it in the JSON, and fail the
    // run at the enforced size when --enforce-scaling is set.
    let mut speedups = Obj::new();
    let mut enforcement_failures = 0usize;
    for r in &records {
        if r.threads != 1 {
            continue;
        }
        if let Some(par) = records
            .iter()
            .find(|p| p.op == r.op && p.n == r.n && p.threads == 4)
        {
            let ratio = r.median_us / par.median_us;
            let key = format!("{}_n{}_t4_vs_t1", r.op, r.n);
            speedups = speedups.f64(&key, (ratio * 100.0).round() / 100.0);
            if ratio < 1.0 {
                eprintln!(
                    "[bench_json] WARNING: {} n={} t4/t1 = {:.2} < 1.0 \
                     (multithreading lost to sequential)",
                    r.op, r.n, ratio
                );
                if enforce_scaling && r.n == ENFORCED_N && ratio < SCALING_FLOOR {
                    enforcement_failures += 1;
                }
            }
        }
    }

    let json = RunMeta::collect("bitpacker-cpu-bench/v2")
        .header()
        .u64("samples_per_op", samples as u64)
        .arr("results", results)
        .raw("speedups", speedups.build())
        .build();

    std::fs::write(&out_path, &json).expect("write the bench document");
    println!("{json}");
    println!("[bench_json] wrote {out_path}");

    if enforcement_failures > 0 {
        eprintln!(
            "[bench_json] FAIL: {enforcement_failures} op(s) at n={ENFORCED_N} \
             scaled below {SCALING_FLOOR} with 4 threads"
        );
        std::process::exit(1);
    }
}
