//! Fig. 13: CPU execution time of the real library, BitPacker vs RNS-CKKS.
//!
//! The paper implements a single-threaded Rust FHE library (this workspace
//! *is* that library) and reports BitPacker gmean 24% faster at 64-bit CPU
//! words. Each app's layered proxy program (`proxy_program`) runs under
//! both representations at `bench_e2e`'s logreg parameters — N = 2^13, 12
//! levels, dnum 3 — on a sequential pool. Software moduli cap at 61 bits
//! (DESIGN.md substitution: changes packing by < 5%).
//!
//! The program runs node by node through `Evaluator::step_op`, the call
//! `run_program` makes for every node, with a `GaloisHoist` built per run
//! as `run_program` builds one (each proxy node is rotated at most once,
//! so no mod-up is shared), and each node is timed: the total is the sum
//! of the node times, and level management (the paper's red bars) is the
//! sum of the `rescale` and `adjust` nodes. After one warm-up run per app
//! and representation, BitPacker and RNS-CKKS runs alternate so host
//! drift cancels; the speedup is the median per-pair ratio, shown with
//! its quartiles.
//!
//! Run with `--release`; debug timings are meaningless.

use bp_bench::{box_stats, gmean, write_csv};
use bp_ckks::ir::{OpKind, Program};
use bp_ckks::{
    level_budget, BpThreadPool, Ciphertext, CkksContext, GaloisHoist, KeySet, Representation,
};
use bp_workloads::{functional, App};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;
use std::time::Instant;

const WORD_BITS: u32 = 61;
const LOG_N: u32 = 13;
const LEVELS: usize = 12;
/// Alternating BitPacker/RNS-CKKS pairs timed per app.
const PAIRS: usize = 15;

/// One app's program, ready to run under one representation.
struct Setup {
    ctx: CkksContext,
    keys: KeySet,
    program: Program,
    plains: Vec<Vec<f64>>,
    input: Ciphertext,
}

/// One timed run: total and level-management seconds.
struct Run {
    total_s: f64,
    level_mgmt_s: f64,
}

impl Setup {
    fn new(app: App, repr: Representation) -> Setup {
        // The proxy context sits on the process-global pool, which takes
        // every core; the paper's library is single-threaded.
        let proxy = functional::proxy_context_with_word_bits(app, repr, WORD_BITS, LOG_N, LEVELS);
        let ctx = CkksContext::with_threads(proxy.params(), Arc::new(BpThreadPool::sequential()))
            .expect("proxy parameters build a context");
        let mut rng = ChaCha20Rng::seed_from_u64(0xF13);
        let mut keys = ctx.keygen(&mut rng);
        ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);
        let slots = ctx.params().slots();
        // Its own stream, so both representations run the same program.
        let mut weights = ChaCha20Rng::seed_from_u64(0x13F);
        let (program, plains) =
            functional::proxy_program(app, WORD_BITS, ctx.max_level(), slots, &mut weights);
        program
            .validate(&level_budget(ctx.chain()))
            .unwrap_or_else(|e| panic!("{} {repr}: program does not fit: {e}", app.name()));
        let vals: Vec<f64> = (0..slots)
            .map(|i| (i as f64 / slots as f64) - 0.5)
            .collect();
        let input = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
        Setup {
            ctx,
            keys,
            program,
            plains,
            input,
        }
    }

    /// Runs the program once, timing each node.
    fn run(&self) -> Run {
        let ev = self.ctx.evaluator();
        let mut plain = |pseed: u64, _slots: usize| self.plains[pseed as usize].clone();
        let mut nodes = vec![self.input.clone()];
        let mut hoist = GaloisHoist::new(&self.program);
        let mut run = Run {
            total_s: 0.0,
            level_mgmt_s: 0.0,
        };
        for (k, op) in self.program.ops.iter().enumerate() {
            let id = self.program.inputs + k;
            let start = Instant::now();
            let ct = ev
                .step_op(
                    id,
                    op,
                    |i| &nodes[i],
                    &self.keys.evaluation,
                    &mut plain,
                    &mut hoist,
                )
                .unwrap_or_else(|e| panic!("node {id}: {e}"));
            let node_s = start.elapsed().as_secs_f64();
            run.total_s += node_s;
            if matches!(op.kind(), OpKind::Rescale | OpKind::Adjust) {
                run.level_mgmt_s += node_s;
            }
            nodes.push(ct);
        }
        run
    }
}

/// Median total (ms) and median level-management share of `runs`.
fn summary(runs: &[Run]) -> (f64, f64) {
    let mut ms: Vec<f64> = runs.iter().map(|r| r.total_s * 1e3).collect();
    let mut share: Vec<f64> = runs.iter().map(|r| r.level_mgmt_s / r.total_s).collect();
    (box_stats(&mut ms).median, box_stats(&mut share).median)
}

fn main() {
    println!(
        "Fig. 13 — CPU execution time, real library (N = 2^{LOG_N}, {LEVELS} levels, \
         {WORD_BITS}-bit words, one thread, median of {PAIRS} alternating pairs)\n"
    );
    println!(
        "{:<18} {:>9} {:>8} {:>9} {:>8} {:>8} {:>15}",
        "app", "BP (ms)", "BP lvl%", "RC (ms)", "RC lvl%", "speedup", "quartiles"
    );
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for app in App::ALL {
        let bp = Setup::new(app, Representation::BitPacker);
        let rc = Setup::new(app, Representation::RnsCkks);
        bp.run();
        rc.run();
        let (mut bp_runs, mut rc_runs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..PAIRS {
            let (b, r) = (bp.run(), rc.run());
            ratios.push(r.total_s / b.total_s);
            bp_runs.push(b);
            rc_runs.push(r);
        }
        let (bp_ms, bp_lvl) = summary(&bp_runs);
        let (rc_ms, rc_lvl) = summary(&rc_runs);
        let speedup = box_stats(&mut ratios);
        println!(
            "{:<18} {:>9.1} {:>7.1}% {:>9.1} {:>7.1}% {:>7.2}x {:>10.2}–{:.2}",
            app.name(),
            bp_ms,
            bp_lvl * 100.0,
            rc_ms,
            rc_lvl * 100.0,
            speedup.median,
            speedup.q1,
            speedup.q3,
        );
        rows.push(format!(
            "{},{bp_ms:.2},{bp_lvl:.4},{rc_ms:.2},{rc_lvl:.4},{:.3},{:.3},{:.3}",
            app.name(),
            speedup.median,
            speedup.q1,
            speedup.q3
        ));
        speedups.push(speedup.median);
    }
    println!(
        "\ngmean CPU speedup: {:.2}x (paper: 1.24x on a Zen 2 CPU)",
        gmean(&speedups)
    );
    write_csv(
        "fig13_cpu.csv",
        "app,bp_ms,bp_level_mgmt_share,rc_ms,rc_level_mgmt_share,speedup,speedup_q1,speedup_q3",
        &rows,
    );
}
