//! Encrypted logistic-regression training (a miniature HELR, the paper's
//! LogReg benchmark): gradient-descent steps computed entirely on
//! encrypted data, with the sigmoid replaced by the linear term of its
//! HELR polynomial, σ(z) ≈ 0.5 + 0.15·z, to fit the depth of this demo
//! chain.
//!
//! One training example per slot; the labels and the weights are packed
//! into two more ciphertexts. Each step costs 4 multiplicative levels, so
//! the chain depth bounds the step count (real HELR bootstraps between
//! batches — see `bp_ckks::levels::reference_bootstrap`); a program that
//! needs more levels than the chain has is refused before any op runs.
//!
//! The whole training loop is one IR program, run as a supervised
//! `bp-runtime` job (deadline, contained panics, retries) that snapshots
//! the live ciphertexts after every op, so a killed run resumes
//! **bit-identically**:
//!
//! ```text
//! cargo run --release --example logreg_training
//! # Simulate preemption after step 1, then resume:
//! cargo run --release --example logreg_training -- \
//!     --checkpoint /tmp/logreg.bpck --halt-after 1
//! cargo run --release --example logreg_training -- \
//!     --checkpoint /tmp/logreg.bpck --resume
//! ```

use bitpacker::prelude::*;
use bitpacker::runtime::{CancelToken, CheckpointStore, MemoryStore};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Learning rate of the per-slot SGD update.
const LR: f64 = 1.0;

/// Plaintext operands by pseed: the sigmoid's slope and offset, and the
/// learning rate.
const PLAINS: [f64; 3] = [0.15, 0.5, LR];
const SLOPE: u64 = 0;
const OFFSET: u64 = 1;
const RATE: u64 = 2;

struct Args {
    /// Total gradient steps the training should reach.
    steps: u64,
    /// Where to write (and with --resume, read) the checkpoint.
    checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint instead of starting at step 0.
    resume: bool,
    /// Stop once the checkpoint ending this step is written (simulated
    /// kill).
    halt_after: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        steps: 2,
        checkpoint: None,
        resume: false,
        halt_after: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--steps" => args.steps = value("--steps")?.parse().map_err(|e| format!("{e}"))?,
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?.into()),
            "--resume" => args.resume = true,
            "--halt-after" => {
                args.halt_after = Some(value("--halt-after")?.parse().map_err(|e| format!("{e}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if (args.resume || args.halt_after.is_some()) && args.checkpoint.is_none() {
        return Err("--resume and --halt-after require --checkpoint".into());
    }
    Ok(args)
}

/// `steps` SGD steps over the inputs x, y and w, all encrypted at level
/// `top`, with the trained weights as output `w`. Also returns the op
/// position that ends each step.
fn training_program(steps: u64, top: usize) -> (Program, Vec<u64>) {
    let mut b = ProgramBuilder::new(28);
    let (x, y, mut w) = (b.input(), b.input(), b.input());
    // w's level. Saturating, so a program deeper than the chain still
    // builds and validation refuses it.
    let mut level = top;
    let mut step_ends = Vec::new();
    for _ in 0..steps {
        // z = w·x; x needs an adjust once w has left the top level.
        let x_z = if level == top { x } else { b.adjust(x, level) };
        let wx = b.mul(w, x_z);
        let z = b.rescale(wx);
        // σ(z) − y ≈ 0.15·z + 0.5 − y
        let sz = b.mul_plain(z, SLOPE);
        let scaled = b.rescale(sz);
        let sigma = b.add_plain(scaled, OFFSET);
        let y_adj = b.adjust(y, level.saturating_sub(2));
        let diff = b.sub(sigma, y_adj);
        // grad = (σ − y)·x; the mean-reduce is skipped (per-slot SGD).
        let x_grad = b.adjust(x, level.saturating_sub(2));
        let dx = b.mul(diff, x_grad);
        let grad = b.rescale(dx);
        // w ← w − lr·grad
        let lg = b.mul_plain(grad, RATE);
        let update = b.rescale(lg);
        level = level.saturating_sub(4);
        let w_adj = b.adjust(w, level);
        w = b.sub(w_adj, update);
        // Nodes 0..3 are the inputs, so node w is op w − 3 and
        // ops[..w − 2] are the steps so far.
        step_ends.push((w - 2) as u64);
    }
    b.output("w", w);
    (b.finish(), step_ends)
}

/// Persists every snapshot the runtime hands it to `path`. `load` reads
/// the file back only under `--resume`, so a fresh run never picks up a
/// stale one.
struct FileStore {
    path: PathBuf,
    resume: bool,
    step_ends: Vec<u64>,
    halt_after: Option<u64>,
    /// The job's token: cancelled to halt, or when a write fails.
    token: CancelToken,
    failed: RefCell<Option<std::io::Error>>,
}

impl CheckpointStore for FileStore {
    fn save(&self, bytes: Vec<u8>) {
        let pos = Checkpoint::from_bytes(&bytes)
            .expect("the runtime writes valid checkpoints")
            .pos();
        if let Err(e) = std::fs::write(&self.path, &bytes) {
            self.failed.replace(Some(e));
            self.token.cancel();
            return;
        }
        if let Some(i) = self.step_ends.iter().position(|&end| end == pos) {
            let step = i as u64 + 1;
            println!("step {step}: checkpoint written to {}", self.path.display());
            if self.halt_after == Some(step) {
                self.token.cancel();
            }
        }
    }

    fn load(&self) -> Option<Vec<u8>> {
        if self.resume {
            std::fs::read(&self.path).ok()
        } else {
            None
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| format!("usage error: {e}"))?;

    let params = CkksParams::builder()
        .log_n(10)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(9, 35)
        .base_modulus_bits(45)
        .build()?;
    let ctx = CkksContext::new(&params)?;
    let mut rng = ChaCha20Rng::seed_from_u64(1234);
    let keys = ctx.keygen(&mut rng);
    let slots = ctx.params().slots();

    // Synthetic 1-feature dataset: y = 1 if x > 0.2 (plus noise).
    let xs: Vec<f64> = (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| {
            if x + rng.gen_range(-0.1..0.1) > 0.2 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let inputs: Vec<Ciphertext> = [xs.clone(), ys.clone(), vec![0.0; slots]]
        .iter()
        .map(|vals| ctx.encrypt(&ctx.encode(vals, ctx.max_level()), &keys.public, &mut rng))
        .collect();

    let (program, step_ends) = training_program(args.steps, ctx.max_level());
    let ops = program.ops.len();
    // A deadline interrupts a runaway circuit cooperatively, and a
    // panicking op surfaces as a typed error instead of tearing the
    // process down.
    let token = CancelToken::with_deadline(Duration::from_secs(120));
    let spec = JobSpec::new("logreg")
        .program(Arc::new(program))
        .token(token.clone());
    let plain = |pseed: u64, n: usize| vec![PLAINS[pseed as usize]; n];
    let run = |spec: &JobSpec, store: &dyn CheckpointStore| {
        Runtime::new().run_program(spec, &ctx, &keys.evaluation, &inputs, &plain, store)
    };
    let outcome = match args.checkpoint.clone() {
        None => run(&spec.checkpoint_every(0), &MemoryStore::new())?,
        Some(path) => {
            let store = FileStore {
                path,
                resume: args.resume,
                step_ends,
                halt_after: args.halt_after,
                token,
                failed: RefCell::new(None),
            };
            let result = run(&spec, &store);
            if let Some(e) = store.failed.take() {
                let path = store.path.display();
                return Err(format!("checkpoint write to {path} failed: {e}").into());
            }
            // A failed write returned above and an expired deadline is
            // DeadlineExceeded, so a cancelled run was halted on purpose.
            if matches!(result, Err(RuntimeError::Cancelled)) {
                println!(
                    "\nstopped after step {}/{} (simulated preemption); resume with --resume",
                    args.halt_after.unwrap_or_default(),
                    args.steps,
                );
                return Ok(());
            }
            result?
        }
    };
    match outcome.resumed_at {
        Some(pos) => println!("resumed at op {pos} of {ops}"),
        None if args.resume => println!("no usable checkpoint; trained from the start"),
        None => {}
    }

    // Verify: decrypt the per-slot weights and check a few slots against
    // the exact per-slot SGD recurrence.
    let ct_w = outcome.output("w").expect("the program declares output w");
    println!(
        "trained {} step(s) in {ops} IR ops; encrypted weights at level {}",
        args.steps,
        ct_w.level()
    );
    let got = ctx.decrypt_to_values(ct_w, &keys.secret, slots)?;
    let mut max_err = 0f64;
    for i in 0..8 {
        let (x, y) = (xs[i], ys[i]);
        let mut w = 0.0;
        for _ in 0..args.steps {
            let grad = (0.5 + 0.15 * (w * x) - y) * x;
            w -= LR * grad;
        }
        max_err = max_err.max((got[i] - w).abs());
        println!(
            "slot {i}: x {x:+.3} y {y:.0}  w_exact {w:+.5}  w_encrypted {:+.5}",
            got[i]
        );
    }
    println!("\nmax error {max_err:.2e} across checked slots");
    assert!(max_err < 1e-2, "training diverged from plaintext reference");
    Ok(())
}
