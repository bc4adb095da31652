//! Reduced functional proxies for the precision experiments (Table 1).
//!
//! The paper measures error-free mantissa bits of full applications on
//! real data. We cannot run the trained networks, but CKKS precision at a
//! given scale schedule is governed by the scale/noise/rescale arithmetic,
//! not by the specific weights (DESIGN.md substitution #4). Each proxy
//! runs a layered computation with the application's characteristic
//! structure — plaintext weight multiply, rotate-accumulate, polynomial
//! activation — on synthetic data, under the *real* library, and compares
//! against exact `f64` arithmetic.
//!
//! The proxy circuits are expressed as [`bp_ir::Program`]s built by
//! [`proxy_program`]: the same IR document the oracle shrinks, the
//! runtime checkpoints, and the accelerator model lowers. The exact-`f64`
//! baseline comes from [`bp_ir::reference::run`] over that program, and
//! the encrypted run goes through the interpreter
//! (`bp_ckks::Evaluator::run_program`) — so a precision report exercises
//! the identical code paths as every other consumer of the IR.

use crate::App;
use bp_ckks::{CkksContext, CkksParams, Representation, SecurityLevel};
use bp_ir::{Program, ProgramBuilder};
use rand::Rng;

/// Precision measurement result: error-free mantissa bits, as reported by
/// Table 1 (`-log₂(error)` for values in `[-1, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionReport {
    /// `-log₂(mean |error|)`.
    pub mean_bits: f64,
    /// `-log₂(max |error|)` (the paper's "worst-case").
    pub worst_bits: f64,
    /// Number of automatic alignment repairs the evaluator performed.
    /// The proxy circuits are hand-aligned and run under
    /// [`bp_ckks::EvalPolicy::Strict`], so this is 0 unless the circuit
    /// construction regresses.
    pub repairs: u64,
}

/// Activation structure of the proxy (mirrors the applications).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Activation {
    /// Degree-2 (AESPA-style square).
    Square,
    /// Degree-3 (the RNN's σ; costs two multiplicative levels).
    Cube,
    /// High-degree polynomial ReLU approximated by repeated squaring
    /// (consumes more depth per layer, like Lee et al.'s ResNet-20).
    DeepPoly,
}

fn activation_for(app: App) -> Activation {
    match app {
        App::ResNet20 => Activation::DeepPoly,
        App::ResNet20Aespa | App::SqueezeNet => Activation::Square,
        App::Rnn => Activation::Cube,
        App::LogReg => Activation::Cube, // sigmoid ≈ degree-3 polynomial
    }
}

/// Builds a functional context for an app proxy at reduced ring degree,
/// using each representation's paper-default word size.
///
/// # Panics
/// Panics if the parameters fail to build (they are fixed and valid).
pub fn proxy_context(app: App, repr: Representation, log_n: u32, levels: usize) -> CkksContext {
    let word_bits = match repr {
        // Paper Table 1: BitPacker measured at 28-bit words (the most
        // restrictive choice), RNS-CKKS at 64-bit words (its best case;
        // 61 is this library's software cap and changes packing by < 5%).
        Representation::BitPacker => 28,
        Representation::RnsCkks => 61,
    };
    proxy_context_with_word_bits(app, repr, word_bits, log_n, levels)
}

/// [`proxy_context`] with an explicit datapath word size, for experiments
/// that hold `w` fixed across representations (the paper's Fig. 1
/// packing-efficiency comparison is at equal word size).
///
/// # Panics
/// Panics if the parameters fail to build.
pub fn proxy_context_with_word_bits(
    app: App,
    repr: Representation,
    word_bits: u32,
    log_n: u32,
    levels: usize,
) -> CkksContext {
    let params = CkksParams::builder()
        .log_n(log_n)
        .word_bits(word_bits)
        .representation(repr)
        .security(SecurityLevel::Insecure)
        .levels(levels, app.scale_bits())
        .base_modulus_bits(app.scale_bits() + 15)
        .dnum(3)
        .build()
        .expect("proxy params");
    CkksContext::new(&params).expect("proxy context")
}

/// Runs the layered proxy for `app` and measures precision against exact
/// `f64` arithmetic. `levels` bounds the multiplicative depth used.
pub fn run_proxy<R: Rng + ?Sized>(
    app: App,
    repr: Representation,
    log_n: u32,
    levels: usize,
    rng: &mut R,
) -> PrecisionReport {
    run_proxy_in(&proxy_context(app, repr, log_n, levels), app, rng)
}

/// Builds the layered proxy circuit for `app` as an IR program, plus its
/// plaintext operand table (`pseed` is an index into the table). Each
/// layer is: plaintext weight multiply, rotate-accumulate
/// (convolution/matvec surrogate), a ×0.5 renormalization (as real
/// pipelines do via batch norm, keeping values in `[-1, 1]` so errors are
/// comparable across depths), then the application's activation. The
/// layer loop is statically unrolled against a mirrored level counter
/// until the remaining depth cannot fit another layer — the same
/// arithmetic the evaluator performs on the real ciphertext.
pub fn proxy_program<R: Rng + ?Sized>(
    app: App,
    word_bits: u32,
    max_level: usize,
    slots: usize,
    rng: &mut R,
) -> (Program, Vec<Vec<f64>>) {
    // Table slot 0 is the renormalization constant; weights follow.
    let mut plains: Vec<Vec<f64>> = vec![vec![0.5; slots]];
    const HALF: u64 = 0;
    let mut b = ProgramBuilder::new(word_bits);
    let mut x = b.input();

    let activation = activation_for(app);
    let need = match activation {
        Activation::Square => 3,   // weights + renorm + square
        Activation::Cube => 4,     // weights + renorm + two multiplies
        Activation::DeepPoly => 5, // weights + renorm + repeated squaring
    };
    let mut level = max_level;
    while level >= need {
        // Weight multiply (plaintext) + rescale.
        plains.push((0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let w = b.mul_plain(x, (plains.len() - 1) as u64);
        x = b.rescale(w);
        level -= 1;
        // Rotate-accumulate, then halve to renormalize.
        let rot = b.rotate(x, 1);
        let sum = b.add(x, rot);
        let halved = b.mul_plain(sum, HALF);
        x = b.rescale(halved);
        level -= 1;
        // Activation.
        match activation {
            Activation::Square | Activation::DeepPoly => {
                let sq = b.square(x);
                x = b.rescale(sq);
                level -= 1;
                if activation == Activation::DeepPoly && level >= 1 {
                    let sq2 = b.square(x);
                    x = b.rescale(sq2);
                    level -= 1;
                }
            }
            Activation::Cube => {
                let sq = b.square(x);
                let sq = b.rescale(sq);
                let x_adj = b.adjust(x, level - 1);
                let cube = b.mul(sq, x_adj);
                x = b.rescale(cube);
                level -= 2;
            }
        }
    }
    b.output("y", x);
    (b.finish(), plains)
}

/// Runs the layered proxy for `app` under a caller-built context (e.g.
/// one from [`proxy_context_with_word_bits`]).
pub fn run_proxy_in<R: Rng + ?Sized>(ctx: &CkksContext, app: App, rng: &mut R) -> PrecisionReport {
    let mut keys = ctx.keygen(rng);
    ctx.gen_rotation_keys(&mut keys, &[1], rng);
    let ev = ctx.evaluator();
    let slots = ctx.params().slots();

    // Synthetic inputs and weights in [-1, 1].
    let input: Vec<f64> = (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let (program, plains) =
        proxy_program(app, ctx.params().word_bits(), ctx.max_level(), slots, rng);
    let mut plain = |pseed: u64, _slots: usize| plains[pseed as usize].clone();

    // Exact-f64 baseline over the same program.
    let nodes = bp_ir::reference::run(&program, std::slice::from_ref(&input), &mut plain);
    let reference = &nodes[program.output_node("y").expect("proxy declares output y")];

    // Encrypted run through the IR interpreter.
    let ct = ctx.encrypt(&ctx.encode(&input, ctx.max_level()), &keys.public, rng);
    let run = ev
        .run_program(&program, vec![ct], &keys.evaluation, &mut plain)
        .expect("proxy circuits are hand-aligned for the chain they are built against");
    let got = ctx
        .decrypt_to_values(run.result(), &keys.secret, slots)
        .expect("proxy depth is chosen to keep noise budget positive");
    let mut max_err = 0f64;
    let mut sum_err = 0f64;
    for (g, r) in got.iter().zip(reference) {
        let e = (g - r).abs();
        max_err = max_err.max(e);
        sum_err += e;
    }
    let mean_err = sum_err / slots as f64;
    PrecisionReport {
        mean_bits: -(mean_err.max(1e-18)).log2(),
        worst_bits: -(max_err.max(1e-18)).log2(),
        repairs: ev.repairs().total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn proxy_reports_usable_precision() {
        let mut rng = ChaCha20Rng::seed_from_u64(11);
        let rep = run_proxy(App::SqueezeNet, Representation::BitPacker, 8, 6, &mut rng);
        assert!(
            rep.worst_bits > 8.0,
            "worst-case {:.1} bits too low",
            rep.worst_bits
        );
        assert!(rep.mean_bits >= rep.worst_bits);
        assert_eq!(rep.repairs, 0, "strict-mode proxy must need no repairs");
    }

    #[test]
    fn proxy_programs_are_strict_valid_for_their_chains() {
        // Every app's unrolled circuit must validate against the level
        // budget of the chain it was built for — the interpreter runs it
        // under EvalPolicy::Strict with no alignment repairs. The cases
        // are the small test chain and fig13_cpu's configuration (61-bit
        // words, N = 2^13, 12 levels) under both representations.
        let configs = [
            (Representation::BitPacker, 28, 8, 6),
            (Representation::BitPacker, 61, 13, 12),
            (Representation::RnsCkks, 61, 13, 12),
        ];
        for (repr, word_bits, log_n, levels) in configs {
            for app in App::ALL {
                let ctx = proxy_context_with_word_bits(app, repr, word_bits, log_n, levels);
                let label = format!("{} {repr} w{word_bits} N=2^{log_n}", app.name());
                let mut rng = ChaCha20Rng::seed_from_u64(7);
                let (program, plains) = proxy_program(
                    app,
                    word_bits,
                    ctx.max_level(),
                    ctx.params().slots(),
                    &mut rng,
                );
                program
                    .validate(&bp_ckks::level_budget(ctx.chain()))
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(
                    program.num_nodes() > program.inputs,
                    "{label}: circuit unrolled no layers"
                );
                assert!(plains.len() > 1, "{label}: no weight layers");
            }
        }
    }

    #[test]
    fn both_representations_match_within_margin() {
        // Table 1's headline: BitPacker matches RNS-CKKS precision within
        // ~1 bit.
        let mut rng = ChaCha20Rng::seed_from_u64(12);
        let bp = run_proxy(App::LogReg, Representation::BitPacker, 8, 6, &mut rng);
        let mut rng = ChaCha20Rng::seed_from_u64(12);
        let rc = run_proxy(App::LogReg, Representation::RnsCkks, 8, 6, &mut rng);
        assert!(
            (bp.mean_bits - rc.mean_bits).abs() < 3.0,
            "BP {:.1} vs RC {:.1}",
            bp.mean_bits,
            rc.mean_bits
        );
    }
}
