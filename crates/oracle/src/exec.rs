//! Three-way program execution and divergence detection.
//!
//! Every program runs on (a) a BitPacker chain, (b) a classic RNS-CKKS
//! chain, and (c) an exact plaintext reference over the slot vectors. The
//! two encrypted runs must agree with the reference — and with each other —
//! within a tolerance derived from each ciphertext's analytic
//! [`bp_ckks::noise::NoiseEstimate`] and the exact `bp-math` scale bookkeeping;
//! on top of that, every intermediate ciphertext must survive a wire
//! round-trip (`read(write(ct))` succeeds and re-serializes to identical
//! bytes) and structural validation.
//!
//! # Tolerance derivation
//!
//! The noise tracker carries `noise_bits = log₂` of the absolute noise in
//! coefficient units; dividing by the ciphertext's scale converts it to an
//! absolute slot-value bound: `tol = 2^(noise_bits − log₂ S + margin)`.
//! The margin (a few bits) absorbs the estimator's heuristic slack, and a
//! small floor absorbs the `f64` CRT/FFT decode error. Nodes whose
//! estimated clear mantissa has dropped below a threshold are excluded
//! from value comparison (both backends are still required to *execute*
//! and round-trip identically).

use crate::generate::{input_values, plain_values, GenLimits, ROTATION_STEPS};
use bp_ckks::wire::{read_ciphertext, write_ciphertext};
use bp_ckks::{
    Ciphertext, CkksContext, CkksParams, EvalPolicy, KeySet, ProgramStepper, Representation,
    SecurityLevel,
};
use bp_ir::Program;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

/// Extra tolerance bits on top of the analytic noise estimate.
const TOLERANCE_MARGIN_BITS: f64 = 8.0;
/// Absolute tolerance floor (decode/FFT `f64` error).
const TOLERANCE_FLOOR: f64 = 1e-9;
/// Nodes with fewer estimated clear mantissa bits than this are excluded
/// from value comparison.
const MIN_CLEAR_BITS: f64 = 6.0;

/// Per-word-size oracle parameters. The `64` label runs with 61-bit words:
/// the software arithmetic caps moduli below 2^61 (`CkksContext` rejects
/// wider words), which still exercises the widest packing the
/// implementation can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordConfig {
    /// The advertised word size (28/32/48/64).
    pub label: u32,
    /// The word size actually handed to the parameter builder.
    pub word_bits: u32,
    /// Ring degree exponent.
    pub log_n: u32,
    /// Number of rescaling levels.
    pub max_level: usize,
    /// Per-level scale bits.
    pub scale_bits: u32,
    /// Base (level-0) modulus bits.
    pub base_bits: u32,
}

/// The word-size configurations the oracle sweeps.
pub const WORD_LABELS: [u32; 4] = [28, 32, 48, 64];

/// Resolves a word-size label to its oracle configuration.
pub fn word_config(label: u32) -> Option<WordConfig> {
    let cfg = match label {
        28 => WordConfig {
            label,
            word_bits: 28,
            log_n: 6,
            max_level: 3,
            scale_bits: 26,
            base_bits: 30,
        },
        32 => WordConfig {
            label,
            word_bits: 32,
            log_n: 6,
            max_level: 3,
            scale_bits: 29,
            base_bits: 33,
        },
        48 => WordConfig {
            label,
            word_bits: 48,
            log_n: 6,
            max_level: 3,
            scale_bits: 40,
            base_bits: 45,
        },
        64 => WordConfig {
            label,
            word_bits: 61,
            log_n: 6,
            max_level: 3,
            scale_bits: 50,
            base_bits: 55,
        },
        _ => return None,
    };
    Some(cfg)
}

/// One encrypted backend: a context plus a key set with the rotation and
/// conjugation keys the generator's op menu needs.
struct Backend {
    name: &'static str,
    ctx: CkksContext,
    keys: KeySet,
}

impl Backend {
    fn new(cfg: &WordConfig, repr: Representation) -> Result<Self, String> {
        let params = CkksParams::builder()
            .log_n(cfg.log_n)
            .word_bits(cfg.word_bits)
            .representation(repr)
            .security(SecurityLevel::Insecure)
            .levels(cfg.max_level, cfg.scale_bits)
            .base_modulus_bits(cfg.base_bits)
            .build()
            .map_err(|e| format!("{repr:?} params for w={}: {e}", cfg.label))?;
        let ctx = CkksContext::new(&params)
            .map_err(|e| format!("{repr:?} context for w={}: {e}", cfg.label))?;
        // Key material is independent of the program seed: one key set per
        // backend serves the whole sweep.
        let mut rng = ChaCha20Rng::seed_from_u64(
            0xB17_9AC8_0000_0001 ^ u64::from(cfg.label) ^ ((repr as u64) << 32),
        );
        let mut keys = ctx.keygen(&mut rng);
        ctx.gen_rotation_keys(&mut keys, &ROTATION_STEPS, &mut rng);
        ctx.gen_conjugation_key(&mut keys, &mut rng);
        let name = match repr {
            Representation::BitPacker => "bitpacker",
            Representation::RnsCkks => "rns-ckks",
        };
        Ok(Self { name, ctx, keys })
    }
}

/// A reusable execution environment: both backends for one word size.
pub struct OracleEnv {
    /// The word-size configuration this environment runs.
    pub cfg: WordConfig,
    /// Generator limits derived from the actual chains (capacity-gated
    /// multiplication levels).
    pub limits: GenLimits,
    bitpacker: Backend,
    rns: Backend,
}

impl OracleEnv {
    /// Builds both backend contexts and key sets for a word-size label.
    ///
    /// # Errors
    /// Returns a description when either chain cannot be built (should not
    /// happen for the built-in [`word_config`] table).
    pub fn new(label: u32) -> Result<Self, String> {
        let cfg = word_config(label).ok_or_else(|| format!("unsupported word size {label}"))?;
        let bitpacker = Backend::new(&cfg, Representation::BitPacker)?;
        let rns = Backend::new(&cfg, Representation::RnsCkks)?;

        // A multiply is only well defined when it fits *both* chains'
        // budgets, so the stricter capacity gate wins.
        let bp_budget = bp_ckks::level_budget(bitpacker.ctx.chain());
        let rns_budget = bp_ckks::level_budget(rns.ctx.chain());

        Ok(Self {
            cfg,
            limits: GenLimits {
                max_level: cfg.max_level,
                min_mul_level: bp_budget.min_mul_level.max(rns_budget.min_mul_level),
            },
            bitpacker,
            rns,
        })
    }

    /// Slot count of the oracle ring.
    pub fn slots(&self) -> usize {
        (1usize << self.cfg.log_n) / 2
    }
}

/// How a program diverged.
#[derive(Debug, Clone, PartialEq)]
pub enum DivergenceKind {
    /// A backend's decrypted slots disagree with the plaintext reference.
    RefMismatch {
        /// Which backend ("bitpacker" / "rns-ckks").
        backend: &'static str,
        /// Largest absolute slot error observed.
        max_err: f64,
        /// The tolerance that was exceeded.
        tol: f64,
    },
    /// The two backends disagree with each other.
    CrossMismatch {
        /// Largest absolute slot difference between backends.
        max_err: f64,
        /// Combined tolerance that was exceeded.
        tol: f64,
    },
    /// One backend returned an evaluation error (generated programs are
    /// Strict-valid, so *any* error is a divergence; an error on only one
    /// backend is a representation bug by construction).
    BackendError {
        /// Which backend errored.
        backend: &'static str,
        /// The error rendered as text.
        error: String,
        /// Whether the other backend also failed at the same node.
        other_failed: bool,
    },
    /// A ciphertext failed the wire round-trip (read error or
    /// re-serialization mismatch) or structural validation.
    WireFailure {
        /// Which backend produced the ciphertext.
        backend: &'static str,
        /// What went wrong.
        detail: String,
    },
}

/// A detected divergence, anchored to the first offending node.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Node index (input or op result) where the divergence was detected.
    pub node: usize,
    /// What kind of disagreement was observed.
    pub kind: DivergenceKind,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            DivergenceKind::RefMismatch {
                backend,
                max_err,
                tol,
            } => write!(
                f,
                "node {}: {backend} deviates from the plaintext reference by {max_err:.3e} \
                 (tolerance {tol:.3e})",
                self.node
            ),
            DivergenceKind::CrossMismatch { max_err, tol } => write!(
                f,
                "node {}: backends disagree by {max_err:.3e} (tolerance {tol:.3e})",
                self.node
            ),
            DivergenceKind::BackendError {
                backend,
                error,
                other_failed,
            } => write!(
                f,
                "node {}: {backend} failed with {error:?} (other backend {})",
                self.node,
                if *other_failed {
                    "also failed"
                } else {
                    "succeeded"
                }
            ),
            DivergenceKind::WireFailure { backend, detail } => {
                write!(f, "node {}: {backend} wire round-trip: {detail}", self.node)
            }
        }
    }
}

/// Per-node observation from one backend.
struct NodeObs {
    values: Vec<f64>,
    tol: f64,
    clear_bits: f64,
}

/// Outcome of one backend's run: observations up to the first error.
struct BackendRun {
    obs: Vec<NodeObs>,
    error: Option<(usize, String)>,
    wire_failure: Option<(usize, String)>,
}

/// Executes a program three ways and returns the first divergence, if any.
pub fn run_program(env: &OracleEnv, program: &Program) -> Option<Divergence> {
    let slots = env.slots();
    let reference = reference_run(program, slots);
    let bp = backend_run(&env.bitpacker, program, slots);
    let rns = backend_run(&env.rns, program, slots);

    // Wire/validation failures outrank value comparison: they fire even on
    // nodes whose noise budget is spent.
    for (backend, run) in [(env.bitpacker.name, &bp), (env.rns.name, &rns)] {
        if let Some((node, detail)) = &run.wire_failure {
            return Some(Divergence {
                node: *node,
                kind: DivergenceKind::WireFailure {
                    backend,
                    detail: detail.clone(),
                },
            });
        }
    }

    // Evaluation errors: the generator only emits Strict-valid programs,
    // so an error on either backend is itself a divergence.
    match (&bp.error, &rns.error) {
        (Some((node, error)), other) => {
            return Some(Divergence {
                node: *node,
                kind: DivergenceKind::BackendError {
                    backend: "bitpacker",
                    error: error.clone(),
                    other_failed: other.is_some(),
                },
            });
        }
        (None, Some((node, error))) => {
            return Some(Divergence {
                node: *node,
                kind: DivergenceKind::BackendError {
                    backend: "rns-ckks",
                    error: error.clone(),
                    other_failed: false,
                },
            });
        }
        (None, None) => {}
    }

    // Value agreement, node by node.
    for (node, want) in reference.iter().enumerate() {
        let (b, r) = (&bp.obs[node], &rns.obs[node]);
        for (backend, o) in [("bitpacker", b), ("rns-ckks", r)] {
            if o.clear_bits < MIN_CLEAR_BITS {
                continue;
            }
            let max_err = max_abs_diff(&o.values, want);
            if max_err > o.tol {
                return Some(Divergence {
                    node,
                    kind: DivergenceKind::RefMismatch {
                        backend,
                        max_err,
                        tol: o.tol,
                    },
                });
            }
        }
        if b.clear_bits >= MIN_CLEAR_BITS && r.clear_bits >= MIN_CLEAR_BITS {
            let tol = b.tol + r.tol;
            let max_err = max_abs_diff(&b.values, &r.values);
            if max_err > tol {
                return Some(Divergence {
                    node,
                    kind: DivergenceKind::CrossMismatch { max_err, tol },
                });
            }
        }
    }
    None
}

/// Exact slot-vector reference: the oracle's inputs fed through the
/// shared [`bp_ir::reference`] interpreter. Rescale and adjust are
/// value-preserving; rotation follows the library convention
/// `out[i] = in[(i + steps) mod slots]`; conjugation is the identity on
/// real slots.
pub fn reference_run(program: &Program, slots: usize) -> Vec<Vec<f64>> {
    let inputs: Vec<Vec<f64>> = (0..program.inputs)
        .map(|i| input_values(program.seed, i, slots))
        .collect();
    bp_ir::reference::run(program, &inputs, &mut |pseed, n| plain_values(pseed, n))
}

fn backend_run(backend: &Backend, program: &Program, slots: usize) -> BackendRun {
    let ctx = &backend.ctx;
    let ev = ctx.evaluator_with_policy(EvalPolicy::Strict);
    let ek = &backend.keys.evaluation;
    let mut rng = ChaCha20Rng::seed_from_u64(program.seed ^ 0x0b5e_55ed_c0ff_ee00);

    let mut run = BackendRun {
        obs: Vec::with_capacity(program.num_nodes()),
        error: None,
        wire_failure: None,
    };
    let mut cts: Vec<Ciphertext> = Vec::with_capacity(program.inputs);

    // Input nodes: fresh public-key encryptions at the top level.
    for i in 0..program.inputs {
        let vals = input_values(program.seed, i, slots);
        let pt = ctx.encode(&vals, ctx.max_level());
        let ct = ctx.encrypt(&pt, &backend.keys.public, &mut rng);
        if let Err(detail) = wire_and_validate(backend, &ct) {
            run.wire_failure = Some((i, detail));
            return run;
        }
        run.obs.push(observe(backend, &ct, slots));
        cts.push(ct);
    }

    // Op nodes: the one program stepper in `bp-ckks`, retiring nodes as
    // the runtime does, with plaintext operands resolved from the
    // deterministic pseed streams.
    let mut plain = |pseed: u64, n: usize| plain_values(pseed, n);
    let mut stepper = ProgramStepper::new(&ev, program, cts, ek, &mut plain)
        .expect("oracle programs are well formed");
    while let Some(step) = stepper.step() {
        let node = run.obs.len();
        let ct = match step {
            Ok(ct) => ct,
            Err(e) => {
                run.error = Some((node, e.to_string()));
                return run;
            }
        };
        if let Err(detail) = wire_and_validate(backend, ct) {
            run.wire_failure = Some((node, detail));
            return run;
        }
        run.obs.push(observe(backend, ct, slots));
    }
    run
}

/// Decrypt (unchecked — the noise guard is the comparison's job), decode,
/// and derive the node's tolerance from its noise estimate.
fn observe(backend: &Backend, ct: &Ciphertext, slots: usize) -> NodeObs {
    let pt = backend.ctx.decrypt_unchecked(ct, &backend.keys.secret);
    let mut values = backend.ctx.decode(&pt);
    values.truncate(slots);
    let noise = ct.noise();
    let tol_bits = noise.noise_bits - ct.scale().log2() + TOLERANCE_MARGIN_BITS;
    NodeObs {
        values,
        tol: 2f64.powf(tol_bits).max(TOLERANCE_FLOOR),
        clear_bits: noise.clear_bits(),
    }
}

/// Full wire round-trip plus structural validation for one ciphertext:
/// `read(write(ct))` must succeed, re-serialize byte-identically, and
/// `validate` cleanly.
fn wire_and_validate(backend: &Backend, ct: &Ciphertext) -> Result<(), String> {
    if let Err(e) = ct.validate(&backend.ctx) {
        return Err(format!("fresh ciphertext fails validation: {e}"));
    }
    let bytes = write_ciphertext(ct);
    let back =
        read_ciphertext(&backend.ctx, &bytes).map_err(|e| format!("read-back failed: {e}"))?;
    let again = write_ciphertext(&back);
    if again != bytes {
        return Err(format!(
            "re-serialization differs ({} vs {} bytes)",
            again.len(),
            bytes.len()
        ));
    }
    Ok(())
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use bp_ir::Op;

    #[test]
    fn word_configs_build_both_chains() {
        for label in WORD_LABELS {
            let env = OracleEnv::new(label).expect("both chains build");
            assert_eq!(env.cfg.label, label);
            assert_eq!(env.slots(), 32);
        }
    }

    #[test]
    fn reference_rotation_matches_library_convention() {
        let p = Program::new(3, 28, 1, vec![Op::Rotate { a: 0, steps: 1 }]);
        let nodes = reference_run(&p, 8);
        for i in 0..8 {
            assert_eq!(nodes[1][i], nodes[0][(i + 1) % 8]);
        }
    }

    #[test]
    fn trivial_program_agrees_on_both_backends() {
        let env = OracleEnv::new(28).unwrap();
        let p = Program::new(
            11,
            28,
            2,
            vec![Op::Add { a: 0, b: 1 }, Op::Mul { a: 0, b: 1 }],
        );
        assert_eq!(run_program(&env, &p), None);
    }

    #[test]
    fn generated_programs_run_clean_smoke() {
        let env = OracleEnv::new(28).unwrap();
        for seed in 0..5 {
            let p = generate(seed, 28, env.limits);
            if let Some(d) = run_program(&env, &p) {
                panic!("seed {seed}: {d}");
            }
        }
    }

    /// Encrypts the program's inputs exactly as [`backend_run`] does.
    fn encrypt_inputs(backend: &Backend, program: &Program, slots: usize) -> Vec<Ciphertext> {
        let ctx = &backend.ctx;
        let mut rng = ChaCha20Rng::seed_from_u64(program.seed ^ 0x0b5e_55ed_c0ff_ee00);
        (0..program.inputs)
            .map(|i| {
                let vals = input_values(program.seed, i, slots);
                let pt = ctx.encode(&vals, ctx.max_level());
                ctx.encrypt(&pt, &backend.keys.public, &mut rng)
            })
            .collect()
    }

    /// The pre-IR executor: the per-op-kind match over the public
    /// `Evaluator` methods, kept verbatim as the conformance baseline for
    /// the interpreter. Returns the wire bytes of every node, or the
    /// failing node and its error text.
    fn inline_run(
        backend: &Backend,
        program: &Program,
        slots: usize,
    ) -> Result<Vec<Vec<u8>>, (usize, String)> {
        let ctx = &backend.ctx;
        let ev = ctx.evaluator_with_policy(EvalPolicy::Strict);
        let ek = &backend.keys.evaluation;
        let encode_for = |ct: &Ciphertext, pseed: u64| {
            let vals = plain_values(pseed, slots);
            ctx.encode(&vals, ct.level())
        };
        let mut cts = encrypt_inputs(backend, program, slots);
        for (k, op) in program.ops.iter().enumerate() {
            let result = match *op {
                Op::Add { a, b } => ev.add(&cts[a], &cts[b]),
                Op::Sub { a, b } => ev.sub(&cts[a], &cts[b]),
                Op::Mul { a, b } => ev.mul(&cts[a], &cts[b], ek),
                Op::Square { a } => ev.square(&cts[a], ek),
                Op::Negate { a } => ev.negate(&cts[a]),
                Op::Rotate { a, steps } => ev.rotate(&cts[a], steps, ek),
                Op::Conjugate { a } => ev.conjugate(&cts[a], ek),
                Op::Rescale { a } => ev.rescale(&cts[a]),
                Op::Adjust { a, target } => ev.adjust_to(&cts[a], target),
                Op::AddPlain { a, pseed } => ev.add_plain(&cts[a], &encode_for(&cts[a], pseed)),
                Op::SubPlain { a, pseed } => ev.sub_plain(&cts[a], &encode_for(&cts[a], pseed)),
                Op::MulPlain { a, pseed } => ev.mul_plain(&cts[a], &encode_for(&cts[a], pseed)),
            };
            match result {
                Ok(ct) => cts.push(ct),
                Err(e) => return Err((program.inputs + k, e.to_string())),
            }
        }
        Ok(cts.iter().map(write_ciphertext).collect())
    }

    /// The IR path: the same inputs through `Evaluator::run_program`.
    fn interpreter_run(
        backend: &Backend,
        program: &Program,
        slots: usize,
    ) -> Result<Vec<Vec<u8>>, (usize, String)> {
        let ev = backend.ctx.evaluator_with_policy(EvalPolicy::Strict);
        let inputs = encrypt_inputs(backend, program, slots);
        let mut plain = |pseed: u64, n: usize| plain_values(pseed, n);
        match ev.run_program(program, inputs, &backend.keys.evaluation, &mut plain) {
            Ok(run) => Ok(run.nodes().iter().map(write_ciphertext).collect()),
            Err(bp_ckks::ProgramError::Eval { node, error }) => Err((node, error.to_string())),
            Err(e) => Err((0, e.to_string())),
        }
    }

    /// The stepper in the retiring configuration that the runtime and
    /// [`backend_run`] use: the wire bytes of the inputs and of every node
    /// `step` lends, or the failing node and its error text.
    fn stepper_run(
        backend: &Backend,
        program: &Program,
        slots: usize,
    ) -> Result<Vec<Vec<u8>>, (usize, String)> {
        let ev = backend.ctx.evaluator_with_policy(EvalPolicy::Strict);
        let inputs = encrypt_inputs(backend, program, slots);
        let mut bytes: Vec<Vec<u8>> = inputs.iter().map(write_ciphertext).collect();
        let mut plain = |pseed: u64, n: usize| plain_values(pseed, n);
        let ek = &backend.keys.evaluation;
        let mut stepper =
            ProgramStepper::new(&ev, program, inputs, ek, &mut plain).expect("well formed");
        while let Some(step) = stepper.step() {
            let ct = step.map_err(|e| (bytes.len(), e.to_string()))?;
            bytes.push(write_ciphertext(ct));
        }
        Ok(bytes)
    }

    fn smoke_seeds() -> u64 {
        if let Ok(v) = std::env::var("BITPACKER_ORACLE_SMOKE_SEEDS") {
            return v
                .parse()
                .expect("BITPACKER_ORACLE_SMOKE_SEEDS must be a number");
        }
        // The acceptance bar is 500 seeds; debug builds run a scaled-down
        // sweep so `cargo test` stays fast.
        if cfg!(debug_assertions) {
            120
        } else {
            500
        }
    }

    /// The IR path's conformance criterion: the same IR program produces
    /// bit-identical ciphertext wire bytes whether executed through the
    /// historical inline op match, through the `bp-ckks` interpreter, or
    /// node by node through a retiring [`ProgramStepper`], on both
    /// representations, across a generated-program sweep.
    #[test]
    fn interpreter_matches_inline_path_bit_identically() {
        let env = OracleEnv::new(28).unwrap();
        let slots = env.slots();
        for seed in 0..smoke_seeds() {
            let program = generate(seed, 28, env.limits);
            for backend in [&env.bitpacker, &env.rns] {
                let old = inline_run(backend, &program, slots);
                let interpreter = interpreter_run(backend, &program, slots);
                let stepper = stepper_run(backend, &program, slots);
                for (path, new) in [("ir", interpreter), ("stepper", stepper)] {
                    match (&old, new) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.len(), b.len(), "seed {seed} {} {path}", backend.name);
                            for (node, (x, y)) in a.iter().zip(&b).enumerate() {
                                assert_eq!(
                                    x, y,
                                    "seed {seed} {} {path}: node {node} wire bytes differ",
                                    backend.name
                                );
                            }
                        }
                        (Err(a), Err(b)) => {
                            assert_eq!(a, &b, "seed {seed} {} {path}: errors differ", backend.name)
                        }
                        (old, new) => panic!(
                            "seed {seed} {}: paths disagree on success: inline={old:?} {path}={new:?}",
                            backend.name
                        ),
                    }
                }
            }
        }
    }

    /// Generated programs, without declared outputs, including ones that
    /// rotate one node several times; two of them again with outputs
    /// declared at their first op node and their middle node; and a
    /// hand-written program with known live sets.
    fn stepper_programs(env: &OracleEnv) -> Vec<Program> {
        let shares_galois_operand = |p: &Program| {
            let galois = p.ops.iter().filter_map(|op| match *op {
                Op::Rotate { a, .. } | Op::Conjugate { a } => Some(a),
                _ => None,
            });
            let mut operands: Vec<usize> = galois.collect();
            operands.sort_unstable();
            operands.windows(2).any(|w| w[0] == w[1])
        };
        let generated = (0..).map(|seed| generate(seed, 28, env.limits));
        let mut programs: Vec<Program> = generated.clone().take(4).collect();
        programs.extend(generated.filter(shares_galois_operand).take(3));
        for k in [0, 4] {
            let mut named = programs[k].clone();
            for (name, node) in [("first", named.inputs), ("mid", named.num_nodes() / 2)] {
                let name = name.to_string();
                named.outputs.push(bp_ir::Output { name, node });
            }
            programs.push(named);
        }
        programs.push(Program::new(
            7,
            28,
            2,
            vec![
                Op::Mul { a: 0, b: 1 },
                Op::Rescale { a: 2 },
                Op::AddPlain { a: 3, pseed: 9 },
            ],
        ));
        programs
    }

    /// The nodes live at `pos` by definition: computed, and read by a later
    /// op, or an output, or the last node of a program without outputs.
    fn expected_live(p: &Program, pos: usize) -> Vec<usize> {
        let read_later = |i| {
            p.ops[pos..].iter().any(|op| {
                let (a, b) = op.operands();
                a == i || b == Some(i)
            })
        };
        let last_of_unnamed = |i| p.outputs.is_empty() && i + 1 == p.num_nodes();
        let output = |i| p.outputs.iter().any(|o| o.node == i);
        (0..p.inputs + pos)
            .filter(|&i| read_later(i) || output(i) || last_of_unnamed(i))
            .collect()
    }

    fn output_bytes(outputs: Vec<(String, Ciphertext)>) -> Vec<(String, Vec<u8>)> {
        let bytes = |(name, ct): (String, Ciphertext)| (name, write_ciphertext(&ct));
        outputs.into_iter().map(bytes).collect()
    }

    /// At every position of a straight run, `live()` is exactly the
    /// expected live set; resuming from it ends on the straight run's
    /// output bytes; and resuming without one of its nodes, or past the
    /// end, is a typed `ProgramError::Resume`.
    #[test]
    fn stepper_live_sets_resume_bit_identically() {
        let env = OracleEnv::new(28).unwrap();
        let slots = env.slots();
        let programs = stepper_programs(&env);
        let small = programs.last().expect("the hand-written program");
        assert_eq!(expected_live(small, 0), [0, 1]);
        assert_eq!(expected_live(small, 1), [2]);
        assert_eq!(expected_live(small, 3), [4]);
        for program in &programs {
            for backend in [&env.bitpacker, &env.rns] {
                let case = format!(
                    "seed {} {} {:?}",
                    program.seed, backend.name, program.outputs
                );
                let ev = backend.ctx.evaluator_with_policy(EvalPolicy::Strict);
                let ek = &backend.keys.evaluation;
                let mut plain = |pseed: u64, n: usize| plain_values(pseed, n);
                let inputs = encrypt_inputs(backend, program, slots);
                let mut run = ProgramStepper::new(&ev, program, inputs, ek, &mut plain).unwrap();
                let mut snapshots = Vec::new();
                loop {
                    let live: Vec<(usize, Ciphertext)> =
                        run.live().map(|(i, ct)| (i, ct.clone())).collect();
                    let ids: Vec<usize> = live.iter().map(|&(i, _)| i).collect();
                    assert_eq!(
                        ids,
                        expected_live(program, run.pos()),
                        "{case} at {}",
                        run.pos()
                    );
                    snapshots.push(live);
                    if run.step().is_none() {
                        break;
                    }
                }
                let straight = output_bytes(run.into_outputs().expect("the run is done"));

                let ops = program.ops.len();
                let mut plain = |pseed: u64, n: usize| plain_values(pseed, n);
                for (pos, live) in snapshots.iter().enumerate() {
                    for dropped in 0..live.len() {
                        let mut partial = live.clone();
                        let (node, _) = partial.remove(dropped);
                        let err =
                            ProgramStepper::resume(&ev, program, pos, partial, ek, &mut plain)
                                .err()
                                .expect("a live node is missing");
                        let missing = Some(node);
                        assert!(
                            matches!(err, bp_ckks::ProgramError::Resume { pos: p, missing: m } if p == pos && m == missing),
                            "{case} at {pos} without node {node}: {err}"
                        );
                    }
                    let mut resumed =
                        ProgramStepper::resume(&ev, program, pos, live.clone(), ek, &mut plain)
                            .unwrap_or_else(|e| panic!("{case} at {pos}: {e}"));
                    while let Some(step) = resumed.step() {
                        step.unwrap_or_else(|e| panic!("{case} resumed at {pos}: {e}"));
                    }
                    let outputs = resumed.into_outputs().expect("the run is done");
                    assert_eq!(output_bytes(outputs), straight, "{case} resumed at {pos}");
                }
                let all = snapshots.last().expect("a snapshot per position").clone();
                let past = ProgramStepper::resume(&ev, program, ops + 1, all, ek, &mut plain);
                assert!(
                    matches!(past, Err(bp_ckks::ProgramError::Resume { pos, missing: None }) if pos == ops + 1),
                    "{case}: resuming past the end"
                );
            }
        }
    }
}
