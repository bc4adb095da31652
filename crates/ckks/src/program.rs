//! Backend-agnostic interpreter for [`bp_ir::Program`] DAGs.
//!
//! The IR fixes the *structure* of a computation — which ops, over which
//! nodes, with which symbolic level annotations — while this module fixes
//! its *execution*: every [`bp_ir::Op`] maps onto exactly one public
//! [`Evaluator`] method, so the same program runs unchanged under either
//! [`Representation`](crate::Representation) and either
//! [`EvalPolicy`](crate::EvalPolicy). The one departure is keyswitch
//! hoisting: `Rotate` and `Conjugate` ops that read the same node share
//! that node's mod-up ([`GaloisHoist`]) instead of each redoing it, and
//! produce the bytes the public methods would. Plaintext operands are not
//! stored in the program; they are named by a `pseed` and materialised on
//! demand through a [`PlainSource`], which keeps the wire format free of
//! bulk data and makes replay deterministic.
//!
//! Trace integration: while a program runs, the evaluator stamps the
//! current IR node id into every telemetry [`OpRecord`](bp_telemetry::trace::OpRecord)
//! (field `ir_op`), including the repair ops an AutoAlign evaluator
//! inserts — so a recorded trace can be joined back onto the program that
//! produced it without string matching.

use crate::chain::ModulusChain;
use crate::ciphertext::Ciphertext;
use crate::error::EvalError;
use crate::eval::{DigitExtensions, Evaluator, GaloisReader};
use crate::keys::EvaluationKey;
use bp_ir::{LevelBudget, Op, Program};
use bp_rns::RnsPoly;
use std::collections::HashMap;
use std::fmt;

/// Supplies plaintext operand values for `*_plain` IR ops.
///
/// The IR names plaintext operands by a 64-bit `pseed`; the source turns
/// that seed into `slots` slot values. Any `FnMut(u64, usize) -> Vec<f64>`
/// closure is a `PlainSource` via the blanket impl, so callers can back it
/// with a PRNG (the oracle), a weight table (workloads), or a constant.
pub trait PlainSource {
    /// Returns the slot values for the plaintext operand named `pseed`.
    fn values(&mut self, pseed: u64, slots: usize) -> Vec<f64>;
}

impl<F: FnMut(u64, usize) -> Vec<f64>> PlainSource for F {
    fn values(&mut self, pseed: u64, slots: usize) -> Vec<f64> {
        self(pseed, slots)
    }
}

/// Why [`Evaluator::run_program`] refused or aborted a program.
#[derive(Debug)]
pub enum ProgramError {
    /// The program failed its structural well-formedness check (cycle,
    /// forward reference, bad output) before any op ran.
    Malformed(bp_ir::IrError),
    /// The caller supplied the wrong number of input ciphertexts.
    InputCount {
        /// Inputs the program declares.
        expected: usize,
        /// Ciphertexts the caller passed.
        got: usize,
    },
    /// An op failed during execution.
    Eval {
        /// The program node (input-offset index) that failed.
        node: usize,
        /// The evaluator error it failed with.
        error: EvalError,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Malformed(e) => write!(f, "malformed program: {e}"),
            ProgramError::InputCount { expected, got } => {
                write!(f, "program expects {expected} input ciphertexts, got {got}")
            }
            ProgramError::Eval { node, error } => {
                write!(f, "program node {node} failed: {error}")
            }
        }
    }
}

impl std::error::Error for ProgramError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProgramError::Malformed(e) => Some(e),
            ProgramError::Eval { error, .. } => Some(error),
            ProgramError::InputCount { .. } => None,
        }
    }
}

/// The completed state of a program run: one ciphertext per node
/// (inputs first, then one per op, in program order).
#[derive(Debug, Clone)]
pub struct ProgramRun {
    nodes: Vec<Ciphertext>,
    outputs: Vec<bp_ir::Output>,
}

impl ProgramRun {
    /// All node ciphertexts, inputs included, in node-index order.
    pub fn nodes(&self) -> &[Ciphertext] {
        &self.nodes
    }

    /// The ciphertext at node index `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn node(&self, i: usize) -> &Ciphertext {
        &self.nodes[i]
    }

    /// The ciphertext bound to the named output, if the program declares
    /// one.
    pub fn output(&self, name: &str) -> Option<&Ciphertext> {
        self.outputs
            .iter()
            .find(|o| o.name == name)
            .map(|o| &self.nodes[o.node])
    }

    /// The program's result by convention: its first declared output, or
    /// the last node when the program declares none (the legacy oracle
    /// shape).
    pub fn result(&self) -> &Ciphertext {
        match self.outputs.first() {
            Some(o) => &self.nodes[o.node],
            None => self.nodes.last().expect("programs have at least one input"),
        }
    }

    /// Consumes the run, returning every node ciphertext.
    pub fn into_nodes(self) -> Vec<Ciphertext> {
        self.nodes
    }
}

/// Per-run state of the program path's hoisted Galois keyswitches.
///
/// A node read by two or more `Rotate`/`Conjugate` ops has its `c1`
/// decomposed and modded up once, by its first Galois reader; every
/// reader gathers the cached digit extensions by its own Galois element
/// and runs its own inner product and mod-down, and the entry is dropped
/// when the node's last Galois reader has run. A node with one Galois
/// reader runs the same code as [`Evaluator::rotate`]. Either way the
/// output bytes are those of the per-op call.
///
/// Build one from the program at the start of every run and pass it to
/// each [`Evaluator::step_op`] of that run, so no other program or run
/// reads an entry. Nothing of it is checkpointed: a run resumed part way
/// starts with an empty cache, its first reader of a shared node
/// recomputes the mod-up, and the entry is still dropped at the node's
/// last reader.
#[derive(Debug)]
pub struct GaloisHoist {
    /// Per node: its number of Galois readers and the node id of the last
    /// one.
    readers: Vec<(u32, usize)>,
    /// Digit extensions of shared nodes' `c1`, by node id.
    cache: HashMap<usize, Option<DigitExtensions>>,
}

impl GaloisHoist {
    /// Counts the Galois readers of every node of `program`.
    pub fn new(program: &Program) -> Self {
        let mut readers = vec![(0, 0); program.num_nodes()];
        for (k, op) in program.ops.iter().enumerate() {
            if let Op::Rotate { a, .. } | Op::Conjugate { a } = *op {
                if let Some((count, last)) = readers.get_mut(a) {
                    *count += 1;
                    *last = program.inputs + k;
                }
            }
        }
        Self {
            readers,
            cache: HashMap::new(),
        }
    }

    /// How a Galois op reads node `a`: shared when the node has two or
    /// more Galois readers.
    fn reader(&mut self, a: usize) -> GaloisReader<'_> {
        match self.readers.get(a) {
            Some(&(count, _)) if count >= 2 => {
                GaloisReader::Shared(self.cache.entry(a).or_default())
            }
            _ => GaloisReader::Lone,
        }
    }

    /// Drops node `a`'s cached extensions once node `id`, its last Galois
    /// reader, has run.
    fn retire(&mut self, a: usize, id: usize) {
        if self.readers.get(a).is_some_and(|&(_, last)| last == id) {
            if let Some(exts) = self.cache.remove(&a).flatten() {
                exts.into_iter().flatten().for_each(RnsPoly::into_scratch);
            }
        }
    }
}

/// Extra scale headroom (bits) a multiply needs beyond `2·log2(S_l)` at a
/// level before the level counts as multiply-capable. Mirrors the margin
/// the generator's symbolic walk assumes.
const MUL_HEADROOM_BITS: f64 = 3.0;

/// Derives the [`LevelBudget`] a chain supports: its top level, and the
/// lowest level at which a `mul`/`square` result (scale `S_l²`) still fits
/// the level's modulus with [`MUL_HEADROOM_BITS`] to spare, or
/// `max_level + 1` when no level does. Programs validated against this
/// budget execute on the chain without capacity exhaustion.
pub fn level_budget(chain: &ModulusChain) -> LevelBudget {
    let max_level = chain.max_level();
    // Capacity grows monotonically with the level, so a threshold
    // suffices; combining chains is `max` over their budgets.
    let fits =
        |l: usize| chain.log_q_at(l) - 1.0 >= 2.0 * chain.scale_at(l).log2() + MUL_HEADROOM_BITS;
    let min_mul_level = (0..=max_level).find(|&l| fits(l)).unwrap_or(max_level + 1);
    LevelBudget {
        max_level,
        min_mul_level,
    }
}

impl Evaluator<'_> {
    /// Executes one IR op — the one computing node `id` — against
    /// already-computed node ciphertexts, stamping `id` into every trace
    /// record the op emits (auto-align repairs included).
    ///
    /// `node` resolves an IR node id (inputs first) to its ciphertext; the
    /// op's operands must already be present. A lookup function rather
    /// than a slice so callers with sparse storage — the runtime resuming
    /// from a checkpoint holds only the live nodes — execute through the
    /// same dispatch as dense callers (`|i| &nodes[i]`). Plaintext
    /// operands are drawn from `plain` and encoded at the ciphertext
    /// operand's level, at that level's chain scale.
    ///
    /// Every op runs its public [`Evaluator`] method's body, except that a
    /// `Rotate` or `Conjugate` of a node with several Galois readers
    /// shares that node's mod-up through `hoist`, the run's
    /// [`GaloisHoist`], with the same output bytes.
    ///
    /// # Errors
    /// Whatever the underlying evaluator op returns ([`EvalError`]).
    ///
    /// # Panics
    /// Whatever `node` does on a missing id — run ops in program order
    /// (or use [`Evaluator::run_program`], which checks shape up front).
    pub fn step_op<'n>(
        &self,
        id: usize,
        op: &Op,
        node: impl Fn(usize) -> &'n Ciphertext,
        ek: &EvaluationKey,
        plain: &mut dyn PlainSource,
        hoist: &mut GaloisHoist,
    ) -> Result<Ciphertext, EvalError> {
        let ctx = self.context();
        let slots = ctx.params().slots();
        let mut encode_for = |a: &Ciphertext, pseed: u64| {
            let vals = plain.values(pseed, slots);
            ctx.encode(&vals, a.level())
        };
        self.ir_op.set(Some(id as u64));
        let result = match *op {
            Op::Add { a, b } => self.add(node(a), node(b)),
            Op::Sub { a, b } => self.sub(node(a), node(b)),
            Op::Negate { a } => self.negate(node(a)),
            Op::AddPlain { a, pseed } => {
                let pt = encode_for(node(a), pseed);
                self.add_plain(node(a), &pt)
            }
            Op::SubPlain { a, pseed } => {
                let pt = encode_for(node(a), pseed);
                self.sub_plain(node(a), &pt)
            }
            Op::MulPlain { a, pseed } => {
                let pt = encode_for(node(a), pseed);
                self.mul_plain(node(a), &pt)
            }
            Op::Mul { a, b } => self.mul(node(a), node(b), ek),
            Op::Square { a } => self.square(node(a), ek),
            Op::Rotate { a, steps } => self.rotate_as(node(a), steps, ek, hoist.reader(a)),
            Op::Conjugate { a } => self.conjugate_as(node(a), ek, hoist.reader(a)),
            Op::Rescale { a } => self.rescale(node(a)),
            Op::Adjust { a, target } => self.adjust_to(node(a), target),
        };
        self.ir_op.set(None);
        if let Op::Rotate { a, .. } | Op::Conjugate { a } = *op {
            hoist.retire(a, id);
        }
        result
    }

    /// Interprets a whole [`Program`]: checks its shape, then executes
    /// every op in order, stamping each op's IR node id into the telemetry
    /// trace. Works identically under Strict and AutoAlign policies and
    /// under both representations — the program is the backend-agnostic
    /// artifact, this method is the backend binding.
    ///
    /// # Errors
    /// [`ProgramError::Malformed`] before execution if the program's DAG
    /// is ill-shaped; [`ProgramError::InputCount`] if `inputs` does not
    /// match the program's declared input count; [`ProgramError::Eval`]
    /// (with the failing node) if any op fails.
    pub fn run_program(
        &self,
        program: &Program,
        inputs: Vec<Ciphertext>,
        ek: &EvaluationKey,
        plain: &mut dyn PlainSource,
    ) -> Result<ProgramRun, ProgramError> {
        program.check_shape().map_err(ProgramError::Malformed)?;
        if inputs.len() != program.inputs {
            return Err(ProgramError::InputCount {
                expected: program.inputs,
                got: inputs.len(),
            });
        }
        let mut nodes = inputs;
        nodes.reserve(program.ops.len());
        let mut hoist = GaloisHoist::new(program);
        for (k, op) in program.ops.iter().enumerate() {
            let node = program.inputs + k;
            let result = self.step_op(node, op, |i| &nodes[i], ek, plain, &mut hoist);
            nodes.push(result.map_err(|error| ProgramError::Eval { node, error })?);
        }
        Ok(ProgramRun {
            nodes,
            outputs: program.outputs.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::params::{CkksParams, Representation};
    use crate::security::SecurityLevel;
    use crate::wire::write_ciphertext;
    use bp_ir::{IrError, ProgramBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn chain(repr: Representation, levels: usize) -> ModulusChain {
        let params = CkksParams::builder()
            .log_n(6)
            .word_bits(28)
            .representation(repr)
            .security(SecurityLevel::Insecure)
            .levels(levels, 40)
            .base_modulus_bits(20)
            .build()
            .expect("params");
        ModulusChain::new(&params).expect("chain")
    }

    fn square_then_rescale() -> Program {
        let mut b = ProgramBuilder::new(28);
        let x = b.input();
        let sq = b.square(x);
        let y = b.rescale(sq);
        b.output("y", y);
        b.finish()
    }

    #[test]
    fn no_multiply_validates_on_a_chain_without_room_for_one() {
        for repr in [Representation::BitPacker, Representation::RnsCkks] {
            // log2 Q at the top level is about 60 bits against a 40-bit
            // scale: a squared scale wraps at every level.
            let budget = level_budget(&chain(repr, 1));
            assert_eq!(budget.min_mul_level, budget.max_level + 1, "{repr:?}");
            match square_then_rescale().validate(&budget) {
                Err(IrError::Invalid { node, .. }) => assert_eq!(node, 1, "{repr:?}"),
                other => panic!("{repr:?}: square must be rejected, got {other:?}"),
            }
            // One more level gives the top level room for the product.
            let budget = level_budget(&chain(repr, 2));
            assert!(budget.min_mul_level <= budget.max_level, "{repr:?}");
            square_then_rescale()
                .validate(&budget)
                .unwrap_or_else(|e| panic!("{repr:?}: {e}"));
        }
    }

    /// Every Galois reader of a shared node gives the bytes of the per-op
    /// call on the same operand: for each generated key step and the
    /// conjugation, under both representations, at the top level and two
    /// lower ones, with the top-level operand in NTT form and in
    /// coefficient form.
    #[test]
    fn hoisted_galois_ops_match_per_op_bytes() {
        const STEPS: [i64; 5] = [1, 2, 3, 7, -1];
        for repr in [Representation::BitPacker, Representation::RnsCkks] {
            let params = CkksParams::builder()
                .log_n(7)
                .word_bits(28)
                .representation(repr)
                .security(SecurityLevel::Insecure)
                .levels(4, 26)
                .base_modulus_bits(30)
                .dnum(2)
                .build()
                .expect("params");
            let ctx = CkksContext::new(&params).expect("context");
            let mut rng = ChaCha20Rng::seed_from_u64(41);
            let mut keys = ctx.keygen(&mut rng);
            ctx.gen_rotation_keys(&mut keys, &STEPS, &mut rng);
            ctx.gen_conjugation_key(&mut keys, &mut rng);
            let ek = &keys.evaluation;

            // x is read at the top level; y feeds a rescaled and an
            // adjusted node, each read by every Galois op too.
            let mut b = ProgramBuilder::new(28);
            let x = b.input();
            let y = b.input();
            let weighted = b.mul_plain(y, 0);
            let rescaled = b.rescale(weighted);
            let adjusted = b.adjust(y, 1);
            let mut readers = Vec::new();
            for a in [x, rescaled, adjusted] {
                for steps in STEPS {
                    readers.push((b.rotate(a, steps), a, Some(steps)));
                }
                readers.push((b.conjugate(a), a, None));
            }
            let program = b.finish();

            let slots = ctx.params().slots();
            let mut encrypt = |phase: f64| {
                let vals: Vec<f64> = (0..slots)
                    .map(|i| (i as f64 * 0.3 + phase).cos() / 2.0)
                    .collect();
                ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng)
            };
            let (x_ntt, y_ct) = (encrypt(0.0), encrypt(1.0));
            let mut x_coeff = x_ntt.clone();
            x_coeff.c0.to_coeff();
            x_coeff.c1.to_coeff();
            assert_eq!(write_ciphertext(&x_coeff)[5], 0, "wire domain tag");

            let ev = ctx.evaluator();
            for (form, x_ct) in [("ntt", x_ntt), ("coeff", x_coeff)] {
                let mut plain = |_: u64, n: usize| vec![0.5; n];
                let run = ev
                    .run_program(&program, vec![x_ct, y_ct.clone()], ek, &mut plain)
                    .expect("program runs");
                for &(id, a, steps) in &readers {
                    let per_op = match steps {
                        Some(steps) => ev.rotate(run.node(a), steps, ek),
                        None => ev.conjugate(run.node(a), ek),
                    }
                    .expect("per-op Galois op");
                    assert_eq!(
                        write_ciphertext(run.node(id)),
                        write_ciphertext(&per_op),
                        "{repr} {form}: node {id} reads node {a} with steps {steps:?}"
                    );
                }
            }
        }
    }
}
