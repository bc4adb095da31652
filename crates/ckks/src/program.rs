//! Backend-agnostic interpreter for [`bp_ir::Program`] DAGs.
//!
//! The IR fixes the *structure* of a computation — which ops, over which
//! nodes, with which symbolic level annotations — while this module fixes
//! its *execution*: every [`bp_ir::Op`] maps onto exactly one public
//! [`Evaluator`] method, so the same program runs unchanged under either
//! [`Representation`](crate::Representation) and either
//! [`EvalPolicy`](crate::EvalPolicy). [`ProgramStepper`] is the one loop
//! that runs a program. Its one departure is keyswitch hoisting: `Rotate`
//! and `Conjugate` ops that read the same node share that node's mod-up
//! instead of each redoing it. They run the public methods' one Galois
//! body, which switches the un-permuted `c1`, so they produce the bytes
//! the public methods would. Plaintext operands are not stored in the
//! program; they are named by a `pseed` and materialised on demand
//! through a [`PlainSource`], which keeps the wire format free of bulk
//! data and makes replay deterministic. The context keeps each operand it
//! encoded, in NTT form, so a later run that reads the same values at the
//! same level skips their encode and NTT.
//!
//! Trace integration: while a program runs, the evaluator stamps the
//! current IR node id into every telemetry [`OpRecord`](bp_telemetry::trace::OpRecord)
//! (field `ir_op`), including the repair ops an AutoAlign evaluator
//! inserts — so a recorded trace can be joined back onto the program that
//! produced it without string matching.

use crate::chain::ModulusChain;
use crate::ciphertext::Ciphertext;
use crate::error::EvalError;
use crate::eval::{DigitExtensions, Evaluator};
use crate::keys::EvaluationKey;
use bp_ir::{LevelBudget, Op, Program};
use std::fmt;

/// Supplies plaintext operand values for `*_plain` IR ops.
///
/// The IR names plaintext operands by a 64-bit `pseed`; the source turns
/// that seed into `slots` slot values. Any `FnMut(u64, usize) -> Vec<f64>`
/// closure is a `PlainSource` via the blanket impl, so callers can back it
/// with a PRNG (the oracle), a weight table (workloads), or a constant.
///
/// A run asks the source once for every plaintext op, in program order,
/// and the values it returns are the operand: the `pseed` names it only
/// to the source. A source may return other values for the same `pseed`
/// in a later run, and that run reads the new values. The context keeps
/// the operands it encoded, keyed by level and by the values' exact bit
/// patterns, so an operand whose values and level repeat is not encoded
/// again; the bytes are the same either way.
pub trait PlainSource {
    /// Returns the slot values for the plaintext operand named `pseed`.
    fn values(&mut self, pseed: u64, slots: usize) -> Vec<f64>;
}

impl<F: FnMut(u64, usize) -> Vec<f64>> PlainSource for F {
    fn values(&mut self, pseed: u64, slots: usize) -> Vec<f64> {
        self(pseed, slots)
    }
}

/// Why [`Evaluator::run_program`] or a [`ProgramStepper`] refused or
/// aborted a program.
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
    /// A run cannot continue at op position `pos`: the position is past
    /// the program's last op, or a node live there was not supplied.
    Resume {
        /// The op position asked for.
        pos: usize,
        /// The first node live at `pos` that was not supplied; `None`
        /// when `pos` is past the last op.
        missing: Option<usize>,
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
            ProgramError::Resume { pos, missing } => match missing {
                Some(node) => write!(f, "cannot resume at op {pos}: live node {node} is missing"),
                None => write!(f, "cannot resume at op {pos}: past the program's last op"),
            },
        }
    }
}

impl std::error::Error for ProgramError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProgramError::Malformed(e) => Some(e),
            ProgramError::Eval { error, .. } => Some(error),
            ProgramError::InputCount { .. } | ProgramError::Resume { .. } => None,
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

/// Extra scale headroom (bits) a multiply needs beyond `2·log2(S_l)` at a
/// level before the level counts as multiply-capable. Mirrors the margin
/// the generator's symbolic walk assumes.
const MUL_HEADROOM_BITS: f64 = 3.0;

/// Derives the [`LevelBudget`] a chain supports: its top level, and the
/// lowest level at which a `mul`/`square` result (scale `S_l²`) still fits
/// the level's modulus with `MUL_HEADROOM_BITS` (3) to spare, or
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
    /// Interprets a whole [`Program`] through a [`ProgramStepper`] that
    /// keeps every node, since [`ProgramRun`] returns them all. Such a
    /// run does not release the thread's scratch pool when it starts, so
    /// it reuses the buffers of the previous run's dropped nodes. Works
    /// identically under Strict and AutoAlign policies and under both
    /// representations — the program is the backend-agnostic artifact,
    /// this method is the backend binding.
    ///
    /// # Errors
    /// [`ProgramError::InputCount`] if `inputs` does not match the
    /// program's declared input count; [`ProgramError::Malformed`] before
    /// execution if the program's DAG is ill-shaped;
    /// [`ProgramError::Eval`] (with the failing node) if any op fails.
    pub fn run_program(
        &self,
        program: &Program,
        inputs: Vec<Ciphertext>,
        ek: &EvaluationKey,
        plain: &mut dyn PlainSource,
    ) -> Result<ProgramRun, ProgramError> {
        let mut run = ProgramStepper::start(self, program, inputs, ek, plain, false)?;
        while let Some(step) = run.step() {
            if let Err(error) = step {
                let node = program.inputs + run.pos;
                return Err(ProgramError::Eval { node, error });
            }
        }
        Ok(ProgramRun {
            nodes: run.nodes.into_iter().flatten().collect(),
            outputs: program.outputs.clone(),
        })
    }
}

/// Runs a [`Program`] one op at a time, stamping each op's node id into
/// every trace record it emits (auto-align repairs included) and encoding
/// its plaintext operand at the ciphertext operand's level.
///
/// A plaintext op asks the [`PlainSource`] for its values, then takes the
/// operand in NTT form from its context's store: on a miss the operand is
/// encoded and transformed once, in the `encode_plain` profiler frame,
/// and stored; on a hit neither runs. The store is shared by every run on
/// the context (each later `run_program` call, runtime attempt or
/// stepper), holds no lock while the source or the encoder runs, and
/// moves no output byte.
///
/// One table per run of who reads each node decides three things. A node
/// read by two or more `Rotate`/`Conjugate` ops has its `c1` modded up
/// once, by its first Galois reader, and each reader takes its inner
/// product over the cached digit extensions with its own Galois key; a
/// Galois key is stored permuted, so only the reader's result is
/// permuted. A node with one Galois reader streams its digit extensions,
/// as a public call does. After a node's last reader it is dropped, which
/// gives its buffers back to the scratch pool, unless it is an output or
/// the last node of a program without outputs. And it gives the live set
/// that a checkpoint holds, without the hoisting cache: a resumed run
/// recomputes a shared mod-up, with the same bytes.
///
/// A stepper built by [`ProgramStepper::new`] or
/// [`ProgramStepper::resume`] retires nodes that way, and releases the
/// thread's scratch pool when it starts (see [`bp_rns::scratch`]): its
/// live set refills the pool within a few ops, and buffers an earlier
/// keep-all run left pooled would otherwise sit beside this run's
/// checkpoint streams.
pub struct ProgramStepper<'r> {
    ev: &'r Evaluator<'r>,
    program: &'r Program,
    ek: &'r EvaluationKey,
    plain: &'r mut dyn PlainSource,
    /// By node id: its ciphertext (`None` before it is computed and once
    /// it is retired), the last op node that reads it (itself when none
    /// does, `usize::MAX` when the run keeps it), and how many
    /// `Rotate`/`Conjugate` ops read it and the last of those.
    nodes: Vec<Option<Ciphertext>>,
    last: Vec<usize>,
    galois: Vec<(u32, usize)>,
    /// Digit extensions of shared Galois operands' `c1`, by node id.
    hoisted: Vec<Option<DigitExtensions>>,
    /// Ops run so far.
    pos: usize,
    /// Off only in [`Evaluator::run_program`].
    retire: bool,
}

impl<'r> ProgramStepper<'r> {
    /// Starts a run of `program` on `inputs`.
    ///
    /// # Errors
    /// [`ProgramError::InputCount`] or [`ProgramError::Malformed`].
    pub fn new(
        ev: &'r Evaluator<'r>,
        program: &'r Program,
        inputs: Vec<Ciphertext>,
        ek: &'r EvaluationKey,
        plain: &'r mut dyn PlainSource,
    ) -> Result<Self, ProgramError> {
        Self::start(ev, program, inputs, ek, plain, true)
    }

    /// [`ProgramStepper::new`], retiring nodes or keeping every one.
    fn start(
        ev: &'r Evaluator<'r>,
        program: &'r Program,
        inputs: Vec<Ciphertext>,
        ek: &'r EvaluationKey,
        plain: &'r mut dyn PlainSource,
        retire: bool,
    ) -> Result<Self, ProgramError> {
        if inputs.len() != program.inputs {
            return Err(ProgramError::InputCount {
                expected: program.inputs,
                got: inputs.len(),
            });
        }
        let live = inputs.into_iter().enumerate();
        Self::resume_as(ev, program, 0, live, ek, plain, retire)
    }

    /// Continues a run of `program` with `ops[..pos]` done, from the nodes
    /// live there by node id, as [`ProgramStepper::live`] lists them.
    ///
    /// # Errors
    /// [`ProgramError::Malformed`]; [`ProgramError::Resume`] when `pos` is
    /// past the last op or a node live there is missing from `live`.
    pub fn resume(
        ev: &'r Evaluator<'r>,
        program: &'r Program,
        pos: usize,
        live: impl IntoIterator<Item = (usize, Ciphertext)>,
        ek: &'r EvaluationKey,
        plain: &'r mut dyn PlainSource,
    ) -> Result<Self, ProgramError> {
        Self::resume_as(ev, program, pos, live, ek, plain, true)
    }

    /// [`ProgramStepper::resume`], retiring nodes or keeping every one. A
    /// retiring run releases the thread's scratch pool once it can start.
    fn resume_as(
        ev: &'r Evaluator<'r>,
        program: &'r Program,
        pos: usize,
        live: impl IntoIterator<Item = (usize, Ciphertext)>,
        ek: &'r EvaluationKey,
        plain: &'r mut dyn PlainSource,
        retire: bool,
    ) -> Result<Self, ProgramError> {
        program.check_shape().map_err(ProgramError::Malformed)?;
        if pos > program.ops.len() {
            return Err(ProgramError::Resume { pos, missing: None });
        }
        let mut last: Vec<usize> = (0..program.num_nodes()).collect();
        let mut galois = vec![(0, 0); program.num_nodes()];
        for (id, op) in (program.inputs..).zip(&program.ops) {
            let (a, b) = op.operands();
            for i in [Some(a), b].into_iter().flatten() {
                last[i] = id;
            }
            if let Op::Rotate { a, .. } | Op::Conjugate { a } = *op {
                galois[a] = (galois[a].0 + 1, id);
            }
        }
        let last_node = program.outputs.is_empty().then(|| program.num_nodes() - 1);
        for i in program.outputs.iter().map(|o| o.node).chain(last_node) {
            last[i] = usize::MAX;
        }
        let computed = program.inputs + pos;
        let mut nodes = vec![None; program.num_nodes()];
        for (i, ct) in live.into_iter().filter(|&(i, _)| i < computed) {
            nodes[i] = Some(ct);
        }
        if let Some(i) = (0..computed).find(|&i| last[i] >= computed && nodes[i].is_none()) {
            let missing = Some(i);
            return Err(ProgramError::Resume { pos, missing });
        }
        if retire {
            bp_rns::scratch::release();
        }
        Ok(Self {
            ev,
            program,
            ek,
            plain,
            nodes,
            last,
            galois,
            hoisted: vec![None; program.num_nodes()],
            pos,
            retire,
        })
    }

    /// Ops run so far: a checkpoint taken now resumes at this position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The computed nodes a later op reads, plus the outputs computed so
    /// far (for a program without outputs, its last node after the last
    /// op), by ascending node id: what a checkpoint at
    /// [`ProgramStepper::pos`] holds.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Ciphertext)> + '_ {
        let (computed, last) = (self.program.inputs + self.pos, &self.last);
        self.nodes[..computed]
            .iter()
            .enumerate()
            .filter(move |&(i, _)| last[i] >= computed)
            .filter_map(|(i, ct)| Some((i, ct.as_ref()?)))
    }

    /// Runs the next op and lends out its node; `None` once every op has
    /// run. Every earlier node that no later op reads is then dropped,
    /// which gives its buffers back to the scratch pool, unless the run
    /// keeps it; so is a shared mod-up after its last Galois reader.
    ///
    /// # Errors
    /// The op's [`EvalError`]; the failed op stays next.
    pub fn step(&mut self) -> Option<Result<&Ciphertext, EvalError>> {
        let op = *self.program.ops.get(self.pos)?;
        let id = self.program.inputs + self.pos;
        self.ev.ir_op.set(Some(id as u64));
        let result = self.dispatch(op);
        self.ev.ir_op.set(None);
        match result {
            Ok(ct) => self.nodes[id] = Some(ct),
            Err(e) => return Some(Err(e)),
        }
        self.pos += 1;
        if let Op::Rotate { a, .. } | Op::Conjugate { a } = op {
            if self.galois[a].1 == id {
                self.hoisted[a] = None;
            }
        }
        for i in (0..id).filter(|&i| self.retire && self.last[i] <= id) {
            self.nodes[i] = None;
        }
        self.nodes[id].as_ref().map(Ok)
    }

    /// Computes `op`'s node from its operands.
    fn dispatch(&mut self, op: Op) -> Result<Ciphertext, EvalError> {
        let (ev, ek, nodes, plain) = (self.ev, self.ek, &self.nodes, &mut self.plain);
        let node = |i: usize| nodes[i].as_ref().expect("an operand is live");
        let ctx = ev.context();
        let mut plain_for = |a: &Ciphertext, pseed: u64| {
            ctx.plain_operand(&plain.values(pseed, ctx.params().slots()), a.level())
        };
        let cache = match op {
            Op::Rotate { a, .. } | Op::Conjugate { a } if self.galois[a].0 >= 2 => {
                Some(&mut self.hoisted[a])
            }
            _ => None,
        };
        match op {
            Op::Add { a, b } => ev.add(node(a), node(b)),
            Op::Sub { a, b } => ev.sub(node(a), node(b)),
            Op::Negate { a } => ev.negate(node(a)),
            Op::AddPlain { a, pseed } => ev.add_plain(node(a), &plain_for(node(a), pseed)),
            Op::SubPlain { a, pseed } => ev.sub_plain(node(a), &plain_for(node(a), pseed)),
            Op::MulPlain { a, pseed } => ev.mul_plain(node(a), &plain_for(node(a), pseed)),
            Op::Mul { a, b } => ev.mul(node(a), node(b), ek),
            Op::Square { a } => ev.square(node(a), ek),
            Op::Rotate { a, steps } => ev.galois(node(a), Some(steps), ek, cache),
            Op::Conjugate { a } => ev.galois(node(a), None, ek, cache),
            Op::Rescale { a } => ev.rescale(node(a)),
            Op::Adjust { a, target } => ev.adjust_to(node(a), target),
        }
    }

    /// The run's result after its last op: the declared outputs by name,
    /// or the last node as `"result"` when the program declares none;
    /// `None` before the last op has run.
    pub fn into_outputs(self) -> Option<Vec<(String, Ciphertext)>> {
        let program = self.program;
        if self.pos < program.ops.len() {
            return None;
        }
        let result = ("result", program.num_nodes() - 1);
        let last = program.outputs.is_empty().then_some(result);
        let named = program.outputs.iter().map(|o| (o.name.as_str(), o.node));
        let output = |(name, i): (&str, usize)| Some((name.to_string(), self.nodes[i].clone()?));
        named.chain(last).map(output).collect()
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
    /// coefficient form. A retiring stepper lends `run_program`'s bytes
    /// at every node, holds only its live nodes and the one it lent, and
    /// drops every shared mod-up by the end, with and without an output.
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
            let _unread = b.input();
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
                let inputs = vec![x_ct, y_ct.clone(), y_ct.clone()];
                let run = ev
                    .run_program(&program, inputs.clone(), ek, &mut plain)
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
                let output = bp_ir::Output {
                    name: "r".into(),
                    node: rescaled,
                };
                for outputs in [vec![], vec![output]] {
                    let program = Program {
                        outputs,
                        ..program.clone()
                    };
                    let mut stepper =
                        ProgramStepper::new(&ev, &program, inputs.clone(), ek, &mut plain)
                            .expect("stepper starts");
                    loop {
                        let id = program.inputs + stepper.pos;
                        let Some(step) = stepper.step() else { break };
                        let lent = write_ciphertext(step.expect("op runs"));
                        assert_eq!(lent, write_ciphertext(run.node(id)), "{repr} {form} {id}");
                        let held = stepper
                            .nodes
                            .iter()
                            .enumerate()
                            .filter(|(_, n)| n.is_some());
                        let held: Vec<usize> = held.map(|(i, _)| i).collect();
                        let mut want: Vec<usize> = stepper.live().map(|(i, _)| i).collect();
                        if want.last() != Some(&id) {
                            want.push(id);
                        }
                        assert_eq!(held, want, "{repr} {form}: held after node {id}");
                    }
                    assert!(stepper.hoisted.iter().all(Option::is_none), "{repr} {form}");
                }
            }
        }
    }
}
