//! Supervised execution of IR programs with exact-position checkpoints.
//!
//! [`Runtime::run_program`] is the runtime's binding of the shared
//! program IR ([`bp_ir::Program`]): the job spec carries the program, the
//! interpreter dispatch is [`bp_ckks::Evaluator::step_op`] (the same
//! one `run_program` on the evaluator and the oracle's differential
//! harness use), and every checkpoint records the program's fingerprint,
//! an exact op position and the live node set — so resume means
//! "continue at `ops[pos]` of this program", not a per-workload step
//! convention. Ciphertexts travel through the `bp-ckks` wire format,
//! which preserves exact factored scales and chain positions; an
//! interrupted run therefore resumes **bit-identically**.
//!
//! Each attempt builds its own [`GaloisHoist`], through which the
//! rotations of one node share that node's keyswitch mod-up. Checkpoints
//! do not carry it: a resumed attempt starts with it empty and its first
//! Galois reader of a shared node recomputes the same bytes.

use crate::checkpoint::{fnv1a64, Checkpoint};
use crate::error::RuntimeError;
use crate::job::{terminal_for, JobSpec, Runtime};
use bp_ckks::{level_budget, Ciphertext, CkksContext, EvaluationKey, GaloisHoist};
use bp_ir::Program;
use std::sync::Mutex;

/// Where serialized checkpoints persist between attempts (and, for
/// durable implementations, across process restarts). `save` replaces
/// the previous snapshot — the store holds at most the latest one.
pub trait CheckpointStore {
    /// Persists the latest snapshot, replacing any previous one.
    fn save(&self, bytes: Vec<u8>);
    /// The latest snapshot, if one was saved.
    fn load(&self) -> Option<Vec<u8>>;
}

/// In-memory [`CheckpointStore`]: survives retries within a process.
/// Embedding services that persist to disk implement the trait over
/// their own storage and [`MemoryStore::prime`] is how tests model "the
/// process restarted and read the file back".
#[derive(Debug, Default)]
pub struct MemoryStore {
    inner: Mutex<Option<Vec<u8>>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-loads snapshot bytes (e.g. read from disk before submission).
    pub fn prime(&self, bytes: Vec<u8>) {
        *self.inner.lock().unwrap_or_else(|e| e.into_inner()) = Some(bytes);
    }

    /// A copy of the current snapshot, if any.
    pub fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl CheckpointStore for MemoryStore {
    fn save(&self, bytes: Vec<u8>) {
        *self.inner.lock().unwrap_or_else(|e| e.into_inner()) = Some(bytes);
    }

    fn load(&self) -> Option<Vec<u8>> {
        self.snapshot()
    }
}

/// Result of a supervised program run.
#[derive(Debug)]
pub struct ProgramOutcome {
    /// The program's declared outputs by name — or, when it declares
    /// none, the conventional result (`("result", last node)`).
    pub outputs: Vec<(String, Ciphertext)>,
    /// Op position the successful attempt resumed from, `None` when it
    /// started fresh.
    pub resumed_at: Option<u64>,
    /// Checkpoints written by the successful attempt.
    pub checkpoints: u64,
}

impl ProgramOutcome {
    /// The ciphertext bound to the named output, if present.
    pub fn output(&self, name: &str) -> Option<&Ciphertext> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ct)| ct)
    }
}

/// Slot name a node's ciphertext is checkpointed under.
fn slot_name(node: usize) -> String {
    format!("n{node}")
}

/// Decodes `bytes` and restores every node live at the recorded program
/// position. `None` (fall back to a fresh start) when the snapshot is
/// corrupt, from another workload or program, or fails ciphertext
/// validation against `ctx` — a bad checkpoint must never be worse than
/// no checkpoint.
fn try_resume(
    bytes: &[u8],
    workload: &str,
    fingerprint: u64,
    program: &Program,
    ctx: &CkksContext,
) -> Option<(usize, Vec<(usize, Ciphertext)>)> {
    let cp = Checkpoint::from_bytes(bytes).ok()?;
    if cp.workload() != workload || cp.fingerprint() != fingerprint {
        return None;
    }
    let pos = usize::try_from(cp.pos()).ok()?;
    if pos > program.ops.len() {
        return None;
    }
    let mut restored = Vec::new();
    for i in program.live_nodes(pos) {
        restored.push((i, cp.restore(ctx, &slot_name(i)).ok()?));
    }
    Some((pos, restored))
}

impl Runtime {
    /// Executes the spec's IR program under full supervision — deadline,
    /// panic isolation, retry, circuit breaker — checkpointing into
    /// `store` at the spec's cadence ([`JobSpec::checkpoint_every`]).
    /// Ops run under the Strict policy on `ctx`'s thread pool.
    ///
    /// Each attempt first tries to resume from the store's latest
    /// snapshot (one `store.load()` per attempt): live nodes are restored
    /// through the validated wire format and execution continues at the
    /// recorded op position, so a retry (or a new process primed with the
    /// same bytes) redoes only the ops after the last snapshot and the
    /// final outputs are bit-identical to an uninterrupted run. A snapshot
    /// that does not decode, belongs to another workload or program, or
    /// fails validation is ignored and the attempt starts fresh.
    ///
    /// # Errors
    /// [`RuntimeError::InvalidProgram`] when the spec carries no program,
    /// the program fails structural or level validation against `ctx`'s
    /// chain, or `inputs` does not match its input count; otherwise the
    /// job's terminal state: an evaluation error, deadline, cancellation,
    /// contained panic, exhausted retries, or an open circuit breaker.
    pub fn run_program(
        &self,
        spec: &JobSpec,
        ctx: &CkksContext,
        ek: &EvaluationKey,
        inputs: &[Ciphertext],
        plain: &dyn Fn(u64, usize) -> Vec<f64>,
        store: &dyn CheckpointStore,
    ) -> Result<ProgramOutcome, RuntimeError> {
        let program = spec
            .program
            .as_deref()
            .ok_or_else(|| RuntimeError::InvalidProgram {
                reason: "job spec carries no IR program".to_string(),
            })?;
        program
            .validate(&level_budget(ctx.chain()))
            .map_err(|e| RuntimeError::InvalidProgram {
                reason: e.to_string(),
            })?;
        if inputs.len() != program.inputs {
            return Err(RuntimeError::InvalidProgram {
                reason: format!(
                    "program declares {} input(s), {} supplied",
                    program.inputs,
                    inputs.len()
                ),
            });
        }

        let fingerprint = fnv1a64(program.to_json(None).as_bytes());
        let every = spec.checkpoint_every;
        self.supervise(spec, |token| {
            let ev = ctx.evaluator().with_cancel(token.clone());
            let mut nodes: Vec<Option<Ciphertext>> = vec![None; program.num_nodes()];
            for (slot, ct) in nodes.iter_mut().zip(inputs) {
                *slot = Some(ct.clone());
            }
            let mut start = 0usize;
            let mut resumed_at = None;
            if let Some(bytes) = store.load() {
                if let Some((pos, restored)) =
                    try_resume(&bytes, &spec.workload, fingerprint, program, ctx)
                {
                    for (i, ct) in restored {
                        nodes[i] = Some(ct);
                    }
                    start = pos;
                    resumed_at = Some(pos as u64);
                }
            }

            let mut plain_src = |pseed: u64, n: usize| plain(pseed, n);
            let mut hoist = GaloisHoist::new(program);
            let mut checkpoints = 0u64;
            for (k, op) in program.ops.iter().enumerate().skip(start) {
                token.check().map_err(terminal_for)?;
                let id = program.inputs + k;
                let operand = |i: usize| {
                    nodes[i]
                        .as_ref()
                        .expect("operands of a validated program are live")
                };
                let ct = ev.step_op(id, op, operand, ek, &mut plain_src, &mut hoist)?;
                nodes[id] = Some(ct);
                let pos = k + 1;
                if every > 0 && (pos % every == 0 || pos == program.ops.len()) {
                    let live = program.live_nodes(pos);
                    let slots: Vec<(String, &Ciphertext)> = live
                        .iter()
                        .filter_map(|&i| Some((slot_name(i), nodes[i].as_ref()?)))
                        .collect();
                    store.save(Checkpoint::encode(
                        &spec.workload,
                        fingerprint,
                        pos as u64,
                        &slots,
                    ));
                    checkpoints += 1;
                    // Bound memory to the live set the snapshot captured.
                    let mut keep = vec![false; program.inputs + pos];
                    for &i in &live {
                        keep[i] = true;
                    }
                    for (i, slot) in nodes.iter_mut().enumerate().take(program.inputs + pos) {
                        if !keep[i] {
                            *slot = None;
                        }
                    }
                }
            }

            let named = |node: usize, name: String| {
                let ct = nodes[node]
                    .clone()
                    .expect("outputs of a validated program are live at completion");
                (name, ct)
            };
            let outputs = if program.outputs.is_empty() {
                vec![named(program.num_nodes() - 1, "result".to_string())]
            } else {
                program
                    .outputs
                    .iter()
                    .map(|o| named(o.node, o.name.clone()))
                    .collect()
            };
            Ok(ProgramOutcome {
                outputs,
                resumed_at,
                checkpoints,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_ckks::wire::write_ciphertext;
    use bp_ckks::{BpThreadPool, CkksParams, KeySet, Representation, SecurityLevel};
    use bp_ir::ProgramBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use std::sync::Arc;

    fn ctx_and_keys() -> (CkksContext, KeySet) {
        let params = CkksParams::builder()
            .log_n(6)
            .word_bits(28)
            .representation(Representation::BitPacker)
            .security(SecurityLevel::Insecure)
            .levels(3, 30)
            .base_modulus_bits(35)
            .build()
            .expect("test params are valid");
        let ctx = CkksContext::with_threads(&params, Arc::new(BpThreadPool::sequential()))
            .expect("test context builds");
        let mut rng = ChaCha20Rng::seed_from_u64(99);
        let mut keys = ctx.keygen(&mut rng);
        ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);
        (ctx, keys)
    }

    /// weights → rescale → rotate-add → square → rescale: exercises
    /// plaintext streams, keyswitching ops, and level transitions. The
    /// weights are plaintext operand `pseed`.
    fn sample_program(pseed: u64) -> Arc<Program> {
        let mut b = ProgramBuilder::new(28);
        let x = b.input();
        let w = b.mul_plain(x, pseed);
        let r = b.rescale(w);
        let rot = b.rotate(r, 1);
        let s = b.add(r, rot);
        let sq = b.square(s);
        let out = b.rescale(sq);
        b.output("y", out);
        Arc::new(b.finish())
    }

    fn plain_table(pseed: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.25 + (pseed as f64) * 0.125 + i as f64 * 0.01)
            .collect()
    }

    /// Keeps every snapshot a run saves and never resumes.
    #[derive(Default)]
    struct History {
        all: Mutex<Vec<Vec<u8>>>,
    }

    impl CheckpointStore for History {
        fn save(&self, bytes: Vec<u8>) {
            self.all.lock().unwrap().push(bytes);
        }
        fn load(&self) -> Option<Vec<u8>> {
            None
        }
    }

    fn encrypted_input(ctx: &CkksContext, keys: &KeySet) -> Ciphertext {
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots)
            .map(|i| (i as f64 / slots as f64) - 0.4)
            .collect();
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng)
    }

    #[test]
    fn missing_program_and_bad_inputs_are_invalid_program_errors() {
        let (ctx, keys) = ctx_and_keys();
        let rt = Runtime::new();
        let store = MemoryStore::new();
        let no_program = JobSpec::new("p");
        let err = rt
            .run_program(
                &no_program,
                &ctx,
                &keys.evaluation,
                &[],
                &plain_table,
                &store,
            )
            .expect_err("spec without a program must be rejected");
        assert!(matches!(err, RuntimeError::InvalidProgram { .. }));

        let spec = JobSpec::new("p").program(sample_program(1));
        let err = rt
            .run_program(&spec, &ctx, &keys.evaluation, &[], &plain_table, &store)
            .expect_err("wrong input count must be rejected");
        match err {
            RuntimeError::InvalidProgram { reason } => {
                assert!(reason.contains("1 input"), "got: {reason}")
            }
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
    }

    #[test]
    fn run_writes_positioned_checkpoints_with_only_live_slots() {
        let (ctx, keys) = ctx_and_keys();
        let rt = Runtime::new();
        let program = sample_program(1);
        let spec = JobSpec::new("ckpt").program(program.clone());
        let store = MemoryStore::new();
        let input = encrypted_input(&ctx, &keys);
        let out = rt
            .run_program(
                &spec,
                &ctx,
                &keys.evaluation,
                &[input],
                &plain_table,
                &store,
            )
            .expect("program runs");
        assert_eq!(out.checkpoints, program.ops.len() as u64);
        assert!(out.resumed_at.is_none());
        assert!(out.output("y").is_some());
        // The final snapshot records the exact end position and exactly
        // the live node set (here: only the named output).
        let cp = Checkpoint::from_bytes(&store.snapshot().expect("snapshot saved"))
            .expect("snapshot decodes");
        assert_eq!(cp.pos(), program.ops.len() as u64);
        let slots: Vec<&str> = cp.slot_names().collect();
        assert_eq!(slots, vec!["n6"]);
        // And the stored bytes are the output's exact wire encoding.
        assert_eq!(
            cp.slot_bytes("n6"),
            Some(write_ciphertext(out.output("y").expect("output y")).as_slice())
        );
    }

    #[test]
    fn resume_from_mid_run_checkpoint_is_bit_identical() {
        let (ctx, keys) = ctx_and_keys();
        let rt = Runtime::new();
        let input = encrypted_input(&ctx, &keys);
        // Runs `program` under one shared workload key; returns where it
        // resumed and a digest of output y's wire bytes.
        let run = |program: Arc<Program>, store: &dyn CheckpointStore| {
            let out = rt
                .run_program(
                    &JobSpec::new("resume").program(program),
                    &ctx,
                    &keys.evaluation,
                    std::slice::from_ref(&input),
                    &plain_table,
                    store,
                )
                .expect("program runs");
            let y = write_ciphertext(out.output("y").expect("output y"));
            (out.resumed_at, fnv1a64(&y))
        };
        let primed = |bytes: &[u8]| {
            let store = MemoryStore::new();
            store.prime(bytes.to_vec());
            store
        };

        // Uninterrupted run: capture every intermediate snapshot.
        let history = History::default();
        let (_, straight) = run(sample_program(1), &history);
        let snapshots = history.all.into_inner().unwrap();
        assert_eq!(snapshots.len(), sample_program(1).ops.len());

        // "Kill" the job after op 3 and resume from that snapshot in a
        // store primed as if the process restarted: the remaining ops
        // re-execute and the output wire bytes are identical.
        assert_eq!(
            run(sample_program(1), &primed(&snapshots[2])),
            (Some(3), straight),
            "resume must be bit-identical to the uninterrupted run"
        );

        // A corrupt snapshot must fall back to a fresh start, not fail.
        let mut bad = snapshots[2].clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xA5;
        assert_eq!(run(sample_program(1), &primed(&bad)), (None, straight));

        // So must a snapshot of another program under the same workload
        // key, here one whose first op has another plaintext operand.
        let (_, fresh) = run(sample_program(2), &MemoryStore::new());
        assert_eq!(
            run(sample_program(2), &primed(&snapshots[0])),
            (None, fresh),
            "a snapshot of program A must not resume program B"
        );
    }
}
