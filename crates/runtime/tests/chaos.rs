//! Chaos harness: faults injected underneath supervised IR programs.
//!
//! Every job here runs through [`Runtime::run_program`]. The fault
//! classes: armed keyswitch and rescale failures in the evaluator
//! (`bp_ckks::fault`), panics raised by the caller's plaintext source, a
//! deadline that expires mid-program, and truncated or bit-flipped
//! checkpoint bytes. Invariants under test (the
//! acceptance bar of the fault-tolerant runtime):
//!
//! 1. **No panic escapes** the job boundary — every injected fault and
//!    every deliberate panic ends as a typed [`RuntimeError`].
//! 2. **Every job reaches exactly one terminal state** — success, a
//!    permanent typed error, `RetriesExhausted`, `JobPanicked`,
//!    `DeadlineExceeded`, or `CircuitOpen`.
//! 3. **Retried jobs are bit-identical** — a job that fails transiently
//!    and succeeds on retry produces the same wire bytes as a run that
//!    never faulted, also when the retry resumes from the failed
//!    attempt's checkpoint.
//!
//! The CKKS fault plan (`bp_ckks::fault`) is process-global, so every
//! case that arms it lives in ONE test function, executed sequentially;
//! the other tests run only ops that neither keyswitch nor rescale, so
//! they cannot consume an armed fault.

use bp_ckks::wire::write_ciphertext;
use bp_ckks::{
    fault as ckks_fault, BpThreadPool, Ciphertext, CkksContext, CkksParams, KeySet, Representation,
    SecurityLevel,
};
use bp_ir::{Program, ProgramBuilder};
use bp_runtime::{
    BreakerConfig, Checkpoint, CheckpointStore, JobSpec, MemoryStore, ProgramOutcome, RetryPolicy,
    Runtime, RuntimeError,
};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// A small BitPacker context, its keys, and one encrypted input.
struct Harness {
    ctx: CkksContext,
    keys: KeySet,
    input: Ciphertext,
}

impl Harness {
    fn new() -> Self {
        let params = CkksParams::builder()
            .log_n(6)
            .word_bits(28)
            .representation(Representation::BitPacker)
            .security(SecurityLevel::Insecure)
            .levels(3, 30)
            .base_modulus_bits(35)
            .build()
            .expect("chaos params are valid");
        let ctx = CkksContext::with_threads(&params, Arc::new(BpThreadPool::sequential()))
            .expect("chaos context builds");
        let mut rng = ChaCha20Rng::seed_from_u64(77);
        let mut keys = ctx.keygen(&mut rng);
        let pt = ctx.encode(&[0.5, -0.25, 0.125], ctx.max_level());
        let input = ctx.encrypt(&pt, &keys.public, &mut rng);
        ctx.gen_rotation_keys(&mut keys, &[1, 2], &mut rng);
        Self { ctx, keys, input }
    }

    fn run(
        &self,
        rt: &Runtime,
        spec: &JobSpec,
        plain: &dyn Fn(u64, usize) -> Vec<f64>,
        store: &dyn CheckpointStore,
    ) -> Result<ProgramOutcome, RuntimeError> {
        rt.run_program(
            spec,
            &self.ctx,
            &self.keys.evaluation,
            std::slice::from_ref(&self.input),
            plain,
            store,
        )
    }
}

/// A one-input program whose output `y` is the node `body` returns.
fn program(body: impl FnOnce(&mut ProgramBuilder, usize) -> usize) -> Arc<Program> {
    let mut b = ProgramBuilder::new(28);
    let x = b.input();
    let y = body(&mut b, x);
    b.output("y", y);
    Arc::new(b.finish())
}

fn halves(_pseed: u64, slots: usize) -> Vec<f64> {
    vec![0.5; slots]
}

fn y_bytes(out: &ProgramOutcome) -> Vec<u8> {
    write_ciphertext(out.output("y").expect("declared output y"))
}

fn fast_retry(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts: attempts,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
        jitter: true,
    }
}

/// A [`MemoryStore`] that counts `load()` calls: one per attempt.
#[derive(Default)]
struct CountingStore {
    inner: MemoryStore,
    loads: Cell<u32>,
}

impl CheckpointStore for CountingStore {
    fn save(&self, bytes: Vec<u8>) {
        self.inner.save(bytes);
    }

    fn load(&self) -> Option<Vec<u8>> {
        self.loads.set(self.loads.get() + 1);
        self.inner.load()
    }
}

/// Armed keyswitch and rescale faults. All cases share the
/// process-global fault plan, so they run here sequentially in one test
/// function.
#[test]
fn ckks_evaluator_faults_retry_bit_identically() {
    ckks_fault::disarm_all();
    let h = Harness::new();
    let rt = Runtime::new();
    // One keyswitch (the relinearization) and one rescale.
    let square = program(|b, x| {
        let sq = b.square(x);
        b.rescale(sq)
    });
    let clean = h
        .run(
            &rt,
            &JobSpec::new("chaos-clean").program(square.clone()),
            &halves,
            &MemoryStore::new(),
        )
        .expect("fault-free run");

    // Case A: keyswitch fault on the first attempt → transient error →
    // retried → bit-identical to the fault-free run.
    ckks_fault::arm(ckks_fault::FaultSite::KeySwitch, 0);
    let spec = JobSpec::new("chaos-ksk")
        .program(square.clone())
        .retry(fast_retry(3));
    let out = h
        .run(&rt, &spec, &halves, &MemoryStore::new())
        .expect("keyswitch fault must be retried to success");
    assert_eq!(
        y_bytes(&out),
        y_bytes(&clean),
        "retried result is identical"
    );
    assert_eq!(ckks_fault::armed_count(), 0, "fault was consumed");

    // Case B: the second of two rescales fails. The failed attempt has
    // checkpointed the ops before it, so the retry resumes at that
    // rescale instead of starting over — and still matches a fault-free
    // run byte for byte.
    let two_rescales = program(|b, x| {
        let m = b.mul_plain(x, 0);
        let r = b.rescale(m);
        let sq = b.square(r);
        b.rescale(sq)
    });
    let spec = JobSpec::new("chaos-rescale").program(two_rescales.clone());
    let clean_two = h
        .run(&rt, &spec, &halves, &MemoryStore::new())
        .expect("fault-free run");
    ckks_fault::arm(ckks_fault::FaultSite::Rescale, 1);
    let store = CountingStore::default();
    let out = h
        .run(&rt, &spec.retry(fast_retry(2)), &halves, &store)
        .expect("rescale fault must be retried to success");
    assert_eq!(out.resumed_at, Some(3), "resumed at the second rescale");
    assert_eq!(y_bytes(&out), y_bytes(&clean_two));
    assert_eq!(store.loads.get(), 2, "one load per attempt");

    // Case C: more faults than the retry budget → RetriesExhausted with
    // the last transient error preserved, never a panic.
    for _ in 0..4 {
        ckks_fault::arm(ckks_fault::FaultSite::KeySwitch, 0);
    }
    let spec = JobSpec::new("chaos-exhaust")
        .program(square.clone())
        .retry(fast_retry(2));
    match h.run(&rt, &spec, &halves, &MemoryStore::new()) {
        Err(RuntimeError::RetriesExhausted { attempts, last, .. }) => {
            assert_eq!(attempts, 2);
            assert!(last.is_transient(), "wrapped error keeps its class");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    ckks_fault::disarm_all();

    // Case D: repeated transient failures trip the workload's breaker;
    // other workloads keep running.
    let rt = Runtime::new().breaker_config(BreakerConfig {
        failure_threshold: 2,
        cooldown: Duration::from_secs(60),
    });
    let spec = JobSpec::new("chaos-sick")
        .program(square.clone())
        .retry(RetryPolicy::none());
    for _ in 0..2 {
        ckks_fault::arm(ckks_fault::FaultSite::KeySwitch, 0);
        let failed = h.run(&rt, &spec, &halves, &MemoryStore::new());
        assert!(failed.is_err(), "armed keyswitch fault fails the job");
    }
    let store = CountingStore::default();
    let rejected = h.run(&rt, &spec, &halves, &store);
    assert!(
        matches!(rejected, Err(RuntimeError::CircuitOpen { .. })),
        "breaker must fail-fast: {rejected:?}"
    );
    assert_eq!(store.loads.get(), 0, "rejected without running");
    let healthy = h.run(
        &rt,
        &JobSpec::new("chaos-healthy").program(square),
        &halves,
        &MemoryStore::new(),
    );
    assert!(healthy.is_ok(), "other workloads unaffected: {healthy:?}");

    // Case E: both rotations read x, so the first one mods x up for the
    // two of them. The second reader's keyswitch fails; the retry resumes
    // at that rotation with an empty cache, recomputes the mod-up, and
    // still matches a fault-free run byte for byte.
    let shared = program(|b, x| {
        let one = b.rotate(x, 1);
        let two = b.rotate(x, 2);
        b.add(one, two)
    });
    let spec = JobSpec::new("chaos-hoist").program(shared);
    let clean_shared = h
        .run(&rt, &spec, &halves, &MemoryStore::new())
        .expect("fault-free run");
    ckks_fault::arm(ckks_fault::FaultSite::KeySwitch, 1);
    let out = h
        .run(
            &rt,
            &spec.retry(fast_retry(2)),
            &halves,
            &MemoryStore::new(),
        )
        .expect("keyswitch fault must be retried to success");
    assert_eq!(out.resumed_at, Some(1), "resumed at the second rotation");
    assert_eq!(y_bytes(&out), y_bytes(&clean_shared));
    assert_eq!(ckks_fault::armed_count(), 0, "fault was consumed");
    ckks_fault::disarm_all();
}

/// Wire-layer faults through checkpoints: truncation and bit flips both
/// surface as typed errors, with the checksum catching silent flips.
#[test]
fn checkpoint_faults_are_typed_never_panic() {
    let h = Harness::new();
    let bytes = Checkpoint::encode("chaos-wire", 0, 1, &[("ct", &h.input)]);

    // Truncation at every length: typed error, no panic, no garbage.
    for keep in 0..bytes.len() {
        let mut cut = bytes.clone();
        cut.truncate(keep);
        assert!(Checkpoint::from_bytes(&cut).is_err(), "keep={keep}");
    }
    // A bit flip anywhere is caught (checksum or field validation).
    for pos in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << 3;
        assert!(Checkpoint::from_bytes(&bad).is_err(), "pos={pos}");
    }
    // The pristine bytes still decode and restore a valid ciphertext.
    let back = Checkpoint::from_bytes(&bytes).expect("pristine checkpoint decodes");
    let restored = back.restore(&h.ctx, "ct").expect("slot restores");
    assert_eq!(write_ciphertext(&restored), write_ciphertext(&h.input));
}

/// Panics raised by the caller's plaintext source are contained, typed,
/// and carry the workload and panic text.
#[test]
fn panics_never_escape_the_job_boundary() {
    let h = Harness::new();
    let rt = Runtime::new();
    let p = program(|b, x| b.add_plain(x, 0));
    for (workload, case, expected) in [
        ("chaos-panic-str", 0_u8, "static payload"),
        (
            "chaos-panic-string",
            1,
            "formatted payload chaos-panic-string",
        ),
        ("chaos-panic-index", 2, "index out of bounds"),
    ] {
        let plain = |_pseed: u64, slots: usize| -> Vec<f64> {
            match case {
                0 => panic!("static payload"),
                1 => panic!("formatted payload {workload}"),
                _ => {
                    // Out-of-bounds index: a panic the compiler cannot
                    // prove at build time.
                    let empty: [f64; 0] = [];
                    vec![empty[std::hint::black_box(slots)]; slots]
                }
            }
        };
        let spec = JobSpec::new(workload).program(p.clone());
        match h.run(&rt, &spec, &plain, &MemoryStore::new()) {
            Err(RuntimeError::JobPanicked {
                workload: w,
                message,
            }) => {
                assert_eq!(w, workload);
                assert!(message.contains(expected), "{workload}: {message}");
            }
            other => panic!("{workload}: expected JobPanicked, got {other:?}"),
        }
    }
}

/// A deadline that expires while the plaintext source sleeps mid-program
/// stops the job at the next op boundary with the canonical terminal
/// state; the ops before it were checkpointed.
#[test]
fn deadline_interrupts_a_program_cooperatively() {
    let h = Harness::new();
    let p = program(|b, x| {
        let a = b.add_plain(x, 0);
        let n = b.negate(a);
        let c = b.add_plain(n, 1);
        b.negate(c)
    });
    let plain = |pseed: u64, slots: usize| {
        if pseed == 1 {
            std::thread::sleep(Duration::from_millis(500));
        }
        vec![0.25; slots]
    };
    let spec = JobSpec::new("chaos-deadline")
        .program(p)
        .deadline(Duration::from_millis(250));
    let store = MemoryStore::new();
    let out = h.run(&Runtime::new(), &spec, &plain, &store);
    assert_eq!(out.err(), Some(RuntimeError::DeadlineExceeded));
    let bytes = store.snapshot().expect("ops before the sleep ran");
    let last = Checkpoint::from_bytes(&bytes).expect("snapshot decodes");
    assert_eq!(last.pos(), 2, "stopped at the op whose plaintext slept");
}
