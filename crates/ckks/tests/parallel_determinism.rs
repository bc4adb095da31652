//! Determinism across thread counts: the residue-parallel engine must be
//! *bit-identical* to sequential execution. Random programs of homomorphic
//! operations are run twice — once on a context with 1 worker, once with
//! 4 — from identical seeds, and every surviving ciphertext must serialize
//! to exactly the same wire bytes.

use bp_ckks::{
    BpThreadPool, Ciphertext, CkksContext, CkksParams, Evaluator, KeySet, Representation,
    SecurityLevel,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

fn ctx_with_pool(repr: Representation, pool: Arc<BpThreadPool>) -> CkksContext {
    let params = CkksParams::builder()
        .log_n(6)
        .word_bits(28)
        .representation(repr)
        .security(SecurityLevel::Insecure)
        .levels(3, 26)
        .base_modulus_bits(30)
        .dnum(2)
        .build()
        .expect("params");
    CkksContext::with_threads(&params, pool).expect("context")
}

fn ctx_with_workers(repr: Representation, workers: usize) -> CkksContext {
    ctx_with_pool(repr, Arc::new(BpThreadPool::new(workers)))
}

fn keys_for(ctx: &CkksContext, seed: u64) -> KeySet {
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1, 3], &mut rng);
    keys
}

/// Runs a flat byte program against one context and returns the wire
/// bytes of every live ciphertext. Fallible ops that error are skipped
/// deterministically (the same decision is reached at any worker count,
/// because errors depend only on levels/scales — which this test asserts
/// by comparing the full transcript).
fn run_program(ctx: &CkksContext, keys: &KeySet, program: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let ev: Evaluator = ctx.evaluator();
    let xs = vec![0.50, -0.25, 0.30, -0.40];
    let ys = vec![0.20, 0.60, -0.50, 0.10];
    let cx = ctx.encrypt(&ctx.encode(&xs, ctx.max_level()), &keys.public, &mut rng);
    let cy = ctx.encrypt(&ctx.encode(&ys, ctx.max_level()), &keys.public, &mut rng);
    let mut live: Vec<Ciphertext> = vec![cx, cy];
    let mut outcomes: Vec<Vec<u8>> = Vec::new();

    for step in program.chunks_exact(3) {
        let (op_sel, li, ri) = (step[0], step[1], step[2]);
        let l = li as usize % live.len();
        let r = ri as usize % live.len();
        let result = match op_sel % 8 {
            0 => ev.add(&live[l], &live[r]),
            1 => ev.sub(&live[l], &live[r]),
            2 => ev.mul(&live[l], &live[r], &keys.evaluation),
            3 => ev.square(&live[l], &keys.evaluation),
            4 => ev.rotate(&live[l], if ri % 2 == 0 { 1 } else { 3 }, &keys.evaluation),
            5 => ev.negate(&live[l]),
            6 => ev.rescale(&live[l]),
            _ => {
                let target = live[l].level().saturating_sub(1);
                ev.adjust_to(&live[l], target)
            }
        };
        match result {
            Ok(ct) => {
                outcomes.push(bp_ckks::wire::write_ciphertext(&ct));
                live.push(ct);
                // Bound memory: keep the newest few ciphertexts.
                if live.len() > 4 {
                    live.remove(0);
                }
            }
            // Strict-mode misalignment or level exhaustion: the *same*
            // decision must fall out at every worker count, which the
            // transcript comparison below verifies structurally (a skip on
            // one side but not the other shifts every later entry).
            Err(_) => outcomes.push(Vec::new()),
        }
    }
    for ct in &live {
        outcomes.push(bp_ckks::wire::write_ciphertext(ct));
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Every worker count must produce byte-identical ciphertexts on
    // random op sequences, for both representations. 1 worker is the
    // sequential reference; 2/4/8 exercise increasingly oversubscribed
    // fan-outs (chunk plans depend only on the worker count, never on
    // scheduling, so the transcripts must agree exactly).
    #[test]
    fn parallel_execution_is_bit_identical(
        program in proptest::collection::vec(0u8..255, 3..24),
        seed in 0u64..1_000,
    ) {
        for repr in [Representation::BitPacker, Representation::RnsCkks] {
            let seq = ctx_with_workers(repr, 1);
            let seq_keys = keys_for(&seq, seed);
            let reference = run_program(&seq, &seq_keys, &program, seed ^ 0xBEEF);
            for workers in [2usize, 4, 8] {
                let par = ctx_with_workers(repr, workers);
                let par_keys = keys_for(&par, seed);
                let b = run_program(&par, &par_keys, &program, seed ^ 0xBEEF);
                prop_assert_eq!(
                    &reference, &b,
                    "wire bytes diverged for {:?} at {} workers", repr, workers
                );
            }
        }
    }

    // The adaptive sequential cutoff must be invisible in the output: a
    // pool that inlines everything (huge min-work threshold) and a pool
    // that fans out everything (zero threshold) produce identical bytes.
    #[test]
    fn adaptive_cutoff_is_bit_identical(
        program in proptest::collection::vec(0u8..255, 3..12),
        seed in 0u64..1_000,
    ) {
        let repr = Representation::BitPacker;
        let inline_all = ctx_with_pool(repr, Arc::new(BpThreadPool::with_min_work(4, u64::MAX)));
        let fanout_all = ctx_with_pool(repr, Arc::new(BpThreadPool::with_min_work(4, 0)));
        let ik = keys_for(&inline_all, seed);
        let fk = keys_for(&fanout_all, seed);
        let a = run_program(&inline_all, &ik, &program, seed ^ 0xF00D);
        let b = run_program(&fanout_all, &fk, &program, seed ^ 0xF00D);
        prop_assert_eq!(a, b, "inline vs fan-out transcripts diverged");
    }
}

/// Spot check without proptest shrink overhead: a fixed deep pipeline
/// (mul → rescale → rotate → square) is bit-identical at 1 vs 4 workers.
#[test]
fn fixed_pipeline_is_bit_identical_across_worker_counts() {
    for repr in [Representation::BitPacker, Representation::RnsCkks] {
        let mut transcripts: Vec<Vec<Vec<u8>>> = Vec::new();
        for workers in [1usize, 4] {
            let ctx = ctx_with_workers(repr, workers);
            let keys = keys_for(&ctx, 42);
            let mut rng = ChaCha20Rng::seed_from_u64(7);
            let vals = vec![0.5, -0.25, 0.125, 0.75];
            let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
            let ev = ctx.evaluator();
            let prod = ev.mul(&ct, &ct, &keys.evaluation).expect("mul");
            let res = ev.rescale(&prod).expect("rescale");
            let rot = ev.rotate(&res, 1, &keys.evaluation).expect("rotate");
            let sq = ev.square(&rot, &keys.evaluation).expect("square");
            // The lazy-reduction NTT must leave every residue canonically
            // reduced; validate() runs check_reduced on both polynomials.
            for c in [&ct, &prod, &res, &rot, &sq] {
                c.validate(&ctx).expect("fully reduced & well-formed");
            }
            transcripts.push(
                [&ct, &prod, &res, &rot, &sq]
                    .iter()
                    .map(|c| bp_ckks::wire::write_ciphertext(c))
                    .collect(),
            );
        }
        assert_eq!(transcripts[0], transcripts[1], "diverged for {repr:?}");
    }
}

/// Cancellation fired mid-program must not perturb work already done:
/// ops completed before the token fires are bit-identical to the
/// uncancelled run at every worker count, and every op after the fire
/// fails uniformly (no worker count lets one extra op "slip through").
#[test]
fn cancellation_mid_program_preserves_completed_work() {
    use bp_ckks::CancelToken;

    let repr = Representation::BitPacker;
    // Uncancelled single-worker reference.
    let reference: Vec<Vec<u8>> = {
        let ctx = ctx_with_workers(repr, 1);
        let keys = keys_for(&ctx, 11);
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let vals = vec![0.5, -0.25, 0.125, 0.75];
        let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
        let ev = ctx.evaluator();
        let prod = ev.mul(&ct, &ct, &keys.evaluation).expect("mul");
        let res = ev.rescale(&prod).expect("rescale");
        [&ct, &prod, &res]
            .iter()
            .map(|c| bp_ckks::wire::write_ciphertext(c))
            .collect()
    };

    for workers in [1usize, 2, 4, 8] {
        let ctx = ctx_with_workers(repr, workers);
        let keys = keys_for(&ctx, 11);
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let vals = vec![0.5, -0.25, 0.125, 0.75];
        let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
        let token = CancelToken::new();
        let ev = ctx.evaluator().with_cancel(token.clone());
        let prod = ev
            .mul(&ct, &ct, &keys.evaluation)
            .expect("mul before cancel");
        let res = ev.rescale(&prod).expect("rescale before cancel");
        token.cancel();
        // Every subsequent op observes the token at its checkpoint.
        assert!(
            ev.square(&res, &keys.evaluation).is_err(),
            "post-cancel op must fail"
        );
        assert!(
            ev.rotate(&res, 1, &keys.evaluation).is_err(),
            "post-cancel op must fail"
        );
        let got: Vec<Vec<u8>> = [&ct, &prod, &res]
            .iter()
            .map(|c| bp_ckks::wire::write_ciphertext(c))
            .collect();
        assert_eq!(
            reference, got,
            "pre-cancel transcript diverged at {workers} workers"
        );
    }
}

/// A panic propagated out of the persistent pool must leave it reusable:
/// the same pool instance then drives a full homomorphic pipeline whose
/// wire bytes match a fresh, never-panicked pool.
#[test]
fn pool_reused_after_panic_is_bit_identical() {
    let repr = Representation::BitPacker;
    let poisoned = Arc::new(BpThreadPool::new(4));

    // Drive a panic through the fan-out path and catch the propagation.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        poisoned.par_map(64, u64::MAX, |i| {
            if i == 17 {
                panic!("injected fault");
            }
        });
    }));
    std::panic::set_hook(hook);
    assert!(
        caught.is_err(),
        "panic must propagate to the dispatching caller"
    );

    let mut transcripts: Vec<Vec<Vec<u8>>> = Vec::new();
    for pool in [poisoned, Arc::new(BpThreadPool::new(4))] {
        let ctx = ctx_with_pool(repr, pool);
        let keys = keys_for(&ctx, 99);
        let mut rng = ChaCha20Rng::seed_from_u64(13);
        let vals = vec![0.5, -0.25, 0.125, 0.75];
        let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
        let ev = ctx.evaluator();
        let prod = ev.mul(&ct, &ct, &keys.evaluation).expect("mul");
        let res = ev.rescale(&prod).expect("rescale");
        let rot = ev.rotate(&res, 1, &keys.evaluation).expect("rotate");
        transcripts.push(
            [&ct, &prod, &res, &rot]
                .iter()
                .map(|c| bp_ckks::wire::write_ciphertext(c))
                .collect(),
        );
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "post-panic pool transcript diverged from a fresh pool"
    );
}
