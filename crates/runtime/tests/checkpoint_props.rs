//! Property test for the checkpoint/resume contract: for ANY op program,
//! ANY split point, and ANY seed, running the program straight through
//! produces the same wire bytes as running a prefix, checkpointing
//! (through a full serialize → deserialize → validate cycle), restoring,
//! and running the suffix — at 1 worker and at 4 workers, and identically
//! across the two worker counts (the `bp-par` determinism contract
//! extends through the checkpoint path).

use bp_ckks::wire::write_ciphertext;
use bp_ckks::{
    BpThreadPool, Ciphertext, CkksContext, CkksParams, KeySet, Representation, SecurityLevel,
};
use bp_runtime::Checkpoint;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

fn ctx_with_workers(workers: usize) -> CkksContext {
    let params = CkksParams::builder()
        .log_n(6)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(3, 30)
        .base_modulus_bits(35)
        .build()
        .expect("params");
    let pool = if workers <= 1 {
        BpThreadPool::sequential()
    } else {
        BpThreadPool::new(workers)
    };
    CkksContext::with_threads(&params, Arc::new(pool)).expect("context")
}

/// Applies one program byte to the running ciphertext. Every byte is a
/// valid op; depth-consuming ops degrade to depth-free ones at the chain
/// floor so arbitrary programs never error.
fn apply(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext, op: u8) -> Ciphertext {
    let ev = ctx.evaluator();
    match op % 4 {
        0 => ev.negate(ct).expect("negate"),
        1 => ev.add(ct, ct).expect("add self"),
        2 if ct.level() > 0 => {
            let sq = ev.square(ct, &keys.evaluation).expect("square");
            ev.rescale(&sq).expect("rescale")
        }
        2 => ev.negate(ct).expect("negate at floor"),
        _ => {
            let p = ctx.encode_at_scale(&[0.125, -0.5], ct.level(), ct.scale().clone());
            ev.add_plain(ct, &p).expect("add_plain")
        }
    }
}

/// Runs `program` to completion two ways — straight, and split at
/// `split` with a checkpoint round-trip in the middle — and returns both
/// final wire-byte serializations.
fn straight_vs_resumed(
    workers: usize,
    program: &[u8],
    split: usize,
    seed: u64,
) -> (Vec<u8>, Vec<u8>) {
    let ctx = ctx_with_workers(workers);
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let keys = ctx.keygen(&mut rng);
    let fresh = ctx.encrypt(
        &ctx.encode(&[0.5, -0.25, 0.125], ctx.max_level()),
        &keys.public,
        &mut rng,
    );

    // Straight run.
    let mut straight = fresh.clone();
    for &op in program {
        straight = apply(&ctx, &keys, &straight, op);
    }

    // Prefix, checkpoint through bytes, restore, suffix.
    let split = split.min(program.len());
    let mut state = fresh;
    for &op in &program[..split] {
        state = apply(&ctx, &keys, &state, op);
    }
    let bytes = Checkpoint::encode("props", 0, split as u64, &[("state", &state)]);
    let decoded = Checkpoint::from_bytes(&bytes).expect("checkpoint round-trip");
    assert_eq!(decoded.pos(), split as u64);
    let mut resumed = decoded.restore(&ctx, "state").expect("restore validates");
    for &op in &program[split..] {
        resumed = apply(&ctx, &keys, &resumed, op);
    }

    (write_ciphertext(&straight), write_ciphertext(&resumed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn resume_is_bit_identical_at_1_and_4_workers(
        program in proptest::collection::vec(0u8..255, 1..10),
        split in 0usize..10,
        seed in 0u64..500,
    ) {
        let (straight_1, resumed_1) = straight_vs_resumed(1, &program, split, seed);
        prop_assert_eq!(
            &straight_1, &resumed_1,
            "1 worker: resume must be bit-identical"
        );
        let (straight_4, resumed_4) = straight_vs_resumed(4, &program, split, seed);
        prop_assert_eq!(
            &straight_4, &resumed_4,
            "4 workers: resume must be bit-identical"
        );
        prop_assert_eq!(
            &straight_1, &straight_4,
            "results must not depend on worker count"
        );
    }
}
