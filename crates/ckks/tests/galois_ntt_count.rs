//! Rotation and conjugation cost exactly the NTTs of one keyswitch, and
//! rotations of one program node share one mod-up.
//!
//! The Galois automorphism is a permutation of NTT slots, so `rotate` and
//! `conjugate` must issue the same forward/inverse NTT counts as a `mul`
//! at the same level: every NTT they run belongs to the keyswitch. In a
//! program, the rotations of a node with several Galois readers mod up
//! its `c1` once and each runs only its own inner product and mod-down.
//!
//! Telemetry counters are process-global, so this file holds exactly one
//! test.

use bp_ckks::ir::ProgramBuilder;
use bp_ckks::telemetry::counters::{self, Counter};
use bp_ckks::{BpThreadPool, CkksContext, CkksParams, Representation, SecurityLevel};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

/// `(ntt_forward, ntt_inverse)` issued while `op` runs.
fn ntt_delta(op: impl FnOnce()) -> (u64, u64) {
    let counts = || {
        (
            counters::get(Counter::NttForward),
            counters::get(Counter::NttInverse),
        )
    };
    let before = counts();
    op();
    let after = counts();
    (after.0 - before.0, after.1 - before.1)
}

/// `(ntt_forward, ntt_inverse, basis_conversions, keyswitches)` issued
/// while `op` runs.
fn keyswitch_delta(op: impl FnOnce()) -> (u64, u64, u64, u64) {
    let conversions = counters::get(Counter::BasisConversions);
    let keyswitches = counters::get(Counter::KeySwitches);
    let (forward, inverse) = ntt_delta(op);
    (
        forward,
        inverse,
        counters::get(Counter::BasisConversions) - conversions,
        counters::get(Counter::KeySwitches) - keyswitches,
    )
}

#[test]
fn rotate_and_conjugate_issue_the_ntts_of_one_mul() {
    bp_ckks::telemetry::set_enabled(true);
    // The matvec-bp benchmark workload's parameters at a small ring
    // degree: the counts depend only on the residue counts and dnum.
    let params = CkksParams::builder()
        .log_n(7)
        .word_bits(61)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(8, 35)
        .base_modulus_bits(50)
        .dnum(3)
        .build()
        .expect("params");
    let ctx =
        CkksContext::with_threads(&params, Arc::new(BpThreadPool::sequential())).expect("context");
    let top = ctx.max_level();
    let chain = ctx.chain();
    // R, K and dnum at the top level.
    let shape = (
        chain.residue_count_at(top),
        chain.special().len(),
        chain.dnum(),
    );
    assert_eq!(shape, (6, 3, 3));

    let mut rng = ChaCha20Rng::seed_from_u64(9);
    let mut keys = ctx.keygen(&mut rng);
    let steps: Vec<i64> = (1..=8).collect();
    ctx.gen_rotation_keys(&mut keys, &steps, &mut rng);
    ctx.gen_conjugation_key(&mut keys, &mut rng);
    let vals: Vec<f64> = (0..ctx.params().slots())
        .map(|i| (i as f64 * 0.7).sin() / 2.0)
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, top), &keys.public, &mut rng);
    let ev = ctx.evaluator();
    let ek = &keys.evaluation;

    let mul = ntt_delta(|| {
        ev.mul(&ct, &ct, ek).expect("mul");
    });
    let rotate = ntt_delta(|| {
        ev.rotate(&ct, 1, ek).expect("rotate");
    });
    let conjugate = ntt_delta(|| {
        ev.conjugate(&ct, ek).expect("conjugate");
    });
    // One keyswitch with all three digits active: the digit extensions
    // run R inverse and 3(R + K) − R forward NTTs, and the mod-down of
    // both accumulators 2K inverse and 2R forward.
    assert_eq!(mul, (33, 12));
    assert_eq!(rotate, mul, "rotate");
    assert_eq!(conjugate, mul, "conjugate");

    // Eight rotations of one top-level node. Per op, each runs the whole
    // keyswitch: 8 × (33, 12) NTTs and 8 × 5 conversions. In a program
    // they share one mod-up (21 forward, 6 inverse, 3 conversions) and
    // each runs its own mod-down (12 forward, 6 inverse, 2 conversions).
    let per_op = keyswitch_delta(|| {
        for &k in &steps {
            ev.rotate(&ct, k, ek).expect("rotate");
        }
    });
    assert_eq!(per_op, (264, 96, 40, 8), "per-op rotations");
    let mut b = ProgramBuilder::new(61);
    let x = b.input();
    for &k in &steps {
        b.rotate(x, k);
    }
    let program = b.finish();
    let mut no_plain = |_: u64, _: usize| -> Vec<f64> { unreachable!("no plaintext operands") };
    let hoisted = keyswitch_delta(|| {
        ev.run_program(&program, vec![ct.clone()], ek, &mut no_plain)
            .expect("program runs");
    });
    assert_eq!(hoisted, (117, 54, 19, 8), "hoisted rotations");
}
