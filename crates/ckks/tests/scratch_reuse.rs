//! Program runs and the thread's scratch pool (`bp_rns::scratch`): a
//! keep-all `Evaluator::run_program` is served entirely by the buffers of
//! the previous run's dropped nodes, and a retiring `ProgramStepper`
//! releases the pool when it starts. The scratch counters are
//! process-wide, so this binary holds one test.

use std::sync::Arc;

use bp_ckks::ir::ProgramBuilder;
use bp_ckks::telemetry::counters::{self, Counter};
use bp_ckks::wire::write_ciphertext;
use bp_ckks::{
    BpThreadPool, CkksContext, CkksParams, ProgramStepper, Representation, SecurityLevel,
};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

#[test]
fn a_second_run_reuses_the_first_runs_nodes_and_a_retiring_run_releases_them() {
    bp_ckks::telemetry::set_enabled(true);
    let params = CkksParams::builder()
        .log_n(7)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(4, 26)
        .base_modulus_bits(30)
        .dnum(2)
        .build()
        .expect("params");
    // One thread, whatever BITPACKER_THREADS says: the pool is per thread.
    let ctx =
        CkksContext::with_threads(&params, Arc::new(BpThreadPool::sequential())).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(24);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1, 2], &mut rng);
    let ek = &keys.evaluation;

    // Every kind of buffer traffic: a relinearized square, a rescale, a
    // shared Galois operand, plaintext encodes and an adjust.
    let mut b = ProgramBuilder::new(28);
    let x = b.input();
    let sq = b.square(x);
    let low = b.rescale(sq);
    let r1 = b.rotate(low, 1);
    let r2 = b.rotate(low, 2);
    let sum = b.add(r1, r2);
    let shifted = b.add_plain(sum, 8);
    let weighted = b.mul_plain(shifted, 7);
    let rescaled = b.rescale(weighted);
    let down = b.adjust(rescaled, 1);
    b.output("y", down);
    let program = b.finish();

    let slots = ctx.params().slots();
    let vals: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.2).sin() / 2.0).collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
    let mut plain = |pseed: u64, n: usize| vec![pseed as f64 / 16.0; n];
    let ev = ctx.evaluator();

    let first = ev
        .run_program(&program, vec![ct.clone()], ek, &mut plain)
        .expect("first run");
    let want = write_ciphertext(first.output("y").expect("output y"));
    drop(first);

    counters::reset_all();
    let second = ev
        .run_program(&program, vec![ct.clone()], ek, &mut plain)
        .expect("second run");
    assert_eq!(
        counters::get(Counter::ScratchAllocs),
        0,
        "the second run allocates no residue buffer"
    );
    assert!(counters::get(Counter::ScratchReuses) > 0);
    assert_eq!(
        write_ciphertext(second.output("y").expect("output y")),
        want
    );
    drop(second);

    let mut stepper =
        ProgramStepper::new(&ev, &program, vec![ct], ek, &mut plain).expect("stepper starts");
    counters::reset_all();
    stepper.step().expect("an op").expect("square runs");
    assert!(
        counters::get(Counter::ScratchAllocs) > 0,
        "a retiring run starts from a released pool"
    );
}
