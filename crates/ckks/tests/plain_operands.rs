//! A context stores the plaintext operands that programs run on it read,
//! in NTT form, keyed by level and by the bit patterns of their values.
//! A run after the first skips their encode and NTT, and no output byte
//! moves: a repeated run gives the first run's bytes, a source whose
//! values change is served the new values, the same values at two levels
//! are two operands, and two threads running on one context agree with
//! one. The NTT counters are process-wide, so this binary holds one test.

use bp_ckks::ir::{Op, Program, ProgramBuilder};
use bp_ckks::telemetry::counters::{self, Counter};
use bp_ckks::telemetry::profile;
use bp_ckks::wire::write_ciphertext;
use bp_ckks::{Ciphertext, CkksContext, CkksParams, KeySet, Representation, SecurityLevel};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

/// A fresh context with keys and an encrypted input, the same for the
/// same representation every time.
fn setup(repr: Representation) -> (CkksContext, KeySet, Vec<Ciphertext>) {
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
    let mut rng = ChaCha20Rng::seed_from_u64(26);
    let keys = ctx.keygen(&mut rng);
    let slots = ctx.params().slots();
    let vals: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.29).cos() * 0.4).collect();
    let input = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
    (ctx, keys, vec![input])
}

/// All three plaintext ops at the top level, then operand 3 again after
/// a rescale: the same values at a second level.
fn program() -> Program {
    let mut b = ProgramBuilder::new(28);
    let x = b.input();
    let ap = b.add_plain(x, 1);
    let sp = b.sub_plain(ap, 2);
    let mp = b.mul_plain(sp, 3);
    let low = b.rescale(mp);
    let again = b.mul_plain(low, 3);
    let out = b.rescale(again);
    b.output("out", out);
    b.finish()
}

/// Operand `pseed`'s values, shifted by `shift`.
fn values(pseed: u64, n: usize, shift: u64) -> Vec<f64> {
    (0..n)
        .map(|i| 0.05 + 0.03 * (pseed + shift) as f64 - 0.001 * i as f64)
        .collect()
}

/// Every node's wire bytes and the forward NTTs of one run.
fn run(ctx: &CkksContext, keys: &KeySet, inputs: &[Ciphertext], shift: u64) -> (Vec<Vec<u8>>, u64) {
    let mut plain = |pseed: u64, n: usize| values(pseed, n, shift);
    let before = counters::get(Counter::NttForward);
    let run = ctx
        .evaluator()
        .run_program(&program(), inputs.to_vec(), &keys.evaluation, &mut plain)
        .expect("program runs");
    let forward = counters::get(Counter::NttForward) - before;
    (run.nodes().iter().map(write_ciphertext).collect(), forward)
}

#[test]
fn stored_plaintext_operands_keep_every_byte() {
    bp_ckks::telemetry::set_enabled(true);
    let program = program();
    for repr in [Representation::BitPacker, Representation::RnsCkks] {
        let (ctx, keys, inputs) = setup(repr);

        // Repeat run: the same bytes, less one forward NTT per residue of
        // every plaintext operand, and no encode frame.
        let (first, first_ntts) = run(&ctx, &keys, &inputs, 0);
        profile::reset();
        let (second, second_ntts) = run(&ctx, &keys, &inputs, 0);
        assert_eq!(first, second, "{repr}: a repeated run moved a byte");
        let encodes = profile::snapshot().paths;
        assert!(
            encodes.iter().all(|p| !p.path.starts_with("encode_plain")),
            "{repr}: a warm run encoded an operand"
        );
        let node = |bytes: &[u8]| bp_ckks::wire::read_ciphertext(&ctx, bytes).expect("node");
        let plain_residues: u64 = program
            .ops
            .iter()
            .filter_map(|op| match *op {
                Op::AddPlain { a, .. } | Op::SubPlain { a, .. } | Op::MulPlain { a, .. } => {
                    Some(node(&first[a]).num_residues() as u64)
                }
                _ => None,
            })
            .sum();
        assert_eq!(second_ntts, first_ntts - plain_residues, "{repr}");

        // Changed values for the same pseeds: the bytes of a fresh
        // context's run on the new values.
        let (changed, _) = run(&ctx, &keys, &inputs, 10);
        let (fresh_ctx, fresh_keys, fresh_inputs) = setup(repr);
        let (fresh, _) = run(&fresh_ctx, &fresh_keys, &fresh_inputs, 10);
        assert_eq!(changed, fresh, "{repr}: changed values were not re-encoded");
        assert_ne!(changed, first, "{repr}: the shift must change the outputs");

        // The same values at two levels: each node is the public encode
        // at its level times the operand, with the plaintext in either
        // domain.
        let ev = ctx.evaluator();
        let slots = ctx.params().slots();
        for (id, op) in (program.inputs..).zip(&program.ops) {
            let Op::MulPlain { a, pseed } = *op else {
                continue;
            };
            let a = node(&first[a]);
            let mut pt = ctx.encode(&values(pseed, slots, 0), a.level());
            let coeff = ev.mul_plain(&a, &pt).expect("per-op mul_plain");
            pt.poly.to_ntt();
            let ntt = ev.mul_plain(&a, &pt).expect("per-op mul_plain");
            assert_eq!(write_ciphertext(&coeff), first[id], "{repr}: node {id}");
            assert_eq!(write_ciphertext(&ntt), first[id], "{repr}: node {id}");
        }

        // Two threads on one fresh context, started together: the
        // single-thread bytes, on their first run (racing misses) and
        // their second (hits).
        let (shared, shared_keys, shared_inputs) = setup(repr);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let once = run(&shared, &shared_keys, &shared_inputs, 0).0;
                        let twice = run(&shared, &shared_keys, &shared_inputs, 0).0;
                        (once, twice)
                    })
                })
                .collect();
            for handle in runs {
                let (once, twice) = handle.join().expect("thread runs");
                assert_eq!(once, first, "{repr}: a concurrent first run moved a byte");
                assert_eq!(twice, first, "{repr}: a concurrent second run moved a byte");
            }
        });
    }
}
