//! Every trace record a supervised, checkpointed program run emits must
//! carry the IR node id of the op that produced it, so a recorded run
//! can be joined back onto its program.
//!
//! The telemetry recorder is process-global, so this file holds exactly
//! one test.

use bp_ckks::ir::ProgramBuilder;
use bp_ckks::telemetry::{self, trace};
use bp_ckks::{BpThreadPool, CkksContext, CkksParams, Representation, SecurityLevel};
use bp_runtime::{JobSpec, MemoryStore, Runtime};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

#[test]
fn checkpointed_run_stamps_every_record_with_its_node() {
    telemetry::set_enabled(true);
    if !telemetry::enabled() {
        return;
    }
    let params = CkksParams::builder()
        .log_n(6)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(3, 30)
        .base_modulus_bits(35)
        .build()
        .expect("params");
    let ctx =
        CkksContext::with_threads(&params, Arc::new(BpThreadPool::sequential())).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(3);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);

    // Covers a plaintext op, keyswitching ops, a rescale, and a two-level
    // adjust (two trace records for one node).
    let mut b = ProgramBuilder::new(28);
    let x = b.input();
    let w = b.mul_plain(x, 1);
    let r = b.rescale(w);
    let rot = b.rotate(r, 1);
    let s = b.add(r, rot);
    let sq = b.square(s);
    let low = b.rescale(sq);
    let x_low = b.adjust(x, 1);
    let out = b.add(low, x_low);
    b.output("y", out);
    let program = Arc::new(b.finish());

    let vals: Vec<f64> = (0..ctx.params().slots())
        .map(|i| i as f64 / 100.0)
        .collect();
    let input = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
    let plain = |pseed: u64, n: usize| vec![0.5 + pseed as f64 / 8.0; n];

    telemetry::reset();
    let outcome = Runtime::new()
        .run_program(
            &JobSpec::new("stamping").program(program.clone()),
            &ctx,
            &keys.evaluation,
            &[input],
            &plain,
            &MemoryStore::new(),
        )
        .expect("program runs");
    assert_eq!(outcome.checkpoints, program.ops.len() as u64);

    let entries = trace::take().entries;
    let mut nodes = Vec::new();
    for e in &entries {
        let node = e.op.ir_op.expect("record carries its IR node") as usize;
        let op = &program.ops[node - program.inputs];
        assert_eq!(
            e.op.kind,
            op.kind(),
            "record at node {node} has the wrong kind"
        );
        nodes.push(node);
    }
    // Each node appears, in program order; the adjust spans two levels.
    let mut expected: Vec<usize> = (program.inputs..program.num_nodes()).collect();
    expected.insert(
        expected
            .iter()
            .position(|&n| n == x_low)
            .expect("adjust node"),
        x_low,
    );
    assert_eq!(nodes, expected);
}
