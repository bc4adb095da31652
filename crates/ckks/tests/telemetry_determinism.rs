//! Worker-count invariance of the deterministic telemetry counters.
//!
//! For a fixed op program, every counter classified deterministic
//! (NTT/elementwise/basis/keyswitch/rescale/adjust/eval-op counts — not
//! the pool-utilization gauges) and the full recorded op sequence must be
//! bit-identical whether the thread pool runs 1 worker or 4. At both
//! worker counts the span rows must count exactly what their kernel
//! counters count, including spans closed on pool worker threads.
//!
//! Telemetry state is process-global, so this file holds exactly one test
//! (integration tests get their own process; `#[test]` fns within one
//! file would race).

use bp_ckks::telemetry::counters::{self, Counter};
use bp_ckks::telemetry::spans::{self, SpanKind};
use bp_ckks::telemetry::{self, trace};
use bp_ckks::{BpThreadPool, CkksContext, CkksParams, Representation, SecurityLevel};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

fn run_program(threads: usize) -> (Vec<(Counter, u64)>, Vec<String>) {
    let params = CkksParams::builder()
        .log_n(10)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(3, 40)
        .base_modulus_bits(50)
        .build()
        .expect("params");
    let ctx =
        CkksContext::with_threads(&params, Arc::new(BpThreadPool::new(threads))).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);
    let vals: Vec<f64> = (0..ctx.params().slots())
        .map(|i| (i as f64).cos() / 3.0)
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);

    // Count only the op program itself, not setup.
    telemetry::reset();
    trace::set_meta(ctx.telemetry_meta("determinism"));
    let ev = ctx.evaluator();
    let prod = ev.mul(&ct, &ct, &keys.evaluation).expect("mul");
    let rot = ev.rotate(&prod, 1, &keys.evaluation).expect("rotate");
    let sum = ev.add(&prod, &rot).expect("add");
    let low = ev.rescale(&sum).expect("rescale");
    let adjusted = ev.adjust_to(&ct, low.level()).expect("adjust");
    let _ = ev.sub(&low, &adjusted);

    let snap = counters::deterministic_snapshot();
    let rows = spans::stats();
    for (kind, counter) in [
        (SpanKind::NttForward, Counter::NttForward),
        (SpanKind::NttInverse, Counter::NttInverse),
        (SpanKind::BasisConvert, Counter::BasisConversions),
        (SpanKind::KeySwitch, Counter::KeySwitches),
        (SpanKind::EvalOp, Counter::EvalOps),
    ] {
        let row = rows.iter().find(|s| s.kind == kind).expect("every kind");
        assert_eq!(
            row.count,
            counters::get(counter),
            "{threads} worker(s): span row {} disagrees with counter {}",
            kind.name(),
            counter.name()
        );
    }
    let ops: Vec<String> = trace::take()
        .entries
        .iter()
        .map(|e| {
            format!(
                "{}:{} l{} r{} s{} a{}",
                e.seq,
                e.op.kind.name(),
                e.op.level,
                e.op.residues,
                e.op.shed,
                e.op.added
            )
        })
        .collect();
    telemetry::reset();
    (snap, ops)
}

#[test]
fn deterministic_counters_and_op_sequence_are_worker_count_invariant() {
    telemetry::set_enabled(true);
    let (seq1, ops1) = run_program(1);
    let (seq4, ops4) = run_program(4);

    // Nonzero: the program exercised every deterministic counter class
    // that the pipeline touches.
    let get = |snap: &[(Counter, u64)], c: Counter| {
        snap.iter()
            .find(|(k, _)| *k == c)
            .map(|&(_, v)| v)
            .expect("present")
    };
    for c in [
        Counter::NttForward,
        Counter::NttInverse,
        Counter::ElemwiseOps,
        Counter::BasisConversions,
        Counter::KeySwitches,
        Counter::Rescales,
        Counter::Adjusts,
        Counter::EvalOps,
    ] {
        assert!(get(&seq1, c) > 0, "{} should be nonzero", c.name());
    }
    // The sub at the end ran 6 public ops plus the adjust trace entry.
    assert_eq!(get(&seq1, Counter::EvalOps), ops1.len() as u64);

    // Bit-identical across worker counts.
    assert_eq!(
        seq1, seq4,
        "deterministic counters diverged across worker counts"
    );
    assert_eq!(
        ops1, ops4,
        "recorded op sequence diverged across worker counts"
    );
}
