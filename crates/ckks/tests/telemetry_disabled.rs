//! Disabled-path guard: with recording switched off, running a full op
//! program must record nothing — every counter zero, no spans, no
//! profiler paths, no trace entries, and a stopwatch reading 0.

use bp_ckks::telemetry::counters::{self, Counter};
use bp_ckks::telemetry::{self, export, profile, spans, trace};
use bp_ckks::{CkksContext, CkksParams, Representation, SecurityLevel};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

#[test]
fn full_op_program_records_nothing_while_recording_is_off() {
    telemetry::set_enabled(false);
    assert!(!telemetry::enabled());

    let params = CkksParams::builder()
        .log_n(10)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(3, 40)
        .base_modulus_bits(50)
        .build()
        .expect("params");
    let ctx = CkksContext::new(&params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);
    let vals: Vec<f64> = (0..ctx.params().slots())
        .map(|i| (i as f64).cos())
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);

    trace::set_meta(ctx.telemetry_meta("disabled"));
    let ev = ctx.evaluator();
    let prod = ev.mul(&ct, &ct, &keys.evaluation).expect("mul");
    let rot = ev.rotate(&prod, 1, &keys.evaluation).expect("rotate");
    let sum = ev.add(&prod, &rot).expect("add");
    let low = ev.rescale(&sum).expect("rescale");
    let _ = bp_ckks::wire::write_ciphertext(&low);

    for c in Counter::ALL {
        assert_eq!(counters::get(c), 0, "{} must stay zero", c.name());
    }
    for s in spans::stats() {
        assert_eq!(s.count, 0);
        assert_eq!(s.total_ns, 0);
    }
    let tr = trace::take();
    assert!(tr.entries.is_empty());
    assert_eq!(tr.dropped, 0);
    assert!(profile::snapshot().paths.is_empty());
    assert!(export::jsonl().is_empty());
    assert_eq!(telemetry::Stopwatch::start().elapsed_ns(), 0);
}
