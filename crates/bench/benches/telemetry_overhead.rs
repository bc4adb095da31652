//! A/B overhead guard for the telemetry recording switch.
//!
//! Telemetry is compiled into every build and switched on at runtime.
//! This bench runs each evaluator op twice in one build, as the
//! `telemetry_off` series (recording switched off, the path every
//! uninstrumented caller takes) and the `telemetry_on` series (recording
//! live):
//!
//! ```text
//! cargo bench -p bp-bench --bench telemetry_overhead
//! ```
//!
//! `telemetry_off` shows what the compiled-in hooks cost a caller that
//! never records; `telemetry_on` shows the true cost of live recording.

use bp_ckks::{telemetry, CkksContext, CkksParams, KeySet, Representation, SecurityLevel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

fn setup() -> (CkksContext, KeySet) {
    let params = CkksParams::builder()
        .log_n(12)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(4, 40)
        .base_modulus_bits(50)
        .build()
        .expect("params");
    let ctx = CkksContext::new(&params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(99);
    let keys = ctx.keygen(&mut rng);
    (ctx, keys)
}

/// The two series: recording switched off, then on.
const VARIANTS: [(&str, bool); 2] = [("telemetry_off", false), ("telemetry_on", true)];

fn bench_overhead(c: &mut Criterion) {
    let (ctx, keys) = setup();
    let mut rng = ChaCha20Rng::seed_from_u64(7);
    let vals: Vec<f64> = (0..ctx.params().slots())
        .map(|i| (i as f64).sin() / 2.0)
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);
    let ev = ctx.evaluator();

    let mut g = c.benchmark_group("mul_relin_rescale");
    g.sample_size(20);
    for (variant, on) in VARIANTS {
        telemetry::set_enabled(on);
        g.bench_function(BenchmarkId::from_parameter(variant), |b| {
            b.iter(|| {
                let prod = ev.mul(&ct, &ct, &keys.evaluation).expect("aligned");
                std::hint::black_box(ev.rescale(&prod).expect("levels left"))
            })
        });
    }
    g.finish();

    // The cheapest op is where per-call overhead would surface first.
    let mut g = c.benchmark_group("add");
    g.sample_size(60);
    for (variant, on) in VARIANTS {
        telemetry::set_enabled(on);
        g.bench_function(BenchmarkId::from_parameter(variant), |b| {
            b.iter(|| std::hint::black_box(ev.add(&ct, &ct).expect("aligned")))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
