//! End-to-end homomorphic correctness for both representations.
//!
//! Every test runs the identical computation under RNS-CKKS and BitPacker
//! and checks the decrypted results against plaintext arithmetic — the
//! paper's central functional claim is that BitPacker changes *only* the
//! representation, never the computed values (Sec. 3.1: "a more compact
//! representation of the same amount of information").

use bp_ckks::{CkksContext, CkksParams, Representation, SecurityLevel};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

const REPRS: [Representation; 2] = [Representation::RnsCkks, Representation::BitPacker];

fn ctx(repr: Representation, log_n: u32, levels: usize, scale_bits: u32) -> CkksContext {
    let params = CkksParams::builder()
        .log_n(log_n)
        .word_bits(28)
        .representation(repr)
        .security(SecurityLevel::Insecure)
        .levels(levels, scale_bits)
        .base_modulus_bits(45)
        .dnum(3)
        .build()
        .expect("params");
    CkksContext::new(&params).expect("context")
}

fn max_err(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[test]
fn encrypt_decrypt_roundtrip() {
    for repr in REPRS {
        let ctx = ctx(repr, 8, 3, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(42);
        let keys = ctx.keygen(&mut rng);
        let vals: Vec<f64> = (0..ctx.params().slots())
            .map(|i| (i as f64 / 64.0).sin())
            .collect();
        let pt = ctx.encode(&vals, ctx.max_level());
        let ct = ctx.encrypt(&pt, &keys.public, &mut rng);
        let back = ctx.decode(&ctx.decrypt(&ct, &keys.secret).unwrap());
        let err = max_err(&back, &vals);
        assert!(err < 1e-4, "{repr}: roundtrip error {err}");
    }
}

#[test]
fn symmetric_encryption_matches_public() {
    for repr in REPRS {
        let ctx = ctx(repr, 7, 2, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let keys = ctx.keygen(&mut rng);
        let vals = vec![0.25, -0.75, 0.5];
        let pt = ctx.encode(&vals, ctx.max_level());
        let ct = ctx.encrypt_symmetric(&pt, &keys.secret, &mut rng);
        let back = ctx.decrypt_to_values(&ct, &keys.secret, 3).unwrap();
        assert!(max_err(&back, &vals) < 1e-4, "{repr}");
    }
}

#[test]
fn homomorphic_addition() {
    for repr in REPRS {
        let ctx = ctx(repr, 8, 3, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let a: Vec<f64> = (0..32).map(|i| i as f64 / 32.0).collect();
        let b: Vec<f64> = (0..32).map(|i| -(i as f64) / 64.0 + 0.1).collect();
        let ca = ctx.encrypt(&ctx.encode(&a, ctx.max_level()), &keys.public, &mut rng);
        let cb = ctx.encrypt(&ctx.encode(&b, ctx.max_level()), &keys.public, &mut rng);
        let sum = ev.add(&ca, &cb).unwrap();
        let back = ctx.decrypt_to_values(&sum, &keys.secret, 32).unwrap();
        let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert!(max_err(&back, &want) < 1e-4, "{repr}");

        let diff = ev.sub(&ca, &cb).unwrap();
        let back = ctx.decrypt_to_values(&diff, &keys.secret, 32).unwrap();
        let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        assert!(max_err(&back, &want) < 1e-4, "{repr}");
    }
}

#[test]
fn ciphertext_multiplication_with_rescale() {
    for repr in REPRS {
        let ctx = ctx(repr, 8, 3, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let a: Vec<f64> = (0..32).map(|i| (i as f64 / 32.0) - 0.5).collect();
        let b: Vec<f64> = (0..32).map(|i| 0.5 - i as f64 / 64.0).collect();
        let ca = ctx.encrypt(&ctx.encode(&a, ctx.max_level()), &keys.public, &mut rng);
        let cb = ctx.encrypt(&ctx.encode(&b, ctx.max_level()), &keys.public, &mut rng);
        let prod = ev.mul(&ca, &cb, &keys.evaluation).unwrap();
        let rescaled = ev.rescale(&prod).unwrap();
        assert_eq!(rescaled.level(), ctx.max_level() - 1);
        let back = ctx.decrypt_to_values(&rescaled, &keys.secret, 32).unwrap();
        let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        let err = max_err(&back, &want);
        assert!(err < 1e-3, "{repr}: mult error {err}");
    }
}

#[test]
fn plaintext_multiplication() {
    for repr in REPRS {
        let ctx = ctx(repr, 8, 3, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let a: Vec<f64> = (0..32).map(|i| (i as f64).cos() / 2.0).collect();
        let w: Vec<f64> = (0..32)
            .map(|i| ((i * 7 % 13) as f64 - 6.0) / 12.0)
            .collect();
        let ca = ctx.encrypt(&ctx.encode(&a, ctx.max_level()), &keys.public, &mut rng);
        let pw = ctx.encode(&w, ctx.max_level());
        let prod = ev.rescale(&ev.mul_plain(&ca, &pw).unwrap()).unwrap();
        let back = ctx.decrypt_to_values(&prod, &keys.secret, 32).unwrap();
        let want: Vec<f64> = a.iter().zip(&w).map(|(x, y)| x * y).collect();
        assert!(max_err(&back, &want) < 1e-3, "{repr}");
    }
}

#[test]
fn rotation_shifts_slots() {
    for repr in REPRS {
        let ctx = ctx(repr, 8, 2, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let mut keys = ctx.keygen(&mut rng);
        ctx.gen_rotation_keys(&mut keys, &[1, 5], &mut rng);
        let ev = ctx.evaluator();
        let slots = ctx.params().slots();
        let a: Vec<f64> = (0..slots).map(|i| i as f64 / slots as f64).collect();
        let ca = ctx.encrypt(&ctx.encode(&a, ctx.max_level()), &keys.public, &mut rng);
        for steps in [1i64, 5] {
            let rot = ev.rotate(&ca, steps, &keys.evaluation).unwrap();
            let back = ctx.decrypt_to_values(&rot, &keys.secret, slots).unwrap();
            let want: Vec<f64> = (0..slots)
                .map(|i| a[(i + steps as usize) % slots])
                .collect();
            let err = max_err(&back, &want);
            assert!(err < 1e-3, "{repr} rot {steps}: error {err}");
        }
    }
}

#[test]
fn adjust_aligns_levels_for_addition() {
    // Compute x^2 + x (the paper's Sec. 2.2 worked example): the product is
    // rescaled to L-1, so x must be *adjusted* down before the addition.
    for repr in REPRS {
        let ctx = ctx(repr, 8, 3, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let x: Vec<f64> = (0..32).map(|i| (i as f64 / 32.0) - 0.4).collect();
        let cx = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);
        let x2 = ev
            .rescale(&ev.mul(&cx, &cx, &keys.evaluation).unwrap())
            .unwrap();
        let x_adj = ev.adjust_to(&cx, x2.level()).unwrap();
        assert_eq!(x_adj.scale(), x2.scale(), "{repr}: adjust must match scale");
        let sum = ev.add(&x2, &x_adj).unwrap();
        let back = ctx.decrypt_to_values(&sum, &keys.secret, 32).unwrap();
        let want: Vec<f64> = x.iter().map(|v| v * v + v).collect();
        let err = max_err(&back, &want);
        assert!(err < 1e-3, "{repr}: x^2+x error {err}");
    }
}

#[test]
fn deep_multiplication_chain_consumes_all_levels() {
    // x^(2^L) via repeated squaring all the way to level 0.
    for repr in REPRS {
        let levels = 4;
        let ctx = ctx(repr, 8, levels, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let x: Vec<f64> = (0..16).map(|i| 0.6 + 0.02 * (i as f64 / 16.0)).collect();
        let mut ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);
        let mut want = x.clone();
        for _ in 0..levels {
            ct = ev
                .rescale(&ev.mul(&ct, &ct, &keys.evaluation).unwrap())
                .unwrap();
            want.iter_mut().for_each(|v| *v = *v * *v);
        }
        assert_eq!(ct.level(), 0);
        let back = ctx.decrypt_to_values(&ct, &keys.secret, 16).unwrap();
        let err = max_err(&back, &want);
        assert!(err < 5e-3, "{repr}: depth-{levels} error {err}");
    }
}

#[test]
fn bitpacker_uses_fewer_residues_than_rns_ckks() {
    // The headline structural claim at matched parameters (45-bit scales on
    // a 28-bit datapath).
    let mk = |repr| {
        let params = CkksParams::builder()
            .log_n(8)
            .word_bits(28)
            .representation(repr)
            .security(SecurityLevel::Insecure)
            .levels(6, 45)
            .base_modulus_bits(60)
            .build()
            .unwrap();
        CkksContext::new(&params).unwrap()
    };
    let bp = mk(Representation::BitPacker);
    let rc = mk(Representation::RnsCkks);
    for l in 0..=6 {
        assert!(
            bp.chain().residue_count_at(l) <= rc.chain().residue_count_at(l),
            "level {l}: BP {} vs RC {}",
            bp.chain().residue_count_at(l),
            rc.chain().residue_count_at(l)
        );
    }
    // At the top level the packing advantage is pronounced. (At this tiny
    // test ring, 10-bit primes exist and double-prime RNS-CKKS packs 45-bit
    // scales comparatively well — at the paper's N = 2^16 the gap is wider;
    // see chain::tests::paper_parameters_at_n_2_16.)
    let top = 6;
    assert!(
        (bp.chain().residue_count_at(top) as f64) <= 0.85 * rc.chain().residue_count_at(top) as f64,
        "BP {} vs RC {}",
        bp.chain().residue_count_at(top),
        rc.chain().residue_count_at(top)
    );
}

#[test]
fn mixed_scale_schedule_works_end_to_end() {
    // Mimic an app + bootstrap scale mix (paper Sec. 5: 30-60 bit scales).
    for repr in REPRS {
        let params = CkksParams::builder()
            .log_n(8)
            .word_bits(28)
            .representation(repr)
            .security(SecurityLevel::Insecure)
            .scale_schedule(vec![30, 45, 35, 52, 30])
            .base_modulus_bits(45)
            .build()
            .unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(8);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let x = vec![0.3, -0.2, 0.9];
        let mut ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);
        let mut want = x.clone();
        for _ in 0..2 {
            ct = ev
                .rescale(&ev.mul(&ct, &ct, &keys.evaluation).unwrap())
                .unwrap();
            want.iter_mut().for_each(|v| *v = *v * *v);
        }
        let back = ctx.decrypt_to_values(&ct, &keys.secret, 3).unwrap();
        assert!(max_err(&back, &want) < 1e-2, "{repr}");
    }
}

#[test]
fn reference_bootstrap_restores_levels() {
    for repr in REPRS {
        let ctx = ctx(repr, 8, 3, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let x = vec![0.5, 0.25];
        let mut ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);
        while ct.level() > 0 {
            ct = ev
                .rescale(&ev.mul(&ct, &ct, &keys.evaluation).unwrap())
                .unwrap();
        }
        let boot = bp_ckks::levels::reference_bootstrap(&ct, &ctx, &keys.secret, &mut rng).unwrap();
        assert_eq!(boot.level(), ctx.max_level());
        // Value is preserved: x^(2^3).
        let want: Vec<f64> = x.iter().map(|v| v.powi(8)).collect();
        let back = ctx.decrypt_to_values(&boot, &keys.secret, 2).unwrap();
        assert!(max_err(&back, &want) < 1e-2, "{repr}");
    }
}

#[test]
fn negation_and_sub_plain() {
    for repr in REPRS {
        let ctx = ctx(repr, 7, 2, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(21);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let x = vec![0.5, -0.75];
        let ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);
        let neg = ev.negate(&ct).unwrap();
        let back = ctx.decrypt_to_values(&neg, &keys.secret, 2).unwrap();
        assert!(max_err(&back, &[-0.5, 0.75]) < 1e-4, "{repr}");

        let pt = ctx.encode(&[0.1, 0.2], ctx.max_level());
        let diff = ev.sub_plain(&ct, &pt).unwrap();
        let back = ctx.decrypt_to_values(&diff, &keys.secret, 2).unwrap();
        assert!(max_err(&back, &[0.4, -0.95]) < 1e-4, "{repr}");
    }
}

#[test]
fn conjugation_preserves_real_values() {
    // Real slot vectors are fixed points of conjugation.
    for repr in REPRS {
        let ctx = ctx(repr, 7, 2, 30);
        let mut rng = ChaCha20Rng::seed_from_u64(22);
        let mut keys = ctx.keygen(&mut rng);
        ctx.gen_conjugation_key(&mut keys, &mut rng);
        let ev = ctx.evaluator();
        let x: Vec<f64> = (0..8).map(|i| 0.1 * i as f64 - 0.4).collect();
        let ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);
        let conj = ev.conjugate(&ct, &keys.evaluation).unwrap();
        let back = ctx.decrypt_to_values(&conj, &keys.secret, 8).unwrap();
        let err = max_err(&back, &x);
        assert!(err < 1e-3, "{repr}: conjugation error {err}");
    }
}

#[test]
fn polynomial_evaluation_runs_as_a_program() {
    use bp_ckks::ir::{chebyshev_coeffs, reference, ProgramBuilder};
    use bp_ckks::level_budget;

    const DEGREE_7: [f64; 8] = [0.1, -0.3, 0.05, 0.2, -0.15, 0.08, 0.02, -0.01];
    struct Case {
        name: &'static str,
        levels: usize,
        seed: u64,
        xs: Vec<f64>,
        coeffs: Vec<f64>,
        bsgs: bool,
        closed_form: fn(f64) -> f64,
        tolerance: f64,
    }
    let sigmoid = |x: f64| 1.0 / (1.0 + (-4.0 * x).exp());
    // AESPA-like smooth activation.
    let aespa = |x: f64| 0.5 * x * x + 0.3 * x;
    let cases = [
        Case {
            name: "Horner cubic",
            levels: 4,
            seed: 31,
            xs: vec![0.3, -0.5, 0.8, -0.1],
            coeffs: vec![0.25, -1.0, 0.5, 2.0],
            bsgs: false,
            closed_form: |x| 0.25 - x + 0.5 * x * x + 2.0 * x * x * x,
            tolerance: 5e-3,
        },
        Case {
            name: "BSGS degree 7",
            levels: 7,
            seed: 32,
            xs: vec![0.4, -0.6, 0.9],
            coeffs: DEGREE_7.to_vec(),
            bsgs: true,
            closed_form: |x| (0..8).map(|i| DEGREE_7[i] * x.powi(i as i32)).sum(),
            tolerance: 1e-2,
        },
        Case {
            name: "Chebyshev sigmoid",
            levels: 5,
            seed: 33,
            xs: vec![0.0, 0.5, -0.5, 0.9],
            coeffs: chebyshev_coeffs(sigmoid, 5),
            bsgs: true,
            closed_form: sigmoid,
            tolerance: 0.05,
        },
        Case {
            name: "AESPA activation",
            levels: 6,
            seed: 23,
            xs: vec![0.2, -0.9, 0.55],
            coeffs: chebyshev_coeffs(aespa, 4),
            bsgs: true,
            closed_form: aespa,
            tolerance: 1e-2,
        },
    ];
    for repr in REPRS {
        for case in &cases {
            let label = format!("{repr} {}", case.name);
            let ctx = ctx(repr, 8, case.levels, 30);
            let mut b = ProgramBuilder::new(ctx.params().word_bits());
            let x = b.input();
            let y = if case.bsgs {
                b.bsgs(x, ctx.max_level(), &case.coeffs, 0)
            } else {
                b.horner(x, ctx.max_level(), &case.coeffs, 0)
            };
            b.output("y", y);
            let program = b.finish();
            program
                .validate(&level_budget(ctx.chain()))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            // Coefficient i is plaintext i.
            let mut coeff = |pseed: u64, slots: usize| vec![case.coeffs[pseed as usize]; slots];

            let mut rng = ChaCha20Rng::seed_from_u64(case.seed);
            let keys = ctx.keygen(&mut rng);
            let pt = ctx.encode(&case.xs, ctx.max_level());
            let ct = ctx.encrypt(&pt, &keys.public, &mut rng);
            let run = ctx
                .evaluator()
                .run_program(&program, vec![ct], &keys.evaluation, &mut coeff)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let got = ctx
                .decrypt_to_values(run.result(), &keys.secret, case.xs.len())
                .unwrap();
            let exact = &reference::run(&program, std::slice::from_ref(&case.xs), &mut coeff)[y];
            for ((g, r), &x) in got.iter().zip(exact).zip(&case.xs) {
                let want = (case.closed_form)(x);
                assert!(
                    (g - r).abs() < case.tolerance,
                    "{label}, x = {x}: {g} vs reference {r}"
                );
                assert!(
                    (g - want).abs() < case.tolerance,
                    "{label}, x = {x}: {g} vs closed form {want}"
                );
            }
        }
    }
}

#[test]
fn noise_measurement_tracks_depth() {
    use bp_ckks::noise::measure_noise_bits;
    let ctx = ctx(Representation::BitPacker, 8, 3, 30);
    let mut rng = ChaCha20Rng::seed_from_u64(24);
    let keys = ctx.keygen(&mut rng);
    let ev = ctx.evaluator();
    let x = vec![0.7, 0.3];
    let mut ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);
    let mut want = x.clone();
    let fresh_bits = measure_noise_bits(&ctx, &keys.secret, &ct, &want);
    for _ in 0..2 {
        ct = ev
            .rescale(&ev.mul(&ct, &ct, &keys.evaluation).unwrap())
            .unwrap();
        want.iter_mut().for_each(|v| *v = *v * *v);
    }
    let deep_bits = measure_noise_bits(&ctx, &keys.secret, &ct, &want);
    assert!(fresh_bits > deep_bits, "noise must grow with depth");
    assert!(deep_bits > 8.0, "precision collapsed: {deep_bits:.1}");
}
