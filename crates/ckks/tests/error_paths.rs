//! Negative-path coverage: every typed error the panic-free pipeline can
//! produce, triggered through the public API, plus fault-injection tests
//! built on `bp_rns::fault`.
//!
//! The contract under test: no malformed input, missing key, exhausted
//! budget, or corrupted payload may panic — each must surface as the
//! matching `EvalError` / `IntegrityError` / `WireError` / `RnsError`
//! variant.

use bp_ckks::wire::{read_ciphertext, write_ciphertext, WireError};
use bp_ckks::{CkksContext, CkksParams, EvalError, IntegrityError, Representation, SecurityLevel};
use bp_rns::{fault, Domain, PrimePool, RnsError, RnsPoly};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

fn ctx(levels: usize) -> CkksContext {
    let params = CkksParams::builder()
        .log_n(7)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(levels, 26)
        .base_modulus_bits(30)
        .build()
        .expect("params");
    CkksContext::new(&params).expect("context")
}

#[test]
fn strict_mode_rejects_level_mismatch() {
    let ctx = ctx(3);
    let mut rng = ChaCha20Rng::seed_from_u64(1);
    let keys = ctx.keygen(&mut rng);
    let ev = ctx.evaluator();
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
    let low = ev.adjust_to(&ct, ctx.max_level() - 1).unwrap();
    assert!(matches!(
        ev.add(&ct, &low),
        Err(EvalError::LevelMismatch { left: 3, right: 2 })
    ));
    // The error message tells the user both remedies.
    let msg = ev.add(&ct, &low).unwrap_err().to_string();
    assert!(msg.contains("adjust_to"), "unactionable message: {msg}");
    assert!(msg.contains("AutoAlign"), "unactionable message: {msg}");
}

#[test]
fn strict_mode_rejects_scale_mismatch() {
    let ctx = ctx(3);
    let mut rng = ChaCha20Rng::seed_from_u64(2);
    let keys = ctx.keygen(&mut rng);
    let ev = ctx.evaluator();
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
    // Unrescaled product has scale S² — same level as ct, different scale.
    let prod = ev.mul(&ct, &ct, &keys.evaluation).unwrap();
    assert!(matches!(
        ev.add(&prod, &ct),
        Err(EvalError::ScaleMismatch { .. })
    ));
}

#[test]
fn plaintext_mismatches_are_typed() {
    let ctx = ctx(3);
    let mut rng = ChaCha20Rng::seed_from_u64(3);
    let keys = ctx.keygen(&mut rng);
    let ev = ctx.evaluator();
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);

    let pt_low = ctx.encode(&[0.1], ctx.max_level() - 1);
    assert!(matches!(
        ev.add_plain(&ct, &pt_low),
        Err(EvalError::PlaintextLevelMismatch { .. })
    ));

    let odd_scale = ctx.chain().scale_at(ctx.max_level()).square();
    let pt_scaled = ctx.encode_at_scale(&[0.1], ctx.max_level(), odd_scale);
    assert!(matches!(
        ev.sub_plain(&ct, &pt_scaled),
        Err(EvalError::PlaintextScaleMismatch { .. })
    ));
}

#[test]
fn missing_keys_are_typed() {
    let ctx = ctx(2);
    let mut rng = ChaCha20Rng::seed_from_u64(4);
    let keys = ctx.keygen(&mut rng); // no rotation or conjugation keys
    let ev = ctx.evaluator();
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
    assert!(matches!(
        ev.rotate(&ct, 3, &keys.evaluation),
        Err(EvalError::MissingRotationKey { steps: 3, .. })
    ));
    assert!(matches!(
        ev.conjugate(&ct, &keys.evaluation),
        Err(EvalError::MissingConjugationKey)
    ));
}

#[test]
fn level_exhaustion_and_upward_adjust_are_typed() {
    let ctx = ctx(1);
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let keys = ctx.keygen(&mut rng);
    let ev = ctx.evaluator();
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
    let bottom = ev
        .rescale(&ev.mul(&ct, &ct, &keys.evaluation).unwrap())
        .unwrap();
    assert_eq!(bottom.level(), 0);
    assert!(matches!(
        ev.rescale(&ev.mul(&bottom, &bottom, &keys.evaluation).unwrap()),
        Err(EvalError::LevelExhausted { .. })
    ));
    assert!(matches!(
        ev.adjust_to(&bottom, 1),
        Err(EvalError::AdjustUpward { from: 0, to: 1 })
    ));
}

#[test]
fn tampered_noise_budget_blocks_decrypt() {
    // A transported ciphertext whose recorded noise estimate says the
    // message is drowned must be refused by `decrypt`, not silently
    // decrypted to garbage.
    let ctx = ctx(2);
    let mut rng = ChaCha20Rng::seed_from_u64(6);
    let keys = ctx.keygen(&mut rng);
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
    let mut bytes = write_ciphertext(&ct);

    // Overwrite the noise_bits field (searched by its exact IEEE-754 LE
    // pattern) with a value above message_bits.
    let pattern = ct.noise().noise_bits.to_le_bytes();
    let pos = bytes
        .windows(8)
        .position(|w| w == pattern)
        .expect("noise field present in encoding");
    bytes[pos..pos + 8].copy_from_slice(&(ct.noise().message_bits + 10.0).to_le_bytes());

    let tampered = read_ciphertext(&ctx, &bytes).expect("structurally valid");
    assert!(matches!(
        ctx.decrypt(&tampered, &keys.secret),
        Err(EvalError::BudgetExhausted { .. })
    ));
    // The unchecked escape hatch still works for measurement code.
    let _ = ctx.decrypt_unchecked(&tampered, &keys.secret);
}

#[test]
fn truncation_fault_surfaces_as_malformed() {
    let ctx = ctx(2);
    let mut rng = ChaCha20Rng::seed_from_u64(7);
    let keys = ctx.keygen(&mut rng);
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
    let bytes = write_ciphertext(&ct);
    // Every prefix must be rejected without panicking.
    for keep in [0, 3, 4, 5, 13, bytes.len() / 2, bytes.len() - 1] {
        let mut b = bytes.clone();
        b.truncate(keep);
        assert!(
            matches!(read_ciphertext(&ctx, &b), Err(WireError::Malformed(_))),
            "prefix of {keep} bytes not rejected"
        );
    }
}

#[test]
fn bitflip_fault_in_payload_is_detected() {
    let ctx = ctx(2);
    let mut rng = ChaCha20Rng::seed_from_u64(8);
    let keys = ctx.keygen(&mut rng);
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
    let bytes = write_ciphertext(&ct);

    // Flipping the top bit of the final coefficient word pushes it far
    // past its (28-bit) modulus: rejected as unreduced.
    let mut b = bytes.clone();
    let last = b.len() - 1;
    b[last] ^= 1 << 7;
    assert!(matches!(
        read_ciphertext(&ctx, &b),
        Err(WireError::Malformed(_))
    ));

    // Corrupting the version byte is structural.
    let mut b = bytes.clone();
    b[4] ^= 1 << 3;
    assert!(matches!(
        read_ciphertext(&ctx, &b),
        Err(WireError::Malformed(_))
    ));

    // Corrupting a stored modulus makes the payload incompatible with
    // the context's chain.
    let pattern = ct.moduli()[0].to_le_bytes();
    let pos = bytes
        .windows(8)
        .position(|w| w == pattern)
        .expect("modulus present in encoding");
    let mut b = bytes.clone();
    b[pos] ^= 1 << 1;
    assert!(matches!(
        read_ciphertext(&ctx, &b),
        Err(WireError::Incompatible(_))
    ));
}

#[test]
fn wrong_level_claim_fails_integrity_validation() {
    // Rewrite the header's level field to a different valid level: the
    // residue basis no longer matches the chain at that level, which the
    // read path reports as incompatible before even reaching validate().
    let ctx = ctx(3);
    let mut rng = ChaCha20Rng::seed_from_u64(9);
    let keys = ctx.keygen(&mut rng);
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
    let mut bytes = write_ciphertext(&ct);
    // Header: magic(4) + version(1) + domain(1), then level u32.
    bytes[6..10].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        read_ciphertext(&ctx, &bytes),
        Err(WireError::Incompatible(_) | WireError::Integrity(_))
    ));
}

#[test]
fn validate_accepts_honest_ciphertexts_across_the_pipeline() {
    let ctx = ctx(3);
    let mut rng = ChaCha20Rng::seed_from_u64(10);
    let keys = ctx.keygen(&mut rng);
    let ev = ctx.evaluator();
    let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
    ct.validate(&ctx).expect("fresh ciphertext valid");
    let sq = ev
        .rescale(&ev.mul(&ct, &ct, &keys.evaluation).unwrap())
        .unwrap();
    sq.validate(&ctx).expect("computed ciphertext valid");
}

#[test]
fn coefficient_corruption_fault_on_raw_polys() {
    // The bp-rns fault hooks on the polynomial layer: an unreduced write
    // is caught by check_reduced (and hence by Ciphertext::validate),
    // while an in-range bit flip is structurally silent — the documented
    // detection boundary (only noise/decryption-level checks can see it).
    let pool = PrimePool::new(64);
    let q = bp_math::primes::ntt_primes_below(28, 128)
        .next()
        .expect("a 28-bit NTT prime for N = 64 exists");
    let mut poly = RnsPoly::from_i64_coeffs(&pool, &[q], &[1, 2, 3]);

    let prev = fault::corrupt_coefficient(&mut poly, 0, 1);
    assert_eq!(prev, 2);
    assert_eq!(
        poly.check_reduced(),
        Err(RnsError::UnreducedCoefficient {
            modulus: q,
            index: 1,
            value: q,
        })
    );

    let mut poly = RnsPoly::from_i64_coeffs(&pool, &[q], &[1, 2, 3]);
    fault::flip_coefficient_bit(&mut poly, 0, 0, 3);
    assert_eq!(poly.check_reduced(), Ok(()), "in-range flip is silent");
}

#[test]
fn rns_mismatch_errors_propagate_through_eval() {
    // Polynomial-layer mismatches carry through the From<RnsError>
    // conversion into EvalError.
    let q = bp_math::primes::ntt_primes_below(28, 256)
        .next()
        .expect("a 28-bit NTT prime exists");
    let pool = PrimePool::new(64);
    let wide_pool = PrimePool::new(128);
    let a = RnsPoly::from_i64_coeffs(&pool, &[q], &[1, 2]);
    let b = RnsPoly::from_i64_coeffs(&wide_pool, &[q], &[1, 2, 3]);
    let err = a.add(&b).unwrap_err();
    assert!(matches!(
        err,
        RnsError::DegreeMismatch {
            left: 64,
            right: 128
        }
    ));
    let as_eval: EvalError = err.into();
    assert!(matches!(as_eval, EvalError::Rns(_)));
    assert!(std::error::Error::source(&as_eval).is_some());

    let a = RnsPoly::from_i64_coeffs(&pool, &[q], &[1, 2]);
    let mut c = a.clone();
    c.to_ntt();
    // Multiplying in coefficient domain is a typed wrong-domain error;
    // adding across domains is a typed domain mismatch.
    assert!(matches!(
        a.mul(&c),
        Err(RnsError::WrongDomain {
            op: "mul",
            found: Domain::Coeff,
            required: Domain::Ntt,
        })
    ));
    assert!(matches!(
        a.add(&c),
        Err(RnsError::DomainMismatch {
            left: Domain::Coeff,
            right: Domain::Ntt,
        })
    ));

    let as_integrity: IntegrityError = RnsError::EmptyBasis.into();
    assert!(matches!(as_integrity, IntegrityError::Corrupted(_)));
}
