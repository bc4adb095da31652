//! Systematic wire-format robustness: an adversarial or fault-corrupted
//! byte stream must ALWAYS produce a typed [`WireError`] — never a
//! panic, never a silently-accepted garbage ciphertext.
//!
//! Three sweeps cover the fault classes the runtime's retry machinery
//! depends on distinguishing:
//!
//! * **truncation at every prefix length** (short read / interrupted
//!   transfer) → `Malformed`, permanent;
//! * **single-bit flips at every byte** (in-flight corruption) → a typed
//!   error or a ciphertext that still passes full validation (flips in
//!   the noise-estimate floats can be semantically inert — but anything
//!   *accepted* must be structurally valid);
//! * **version/header forgery** → `Malformed`, permanent.

use bp_ckks::wire::{read_ciphertext, write_ciphertext, WireError};
use bp_ckks::{CkksContext, CkksParams, Representation, SecurityLevel};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

fn ctx() -> CkksContext {
    let params = CkksParams::builder()
        .log_n(6)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(3, 30)
        .base_modulus_bits(35)
        .build()
        .expect("params");
    CkksContext::new(&params).expect("context")
}

fn sample_bytes(ctx: &CkksContext) -> Vec<u8> {
    let mut rng = ChaCha20Rng::seed_from_u64(41);
    let keys = ctx.keygen(&mut rng);
    let ct = ctx.encrypt(
        &ctx.encode(&[0.5, -0.25, 0.125], ctx.max_level()),
        &keys.public,
        &mut rng,
    );
    write_ciphertext(&ct)
}

#[test]
fn truncation_at_every_length_is_a_typed_permanent_error() {
    let ctx = ctx();
    let bytes = sample_bytes(&ctx);
    for keep in 0..bytes.len() {
        let mut cut = bytes.clone();
        cut.truncate(keep);
        match read_ciphertext(&ctx, &cut) {
            Err(e @ WireError::Malformed(_)) => {
                assert!(!e.is_transient(), "truncation is permanent (keep={keep})")
            }
            Err(other) => panic!("keep={keep}: expected Malformed, got {other:?}"),
            Ok(_) => panic!("keep={keep}: truncated stream must not decode"),
        }
    }
}

#[test]
fn single_bit_flips_never_panic_and_never_yield_invalid_ciphertexts() {
    let ctx = ctx();
    let bytes = sample_bytes(&ctx);
    let mut rejected = 0usize;
    for pos in 0..bytes.len() {
        for bit in [0u32, 7] {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            match read_ciphertext(&ctx, &bad) {
                Err(_) => rejected += 1,
                // Flips in semantically-slack fields (noise estimate
                // mantissa, low coefficient bits) can decode — but then
                // the result must pass full structural validation.
                Ok(ct) => ct
                    .validate(&ctx)
                    .expect("accepted ciphertext must be structurally valid"),
            }
        }
    }
    assert!(
        rejected > bytes.len() / 4,
        "the format must actually detect most flips ({rejected} rejected)"
    );
}

#[test]
fn header_forgery_is_rejected_with_typed_errors() {
    let ctx = ctx();
    let bytes = sample_bytes(&ctx);

    // Every wrong version byte (offset 4).
    for version in (0u8..=255).filter(|&v| v != bytes[4]) {
        let mut bad = bytes.clone();
        bad[4] = version;
        assert!(
            matches!(read_ciphertext(&ctx, &bad), Err(WireError::Malformed(_))),
            "version {version} must be rejected"
        );
    }

    // Every corrupted magic byte.
    for pos in 0..4 {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xFF;
        assert!(matches!(
            read_ciphertext(&ctx, &bad),
            Err(WireError::Malformed(_))
        ));
    }

    // Bad domain tag (offset 5).
    let mut bad = bytes.clone();
    bad[5] = 9;
    assert!(matches!(
        read_ciphertext(&ctx, &bad),
        Err(WireError::Malformed(_))
    ));

    // Level beyond the chain (offset 6, u32 LE).
    let mut bad = bytes.clone();
    bad[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_ciphertext(&ctx, &bad),
        Err(WireError::Incompatible(_))
    ));

    // Ring degree mismatch (offset 10, u32 LE).
    let mut bad = bytes.clone();
    bad[10..14].copy_from_slice(&8u32.to_le_bytes());
    assert!(matches!(
        read_ciphertext(&ctx, &bad),
        Err(WireError::Incompatible(_))
    ));

    // The pristine bytes still decode (the sweeps above did not mutate
    // shared state).
    assert!(read_ciphertext(&ctx, &bytes).is_ok());
}

/// Byte offsets in the fixed-size prefix of the wire format (see
/// `bp-ckks::wire`): magic 0..4, version 4, domain 5, level 6..10,
/// n 10..14, scale pow2 14..22, scale factor count 22..26.
const OFF_LEVEL: usize = 6;
const OFF_SCALE_FACTORS: usize = 22;

/// Offset of the `n_residues` count of `c0`, computed from the live
/// factor count so the test stays correct if the scale shape changes.
fn off_c0_residues(bytes: &[u8]) -> usize {
    let n_factors = u32::from_le_bytes(
        bytes[OFF_SCALE_FACTORS..OFF_SCALE_FACTORS + 4]
            .try_into()
            .unwrap(),
    ) as usize;
    // factor list (prime u64 + exp i64 each) + two noise-estimate f64s.
    OFF_SCALE_FACTORS + 4 + n_factors * 16 + 16
}

#[test]
fn zero_residue_header_is_rejected_not_decoded() {
    let ctx = ctx();
    let bytes = sample_bytes(&ctx);
    let pos = off_c0_residues(&bytes);
    // Claim zero residues for c0; leave the payload in place (extra bytes)
    // and also try with the payload stripped (consistent-length forgery).
    let mut bad = bytes.clone();
    bad[pos..pos + 4].copy_from_slice(&0u32.to_le_bytes());
    assert!(
        matches!(read_ciphertext(&ctx, &bad), Err(WireError::Incompatible(_))),
        "zero-residue header must be rejected"
    );
    let mut stripped = bytes[..pos + 4].to_vec();
    stripped[pos..pos + 4].copy_from_slice(&0u32.to_le_bytes());
    assert!(read_ciphertext(&ctx, &stripped).is_err());
}

#[test]
fn truncated_digit_counts_are_rejected() {
    let ctx = ctx();
    let bytes = sample_bytes(&ctx);

    // A residue count larger than the payload actually carries: the
    // reader must hit a typed error, not index out of bounds.
    let pos = off_c0_residues(&bytes);
    let actual = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
    for claim in [actual + 1, actual + 7, 4096] {
        let mut bad = bytes.clone();
        bad[pos..pos + 4].copy_from_slice(&claim.to_le_bytes());
        assert!(
            read_ciphertext(&ctx, &bad).is_err(),
            "inflated residue count {claim} must be rejected"
        );
    }
    // Counts beyond the sanity cap are Malformed even before comparison.
    let mut bad = bytes.clone();
    bad[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_ciphertext(&ctx, &bad),
        Err(WireError::Malformed(_))
    ));

    // A scale factor count pointing past the end of the stream.
    for claim in [100u32, 4096, u32::MAX] {
        let mut bad = bytes.clone();
        bad[OFF_SCALE_FACTORS..OFF_SCALE_FACTORS + 4].copy_from_slice(&claim.to_le_bytes());
        assert!(
            matches!(read_ciphertext(&ctx, &bad), Err(WireError::Malformed(_))),
            "inflated factor count {claim} must be Malformed"
        );
    }
}

#[test]
fn level_beyond_chain_is_rejected_at_every_value() {
    let ctx = ctx();
    let bytes = sample_bytes(&ctx);
    for level in [ctx.max_level() as u32 + 1, 64, 4096, u32::MAX] {
        let mut bad = bytes.clone();
        bad[OFF_LEVEL..OFF_LEVEL + 4].copy_from_slice(&level.to_le_bytes());
        assert!(
            matches!(read_ciphertext(&ctx, &bad), Err(WireError::Incompatible(_))),
            "level {level} must be Incompatible"
        );
    }
}

#[test]
fn random_byte_soup_never_panics() {
    use rand::RngCore;
    let ctx = ctx();
    let mut rng = ChaCha20Rng::seed_from_u64(0xF00D);
    // Pure noise of varied lengths, plus noise behind a valid magic +
    // version prefix so the deeper parse paths are exercised too.
    for len in 0..256usize {
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        assert!(read_ciphertext(&ctx, &buf).is_err());
        if len >= 6 {
            buf[..4].copy_from_slice(b"BPCT");
            buf[4] = 2; // current version
            buf[5] = (len % 2) as u8; // valid domain tag
            assert!(read_ciphertext(&ctx, &buf).is_err());
        }
    }
}

#[test]
fn transience_classification_matches_fault_semantics() {
    // Integrity = this copy is damaged, refetch can fix → transient.
    // Malformed/Incompatible = speaker or target is wrong → permanent.
    let integrity =
        WireError::Integrity(bp_ckks::IntegrityError::LevelOutOfRange { level: 9, max: 3 });
    assert!(integrity.is_transient());
    assert!(!WireError::Malformed("x".into()).is_transient());
    assert!(!WireError::Incompatible("x".into()).is_transient());
}
