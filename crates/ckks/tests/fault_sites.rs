//! The evaluator's fault sites, armed through `bp_ckks::fault`.
//!
//! An armed `KeySwitch` fault fails the next keyswitching op and an armed
//! `Rescale` fault the next `rescale` call, each once and with a transient
//! error; the same call made again returns the bytes it returned before
//! the fault was armed. Level changes that do not go through `rescale`
//! leave a `Rescale` fault armed.
//!
//! The fault plan is process-global, so this file holds exactly one test.

use bp_ckks::fault::{self, FaultSite};
use bp_ckks::wire::write_ciphertext;
use bp_ckks::{
    Ciphertext, CkksContext, CkksParams, EvalError, EvalPolicy, IntegrityError, Representation,
    SecurityLevel,
};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

#[test]
fn armed_sites_fail_once_transiently_and_leave_the_bytes() {
    fault::disarm_all();
    let params = CkksParams::builder()
        .log_n(7)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(3, 26)
        .base_modulus_bits(30)
        .build()
        .expect("params");
    let ctx = CkksContext::new(&params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(23);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);
    ctx.gen_conjugation_key(&mut keys, &mut rng);
    let ek = &keys.evaluation;
    let ct = ctx.encrypt(
        &ctx.encode(&[0.5, -0.25, 0.125], ctx.max_level()),
        &keys.public,
        &mut rng,
    );
    let ev = ctx.evaluator();

    type Op<'a> = &'a dyn Fn() -> Result<Ciphertext, EvalError>;
    let keyswitching: [(&str, Op<'_>); 4] = [
        ("mul", &|| ev.mul(&ct, &ct, ek)),
        ("square", &|| ev.square(&ct, ek)),
        ("rotate", &|| ev.rotate(&ct, 1, ek)),
        ("conjugate", &|| ev.conjugate(&ct, ek)),
    ];
    for (name, op) in keyswitching {
        let before = write_ciphertext(&op().expect(name));
        fault::arm(FaultSite::KeySwitch, 0);
        let err = op().expect_err(name);
        assert!(
            matches!(err, EvalError::Integrity(IntegrityError::Corrupted(_))),
            "{name}: {err:?}"
        );
        assert!(err.is_transient(), "{name}");
        assert_eq!(fault::armed_count(), 0, "{name}: the fault is spent");
        let after = write_ciphertext(&op().expect(name));
        assert_eq!(after, before, "{name}: the retried call's bytes");
    }

    let prod = ev.mul(&ct, &ct, ek).expect("mul");
    let before = write_ciphertext(&ev.rescale(&prod).expect("rescale"));
    fault::arm(FaultSite::Rescale, 0);
    ev.adjust_to(&ct, ctx.max_level() - 1).expect("adjust_to");
    assert_eq!(fault::armed_count(), 1, "adjust_to passes the site by");
    let auto = ctx.evaluator_with_policy(EvalPolicy::AutoAlign);
    auto.add(&prod, &ct).expect("auto-aligned add");
    assert_eq!(auto.repairs().rescales(), 1, "add inserts a rescale");
    assert_eq!(fault::armed_count(), 1, "a repair passes the site by");
    let err = ev.rescale(&prod).expect_err("armed rescale");
    assert!(matches!(err, EvalError::Rns(_)), "{err:?}");
    assert!(err.is_transient());
    assert_eq!(fault::armed_count(), 0, "the fault is spent");
    let after = write_ciphertext(&ev.rescale(&prod).expect("rescale"));
    assert_eq!(after, before, "the retried rescale's bytes");
}
