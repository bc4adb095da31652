//! Regression replay of shrunk divergence traces.
//!
//! Every trace under `traces/` was produced by the oracle's shrinker from
//! a real divergence, checked in together with the fix. Replaying them
//! here keeps the fixes honest: before the capacity-clamp fix in
//! `bp-ckks::eval`, each of these programs decoded to garbage on both
//! backends while the noise estimate still claimed a healthy mantissa, so
//! `run_program` flagged a reference mismatch.

use bp_ckks::{CkksContext, CkksParams, Representation, SecurityLevel};
use bp_oracle::{run_program, OracleEnv, Program};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

fn replay_all(dir: &std::path::Path) -> Vec<(String, Option<String>)> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("traces dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no traces checked in?");
    entries
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable trace");
            let program = Program::from_json(&text).expect("valid trace JSON");
            let env = OracleEnv::new(program.word_bits).expect("environment builds");
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, run_program(&env, &program).map(|d| d.to_string()))
        })
        .collect()
}

#[test]
fn checked_in_traces_replay_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    for (name, outcome) in replay_all(&dir) {
        assert!(outcome.is_none(), "{name} still diverges: {outcome:?}");
    }
}

/// The library-level fix behind the `fail-w64-*` traces: a multiply whose
/// product scale exceeds the level modulus must report an exhausted noise
/// budget (and checked decryption must refuse) instead of pretending the
/// wrapped ciphertext still carries ~41 clear mantissa bits.
#[test]
fn level0_square_past_capacity_reports_exhausted_budget() {
    for repr in [Representation::BitPacker, Representation::RnsCkks] {
        let params = CkksParams::builder()
            .log_n(6)
            .word_bits(61)
            .representation(repr)
            .security(SecurityLevel::Insecure)
            .levels(3, 50)
            .base_modulus_bits(55)
            .build()
            .unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let x = vec![0.48, -0.5, 0.25, 0.1];
        let ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);

        // Adjusting to level 0 is fine: the value still decodes.
        let adj = ev.adjust_to(&ct, 0).unwrap();
        assert!(adj.noise().clear_bits() > 20.0, "{repr}: adjust is healthy");

        // Squaring at level 0 wraps (S0^2 >> Q0): the estimate must say so.
        let sq = ev.square(&adj, &keys.evaluation).unwrap();
        assert!(
            sq.noise().clear_bits() <= 0.0,
            "{repr}: wrapped square claims {:.1} clear bits",
            sq.noise().clear_bits()
        );
        assert!(
            ctx.decrypt(&sq, &keys.secret).is_err(),
            "{repr}: checked decrypt must refuse a wrapped ciphertext"
        );
    }
}
