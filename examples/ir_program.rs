//! The evaluator-op IR: build a program once, run it everywhere.
//!
//! `x² + x` (the quickstart circuit) expressed as a `bp-ir` program and
//! then consumed by every layer that speaks the IR: validated against
//! the chain's level budget, checked against the exact plaintext
//! reference (the oracle's semantics), interpreted under both
//! representations, serialized to canonical `bitpacker-ir/v1` JSON, and
//! lowered to the accelerator op stream — all from the same `Program`
//! value. See DESIGN.md §12.
//!
//! Run: `cargo run --release --example ir_program`

use bitpacker::prelude::*;
use bitpacker::{accel::lower_program, ckks::level_budget, workloads::chain_profile};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

fn params(repr: Representation) -> Result<CkksParams, bitpacker::ckks::ParamsError> {
    CkksParams::builder()
        .log_n(10)
        .word_bits(28)
        .representation(repr)
        .security(SecurityLevel::Insecure)
        .levels(4, 32)
        .base_modulus_bits(45)
        .build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the circuit once. Handles are node ids; the builder is
    //    backend-agnostic — no context or keys exist yet.
    let top = CkksContext::new(&params(Representation::BitPacker)?)?.max_level();
    let mut b = ProgramBuilder::new(28);
    let x = b.input();
    let m = b.square(x);
    let sq = b.rescale(m); // x², one level down
    let x_adj = b.adjust(x, top - 1); // align the linear term (Sec. 2.2)
    let y = b.add(sq, x_adj);
    b.output("y", y);
    let program = b.finish();

    // 2. The exact-f64 plaintext reference — what the differential oracle
    //    compares every backend against.
    let input: Vec<f64> = (0..8).map(|i| i as f64 / 10.0).collect();
    let mut no_plain =
        |_pseed: u64, _n: usize| -> Vec<f64> { unreachable!("circuit has no plaintext operands") };
    let mut nodes =
        bitpacker::ir::reference::run(&program, std::slice::from_ref(&input), &mut no_plain);
    let want = nodes.remove(
        program
            .output_node("y")
            .expect("program declares output 'y'"),
    );

    // 3. Interpret it under both representations via Evaluator::run_program.
    for repr in [Representation::RnsCkks, Representation::BitPacker] {
        let ctx = CkksContext::new(&params(repr)?)?;
        assert_eq!(ctx.max_level(), top, "both chains expose the same depth");
        program.validate(&level_budget(ctx.chain()))?;

        let mut rng = ChaCha20Rng::seed_from_u64(42);
        let keys = ctx.keygen(&mut rng);
        let ct = ctx.encrypt(&ctx.encode(&input, top), &keys.public, &mut rng);
        let mut plain = |_pseed: u64, n: usize| vec![0.0; n];
        let run = ctx
            .evaluator()
            .run_program(&program, vec![ct], &keys.evaluation, &mut plain)?;
        let out = run.output("y").expect("program declares output 'y'");
        let got = ctx.decrypt_to_values(out, &keys.secret, 8)?;
        println!("{repr}:");
        for (w, g) in want.iter().zip(&got) {
            println!("  x²+x = {w:.4}  decrypted = {g:.4}");
            assert!((g - w).abs() < 1e-2, "unexpected error vs reference");
        }
    }

    // 4. One canonical wire format, and the only one the reader accepts.
    //    Shrunk oracle traces, the replay command, and the CI
    //    `ir-conformance` job all speak it, and replay rejects documents
    //    that are not canonically encoded.
    let json = program.to_json(Some("x^2 + x (examples/ir_program.rs)"));
    println!("\ncanonical bitpacker-ir/v1:\n{json}");
    assert_eq!(bitpacker::ir::canonical_json(&json)?, json);
    assert_eq!(Program::from_json(&json)?, program);

    // 5. One lowering to the accelerator model: Op → FheOp with the
    //    chain's per-level residue/transition costs.
    let ctx = CkksContext::new(&params(Representation::BitPacker)?)?;
    let lowered = lower_program(&program, &chain_profile(ctx.chain()))?;
    println!("\nlowered to {} accelerator ops:", lowered.len());
    for t in &lowered {
        println!("  {:?}", t.op);
    }
    Ok(())
}
