//! Golden pin of the evaluator's observable behaviour.
//!
//! Runs one fixed-seed IR program that covers all twelve op kinds under
//! both representations, a keyswitch-free program whose bytes depend on
//! plaintext ops and level management alone, and a deliberately
//! misaligned program under [`EvalPolicy::AutoAlign`] that forces adjust
//! and rescale repairs, and asserts an FNV-1a 64 digest over every node's
//! `write_ciphertext` bytes. Any change to an op's arithmetic, noise
//! update, or capacity clamp moves a digest.
//!
//! The test switches recording on and also pins the per-op trace record
//! sequence `(kind, level, residues, shed, added, batched, repair)`, the
//! set of profiler call paths, and digests of the Prometheus exposition
//! and the trace JSON, so refactors of the evaluator's or the telemetry
//! crate's instrumentation cannot silently drop, duplicate, or re-nest a
//! record or move an exported value. The documents are digested with
//! their timing- and worker-count-dependent values masked: span seconds,
//! the utilization-class counters, and per-op `duration_ns`.
//!
//! Telemetry state is process-global, so this file holds exactly one
//! test.

use bp_ckks::ir::{Program, ProgramBuilder};
use bp_ckks::telemetry::counters::Counter;
use bp_ckks::telemetry::{self, export, profile, trace};
use bp_ckks::wire::write_ciphertext;
use bp_ckks::{
    level_budget, BpThreadPool, CkksContext, CkksParams, EvalPolicy, Representation, SecurityLevel,
};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

fn context(repr: Representation) -> CkksContext {
    let params = CkksParams::builder()
        .log_n(7)
        .word_bits(28)
        .representation(repr)
        .security(SecurityLevel::Insecure)
        .levels(4, 26)
        .base_modulus_bits(30)
        .dnum(2)
        .build()
        .expect("params");
    CkksContext::with_threads(&params, Arc::new(BpThreadPool::sequential())).expect("context")
}

/// Every op kind once, Strict-aligned: plaintext ops, a keyswitching
/// multiply/square/rotate/conjugate each, and rescale/adjust transitions
/// (including a two-level adjust).
fn all_kinds_program() -> Program {
    let mut b = ProgramBuilder::new(28).seed(11);
    let x = b.input();
    let y = b.input();
    let a = b.add(x, y);
    let s = b.sub(a, y);
    let n = b.negate(s);
    let ap = b.add_plain(n, 1);
    let sp = b.sub_plain(ap, 2);
    let mp = b.mul_plain(sp, 3);
    let r1 = b.rescale(mp);
    let adj = b.adjust(x, 3);
    let m = b.mul(r1, adj);
    let r2 = b.rescale(m);
    let sq = b.square(r2);
    let r3 = b.rescale(sq);
    let rot = b.rotate(r3, 1);
    let cj = b.conjugate(rot);
    let sum = b.add(rot, cj);
    let low = b.adjust(y, 1);
    let out = b.sub(sum, low);
    b.output("out", out);
    b.finish()
}

/// No keyswitch: plaintext ops, rescales, a one- and a two-level adjust,
/// then a sub and an add, so its bytes move only with level management.
fn keyswitch_free_program() -> Program {
    let mut b = ProgramBuilder::new(28).seed(13);
    let x = b.input();
    let y = b.input();
    let ap = b.add_plain(x, 1);
    let mp = b.mul_plain(ap, 2);
    let r1 = b.rescale(mp);
    let one = b.adjust(y, 3);
    let s = b.sub(r1, one);
    let mp2 = b.mul_plain(s, 3);
    let r2 = b.rescale(mp2);
    let two = b.adjust(x, 2);
    let out = b.add(r2, two);
    b.output("out", out);
    b.finish()
}

/// Misaligned on purpose: run under AutoAlign it needs a rescale repair
/// (unrescaled product added to a fresh input), single- and multi-level
/// adjust repairs, and a level repair on a multiply.
fn misaligned_program() -> Program {
    let mut b = ProgramBuilder::new(28).seed(12);
    let x = b.input();
    let y = b.input();
    let m = b.mul(x, y);
    let s = b.add(m, x);
    let sq = b.square(s);
    let r = b.rescale(sq);
    let t = b.mul(r, y);
    let u = b.rescale(t);
    let v = b.sub(u, x);
    b.output("v", v);
    b.finish()
}

/// FNV-1a 64 over the concatenated wire bytes of every node.
fn fnv64<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &byte in chunk {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The exposition with every timing- or worker-count-dependent sample
/// value replaced by `*`: span seconds and the counters whose
/// [`Counter::deterministic`] is false.
fn mask_exposition(doc: &str) -> String {
    let volatile: Vec<String> = Counter::ALL
        .iter()
        .filter(|c| !c.deterministic())
        .map(|c| format!("bitpacker_{}_total", c.name()))
        .collect();
    let mut out = String::with_capacity(doc.len());
    for line in doc.lines() {
        match line.rsplit_once(' ') {
            Some((series, _))
                if !line.starts_with('#')
                    && (series.starts_with("bitpacker_span_seconds_total{")
                        || volatile.iter().any(|v| v == series)) =>
            {
                out.push_str(series);
                out.push_str(" *");
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// The trace JSON with every `duration_ns` value replaced by `*`.
fn mask_durations(json: &str) -> String {
    const KEY: &str = "\"duration_ns\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(i) = rest.find(KEY) {
        let (head, tail) = rest.split_at(i + KEY.len());
        out.push_str(head);
        out.push('*');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

struct Observed {
    digest: u64,
    records: Vec<String>,
    paths: Vec<String>,
    /// Masked Prometheus exposition, rendered after the nodes were
    /// serialized so the serializer's counters and spans are in it.
    exposition: String,
    /// Masked trace JSON.
    trace_json: String,
}

fn run(repr: Representation, policy: EvalPolicy, program: &Program) -> Observed {
    let ctx = context(repr);
    if policy == EvalPolicy::Strict {
        program
            .validate(&level_budget(ctx.chain()))
            .expect("golden program fits the chain");
    }
    let mut rng = ChaCha20Rng::seed_from_u64(2024);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);
    ctx.gen_conjugation_key(&mut keys, &mut rng);
    let slots = ctx.params().slots();
    let inputs: Vec<_> = (0..program.inputs)
        .map(|k| {
            let vals: Vec<f64> = (0..slots)
                .map(|i| ((i + 3 * k) as f64 * 0.37).sin() * 0.4)
                .collect();
            ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng)
        })
        .collect();
    let mut plain = |pseed: u64, n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| 0.1 + 0.05 * pseed as f64 - 0.002 * i as f64)
            .collect()
    };

    telemetry::reset();
    let ev = ctx.evaluator_with_policy(policy);
    let run = ev
        .run_program(program, inputs, &keys.evaluation, &mut plain)
        .expect("golden program runs");
    let paths = profile::snapshot()
        .paths
        .into_iter()
        .map(|p| p.path)
        .collect();
    let bytes: Vec<Vec<u8>> = run.nodes().iter().map(write_ciphertext).collect();
    let exposition = mask_exposition(&export::prometheus());
    let recorded = trace::take();
    let records = recorded
        .entries
        .iter()
        .map(|e| {
            format!(
                "{} l{} r{} s{} a{} b{} p{}",
                e.op.kind.name(),
                e.op.level,
                e.op.residues,
                e.op.shed,
                e.op.added,
                u8::from(e.op.batched),
                u8::from(e.op.repair)
            )
        })
        .collect();
    Observed {
        digest: fnv64(bytes.iter().map(Vec::as_slice)),
        records,
        paths,
        exposition,
        trace_json: mask_durations(&recorded.to_json()),
    }
}

struct Golden {
    label: &'static str,
    repr: Representation,
    policy: EvalPolicy,
    program: fn() -> Program,
    digest: u64,
    records: &'static [&'static str],
    /// FNV-1a 64 of the masked Prometheus exposition.
    exposition: u64,
    /// FNV-1a 64 of the masked trace JSON.
    trace_json: u64,
}

// Records read `kind l<level> r<residues> s<shed> a<added> b<batched>
// p<repair>`. The constants are observations, not derivations: a change
// that moves one changes evaluator behaviour.
const GOLDEN: &[Golden] = &[
    Golden {
        label: "all-kinds/bitpacker",
        repr: Representation::BitPacker,
        policy: EvalPolicy::Strict,
        program: all_kinds_program,
        digest: 0x5464_17dc_4933_cd49,
        records: &[
            "add l4 r5 s0 a0 b0 p0",
            "sub l4 r5 s0 a0 b0 p0",
            "negate l4 r5 s0 a0 b0 p0",
            "add_plain l4 r5 s0 a0 b0 p0",
            "sub_plain l4 r5 s0 a0 b0 p0",
            "mul_plain l4 r5 s0 a0 b0 p0",
            "rescale l3 r4 s2 a1 b1 p0",
            "adjust l3 r4 s2 a1 b1 p0",
            "mul l3 r4 s0 a0 b0 p0",
            "rescale l2 r3 s2 a1 b1 p0",
            "square l2 r3 s0 a0 b0 p0",
            "rescale l1 r2 s1 a0 b1 p0",
            "rotate l1 r2 s0 a0 b0 p0",
            "conjugate l1 r2 s0 a0 b0 p0",
            "add l1 r2 s0 a0 b0 p0",
            "adjust l3 r4 s2 a1 b1 p0",
            "adjust l2 r3 s2 a1 b1 p0",
            "adjust l1 r2 s1 a0 b1 p0",
            "sub l1 r2 s0 a0 b0 p0",
        ],
        exposition: 0x0e91_ada1_e769_f827,
        trace_json: 0xd3d9_36ac_56a9_3e24,
    },
    Golden {
        label: "all-kinds/rns-ckks",
        repr: Representation::RnsCkks,
        policy: EvalPolicy::Strict,
        program: all_kinds_program,
        digest: 0x1307_6f8c_0dd6_3d1c,
        records: &[
            "add l4 r6 s0 a0 b0 p0",
            "sub l4 r6 s0 a0 b0 p0",
            "negate l4 r6 s0 a0 b0 p0",
            "add_plain l4 r6 s0 a0 b0 p0",
            "sub_plain l4 r6 s0 a0 b0 p0",
            "mul_plain l4 r6 s0 a0 b0 p0",
            "rescale l3 r5 s1 a0 b0 p0",
            "adjust l3 r5 s1 a0 b0 p0",
            "mul l3 r5 s0 a0 b0 p0",
            "rescale l2 r4 s1 a0 b0 p0",
            "square l2 r4 s0 a0 b0 p0",
            "rescale l1 r3 s1 a0 b0 p0",
            "rotate l1 r3 s0 a0 b0 p0",
            "conjugate l1 r3 s0 a0 b0 p0",
            "add l1 r3 s0 a0 b0 p0",
            "adjust l3 r5 s1 a0 b0 p0",
            "adjust l2 r4 s1 a0 b0 p0",
            "adjust l1 r3 s1 a0 b0 p0",
            "sub l1 r3 s0 a0 b0 p0",
        ],
        exposition: 0x81c7_40d6_e0dc_805d,
        trace_json: 0x74bd_f64b_38ec_7e86,
    },
    Golden {
        label: "keyswitch-free/bitpacker",
        repr: Representation::BitPacker,
        policy: EvalPolicy::Strict,
        program: keyswitch_free_program,
        digest: 0xfee7_e3a2_283b_1a2b,
        records: &[
            "add_plain l4 r5 s0 a0 b0 p0",
            "mul_plain l4 r5 s0 a0 b0 p0",
            "rescale l3 r4 s2 a1 b1 p0",
            "adjust l3 r4 s2 a1 b1 p0",
            "sub l3 r4 s0 a0 b0 p0",
            "mul_plain l3 r4 s0 a0 b0 p0",
            "rescale l2 r3 s2 a1 b1 p0",
            "adjust l3 r4 s2 a1 b1 p0",
            "adjust l2 r3 s2 a1 b1 p0",
            "add l2 r3 s0 a0 b0 p0",
        ],
        exposition: 0xc508_b544_0e9f_ecd7,
        trace_json: 0xea81_3742_0334_e582,
    },
    Golden {
        label: "keyswitch-free/rns-ckks",
        repr: Representation::RnsCkks,
        policy: EvalPolicy::Strict,
        program: keyswitch_free_program,
        digest: 0xa577_ce57_2181_2ab8,
        records: &[
            "add_plain l4 r6 s0 a0 b0 p0",
            "mul_plain l4 r6 s0 a0 b0 p0",
            "rescale l3 r5 s1 a0 b0 p0",
            "adjust l3 r5 s1 a0 b0 p0",
            "sub l3 r5 s0 a0 b0 p0",
            "mul_plain l3 r5 s0 a0 b0 p0",
            "rescale l2 r4 s1 a0 b0 p0",
            "adjust l3 r5 s1 a0 b0 p0",
            "adjust l2 r4 s1 a0 b0 p0",
            "add l2 r4 s0 a0 b0 p0",
        ],
        exposition: 0x00cf_6884_5570_1410,
        trace_json: 0x9a2b_f9b8_0a5d_1baa,
    },
    Golden {
        label: "misaligned/bitpacker",
        repr: Representation::BitPacker,
        policy: EvalPolicy::AutoAlign,
        program: misaligned_program,
        digest: 0x476b_703c_4e6d_de4d,
        records: &[
            "mul l4 r5 s0 a0 b0 p0",
            "rescale l3 r4 s2 a1 b1 p1",
            "adjust l3 r4 s2 a1 b1 p1",
            "add l3 r4 s0 a0 b0 p0",
            "square l3 r4 s0 a0 b0 p0",
            "rescale l2 r3 s2 a1 b1 p0",
            "adjust l3 r4 s2 a1 b1 p1",
            "adjust l2 r3 s2 a1 b1 p1",
            "mul l2 r3 s0 a0 b0 p0",
            "rescale l1 r2 s1 a0 b1 p0",
            "adjust l3 r4 s2 a1 b1 p1",
            "adjust l2 r3 s2 a1 b1 p1",
            "adjust l1 r2 s1 a0 b1 p1",
            "sub l1 r2 s0 a0 b0 p0",
        ],
        exposition: 0xe5b1_920a_c304_4e7a,
        trace_json: 0xc386_c6c4_2a53_3d52,
    },
    Golden {
        label: "misaligned/rns-ckks",
        repr: Representation::RnsCkks,
        policy: EvalPolicy::AutoAlign,
        program: misaligned_program,
        digest: 0x0621_c83b_cd0a_0628,
        records: &[
            "mul l4 r6 s0 a0 b0 p0",
            "rescale l3 r5 s1 a0 b0 p1",
            "adjust l3 r5 s1 a0 b0 p1",
            "add l3 r5 s0 a0 b0 p0",
            "square l3 r5 s0 a0 b0 p0",
            "rescale l2 r4 s1 a0 b0 p0",
            "adjust l3 r5 s1 a0 b0 p1",
            "adjust l2 r4 s1 a0 b0 p1",
            "mul l2 r4 s0 a0 b0 p0",
            "rescale l1 r3 s1 a0 b0 p0",
            "adjust l3 r5 s1 a0 b0 p1",
            "adjust l2 r4 s1 a0 b0 p1",
            "adjust l1 r3 s1 a0 b0 p1",
            "sub l1 r3 s0 a0 b0 p0",
        ],
        exposition: 0x4db2_7f43_ac03_610c,
        trace_json: 0x3d1a_b802_09a7_56bf,
    },
];

/// Every profiler call path the golden runs open, in sorted order:
/// each op frames itself at the root, repairs nest under the op that
/// needed them, and kernels nest under both. `rotate` and `conjugate`
/// run NTTs only inside their keyswitch: their automorphism permutes NTT
/// slots.
const PATHS: &[&str] = &[
    "add",
    "add;adjust",
    "add;adjust;basis_convert",
    "add;adjust;ntt_forward",
    "add;adjust;ntt_inverse",
    "add;rescale",
    "add;rescale;basis_convert",
    "add;rescale;ntt_forward",
    "add;rescale;ntt_inverse",
    "add_plain",
    "add_plain;ntt_forward",
    "adjust",
    "adjust;basis_convert",
    "adjust;ntt_forward",
    "adjust;ntt_inverse",
    "conjugate",
    "conjugate;keyswitch",
    "conjugate;keyswitch;basis_convert",
    "conjugate;keyswitch;ntt_forward",
    "conjugate;keyswitch;ntt_inverse",
    "mul",
    "mul;adjust",
    "mul;adjust;basis_convert",
    "mul;adjust;ntt_forward",
    "mul;adjust;ntt_inverse",
    "mul;keyswitch",
    "mul;keyswitch;basis_convert",
    "mul;keyswitch;ntt_forward",
    "mul;keyswitch;ntt_inverse",
    "mul_plain",
    "mul_plain;ntt_forward",
    "negate",
    "rescale",
    "rescale;basis_convert",
    "rescale;ntt_forward",
    "rescale;ntt_inverse",
    "rotate",
    "rotate;keyswitch",
    "rotate;keyswitch;basis_convert",
    "rotate;keyswitch;ntt_forward",
    "rotate;keyswitch;ntt_inverse",
    "square",
    "square;keyswitch",
    "square;keyswitch;basis_convert",
    "square;keyswitch;ntt_forward",
    "square;keyswitch;ntt_inverse",
    "sub",
    "sub;adjust",
    "sub;adjust;basis_convert",
    "sub;adjust;ntt_forward",
    "sub;adjust;ntt_inverse",
    "sub_plain",
    "sub_plain;ntt_forward",
];

#[test]
fn evaluator_outputs_records_and_profile_paths_are_pinned() {
    telemetry::set_enabled(true);
    let mut paths = std::collections::BTreeSet::new();
    for g in GOLDEN {
        let seen = run(g.repr, g.policy, &(g.program)());
        assert_eq!(
            seen.digest, g.digest,
            "{}: node wire-byte digest moved (got {:#018x})",
            g.label, seen.digest
        );
        assert_eq!(
            seen.records, g.records,
            "{}: trace record sequence moved",
            g.label
        );
        paths.extend(seen.paths);
        for (what, doc, pinned) in [
            ("exposition", &seen.exposition, g.exposition),
            ("trace JSON", &seen.trace_json, g.trace_json),
        ] {
            let got = fnv64([doc.as_bytes()]);
            assert_eq!(
                got, pinned,
                "{}: masked {what} digest moved (got {got:#018x}):\n{doc}",
                g.label
            );
        }
    }
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    assert_eq!(paths, PATHS, "profiler call-path set moved");
}
