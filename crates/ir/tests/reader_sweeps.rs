//! The `bitpacker-ir/v1` reader on untrusted input. Every strict prefix
//! of a real document and every one of 10k seeded mutations of it must
//! either parse or give a typed `IrError`; none may panic. A mutation
//! that parses must also survive a render/parse round trip.

use bp_ir::{IrDoc, IrError, ProgramBuilder};

/// A document as the writer produces it: every op kind, declared
/// outputs, and a note.
fn real_document() -> String {
    let mut b = ProgramBuilder::new(28).seed(0x5EED);
    let x = b.input();
    let y = b.input();
    let p = b.mul(x, y);
    let r = b.rescale(p);
    let s = b.square(r);
    let r2 = b.rescale(s);
    let m = b.mul_plain(r2, 7);
    let r3 = b.rescale(m);
    let a = b.adjust(x, 0);
    let t = b.add_plain(r3, 8);
    let u = b.sub_plain(t, 9);
    let v = b.rotate(u, -3);
    let w = b.conjugate(v);
    let n = b.negate(w);
    let d = b.sub(n, a);
    let e = b.add(d, a);
    b.output("sum", e);
    b.output("rot", v);
    IrDoc {
        program: b.finish(),
        note: Some("shrunk from seed 7: node 4 deviates".into()),
    }
    .to_json()
}

/// splitmix64: a seeded stream without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bytes and tokens that steer a mutation into the parser's corners:
/// structure, numbers at and past the exact-integer range, and text
/// that is not ASCII.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "-",
    ".",
    "e",
    "0",
    "9",
    " ",
    "null",
    "true",
    "\"op\"",
    "\"a\"",
    "\"pseed\"",
    "\"inputs\"",
    "\"outputs\"",
    "\"square\"",
    "\"rotate\"",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551616",
    "1e308",
    "-1",
    "1.5",
    "1048576",
    "\\u0000",
    "\\ud800",
    "é",
    "\u{1F600}",
];

/// One random edit of `text`: replace, insert, or delete a span.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        let token = TOKENS[rng.below(TOKENS.len())].as_bytes().to_vec();
        let (len, with) = match rng.below(4) {
            0 => (token.len(), token),
            1 => (0, token),
            2 => (1 + rng.below(8), Vec::new()),
            _ => (1, vec![rng.next() as u8]),
        };
        bytes.splice(at..(at + len).min(bytes.len()), with);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn every_strict_prefix_is_a_typed_error() {
    let text = real_document();
    assert!(text.is_ascii());
    assert!(IrDoc::from_json(&text).is_ok());
    for cut in 0..text.len() {
        let err = IrDoc::from_json(&text[..cut]).expect_err("a strict prefix must not parse");
        assert!(matches!(err, IrError::Json(_)), "cut at {cut}: {err:?}");
    }
}

#[test]
fn seeded_mutations_parse_or_give_typed_errors() {
    let text = real_document();
    let mut rng = Rng(0x1A_5EED);
    let (mut parsed, mut refused) = (0, 0);
    for case in 0..10_000 {
        let mutated = mutate(&mut rng, &text);
        match IrDoc::from_json(&mutated) {
            Ok(doc) => {
                parsed += 1;
                let again = IrDoc::from_json(&doc.to_json())
                    .unwrap_or_else(|e| panic!("case {case}: re-render does not parse: {e}"));
                assert_eq!(again, doc, "case {case}: {mutated}");
            }
            Err(IrError::Json(_) | IrError::Schema(_) | IrError::Invalid { .. }) => refused += 1,
        }
    }
    // Both outcomes occur, so the sweep exercises the reader past the
    // JSON layer as well as inside it.
    assert!(
        parsed > 0 && refused > 0,
        "parsed {parsed}, refused {refused}"
    );
}
