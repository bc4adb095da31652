//! The versioned JSON wire format for programs.
//!
//! Writing always produces the canonical `bitpacker-ir/v1` encoding:
//! fixed field order (`schema`, `seed`, `word_bits`, `inputs`, `ops`,
//! then `outputs` only when non-empty, then `note` only when present),
//! compact separators, integers without fractions. [`canonical_json`]
//! re-encodes a document and is what CI uses to reject hand-edited
//! non-canonical traces.
//!
//! Reading accepts that one schema only: [`IrDoc::from_json`] rejects
//! any other tag.

use crate::json::{Json, JsonError, Obj};
use crate::op::{Op, OpKind};
use crate::program::{Output, Program};

/// Schema tag written by [`Program::to_json`] / [`IrDoc::to_json`].
pub const IR_SCHEMA: &str = "bitpacker-ir/v1";

/// Largest node count (`inputs + ops`) a parsed document may declare.
/// Validators and interpreters allocate per node, so the untrusted
/// `inputs` field is bounded before any of them sees it.
const MAX_NODES: usize = 1 << 20;

/// Errors from parsing or validating a program document.
#[derive(Debug, Clone, PartialEq)]
pub enum IrError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The JSON is well-formed but not a valid program document.
    Schema(String),
    /// The program parsed but failed structural or level validation.
    Invalid {
        /// Node at which validation failed.
        node: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::Json(e) => write!(f, "document is not valid JSON: {e}"),
            IrError::Schema(m) => write!(f, "document does not match a program schema: {m}"),
            IrError::Invalid { node, reason } => {
                write!(f, "invalid program at node {node}: {reason}")
            }
        }
    }
}

impl std::error::Error for IrError {}

impl From<JsonError> for IrError {
    fn from(e: JsonError) -> Self {
        IrError::Json(e)
    }
}

/// A program document: the program plus its optional free-text note
/// (typically the divergence description a shrunk oracle trace carries).
#[derive(Debug, Clone, PartialEq)]
pub struct IrDoc {
    /// The program.
    pub program: Program,
    /// Free-text annotation, preserved across parse/render.
    pub note: Option<String>,
}

impl IrDoc {
    /// Serializes as canonical `bitpacker-ir/v1`.
    pub fn to_json(&self) -> String {
        self.program.to_json(self.note.as_deref())
    }

    /// Parses a [`IR_SCHEMA`] document.
    ///
    /// # Errors
    /// [`IrError::Json`] for malformed JSON, [`IrError::Schema`] for any
    /// other schema tag, unknown ops, missing operand fields (bad arity),
    /// out-of-range node references, or more than `1 << 20` nodes.
    pub fn from_json(text: &str) -> Result<IrDoc, IrError> {
        let v = Json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| IrError::Schema("missing schema tag".into()))?;
        if schema != IR_SCHEMA {
            return Err(IrError::Schema(format!(
                "schema {schema:?}, expected {IR_SCHEMA:?}"
            )));
        }
        parse_program_doc(&v)
    }
}

impl Program {
    /// Serializes the program as a canonical [`IR_SCHEMA`] document, with
    /// an optional free-text `note` describing e.g. the divergence that
    /// produced it.
    pub fn to_json(&self, note: Option<&str>) -> String {
        let ops: Vec<String> = self.ops.iter().map(op_to_json).collect();
        let mut obj = Obj::new()
            .str("schema", IR_SCHEMA)
            .u64("seed", self.seed)
            .u64("word_bits", u64::from(self.word_bits))
            .u64("inputs", self.inputs as u64)
            .arr("ops", ops);
        if !self.outputs.is_empty() {
            let outs: Vec<String> = self
                .outputs
                .iter()
                .map(|o| {
                    Obj::new()
                        .str("name", &o.name)
                        .u64("node", o.node as u64)
                        .build()
                })
                .collect();
            obj = obj.arr("outputs", outs);
        }
        if let Some(n) = note {
            obj = obj.str("note", n);
        }
        obj.build()
    }

    /// Parses a program document, dropping the note.
    ///
    /// # Errors
    /// As [`IrDoc::from_json`].
    pub fn from_json(text: &str) -> Result<Program, IrError> {
        IrDoc::from_json(text).map(|d| d.program)
    }
}

/// Parses a document and re-renders it canonically. CI replays fail when
/// a checked-in `bitpacker-ir/v1` trace is not byte-identical to this.
///
/// # Errors
/// As [`IrDoc::from_json`].
pub fn canonical_json(text: &str) -> Result<String, IrError> {
    IrDoc::from_json(text).map(|d| d.to_json())
}

/// The integer field `key` of `v`, which `what` names in errors. A field
/// that is present but not an integer below 2^53 is reported as such:
/// a larger JSON number may have been rounded when it was parsed.
fn int_field(v: &Json, key: &str, what: &str) -> Result<u64, IrError> {
    let x = v
        .get(key)
        .ok_or_else(|| IrError::Schema(format!("{what} missing field {key:?}")))?;
    x.as_u64().ok_or_else(|| {
        IrError::Schema(format!("{what} field {key:?} is not an integer below 2^53"))
    })
}

fn parse_program_doc(v: &Json) -> Result<IrDoc, IrError> {
    let field = |k: &str| int_field(v, k, "program");
    let seed = field("seed")?;
    let word_bits = u32::try_from(field("word_bits")?)
        .map_err(|_| IrError::Schema("word_bits out of range".into()))?;
    let ops_json = v
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or_else(|| IrError::Schema("missing ops array".into()))?;
    let inputs = usize::try_from(field("inputs")?)
        .ok()
        .filter(|&i| i.saturating_add(ops_json.len()) <= MAX_NODES)
        .ok_or_else(|| IrError::Schema(format!("program exceeds {MAX_NODES} nodes")))?;
    let ops = ops_json
        .iter()
        .map(op_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let mut outputs = Vec::new();
    if let Some(outs) = v.get("outputs") {
        let outs = outs
            .as_arr()
            .ok_or_else(|| IrError::Schema("outputs is not an array".into()))?;
        for o in outs {
            let name = o
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| IrError::Schema("output entry missing name".into()))?;
            let node = int_field(o, "node", "output entry")?;
            outputs.push(Output {
                name: name.to_string(),
                node: node as usize,
            });
        }
    }
    let program = Program {
        seed,
        word_bits,
        inputs,
        ops,
        outputs,
    };
    if !program.is_well_formed() {
        return Err(IrError::Schema(
            "op references a node at or after its own position".into(),
        ));
    }
    Ok(IrDoc {
        program,
        note: v.get("note").and_then(Json::as_str).map(str::to_string),
    })
}

fn op_to_json(op: &Op) -> String {
    let o = Obj::new().str("op", op.kind().name());
    match *op {
        Op::Add { a, b } | Op::Sub { a, b } | Op::Mul { a, b } => {
            o.u64("a", a as u64).u64("b", b as u64)
        }
        Op::Negate { a } | Op::Conjugate { a } | Op::Square { a } | Op::Rescale { a } => {
            o.u64("a", a as u64)
        }
        Op::AddPlain { a, pseed } | Op::SubPlain { a, pseed } | Op::MulPlain { a, pseed } => {
            o.u64("a", a as u64).u64("pseed", pseed)
        }
        Op::Rotate { a, steps } => o.u64("a", a as u64).raw("steps", steps.to_string()),
        Op::Adjust { a, target } => o.u64("a", a as u64).u64("target", target as u64),
    }
    .build()
}

fn op_from_json(v: &Json) -> Result<Op, IrError> {
    let name = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| IrError::Schema("op entry missing op name".into()))?;
    let kind = OpKind::from_name(name)
        .ok_or_else(|| IrError::Schema(format!("unknown op name {name:?}")))?;
    let what = format!("op {name:?}");
    let idx = |k: &str| int_field(v, k, &what).map(|u| u as usize);
    let seed = |k: &str| int_field(v, k, &what);
    Ok(match kind {
        OpKind::Add => Op::Add {
            a: idx("a")?,
            b: idx("b")?,
        },
        OpKind::Sub => Op::Sub {
            a: idx("a")?,
            b: idx("b")?,
        },
        OpKind::Negate => Op::Negate { a: idx("a")? },
        OpKind::AddPlain => Op::AddPlain {
            a: idx("a")?,
            pseed: seed("pseed")?,
        },
        OpKind::SubPlain => Op::SubPlain {
            a: idx("a")?,
            pseed: seed("pseed")?,
        },
        OpKind::MulPlain => Op::MulPlain {
            a: idx("a")?,
            pseed: seed("pseed")?,
        },
        OpKind::Mul => Op::Mul {
            a: idx("a")?,
            b: idx("b")?,
        },
        OpKind::Square => Op::Square { a: idx("a")? },
        OpKind::Rotate => {
            let steps = v
                .get("steps")
                .and_then(Json::as_f64)
                .filter(|s| s.fract() == 0.0)
                .map(|s| s as i64)
                .ok_or_else(|| IrError::Schema("rotate missing integer steps".into()))?;
            Op::Rotate {
                a: idx("a")?,
                steps,
            }
        }
        OpKind::Conjugate => Op::Conjugate { a: idx("a")? },
        OpKind::Rescale => Op::Rescale { a: idx("a")? },
        OpKind::Adjust => Op::Adjust {
            a: idx("a")?,
            target: idx("target")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        let mut p = Program::new(
            42,
            28,
            2,
            vec![
                Op::Mul { a: 0, b: 1 },
                Op::Rescale { a: 2 },
                Op::Adjust { a: 0, target: 2 },
                Op::Rotate { a: 3, steps: -2 },
                Op::AddPlain { a: 3, pseed: 777 },
            ],
        );
        p.outputs.push(Output {
            name: "sum".into(),
            node: 6,
        });
        p
    }

    #[test]
    fn json_roundtrip_is_exact_and_canonical() {
        let doc = IrDoc {
            program: sample(),
            note: Some("cross-backend mismatch at node 4".into()),
        };
        let text = doc.to_json();
        let back = IrDoc::from_json(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(canonical_json(&text).unwrap(), text);
    }

    #[test]
    fn rejects_other_schemas_and_oversized_programs() {
        for text in [
            // Declares 2^40 inputs: must be refused before anything
            // allocates per node.
            r#"{"schema":"bitpacker-ir/v1","seed":1,"word_bits":28,"inputs":1099511627776,"ops":[{"op":"negate","a":0}]}"#,
            r#"{"schema":"bitpacker-ir/v1","seed":1,"word_bits":28,"inputs":18446744073709551615,"ops":[]}"#,
            r#"{"schema":"bitpacker-ir/v1","seed":1,"word_bits":28,"inputs":1048576,"ops":[{"op":"negate","a":0}]}"#,
            r#"{"schema":"bitpacker-oracle-trace/v1","seed":9,"word_bits":64,"inputs":2,"ops":[{"op":"square","a":1}]}"#,
            r#"{"schema":"bitpacker-eval-trace/v3","meta":{"workload":"w","n":64,"dnum":1,"special":1,"word_bits":28},"dropped":0,"entries":[{"seq":0,"op":"square","level":3,"residues":4,"shed":0,"added":0,"batched":false,"repair":false,"duration_ns":1,"noise_bits":1,"clear_bits":9,"scale_log2":26,"log_q":80,"ir_op":1}]}"#,
        ] {
            assert!(
                matches!(IrDoc::from_json(text), Err(IrError::Schema(_))),
                "accepted: {text}"
            );
        }
        // Exactly at the limit still parses.
        let at_limit = r#"{"schema":"bitpacker-ir/v1","seed":1,"word_bits":28,"inputs":1048575,"ops":[{"op":"negate","a":0}]}"#;
        assert_eq!(
            IrDoc::from_json(at_limit).unwrap().program.num_nodes(),
            MAX_NODES
        );
    }

    #[test]
    fn integers_beyond_exact_json_range_are_refused_not_rounded() {
        // 2^53 + 1 parses to the same f64 as 2^53: reading it back as a
        // pseed would name a different plaintext operand.
        let with_pseed = |pseed| {
            let mut p = sample();
            p.ops[4] = Op::AddPlain { a: 3, pseed };
            p
        };
        let edge = with_pseed((1 << 53) - 1);
        assert_eq!(Program::from_json(&edge.to_json(None)).unwrap(), edge);
        for pseed in [1 << 53, (1 << 53) + 1, (1 << 53) + 2, u64::MAX] {
            let err = Program::from_json(&with_pseed(pseed).to_json(None)).unwrap_err();
            assert_eq!(
                err,
                IrError::Schema(
                    r#"op "add_plain" field "pseed" is not an integer below 2^53"#.into()
                )
            );
        }
        let mut p = sample();
        p.seed = (1 << 53) + 1;
        let err = Program::from_json(&p.to_json(None)).unwrap_err();
        assert_eq!(
            err,
            IrError::Schema(r#"program field "seed" is not an integer below 2^53"#.into())
        );
        // A field that is absent is still reported as missing.
        let text = r#"{"schema":"bitpacker-ir/v1","seed":1,"word_bits":28,"inputs":1,"ops":[{"op":"mul_plain","a":0}]}"#;
        assert_eq!(
            IrDoc::from_json(text).unwrap_err(),
            IrError::Schema(r#"op "mul_plain" missing field "pseed""#.into())
        );
    }

    #[test]
    fn rejects_wrong_schema_bad_arity_and_forward_references() {
        assert!(matches!(
            IrDoc::from_json(r#"{"schema":"other/v9"}"#),
            Err(IrError::Schema(_))
        ));
        // Bad arity: add without its second operand.
        let bad = r#"{"schema":"bitpacker-ir/v1","seed":1,"word_bits":28,"inputs":2,"ops":[{"op":"add","a":0}]}"#;
        let err = IrDoc::from_json(bad).unwrap_err();
        assert!(err.to_string().contains("\"b\""), "{err}");
        // Forward reference: op 0 reads node 5 with only 2 inputs.
        let bad = r#"{"schema":"bitpacker-ir/v1","seed":1,"word_bits":28,"inputs":2,"ops":[{"op":"negate","a":5}]}"#;
        assert!(matches!(IrDoc::from_json(bad), Err(IrError::Schema(_))));
    }
}
