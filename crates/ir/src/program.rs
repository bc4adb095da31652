//! The program DAG: a flat single-assignment op list over input nodes,
//! with symbolic `(level, pow)` scale inference and validation.
//!
//! Node numbering is positional: nodes `0..inputs` are the encrypted
//! inputs, node `inputs + k` is the result of `ops[k]`. Operands always
//! refer to earlier nodes, so well-formedness doubles as acyclicity.

use crate::json::EXACT_INT_LIMIT;
use crate::op::Op;
use crate::wire::IrError;

/// Symbolic per-node scale state.
///
/// `pow` is 1 for ciphertexts sitting exactly on the chain scale `S_l`
/// and 2 for unrescaled products at `S_l²`. Exact scale bookkeeping in
/// `bp-ckks::levels` guarantees that two nodes with the same
/// `(level, pow)` have identical exact scales, so this pair is a
/// complete alignment summary for Strict-mode execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeState {
    /// Rescaling level the node sits at.
    pub level: usize,
    /// 1 = chain scale `S_l`, 2 = product scale `S_l²`.
    pub pow: u8,
}

/// Chain-derived limits a program must respect to be executable in
/// Strict mode on a concrete modulus chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelBudget {
    /// Number of rescaling levels in the target chain (inputs enter at
    /// this level).
    pub max_level: usize,
    /// Lowest level at which a ciphertext–ciphertext (or plain) multiply
    /// still fits the level's modulus: `Q_l` must hold the `S_l²`-scale
    /// product with headroom, or the coefficients wrap and the result is
    /// undefined for *every* representation. Derived from the actual
    /// chains (see `bp_ckks::level_budget`). A chain with no such level
    /// has `max_level + 1` here, so no multiply validates on it.
    pub min_mul_level: usize,
}

/// A named program result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Caller-facing name of the result.
    pub name: String,
    /// Node index the name refers to.
    pub node: usize,
}

/// A homomorphic program: `inputs` encrypted input nodes followed by
/// `ops` in single-assignment order, plus optional named outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Seed that identifies the deterministic input/plaintext streams
    /// (0 for hand-built programs whose operands come from elsewhere).
    pub seed: u64,
    /// Datapath word size the program was generated against (metadata;
    /// execution uses the context's actual parameters).
    pub word_bits: u32,
    /// Number of encrypted input nodes.
    pub inputs: usize,
    /// The operations, in program order.
    pub ops: Vec<Op>,
    /// Named results. May be empty, in which case the final node is the
    /// conventional result.
    pub outputs: Vec<Output>,
}

impl Program {
    /// A program with no named outputs (the historical oracle shape).
    pub fn new(seed: u64, word_bits: u32, inputs: usize, ops: Vec<Op>) -> Program {
        Program {
            seed,
            word_bits,
            inputs,
            ops,
            outputs: Vec::new(),
        }
    }

    /// Total node count (inputs + op results).
    pub fn num_nodes(&self) -> usize {
        self.inputs + self.ops.len()
    }

    /// The node a named output refers to, or `None` if the name is not
    /// declared.
    pub fn output_node(&self, name: &str) -> Option<usize> {
        self.outputs.iter().find(|o| o.name == name).map(|o| o.node)
    }

    /// Structural sanity: at least one input, every operand references a
    /// strictly earlier node (no cycles, no self-reference), and named
    /// outputs point at real nodes with unique non-empty names.
    pub fn is_well_formed(&self) -> bool {
        self.check_shape().is_ok()
    }

    /// [`Program::is_well_formed`] as a `Result`, naming the offending
    /// node — what interpreters check before executing.
    pub fn check_shape(&self) -> Result<(), IrError> {
        if self.inputs == 0 {
            return Err(IrError::Invalid {
                node: 0,
                reason: "program has no inputs".into(),
            });
        }
        for (k, op) in self.ops.iter().enumerate() {
            let node = self.inputs + k;
            let (a, b) = op.operands();
            if a >= node || b.is_some_and(|b| b >= node) {
                return Err(IrError::Invalid {
                    node,
                    reason: format!(
                        "{} references a later or same node (cycle)",
                        op.kind().name()
                    ),
                });
            }
        }
        for (i, out) in self.outputs.iter().enumerate() {
            if out.name.is_empty() {
                return Err(IrError::Invalid {
                    node: out.node,
                    reason: format!("output #{i} has an empty name"),
                });
            }
            if out.node >= self.num_nodes() {
                return Err(IrError::Invalid {
                    node: out.node,
                    reason: format!("output {:?} references a nonexistent node", out.name),
                });
            }
            if self.outputs[..i].iter().any(|o| o.name == out.name) {
                return Err(IrError::Invalid {
                    node: out.node,
                    reason: format!("duplicate output name {:?}", out.name),
                });
            }
        }
        Ok(())
    }

    /// Infers the symbolic [`NodeState`] of every node, with inputs
    /// entering at `max_level` on the chain scale.
    ///
    /// This checks only what is needed for the states to be defined
    /// (well-formedness, `rescale` above level 0, `adjust` strictly
    /// downward) — it does *not* enforce the multiply capacity limit, so
    /// it succeeds on the checked-in capacity-divergence traces that
    /// deliberately multiply past the budget.
    ///
    /// # Errors
    /// [`IrError::Invalid`] naming the offending node.
    pub fn infer_states(&self, max_level: usize) -> Result<Vec<NodeState>, IrError> {
        self.check_shape()?;
        let mut states: Vec<NodeState> = (0..self.inputs)
            .map(|_| NodeState {
                level: max_level,
                pow: 1,
            })
            .collect();
        for (k, op) in self.ops.iter().enumerate() {
            let node = self.inputs + k;
            let invalid = |reason: String| IrError::Invalid { node, reason };
            let s = |i: usize| states[i];
            let out = match *op {
                Op::Add { a, b } | Op::Sub { a, b } => {
                    if s(a) != s(b) {
                        return Err(invalid(format!(
                            "{} operands are misaligned: node {a} at (level {}, pow {}) vs node {b} at (level {}, pow {})",
                            op.kind().name(),
                            s(a).level,
                            s(a).pow,
                            s(b).level,
                            s(b).pow,
                        )));
                    }
                    s(a)
                }
                Op::Negate { a } | Op::Rotate { a, .. } | Op::Conjugate { a } => s(a),
                Op::AddPlain { a, .. } | Op::SubPlain { a, .. } => {
                    if s(a).pow != 1 {
                        return Err(invalid(format!(
                            "{} needs a chain-scale operand, node {a} is an unrescaled product",
                            op.kind().name()
                        )));
                    }
                    s(a)
                }
                Op::Mul { a, b } => {
                    if s(a).pow != 1 || s(b).pow != 1 {
                        return Err(invalid(
                            "mul needs chain-scale operands (rescale the product first)".into(),
                        ));
                    }
                    if s(a).level != s(b).level {
                        return Err(invalid(format!(
                            "mul operands at different levels ({} vs {})",
                            s(a).level,
                            s(b).level
                        )));
                    }
                    NodeState {
                        level: s(a).level,
                        pow: 2,
                    }
                }
                Op::Square { a } | Op::MulPlain { a, .. } => {
                    if s(a).pow != 1 {
                        return Err(invalid(format!(
                            "{} needs a chain-scale operand, node {a} is an unrescaled product",
                            op.kind().name()
                        )));
                    }
                    NodeState {
                        level: s(a).level,
                        pow: 2,
                    }
                }
                Op::Rescale { a } => {
                    if s(a).pow != 2 {
                        return Err(invalid(format!(
                            "rescale of node {a}, which is not an unrescaled product"
                        )));
                    }
                    if s(a).level == 0 {
                        return Err(invalid(
                            "rescale at level 0 — the level budget is exhausted".into(),
                        ));
                    }
                    NodeState {
                        level: s(a).level - 1,
                        pow: 1,
                    }
                }
                Op::Adjust { a, target } => {
                    if s(a).pow != 1 {
                        return Err(invalid(format!(
                            "adjust of node {a}, which is not on the chain scale"
                        )));
                    }
                    if target >= s(a).level {
                        return Err(invalid(format!(
                            "adjust must move strictly down (node {a} at level {}, target {target})",
                            s(a).level
                        )));
                    }
                    NodeState {
                        level: target,
                        pow: 1,
                    }
                }
            };
            states.push(out);
        }
        Ok(states)
    }

    /// Full validation against a chain budget: structure, alignment,
    /// level feasibility (every multiply at or above
    /// [`LevelBudget::min_mul_level`]), and plaintext seeds below 2^53,
    /// the range a program document carries exactly. Returns the inferred
    /// node states on success.
    ///
    /// # Errors
    /// [`IrError::Invalid`] naming the first offending node.
    pub fn validate(&self, budget: &LevelBudget) -> Result<Vec<NodeState>, IrError> {
        let states = self.infer_states(budget.max_level)?;
        for (k, op) in self.ops.iter().enumerate() {
            let node = self.inputs + k;
            if let Op::AddPlain { pseed, .. }
            | Op::SubPlain { pseed, .. }
            | Op::MulPlain { pseed, .. } = *op
            {
                if pseed >= EXACT_INT_LIMIT {
                    return Err(IrError::Invalid {
                        node,
                        reason: format!(
                            "pseed {pseed} is not below 2^53, so a program document cannot carry it"
                        ),
                    });
                }
            }
            if matches!(
                op.kind(),
                crate::OpKind::Mul | crate::OpKind::Square | crate::OpKind::MulPlain
            ) {
                let (a, _) = op.operands();
                if states[a].level < budget.min_mul_level {
                    return Err(IrError::Invalid {
                        node,
                        reason: format!(
                            "{} at level {} is below the multiply capacity floor (min_mul_level {})",
                            op.kind().name(),
                            states[a].level,
                            budget.min_mul_level
                        ),
                    });
                }
            }
        }
        Ok(states)
    }

    /// The nodes that must be materialized to resume execution at op
    /// position `pos` (i.e. with `ops[..pos]` already executed): every
    /// already-computed node still read by a remaining op, plus
    /// already-computed output nodes, plus — when the program has no
    /// declared outputs — the latest computed node (the conventional
    /// result). Sorted ascending.
    pub fn live_nodes(&self, pos: usize) -> Vec<usize> {
        let pos = pos.min(self.ops.len());
        let computed = self.inputs + pos;
        let mut live = vec![false; computed];
        for op in &self.ops[pos..] {
            let (a, b) = op.operands();
            if a < computed {
                live[a] = true;
            }
            if let Some(b) = b {
                if b < computed {
                    live[b] = true;
                }
            }
        }
        for out in &self.outputs {
            if out.node < computed {
                live[out.node] = true;
            }
        }
        if self.outputs.is_empty() && computed > 0 {
            live[computed - 1] = true;
        }
        (0..computed).filter(|&i| live[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    const BUDGET: LevelBudget = LevelBudget {
        max_level: 3,
        min_mul_level: 1,
    };

    fn small() -> Program {
        // in0, in1 → mul → rescale → add_plain
        Program::new(
            7,
            28,
            2,
            vec![
                Op::Mul { a: 0, b: 1 },
                Op::Rescale { a: 2 },
                Op::AddPlain { a: 3, pseed: 9 },
            ],
        )
    }

    #[test]
    fn validate_accepts_a_straightline_program() {
        let states = small().validate(&BUDGET).expect("valid");
        assert_eq!(states.len(), 5);
        assert_eq!(states[2], NodeState { level: 3, pow: 2 });
        assert_eq!(states[3], NodeState { level: 2, pow: 1 });
    }

    #[test]
    fn validate_rejects_a_pseed_a_document_cannot_carry() {
        let with_pseed = |pseed| {
            Program::new(
                7,
                28,
                1,
                vec![Op::MulPlain { a: 0, pseed }, Op::Rescale { a: 1 }],
            )
        };
        assert!(with_pseed((1 << 53) - 1).validate(&BUDGET).is_ok());
        for pseed in [1 << 53, (1 << 53) + 1, u64::MAX] {
            let err = with_pseed(pseed).validate(&BUDGET).unwrap_err();
            assert!(
                matches!(&err, IrError::Invalid { node: 1, reason } if reason.contains("2^53")),
                "{err}"
            );
        }
    }

    #[test]
    fn cycles_and_forward_references_are_rejected() {
        let p = Program::new(1, 28, 1, vec![Op::Negate { a: 1 }]);
        assert!(!p.is_well_formed());
        let err = p.infer_states(3).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
        let p = Program::new(1, 28, 1, vec![Op::Add { a: 0, b: 2 }]);
        assert!(!p.is_well_formed());
    }

    #[test]
    fn level_overflow_is_rejected() {
        // Two rescales of one product: the second rescale sees a
        // chain-scale node.
        let p = Program::new(
            1,
            28,
            1,
            vec![
                Op::Square { a: 0 },
                Op::Rescale { a: 1 },
                Op::Rescale { a: 2 },
            ],
        );
        assert!(p.infer_states(3).is_err());
        // Rescaling at level 0 exhausts the budget.
        let p = Program::new(
            1,
            28,
            1,
            vec![
                Op::Adjust { a: 0, target: 0 },
                Op::Square { a: 1 },
                Op::Rescale { a: 2 },
            ],
        );
        let err = p.infer_states(3).unwrap_err();
        assert!(err.to_string().contains("level 0"), "{err}");
        // ... and the square below the capacity floor fails validate()
        // while infer_states() alone accepts it (capacity divergences
        // are a thing the oracle deliberately replays).
        let p = Program::new(
            1,
            28,
            1,
            vec![Op::Adjust { a: 0, target: 0 }, Op::Square { a: 1 }],
        );
        assert!(p.infer_states(3).is_ok());
        assert!(p.validate(&BUDGET).is_err());
    }

    #[test]
    fn misaligned_operands_are_rejected() {
        let p = Program::new(
            1,
            28,
            2,
            vec![Op::Adjust { a: 0, target: 1 }, Op::Add { a: 1, b: 2 }],
        );
        let err = p.infer_states(3).unwrap_err();
        assert!(err.to_string().contains("misaligned"), "{err}");
    }

    #[test]
    fn output_names_are_checked() {
        let mut p = small();
        p.outputs.push(Output {
            name: "y".into(),
            node: 4,
        });
        assert!(p.is_well_formed());
        assert_eq!(p.output_node("y"), Some(4));
        p.outputs.push(Output {
            name: "y".into(),
            node: 3,
        });
        assert!(!p.is_well_formed());
        p.outputs.pop();
        p.outputs.push(Output {
            name: "z".into(),
            node: 99,
        });
        assert!(!p.is_well_formed());
    }

    #[test]
    fn live_nodes_track_resume_position() {
        let p = small();
        // Before any op: both inputs are read later.
        assert_eq!(p.live_nodes(0), vec![0, 1]);
        // After the mul: only the product is still needed.
        assert_eq!(p.live_nodes(1), vec![2]);
        // Fully executed, no declared outputs: the final node.
        assert_eq!(p.live_nodes(3), vec![4]);
        let mut named = p.clone();
        named.outputs.push(Output {
            name: "prod".into(),
            node: 2,
        });
        assert_eq!(named.live_nodes(3), vec![2]);
    }

    #[test]
    fn op_kind_enum_matches_vocabulary_size() {
        assert_eq!(OpKind::ALL.len(), crate::NUM_OP_KINDS);
    }
}
