//! Lowering of IR programs into the accelerator model.
//!
//! A [`bp_ir::Program`] fixes which homomorphic ops run over which nodes;
//! a [`ChainProfile`] fixes what each level costs on a concrete modulus
//! chain. [`lower_program`] combines the two into the [`TraceOp`] stream
//! [`crate::simulate`] consumes, so a program that runs on the CPU
//! evaluator gets its accelerator cycle/energy estimate without
//! hand-writing the workload twice.

use crate::compile::FheOp;
use crate::simulate::TraceOp;
use bp_ir::{Op, Program};
use std::fmt;

/// A program that cannot be lowered against a profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Which input made the program unlowerable (`profile` or `program`).
    pub field: &'static str,
    /// Why.
    pub reason: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program not lowerable: {} {}", self.field, self.reason)
    }
}

impl std::error::Error for LowerError {}

/// Residue bookkeeping for one chain level, as [`lower_program`] needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCost {
    /// Residues a ciphertext carries at this level.
    pub residues: usize,
    /// Residues shed by the transition from this level down to the next
    /// (0 for level 0, which has no transition).
    pub shed: usize,
    /// Residues added by that same transition (BitPacker re-derives
    /// terminal moduli; RNS-CKKS adds none).
    pub added: usize,
}

/// What the IR lowering needs to know about a concrete modulus chain:
/// per-level residue counts and transition costs, plus whether level
/// management runs batched (BitPacker) or sequential (RNS-CKKS).
///
/// Index `l` describes level `l`; `levels[l].shed`/`added` describe the
/// `l → l-1` transition, so
/// `levels[l-1].residues == levels[l].residues - shed + added` must hold.
/// Built from a `bp_ckks::ModulusChain` by `bp_workloads::chain_profile`
/// (this crate deliberately has no scheme dependency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainProfile {
    /// True for BitPacker chains (batched level management).
    pub batched: bool,
    /// Per-level costs, indexed by level (`levels[0]` is the last level).
    pub levels: Vec<LevelCost>,
}

impl ChainProfile {
    /// The chain's top level.
    pub fn max_level(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }
}

/// Lowers an IR [`Program`] to accelerator trace ops, one per executed
/// level step — the single `Op → FheOp` mapping.
///
/// The program's symbolic level annotations are inferred against the
/// profile's top level. Plaintext adds and negation cost the same as a
/// ciphertext add (one elementwise pass), so they map to [`FheOp::HAdd`];
/// squaring runs the full tensor-and-relinearize pipeline, so it maps to
/// [`FheOp::HMult`]. Level steps are costed on the basis they shed from,
/// and an `adjust` over k levels emits k sequential [`FheOp::Adjust`]
/// steps, mirroring how the CPU evaluator steps level-by-level.
///
/// # Errors
/// [`LowerError`] when the profile is empty or the program's levels
/// cannot be inferred against it (structural or level-range violations).
pub fn lower_program(
    program: &Program,
    profile: &ChainProfile,
) -> Result<Vec<TraceOp>, LowerError> {
    if profile.levels.is_empty() {
        return Err(LowerError {
            field: "profile",
            reason: "has no levels".into(),
        });
    }
    let states = program
        .infer_states(profile.max_level())
        .map_err(|e| LowerError {
            field: "program",
            reason: e.to_string(),
        })?;
    let batched = profile.batched;
    let mut ops = Vec::with_capacity(program.ops.len());
    let mut push = |op: FheOp| ops.push(TraceOp { op, count: 1.0 });
    for (k, op) in program.ops.iter().enumerate() {
        let r = profile.levels[states[program.inputs + k].level].residues;
        match *op {
            Op::Add { .. }
            | Op::Sub { .. }
            | Op::Negate { .. }
            | Op::AddPlain { .. }
            | Op::SubPlain { .. } => push(FheOp::HAdd { r }),
            Op::MulPlain { .. } => push(FheOp::PMult { r }),
            Op::Mul { .. } | Op::Square { .. } => push(FheOp::HMult { r }),
            Op::Rotate { .. } | Op::Conjugate { .. } => push(FheOp::HRotate { r }),
            Op::Rescale { a } => {
                let LevelCost {
                    residues: r,
                    shed,
                    added,
                } = profile.levels[states[a].level];
                push(FheOp::Rescale {
                    r,
                    shed,
                    added,
                    batched,
                });
            }
            Op::Adjust { a, target } => {
                // One transition per level, in execution order (downward).
                for l in (target + 1..=states[a].level).rev() {
                    let LevelCost {
                        residues: r,
                        shed,
                        added,
                    } = profile.levels[l];
                    push(FheOp::Adjust {
                        r,
                        shed,
                        added,
                        batched,
                    });
                }
            }
        }
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::TraceContext;
    use crate::config::AcceleratorConfig;
    use crate::simulate::simulate;

    /// A BitPacker-flavoured 4-level profile: level `l` packs `4 + l`
    /// words, each transition sheds 2 and re-derives 1 terminal residue.
    fn profile() -> ChainProfile {
        ChainProfile {
            batched: true,
            levels: (0..4)
                .map(|l| LevelCost {
                    residues: 4 + l,
                    shed: if l > 0 { 2 } else { 0 },
                    added: if l > 0 { 1 } else { 0 },
                })
                .collect(),
        }
    }

    /// Every op kind once: plaintext and ciphertext arithmetic at the top
    /// level (7 residues), then a rescale and a two-level adjust.
    fn all_kinds() -> Program {
        Program::new(
            0,
            28,
            2,
            vec![
                Op::Add { a: 0, b: 1 },
                Op::Sub { a: 2, b: 1 },
                Op::Negate { a: 3 },
                Op::AddPlain { a: 4, pseed: 1 },
                Op::SubPlain { a: 5, pseed: 2 },
                Op::MulPlain { a: 6, pseed: 3 },
                Op::Mul { a: 0, b: 1 },
                Op::Square { a: 0 },
                Op::Rotate { a: 0, steps: 1 },
                Op::Conjugate { a: 0 },
                Op::Rescale { a: 8 },
                Op::Adjust { a: 12, target: 0 },
            ],
        )
    }

    #[test]
    fn lowering_maps_each_kind_to_the_expected_fheop() {
        let ops = lower_program(&all_kinds(), &profile()).expect("lowers");
        let lowered: Vec<FheOp> = ops.into_iter().map(|t| t.op).collect();
        let r = 7;
        assert_eq!(
            lowered,
            vec![
                FheOp::HAdd { r },
                FheOp::HAdd { r },
                FheOp::HAdd { r },
                FheOp::HAdd { r },
                FheOp::HAdd { r },
                FheOp::PMult { r },
                FheOp::HMult { r },
                FheOp::HMult { r },
                FheOp::HRotate { r },
                FheOp::HRotate { r },
                // 3→2 on the pre-shed basis of 7: shed 2, add 1 → 6.
                FheOp::Rescale {
                    r: 7,
                    shed: 2,
                    added: 1,
                    batched: true,
                },
                // adjust 2→0 emits one step per level, downward.
                FheOp::Adjust {
                    r: 6,
                    shed: 2,
                    added: 1,
                    batched: true,
                },
                FheOp::Adjust {
                    r: 5,
                    shed: 2,
                    added: 1,
                    batched: true,
                },
            ]
        );
    }

    #[test]
    fn lowered_program_produces_nonzero_estimate() {
        let ops = lower_program(&all_kinds(), &profile()).expect("lowers");
        let ctx = TraceContext {
            n: 8192,
            dnum: 3,
            special: 3,
        };
        let report = simulate(&ops, &AcceleratorConfig::craterlake(), &ctx, 0.0);
        assert!(report.cycles > 0.0);
        assert!(report.ms > 0.0);
        assert!(report.energy.total_mj() > 0.0);
    }

    #[test]
    fn lowering_rejects_programs_too_deep_for_the_profile() {
        // adjust below level 0 is structurally invalid for any profile.
        let p = Program::new(0, 28, 1, vec![Op::Adjust { a: 0, target: 5 }]);
        let err = lower_program(&p, &profile()).unwrap_err();
        assert_eq!(err.field, "program");
    }
}
