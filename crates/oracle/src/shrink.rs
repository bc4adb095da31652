//! Automatic minimization of failing programs.
//!
//! The shrinker only ever produces programs that still diverge, so a shrunk
//! trace is a faithful (just smaller) witness of the original bug. Two
//! passes run to a fixpoint:
//!
//! 1. **Truncation** — drop every op after the first divergent node; ops
//!    past the failure can't contribute to it.
//! 2. **Cone reduction** — for each remaining op (latest first), try
//!    deleting it together with everything that depends on it. The
//!    candidate keeps an op only if all of its operands survive, and node
//!    indices are renumbered with [`bp_ir::Op::remap`]. A candidate is accepted
//!    iff it still diverges (any [`Divergence`], not necessarily the
//!    original kind — a different symptom of the same program is still a
//!    minimal repro).
//!
//! Input nodes are never removed (the executor needs `inputs` to stay
//! meaningful and input values are index-keyed), so the minimal repro has
//! the original input count but usually a single-digit op count.

use crate::exec::{run_program, Divergence, OracleEnv};
use bp_ir::Program;

/// Upper bound on candidate executions during shrinking, so a pathological
/// program can't stall the fuzz loop.
const MAX_SHRINK_RUNS: usize = 200;

/// Result of shrinking: the minimal program plus the divergence it still
/// exhibits.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimized program (still diverging).
    pub program: Program,
    /// The divergence the minimized program exhibits.
    pub divergence: Divergence,
    /// How many candidate executions the shrinker spent.
    pub runs: usize,
}

/// Shrinks a failing program to a (locally) minimal one that still
/// diverges. `divergence` is the failure observed on the full program.
pub fn shrink(env: &OracleEnv, program: &Program, divergence: Divergence) -> Shrunk {
    let mut best = program.clone();
    let mut best_div = divergence;
    let mut runs = 0usize;

    // Pass 1: truncate past the failing node.
    if let Some(t) = truncate_at(&best, best_div.node) {
        if let Some(d) = check(env, &t, &mut runs) {
            best = t;
            best_div = d;
        }
    }

    // Pass 2: cone deletion to fixpoint.
    let mut changed = true;
    while changed && runs < MAX_SHRINK_RUNS {
        changed = false;
        // Latest ops first: deleting late ops never invalidates earlier
        // ones, so this converges quickly.
        for k in (0..best.ops.len()).rev() {
            if runs >= MAX_SHRINK_RUNS {
                break;
            }
            let Some(candidate) = delete_cone(&best, k) else {
                continue;
            };
            if candidate.ops.len() == best.ops.len() {
                continue;
            }
            if let Some(d) = check(env, &candidate, &mut runs) {
                best = candidate;
                best_div = d;
                changed = true;
                break; // restart: indices shifted
            }
        }
    }

    Shrunk {
        program: best,
        divergence: best_div,
        runs,
    }
}

fn check(env: &OracleEnv, candidate: &Program, runs: &mut usize) -> Option<Divergence> {
    if candidate.ops.is_empty() || !candidate.is_well_formed() {
        return None;
    }
    *runs += 1;
    run_program(env, candidate)
}

/// Drops every op whose result node comes after `node`, together with any
/// named outputs that pointed past the new end.
fn truncate_at(program: &Program, node: usize) -> Option<Program> {
    let keep_ops = node.saturating_sub(program.inputs) + 1;
    if keep_ops >= program.ops.len() {
        return None;
    }
    let mut p = program.clone();
    p.ops.truncate(keep_ops);
    let kept_nodes = p.num_nodes();
    p.outputs.retain(|o| o.node < kept_nodes);
    Some(p)
}

/// Deletes op `k` and every op that (transitively) depends on its result,
/// renumbering the survivors.
fn delete_cone(program: &Program, k: usize) -> Option<Program> {
    let inputs = program.inputs;
    let n = program.num_nodes();
    let mut keep = vec![true; n];
    keep[inputs + k] = false;
    for (j, op) in program.ops.iter().enumerate().skip(k + 1) {
        let (a, b) = op.operands();
        let dead = !keep[a] || b.is_some_and(|b| !keep[b]);
        if dead {
            keep[inputs + j] = false;
        }
    }

    // Old node index -> new node index for the survivors.
    let mut map = vec![usize::MAX; n];
    let mut next = 0usize;
    for (old, &kept) in keep.iter().enumerate() {
        if kept {
            map[old] = next;
            next += 1;
        }
    }
    if next == n {
        return None;
    }

    let ops = program
        .ops
        .iter()
        .enumerate()
        .filter(|&(j, _)| keep[inputs + j])
        .map(|(_, op)| op.remap(|i| map[i]))
        .collect();
    let mut p = Program::new(program.seed, program.word_bits, inputs, ops);
    // Named outputs survive only while the node they point at does.
    p.outputs = program
        .outputs
        .iter()
        .filter(|o| keep[o.node])
        .map(|o| bp_ir::Output {
            name: o.name.clone(),
            node: map[o.node],
        })
        .collect();
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_ir::Op;

    fn prog(ops: Vec<Op>) -> Program {
        Program::new(1, 28, 2, ops)
    }

    #[test]
    fn truncate_drops_trailing_ops() {
        let p = prog(vec![
            Op::Add { a: 0, b: 1 },
            Op::Negate { a: 2 },
            Op::Negate { a: 3 },
        ]);
        // Failure at node 2 (the add): keep exactly one op.
        let t = truncate_at(&p, 2).unwrap();
        assert_eq!(t.ops, vec![Op::Add { a: 0, b: 1 }]);
        assert!(truncate_at(&p, 4).is_none(), "last node: nothing to drop");
    }

    #[test]
    fn delete_cone_removes_dependents_and_renumbers() {
        // n0,n1 inputs; n2=add(0,1); n3=neg(2); n4=neg(1); n5=add(3,4)
        let p = prog(vec![
            Op::Add { a: 0, b: 1 },
            Op::Negate { a: 2 },
            Op::Negate { a: 1 },
            Op::Add { a: 3, b: 4 },
        ]);
        // Deleting op 0 (n2) kills n3 and n5, keeps n4 renumbered to n2.
        let c = delete_cone(&p, 0).unwrap();
        assert_eq!(c.ops, vec![Op::Negate { a: 1 }]);
        assert!(c.is_well_formed());
    }
}
