//! Polynomial evaluation as IR.
//!
//! Polynomial evaluation is the workhorse of CKKS applications: activation
//! functions in encrypted neural networks (ResNet-20's high-degree ReLU
//! approximation, AESPA's degree-2 polynomials) and the `EvalMod` stage of
//! bootstrapping all evaluate a polynomial on every slot. This module
//! emits that evaluation into a [`ProgramBuilder`], so it runs wherever a
//! program runs — the evaluator's interpreter, the runtime, the oracle and
//! the accelerator lowering:
//!
//! * [`ProgramBuilder::horner`] — Horner's rule, one level per degree;
//! * [`ProgramBuilder::bsgs`] — baby-step/giant-step evaluation with depth
//!   about `2·⌈log₂ √(deg+1)⌉`, the structure the accelerator traces
//!   assume for EvalMod and deep activations;
//! * [`chebyshev_coeffs`] — interpolation of a real function on `[-1, 1]`
//!   into power-basis coefficients for either helper.
//!
//! Coefficient `i` is the plaintext operand `first_pseed + i`: the
//! caller's plaintext source returns `coeffs[i]` in every slot. The
//! helpers mirror the level arithmetic of the ops they emit, starting
//! from the level of `x` the caller passes, as the workload proxies do.
//! They do not check the level budget; [`Program::validate`] against the
//! target chain's budget names the first node that does not fit.
//!
//! [`Program::validate`]: crate::Program::validate

use crate::builder::ProgramBuilder;

/// Coefficients smaller than this contribute no BSGS term.
const NEGLIGIBLE: f64 = 1e-30;

/// The degree of a coefficient list the helpers accept.
fn degree(coeffs: &[f64]) -> usize {
    assert!(
        coeffs.len() >= 2,
        "polynomial evaluation needs degree ≥ 1 (got {} coefficients); \
         encode a constant directly instead",
        coeffs.len()
    );
    coeffs.len() - 1
}

impl ProgramBuilder {
    /// `node` at `to` when `to < from`, else `node` itself: the IR rejects
    /// adjusts that do not move down.
    fn adjust_down(&mut self, node: usize, from: usize, to: usize) -> usize {
        if to < from {
            self.adjust(node, to)
        } else {
            node
        }
    }

    /// Emits `Σ coeffs[i] · x^i` by Horner's rule on node `x`, a
    /// chain-scale node at `level`, and returns the result node. Uses
    /// `deg` levels, one per multiply, so it suits small degrees;
    /// [`ProgramBuilder::bsgs`] is shallower from degree 4 up.
    ///
    /// # Panics
    /// Panics if `coeffs` has fewer than two entries: an empty list is no
    /// polynomial, and a constant has no encrypted result.
    pub fn horner(&mut self, x: usize, level: usize, coeffs: &[f64], first_pseed: u64) -> usize {
        let deg = degree(coeffs);
        let pseed = |i: usize| first_pseed + i as u64;
        // Start from c_deg·x + c_{deg−1} so the accumulator is encrypted.
        let top = self.mul_plain(x, pseed(deg));
        let mut acc = self.rescale(top);
        let mut acc_level = level.saturating_sub(1);
        acc = self.add_plain(acc, pseed(deg - 1));
        let (mut x_cur, mut x_level) = (x, level);
        for i in (0..deg - 1).rev() {
            x_cur = self.adjust_down(x_cur, x_level, acc_level);
            x_level = acc_level;
            let prod = self.mul(acc, x_cur);
            acc = self.rescale(prod);
            acc_level = acc_level.saturating_sub(1);
            acc = self.add_plain(acc, pseed(i));
        }
        acc
    }

    /// Emits `Σ coeffs[i] · x^i` with the baby-step/giant-step split
    /// `p(x) = Σ_j q_j(x) · (x^m)^j`, `m = ⌈√(deg+1)⌉`, on node `x`, a
    /// chain-scale node at `level`, and returns the result node. Degrees
    /// up to 3 fall back to [`ProgramBuilder::horner`]. Terms whose
    /// coefficient is below `1e-30` in magnitude emit no ops.
    ///
    /// # Panics
    /// Panics if `coeffs` has fewer than two entries, like
    /// [`ProgramBuilder::horner`].
    pub fn bsgs(&mut self, x: usize, level: usize, coeffs: &[f64], first_pseed: u64) -> usize {
        let deg = degree(coeffs);
        if deg <= 3 {
            return self.horner(x, level, coeffs, first_pseed);
        }
        let m = ((deg + 1) as f64).sqrt().ceil() as usize;

        // Baby steps: (node, level) of x^1 ..= x^m, each the product of
        // two lower powers adjusted to a common level.
        let mut powers = vec![(x, level); m + 1];
        for i in 2..=m {
            let ((a, la), (b, lb)) = (powers[i / 2], powers[i - i / 2]);
            let lvl = la.min(lb);
            let a = self.adjust_down(a, la, lvl);
            let b = self.adjust_down(b, lb, lvl);
            let prod = self.mul(a, b);
            powers[i] = (self.rescale(prod), lvl.saturating_sub(1));
        }
        let (giant, work_level) = powers[m];

        // Giant steps: Horner over chunks of m coefficients,
        // acc = q_last; acc = acc · x^m + q_j.
        let pseed_of = |j: usize| first_pseed + (j * m) as u64;
        let mut chunks = coeffs.chunks(m).enumerate().rev();
        let (j, terms) = chunks.next().expect("degree ≥ 4 has chunks");
        let (mut acc, mut acc_level) = self.bsgs_chunk(terms, pseed_of(j), &powers, work_level);
        for (j, terms) in chunks {
            let g = self.adjust_down(giant, work_level, acc_level);
            let prod = self.mul(acc, g);
            acc = self.rescale(prod);
            acc_level = acc_level.saturating_sub(1);
            let (q, q_level) = self.bsgs_chunk(terms, pseed_of(j), &powers, acc_level + 1);
            let q = self.adjust_down(q, q_level, acc_level);
            acc = self.add(acc, q);
        }
        acc
    }

    /// One BSGS chunk `q(x) = Σ_i terms[i] · x^i` from the baby `powers`,
    /// multiplied at `level`; returns the node and its level. A chunk
    /// with no non-constant term is the constant added to a zero derived
    /// from the input `x = powers[1]`.
    fn bsgs_chunk(
        &mut self,
        terms: &[f64],
        first_pseed: u64,
        powers: &[(usize, usize)],
        level: usize,
    ) -> (usize, usize) {
        let mut acc = None;
        for (i, c) in terms.iter().enumerate().skip(1) {
            if c.abs() < NEGLIGIBLE {
                continue;
            }
            let (p, pl) = powers[i];
            let p = self.adjust_down(p, pl, level);
            let prod = self.mul_plain(p, first_pseed + i as u64);
            let term = self.rescale(prod);
            acc = Some(match acc {
                None => term,
                Some(a) => self.add(a, term),
            });
        }
        let below = level.saturating_sub(1);
        let base = match acc {
            Some(a) => a,
            None => {
                let (x, x_level) = powers[1];
                let zero = self.sub(x, x);
                self.adjust_down(zero, x_level, below)
            }
        };
        (self.add_plain(base, first_pseed), below)
    }
}

/// Chebyshev interpolation: coefficients of the degree-`deg` polynomial
/// approximating `f` on `[-1, 1]`, returned **in the power basis** so they
/// can be fed to [`ProgramBuilder::bsgs`].
pub fn chebyshev_coeffs(f: impl Fn(f64) -> f64, deg: usize) -> Vec<f64> {
    let n = deg + 1;
    // Chebyshev-basis coefficients via the DCT at Chebyshev nodes.
    let mut c = vec![0.0; n];
    let nodes: Vec<f64> = (0..n)
        .map(|k| (std::f64::consts::PI * (k as f64 + 0.5) / n as f64).cos())
        .collect();
    let fvals: Vec<f64> = nodes.iter().map(|&x| f(x)).collect();
    for (j, cj) in c.iter_mut().enumerate() {
        let mut s = 0.0;
        for (k, &fv) in fvals.iter().enumerate() {
            s += fv * (std::f64::consts::PI * j as f64 * (k as f64 + 0.5) / n as f64).cos();
        }
        *cj = 2.0 * s / n as f64;
    }
    c[0] /= 2.0;

    // Convert T_j basis to power basis: T_0 = 1, T_1 = x,
    // T_{j+1} = 2x T_j − T_{j−1}.
    let mut t_prev = vec![1.0]; // T_0
    let mut t_cur = vec![0.0, 1.0]; // T_1
    let mut out = vec![0.0; n];
    out[0] += c[0];
    if n > 1 {
        out[1] += c[1];
    }
    #[allow(clippy::needless_range_loop)]
    for j in 2..n {
        let mut t_next = vec![0.0; j + 1];
        for (i, &v) in t_cur.iter().enumerate() {
            t_next[i + 1] += 2.0 * v;
        }
        for (i, &v) in t_prev.iter().enumerate() {
            t_next[i] -= v;
        }
        for (i, &v) in t_next.iter().enumerate() {
            out[i] += c[j] * v;
        }
        t_prev = t_cur;
        t_cur = t_next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, Program};

    /// `x` at `level`, then the polynomial, as a one-input program.
    fn program(bsgs: bool, level: usize, coeffs: &[f64]) -> Program {
        let mut b = ProgramBuilder::new(28);
        let x = b.input();
        let y = if bsgs {
            b.bsgs(x, level, coeffs, 0)
        } else {
            b.horner(x, level, coeffs, 0)
        };
        b.output("y", y);
        b.finish()
    }

    #[test]
    fn chebyshev_reproduces_polynomial_exactly() {
        // Interpolating a cubic with degree 3 must recover it.
        let coeffs = chebyshev_coeffs(|x| 1.0 + 2.0 * x - 0.5 * x * x * x, 3);
        assert!((coeffs[0] - 1.0).abs() < 1e-9);
        assert!((coeffs[1] - 2.0).abs() < 1e-9);
        assert!(coeffs[2].abs() < 1e-9);
        assert!((coeffs[3] + 0.5).abs() < 1e-9);
    }

    #[test]
    fn chebyshev_approximates_smooth_function() {
        let coeffs = chebyshev_coeffs(f64::sin, 9);
        for k in 0..20 {
            let x = -1.0 + 0.1 * k as f64;
            let approx: f64 = coeffs
                .iter()
                .enumerate()
                .map(|(i, c)| c * x.powi(i as i32))
                .sum();
            assert!((approx - x.sin()).abs() < 1e-6, "x = {x}");
        }
    }

    #[test]
    fn helpers_compute_the_polynomial_exactly() {
        // Zero coefficients included: BSGS skips their terms, which must
        // not change the value.
        let xs = vec![0.3, -0.7, 0.9, -1.0];
        for deg in 1..=12 {
            let coeffs: Vec<f64> = (0..=deg)
                .map(|i| {
                    if i % 3 == 2 {
                        0.0
                    } else {
                        0.1 * i as f64 - 0.45
                    }
                })
                .collect();
            for bsgs in [false, true] {
                let p = program(bsgs, deg + 2, &coeffs);
                p.infer_states(deg + 2)
                    .unwrap_or_else(|e| panic!("deg {deg}, bsgs {bsgs}: {e}"));
                let nodes = reference::run(&p, std::slice::from_ref(&xs), &mut |pseed, slots| {
                    vec![coeffs[pseed as usize]; slots]
                });
                let out = &nodes[p.output_node("y").expect("declared")];
                for (got, &x) in out.iter().zip(&xs) {
                    let want: f64 = coeffs
                        .iter()
                        .enumerate()
                        .map(|(i, c)| c * x.powi(i as i32))
                        .sum();
                    assert!(
                        (got - want).abs() < 1e-12,
                        "deg {deg}, bsgs {bsgs}, x = {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn bsgs_at_degree_7_uses_at_most_5_levels() {
        let coeffs = [0.1, -0.3, 0.05, 0.2, -0.15, 0.08, 0.02, -0.01];
        let p = program(true, 7, &coeffs);
        let states = p.infer_states(7).expect("fits 7 levels");
        let out = states[p.output_node("y").expect("declared")];
        assert_eq!(out.pow, 1);
        assert!(7 - out.level <= 5, "BSGS used {} levels", 7 - out.level);
        // Horner needs one level per degree.
        let p = program(false, 7, &coeffs);
        let states = p.infer_states(7).expect("fits 7 levels");
        assert_eq!(states[p.output_node("y").expect("declared")].level, 0);
    }

    #[test]
    fn exhausted_levels_fail_validation_at_a_node() {
        // A cubic needs 3 levels; with 2, the third rescale is at level 0.
        let p = program(false, 2, &[0.25, -1.0, 0.5, 2.0]);
        let err = p.infer_states(2).unwrap_err();
        assert!(err.to_string().contains("level 0"), "{err}");
        assert!(matches!(err, crate::IrError::Invalid { node, .. } if node < p.num_nodes()));
    }

    #[test]
    #[should_panic(expected = "degree ≥ 1")]
    fn constant_polynomial_panics() {
        program(true, 3, &[0.5]);
    }
}
