//! RNS polynomials: vectors of residue polynomials mod word-sized primes.
//!
//! Residue loops are embarrassingly parallel (each residue's math touches
//! only that residue), so every multi-residue operation fans out across the
//! [`BpThreadPool`] carried by the residues' NTT tables. The fan-out is
//! deterministic: each residue index is processed by the same closure with
//! the same inputs regardless of the worker count, so results are
//! bit-identical at any thread setting.

use crate::{scratch, NttTable, PrimePool, RnsError};
use bp_math::{BigUint, Modulus};
use bp_par::BpThreadPool;
use bp_telemetry::counters::Counter;
use std::sync::Arc;

/// Telemetry: one elementwise kernel pass over `residues` residues.
#[inline]
fn count_elemwise(residues: usize) {
    bp_telemetry::counters::add(Counter::ElemwiseOps, residues as u64);
}

/// Adaptive-cutoff work estimate for one elementwise pass over an
/// `n`-coefficient residue (unit ≈ one 64-bit modular multiply).
#[inline]
pub(crate) fn elemwise_work(n: usize) -> u64 {
    n as u64
}

/// Adaptive-cutoff work estimate for one NTT/INTT over an `n`-coefficient
/// residue: `n · log2 n` butterflies.
#[inline]
pub(crate) fn ntt_work(n: usize) -> u64 {
    (n as u64).saturating_mul(u64::from(usize::BITS - 1 - n.leading_zeros()).max(1))
}

/// `c mod q` in `[0, q)` for any `i128`: `|c|` reduced by Barrett, then
/// negated when `c < 0`. The value of `c.rem_euclid(q)` without a 128-bit
/// division.
#[inline]
fn reduce_i128(m: &Modulus, c: i128) -> u64 {
    let r = m.reduce_u128(c.unsigned_abs());
    if c < 0 {
        m.neg(r)
    } else {
        r
    }
}

/// Telemetry: `k` residues shed, extracted, or appended.
#[inline]
fn count_residue_moves(k: usize) {
    bp_telemetry::counters::add(Counter::ResidueMoves, k as u64);
}

/// Representation domain of a polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Coefficient (power-basis) representation.
    Coeff,
    /// Evaluation (NTT/slot) representation.
    Ntt,
}

/// One residue polynomial: `N` coefficients modulo a single prime, plus a
/// handle to that prime's NTT tables.
///
/// Its buffer belongs to the thread-local [`scratch`] pool: building or
/// cloning a residue takes a pooled buffer when one of its length is
/// there, and dropping it gives the buffer back.
#[derive(Debug)]
pub struct ResiduePoly {
    table: Arc<NttTable>,
    coeffs: Vec<u64>,
}

impl Clone for ResiduePoly {
    fn clone(&self) -> Self {
        Self {
            table: Arc::clone(&self.table),
            coeffs: scratch::take_copy(&self.coeffs),
        }
    }
}

impl Drop for ResiduePoly {
    fn drop(&mut self) {
        scratch::give_back(std::mem::take(&mut self.coeffs));
    }
}

impl ResiduePoly {
    /// An all-zero residue polynomial for the given table.
    pub fn zero(table: Arc<NttTable>) -> Self {
        let n = table.n();
        Self {
            table,
            coeffs: scratch::take_zeroed(n),
        }
    }

    /// The prime modulus of this residue.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.table.modulus().value()
    }

    /// The coefficient (or slot) values.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Mutable access to the values.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [u64] {
        &mut self.coeffs
    }

    /// The NTT table handle.
    #[inline]
    pub fn table(&self) -> &Arc<NttTable> {
        &self.table
    }
}

/// A polynomial in `Z_Q[X]/(X^N + 1)` stored as residues modulo each prime
/// factor of `Q` (paper Sec. 2.3, Fig. 2).
///
/// Residue order is significant: two polynomials are *layout-compatible*
/// (addable, multipliable) only if their modulus sequences are identical.
#[derive(Debug, Clone)]
pub struct RnsPoly {
    n: usize,
    domain: Domain,
    residues: Vec<ResiduePoly>,
    /// Cached prime basis, kept in lock-step with `residues` so hot paths
    /// can compare/borrow the basis without allocating.
    moduli: Vec<u64>,
}

impl RnsPoly {
    /// The zero polynomial over the given prime basis.
    pub fn zero(pool: &PrimePool, moduli: &[u64], domain: Domain) -> Self {
        let residues = moduli
            .iter()
            .map(|&q| ResiduePoly::zero(pool.table(q)))
            .collect();
        Self {
            n: pool.n(),
            domain,
            residues,
            moduli: moduli.to_vec(),
        }
    }

    /// Builds a polynomial from signed coefficients (coefficient domain).
    /// Coefficients beyond `coeffs.len()` are zero.
    ///
    /// # Panics
    /// Panics if `coeffs.len() > N`.
    pub fn from_i64_coeffs(pool: &PrimePool, moduli: &[u64], coeffs: &[i64]) -> Self {
        Self::from_i128_coeffs(
            pool,
            moduli,
            &coeffs.iter().map(|&c| c as i128).collect::<Vec<_>>(),
        )
    }

    /// Builds a polynomial from wide signed coefficients (coefficient
    /// domain). Used by the encoder, whose coefficients can approach
    /// `scale · value ≈ 2^60`.
    ///
    /// # Panics
    /// Panics if `coeffs.len() > N`.
    pub fn from_i128_coeffs(pool: &PrimePool, moduli: &[u64], coeffs: &[i128]) -> Self {
        assert!(coeffs.len() <= pool.n(), "too many coefficients");
        let mut p = Self::zero(pool, moduli, Domain::Coeff);
        p.for_each_residue_mut(4 * elemwise_work(pool.n()), |_, r| {
            let m = *r.table.modulus();
            for (dst, &c) in r.coeffs.iter_mut().zip(coeffs) {
                *dst = reduce_i128(&m, c);
            }
        });
        p
    }

    /// The ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current representation domain.
    #[inline]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of residues `R`.
    #[inline]
    pub fn num_residues(&self) -> usize {
        self.residues.len()
    }

    /// The ordered prime basis (borrowed; maintained alongside the residue
    /// vector so callers never pay an allocation to inspect it).
    #[inline]
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// `log2 Q` over this polynomial's basis: the modulus (scale-
    /// capacity) bits actually in use across its residues.
    pub fn info_bits(&self) -> f64 {
        self.moduli.iter().map(|&q| (q as f64).log2()).sum()
    }

    /// Access residue `i`.
    ///
    /// # Panics
    /// Panics if `i >= R`.
    pub fn residue(&self, i: usize) -> &ResiduePoly {
        &self.residues[i]
    }

    /// The residue modulo `q`, borrowed in place.
    fn residue_by_modulus(&self, q: u64) -> Result<&ResiduePoly, RnsError> {
        self.moduli
            .iter()
            .position(|&m| m == q)
            .map(|i| &self.residues[i])
            .ok_or(RnsError::MissingModulus { modulus: q })
    }

    /// All residues.
    pub fn residues(&self) -> &[ResiduePoly] {
        &self.residues
    }

    /// Mutable access to the residues' values.
    ///
    /// Callers must preserve the invariant that every residue stays reduced
    /// modulo its prime; this is intended for samplers and test fixtures
    /// that fill coefficient values directly. (A slice — not the backing
    /// `Vec` — so the cached basis cannot drift out of sync.)
    pub fn residues_mut(&mut self) -> &mut [ResiduePoly] {
        &mut self.residues
    }

    /// Consumes the polynomial, yielding its residues. The zero-copy
    /// counterpart of [`RnsPoly::residues`] for callers that reassemble
    /// polynomials (keyswitch digit decomposition).
    pub fn into_residues(self) -> Vec<ResiduePoly> {
        self.residues
    }

    /// The executor carried by this polynomial's tables, if any residue
    /// exists.
    fn executor(&self) -> Option<Arc<BpThreadPool>> {
        self.residues.first().map(|r| Arc::clone(r.table.threads()))
    }

    /// Runs `f(index, residue)` over every residue, in parallel when the
    /// attached executor has more than one worker. `per_item_work` is the
    /// adaptive-cutoff estimate for one residue (see [`elemwise_work`] /
    /// [`ntt_work`]); fan-outs below the pool's threshold run inline.
    fn for_each_residue_mut<F>(&mut self, per_item_work: u64, f: F)
    where
        F: Fn(usize, &mut ResiduePoly) + Sync,
    {
        if let Some(ex) = self.executor() {
            ex.par_for_each_mut(&mut self.residues, per_item_work, f);
        }
    }

    /// Converts to NTT domain (no-op if already there).
    pub fn to_ntt(&mut self) {
        if self.domain == Domain::Ntt {
            return;
        }
        self.for_each_residue_mut(ntt_work(self.n), |_, r| {
            let table = Arc::clone(&r.table);
            table.forward(&mut r.coeffs);
        });
        self.domain = Domain::Ntt;
    }

    /// Converts to coefficient domain (no-op if already there).
    pub fn to_coeff(&mut self) {
        if self.domain == Domain::Coeff {
            return;
        }
        self.for_each_residue_mut(ntt_work(self.n), |_, r| {
            let table = Arc::clone(&r.table);
            table.inverse(&mut r.coeffs);
        });
        self.domain = Domain::Coeff;
    }

    fn check_degree_and_domain(&self, other: &Self) -> Result<(), RnsError> {
        if self.n != other.n {
            return Err(RnsError::DegreeMismatch {
                left: self.n,
                right: other.n,
            });
        }
        if self.domain != other.domain {
            return Err(RnsError::DomainMismatch {
                left: self.domain,
                right: other.domain,
            });
        }
        Ok(())
    }

    fn check_compatible(&self, other: &Self) -> Result<(), RnsError> {
        self.check_degree_and_domain(other)?;
        if self.moduli != other.moduli {
            return Err(RnsError::BasisMismatch {
                left: self.moduli.clone(),
                right: other.moduli.clone(),
            });
        }
        Ok(())
    }

    /// Elementwise sum. Works in either domain (both operands must match).
    ///
    /// # Errors
    /// [`RnsError`] if the operands are not layout-compatible.
    pub fn add(&self, other: &Self) -> Result<Self, RnsError> {
        self.clone().add_owned(other)
    }

    /// By-value elementwise sum: reuses `self`'s buffers instead of
    /// cloning.
    ///
    /// # Errors
    /// [`RnsError`] if the operands are not layout-compatible.
    pub fn add_owned(mut self, other: &Self) -> Result<Self, RnsError> {
        self.add_assign(other)?;
        Ok(self)
    }

    /// In-place elementwise sum.
    ///
    /// # Errors
    /// [`RnsError`] if the operands are not layout-compatible.
    pub fn add_assign(&mut self, other: &Self) -> Result<(), RnsError> {
        self.check_compatible(other)?;
        count_elemwise(self.residues.len());
        let rhs = other.residues.as_slice();
        self.for_each_residue_mut(elemwise_work(self.n), |i, a| {
            let m = *a.table.modulus();
            for (x, &y) in a.coeffs.iter_mut().zip(&rhs[i].coeffs) {
                *x = m.add(*x, y);
            }
        });
        Ok(())
    }

    /// Elementwise difference.
    ///
    /// # Errors
    /// [`RnsError`] if the operands are not layout-compatible.
    pub fn sub(&self, other: &Self) -> Result<Self, RnsError> {
        self.clone().sub_owned(other)
    }

    /// By-value elementwise difference: reuses `self`'s buffers.
    ///
    /// # Errors
    /// [`RnsError`] if the operands are not layout-compatible.
    pub fn sub_owned(mut self, other: &Self) -> Result<Self, RnsError> {
        self.sub_assign(other)?;
        Ok(self)
    }

    /// In-place elementwise difference.
    ///
    /// # Errors
    /// [`RnsError`] if the operands are not layout-compatible.
    pub fn sub_assign(&mut self, other: &Self) -> Result<(), RnsError> {
        self.check_compatible(other)?;
        count_elemwise(self.residues.len());
        let rhs = other.residues.as_slice();
        self.for_each_residue_mut(elemwise_work(self.n), |i, a| {
            let m = *a.table.modulus();
            for (x, &y) in a.coeffs.iter_mut().zip(&rhs[i].coeffs) {
                *x = m.sub(*x, y);
            }
        });
        Ok(())
    }

    /// Negation.
    #[must_use]
    pub fn neg(&self) -> Self {
        count_elemwise(self.residues.len());
        let mut out = self.clone();
        let work = elemwise_work(self.n);
        out.for_each_residue_mut(work, |_, r| {
            let m = *r.table.modulus();
            for x in &mut r.coeffs {
                *x = m.neg(*x);
            }
        });
        out
    }

    /// Polynomial product; both operands must be in NTT domain.
    ///
    /// # Errors
    /// [`RnsError::WrongDomain`] if either operand is in coefficient
    /// domain; [`RnsError`] if layouts differ.
    pub fn mul(&self, other: &Self) -> Result<Self, RnsError> {
        self.clone().mul_owned(other)
    }

    /// By-value polynomial product (NTT domain): reuses `self`'s buffers.
    ///
    /// # Errors
    /// [`RnsError`] if either operand is in coefficient domain or layouts
    /// differ.
    pub fn mul_owned(mut self, other: &Self) -> Result<Self, RnsError> {
        self.mul_assign(other)?;
        Ok(self)
    }

    /// In-place polynomial product (NTT domain).
    ///
    /// # Errors
    /// [`RnsError`] if either operand is in coefficient domain or layouts
    /// differ.
    pub fn mul_assign(&mut self, other: &Self) -> Result<(), RnsError> {
        if self.domain != Domain::Ntt {
            return Err(RnsError::WrongDomain {
                op: "mul",
                found: self.domain,
                required: Domain::Ntt,
            });
        }
        self.check_compatible(other)?;
        count_elemwise(self.residues.len());
        let rhs = other.residues.as_slice();
        self.for_each_residue_mut(elemwise_work(self.n), |i, a| {
            let m = *a.table.modulus();
            for (x, &y) in a.coeffs.iter_mut().zip(&rhs[i].coeffs) {
                *x = m.mul(*x, y);
            }
        });
        Ok(())
    }

    /// Fused multiply-accumulate: `self += x * y`, all three in NTT domain.
    ///
    /// One traversal instead of a product allocation plus an add pass —
    /// the keyswitch inner loop (`acc += ext * key`) is built on this.
    /// `y`'s basis may be wider than `self`'s: each of `self`'s moduli is
    /// looked up in `y` and that residue read in place, so a keyswitch
    /// key over the full basis is never copied down to a level's basis.
    ///
    /// # Errors
    /// [`RnsError`] if any operand is in coefficient domain, if `x`'s
    /// layout differs from `self`'s, if `y`'s degree differs, or
    /// [`RnsError::MissingModulus`] if `y` lacks one of `self`'s moduli.
    pub fn mul_add_assign(&mut self, x: &Self, y: &Self) -> Result<(), RnsError> {
        if self.domain != Domain::Ntt {
            return Err(RnsError::WrongDomain {
                op: "mul_add",
                found: self.domain,
                required: Domain::Ntt,
            });
        }
        self.check_compatible(x)?;
        let ys = self.residues_in(y)?;
        count_elemwise(self.residues.len());
        let xs = x.residues.as_slice();
        self.for_each_residue_mut(elemwise_work(self.n), |i, acc| {
            let m = *acc.table.modulus();
            for ((a, &xv), &yv) in acc.coeffs.iter_mut().zip(&xs[i].coeffs).zip(&ys[i].coeffs) {
                *a = m.mul_add(xv, yv, *a);
            }
        });
        Ok(())
    }

    /// Polynomial product `self · y`, both in NTT domain, over `self`'s
    /// basis. As in [`RnsPoly::mul_add_assign`], `y`'s basis may be wider
    /// and is read in place at `self`'s moduli. Each output residue is
    /// written straight into a pooled buffer, with no zero-fill first:
    /// the keyswitch starts its accumulators from the first digit's
    /// product with this.
    ///
    /// # Errors
    /// [`RnsError`] if either operand is in coefficient domain, if `y`'s
    /// degree differs, or [`RnsError::MissingModulus`] if `y` lacks one of
    /// `self`'s moduli.
    pub fn mul_wide(&self, y: &Self) -> Result<Self, RnsError> {
        if self.domain != Domain::Ntt {
            return Err(RnsError::WrongDomain {
                op: "mul_wide",
                found: self.domain,
                required: Domain::Ntt,
            });
        }
        let ys = self.residues_in(y)?;
        count_elemwise(self.residues.len());
        let (n, xs) = (self.n, self.residues.as_slice());
        let residues = match self.executor() {
            None => Vec::new(),
            Some(ex) => ex.par_map(xs.len(), elemwise_work(n), |i| {
                let m = *xs[i].table.modulus();
                let (x, y) = (&xs[i].coeffs[..n], &ys[i].coeffs[..n]);
                ResiduePoly {
                    table: Arc::clone(&xs[i].table),
                    coeffs: scratch::take_with(n, |k| m.mul(x[k], y[k])),
                }
            }),
        };
        Ok(Self {
            n,
            domain: Domain::Ntt,
            residues,
            moduli: self.moduli.clone(),
        })
    }

    /// `y`'s residues at `self`'s moduli, borrowed in place (`y`'s basis
    /// may be wider).
    fn residues_in<'y>(&self, y: &'y Self) -> Result<Vec<&'y ResiduePoly>, RnsError> {
        self.check_degree_and_domain(y)?;
        self.moduli
            .iter()
            .map(|&q| y.residue_by_modulus(q))
            .collect()
    }

    /// Multiplies residue `i` by the scalar `consts[i]` (already reduced mod
    /// `qᵢ`). Valid in either domain (scalar multiplication commutes with
    /// the NTT).
    ///
    /// # Errors
    /// [`RnsError::LengthMismatch`] if `consts.len() != R`.
    pub fn mul_scalar_per_residue(&mut self, consts: &[u64]) -> Result<(), RnsError> {
        if consts.len() != self.residues.len() {
            return Err(RnsError::LengthMismatch {
                what: "per-residue constants",
                expected: self.residues.len(),
                found: consts.len(),
            });
        }
        count_elemwise(self.residues.len());
        self.for_each_residue_mut(elemwise_work(self.n), |i, r| {
            let m = *r.table.modulus();
            let c = m.reduce(consts[i]);
            let cs = m.shoup(c);
            for x in &mut r.coeffs {
                *x = m.mul_shoup(*x, c, cs);
            }
        });
        Ok(())
    }

    /// Multiplies every residue by a (wide) integer constant, reducing it per
    /// modulus first. This is `mulConst` in the paper's listings.
    pub fn mul_biguint(&mut self, k: &BigUint) {
        let consts: Vec<u64> = self.moduli.iter().map(|&q| k.rem_u64(q)).collect();
        self.mul_scalar_per_residue(&consts)
            .expect("constant list built from own moduli");
    }

    /// Multiplies every residue by the same small scalar.
    pub fn mul_scalar_u64(&mut self, c: u64) {
        let consts: Vec<u64> = self.moduli.iter().map(|&q| c % q).collect();
        self.mul_scalar_per_residue(&consts)
            .expect("constant list built from own moduli");
    }

    /// Applies the Galois automorphism `X → X^t` (odd `t`) to a polynomial
    /// in NTT form, used to implement slot rotations and conjugation.
    ///
    /// Slot `k` of [`NttTable::forward`] holds the polynomial's value at
    /// `ψ^(2k+1)`, in natural order, so slot `k` of `a(X^t)` is `a` at
    /// `ψ^(t·(2k+1))`: the automorphism is the gather
    /// `out[k] = in[(t·(2k+1) mod 2N) >> 1]`, with no transform and no
    /// sign flips.
    ///
    /// # Errors
    /// [`RnsError::WrongDomain`] if the polynomial is in coefficient
    /// domain; [`RnsError::EvenGaloisElement`] if `t` is even.
    pub fn automorphism(&self, t: usize) -> Result<Self, RnsError> {
        if self.domain != Domain::Ntt {
            return Err(RnsError::WrongDomain {
                op: "automorphism",
                found: self.domain,
                required: Domain::Ntt,
            });
        }
        if t.is_multiple_of(2) {
            return Err(RnsError::EvenGaloisElement { t });
        }
        let n = self.n;
        // 2N is a power of two, so `& mask` is `mod 2N`; reducing `t`
        // first keeps `t·(2k+1) < 4N²` from overflowing.
        let mask = 2 * n - 1;
        let t = t & mask;
        let src = self.residues.as_slice();
        let residues = match self.executor() {
            None => Vec::new(),
            Some(ex) => ex.par_map(src.len(), elemwise_work(n), |i| {
                let sp = &src[i];
                let coeffs = scratch::take_with(n, |k| sp.coeffs[((t * (2 * k + 1)) & mask) >> 1]);
                ResiduePoly {
                    table: Arc::clone(&sp.table),
                    coeffs,
                }
            }),
        };
        Ok(Self {
            n,
            domain: Domain::Ntt,
            residues,
            moduli: self.moduli.clone(),
        })
    }

    /// Removes and returns the last `k` residues.
    ///
    /// # Errors
    /// [`RnsError::NotEnoughResidues`] if `k > R`.
    pub fn pop_residues(&mut self, k: usize) -> Result<Vec<ResiduePoly>, RnsError> {
        if k > self.residues.len() {
            return Err(RnsError::NotEnoughResidues {
                op: "pop_residues",
                have: self.residues.len(),
                need: k,
            });
        }
        count_residue_moves(k);
        let keep = self.residues.len() - k;
        self.moduli.truncate(keep);
        Ok(self.residues.split_off(keep))
    }

    /// Removes and returns the residues whose moduli appear in `moduli`
    /// (preserving the order of the remaining residues). This implements the
    /// `moveResiduesToEnd` + shed step of `scaleDown` (paper Listing 5).
    ///
    /// # Errors
    /// [`RnsError::MissingModulus`] if any requested modulus is absent (the
    /// polynomial is left with the residues removed so far).
    pub fn extract_residues(&mut self, moduli: &[u64]) -> Result<Vec<ResiduePoly>, RnsError> {
        let mut out = Vec::with_capacity(moduli.len());
        for &q in moduli {
            let idx = self
                .residues
                .iter()
                .position(|r| r.modulus() == q)
                .ok_or(RnsError::MissingModulus { modulus: q })?;
            self.moduli.remove(idx);
            out.push(self.residues.remove(idx));
        }
        count_residue_moves(out.len());
        Ok(out)
    }

    /// Appends all-zero residues for the given tables (the cheap half of
    /// `scaleUp`, paper Listing 3: after multiplying by `K = ∏ new qᵢ`, the
    /// new residues are exactly zero).
    ///
    /// # Errors
    /// [`RnsError::DegreeMismatch`] if a table's ring degree differs.
    pub fn append_zero_residues(&mut self, tables: &[Arc<NttTable>]) -> Result<(), RnsError> {
        for t in tables {
            if t.n() != self.n {
                return Err(RnsError::DegreeMismatch {
                    left: self.n,
                    right: t.n(),
                });
            }
        }
        count_residue_moves(tables.len());
        for t in tables {
            self.moduli.push(t.modulus().value());
            self.residues.push(ResiduePoly::zero(Arc::clone(t)));
        }
        Ok(())
    }

    /// Assembles a polynomial from residue polynomials.
    ///
    /// # Errors
    /// [`RnsError::EmptyBasis`] if `residues` is empty;
    /// [`RnsError::DegreeMismatch`] if ring degrees disagree.
    pub fn from_residues(domain: Domain, residues: Vec<ResiduePoly>) -> Result<Self, RnsError> {
        let n = residues.first().ok_or(RnsError::EmptyBasis)?.table.n();
        for r in &residues {
            if r.table.n() != n {
                return Err(RnsError::DegreeMismatch {
                    left: n,
                    right: r.table.n(),
                });
            }
        }
        let moduli = residues.iter().map(|r| r.modulus()).collect();
        Ok(Self {
            n,
            domain,
            residues,
            moduli,
        })
    }

    /// Returns a copy containing only the residues for `moduli`, in that
    /// order. Used to restrict full-basis keys to a level's basis and to
    /// slice out keyswitching digits.
    ///
    /// # Errors
    /// [`RnsError::MissingModulus`] if a requested modulus is absent.
    pub fn restricted(&self, moduli: &[u64]) -> Result<Self, RnsError> {
        let residues = moduli
            .iter()
            .map(|&q| self.residue_by_modulus(q).cloned())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            n: self.n,
            domain: self.domain,
            residues,
            moduli: moduli.to_vec(),
        })
    }

    /// Checks every coefficient of every residue is reduced modulo its
    /// prime. Honest library code never violates this, but deserialized or
    /// fault-injected polynomials can; integrity validation calls this.
    ///
    /// # Errors
    /// [`RnsError::UnreducedCoefficient`] naming the first violation.
    pub fn check_reduced(&self) -> Result<(), RnsError> {
        for r in &self.residues {
            let q = r.modulus();
            for (i, &c) in r.coeffs.iter().enumerate() {
                if c >= q {
                    return Err(RnsError::UnreducedCoefficient {
                        modulus: q,
                        index: i,
                        value: c,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn setup() -> (Arc<PrimePool>, Vec<u64>) {
        let pool = Arc::new(PrimePool::new(1 << 5));
        let qs = pool.first_primes_below(30, 3);
        (pool, qs)
    }

    #[test]
    fn add_sub_roundtrip() {
        let (pool, qs) = setup();
        let a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, -2, 3, -4]);
        let b = RnsPoly::from_i64_coeffs(&pool, &qs, &[10, 20, -30]);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        for i in 0..a.num_residues() {
            assert_eq!(a.residue(i).coeffs(), c.residue(i).coeffs());
        }
    }

    /// The encoder's reduction equals `rem_euclid` at 28-, 45- and 61-bit
    /// primes: at the edges around 0 and ±q, at the ends of `i128`, and
    /// at seeded random values of every width.
    #[test]
    fn reduce_i128_matches_rem_euclid() {
        use bp_math::primes::ntt_primes_below;
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(0x1128);
        for bits in [28, 45, 61] {
            let q = ntt_primes_below(bits, 64).next().expect("a prime");
            let m = Modulus::new(q);
            let qi = i128::from(q);
            let mut cases = vec![i128::MIN, i128::MAX, i128::MIN + 1];
            for c in [0, 1, qi - 1, qi, qi + 1] {
                cases.extend([c, -c]);
            }
            for _ in 0..2000 {
                let shift = rng.gen_range(0..128);
                let c = (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) as i128;
                cases.push(c >> shift);
            }
            for c in cases {
                let want = c.rem_euclid(qi) as u64;
                assert_eq!(reduce_i128(&m, c), want, "{c} mod {q}");
            }
        }
    }

    #[test]
    fn negative_coeffs_reduce_correctly() {
        let (pool, qs) = setup();
        let a = RnsPoly::from_i64_coeffs(&pool, &qs, &[-1]);
        for r in a.residues() {
            assert_eq!(r.coeffs()[0], r.modulus() - 1);
        }
    }

    #[test]
    fn ntt_mul_matches_small_product() {
        let (pool, qs) = setup();
        // (1 + X) * (1 - X) = 1 - X^2
        let mut a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, 1]);
        let mut b = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, -1]);
        a.to_ntt();
        b.to_ntt();
        let mut c = a.mul(&b).unwrap();
        c.to_coeff();
        let r = c.residue(0);
        let q = r.modulus();
        assert_eq!(r.coeffs()[0], 1);
        assert_eq!(r.coeffs()[1], 0);
        assert_eq!(r.coeffs()[2], q - 1);
    }

    #[test]
    fn scalar_mul_commutes_with_ntt() {
        let (pool, qs) = setup();
        let base = RnsPoly::from_i64_coeffs(&pool, &qs, &[3, 1, 4, 1, 5]);
        let mut a = base.clone();
        a.mul_scalar_u64(7);
        a.to_ntt();
        let mut b = base.clone();
        b.to_ntt();
        b.mul_scalar_u64(7);
        for i in 0..a.num_residues() {
            assert_eq!(a.residue(i).coeffs(), b.residue(i).coeffs());
        }
    }

    /// The coefficient-domain automorphism `X → X^t`: coefficient `i`
    /// moves to `i·t mod 2N`, negated when that lands at or past `N`
    /// (`X^N = −1`). The reference the NTT-slot gather is checked against.
    pub(crate) fn scatter(a: &RnsPoly, t: usize) -> RnsPoly {
        assert_eq!(a.domain(), Domain::Coeff);
        let n = a.n();
        let residues = a
            .residues()
            .iter()
            .map(|r| {
                let m = *r.table().modulus();
                let mut coeffs = vec![0u64; n];
                for (i, &c) in r.coeffs().iter().enumerate() {
                    let j = (i * t) % (2 * n);
                    if j < n {
                        coeffs[j] = c;
                    } else {
                        coeffs[j - n] = m.neg(c);
                    }
                }
                ResiduePoly {
                    table: Arc::clone(r.table()),
                    coeffs,
                }
            })
            .collect();
        RnsPoly::from_residues(Domain::Coeff, residues).unwrap()
    }

    /// Uniform residues from a fixed seed, coefficient domain.
    pub(crate) fn random_poly(pool: &PrimePool, qs: &[u64], seed: u64) -> RnsPoly {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(seed);
        let mut a = RnsPoly::zero(pool, qs, Domain::Coeff);
        for r in a.residues_mut() {
            let q = r.modulus();
            for c in r.coeffs_mut() {
                *c = rng.gen_range(0..q);
            }
        }
        a
    }

    fn ntt(mut a: RnsPoly) -> RnsPoly {
        a.to_ntt();
        a
    }

    pub(crate) fn assert_same(a: &RnsPoly, b: &RnsPoly, what: &str) {
        assert_eq!(a.moduli(), b.moduli(), "{what}");
        assert_eq!(a.domain(), b.domain(), "{what}");
        for i in 0..a.num_residues() {
            assert_eq!(a.residue(i).coeffs(), b.residue(i).coeffs(), "{what}");
        }
    }

    #[test]
    fn gather_matches_coefficient_automorphism() {
        for n in [8usize, 64, 4096] {
            let pool = PrimePool::new(n);
            let qs = pool.first_primes_below(40, 2);
            let two_n = 2 * n as u64;
            let mut ts = vec![1, two_n as usize - 1];
            // Rotation elements 5^k mod 2N, up to the group order N/2.
            for k in [1u64, 2, 3, n as u64 / 4, n as u64 / 2 - 1] {
                ts.push(bp_math::primes::pow_mod_u64(5, k, two_n) as usize);
            }
            for (seed, &t) in ts.iter().enumerate() {
                let a = random_poly(&pool, &qs, seed as u64);
                let got = ntt(a.clone()).automorphism(t).unwrap();
                assert_same(&got, &ntt(scatter(&a, t)), &format!("n={n} t={t}"));
            }
        }
    }

    #[test]
    fn automorphism_identity_and_inverse() {
        let (pool, qs) = setup();
        let a = ntt(random_poly(&pool, &qs, 1));
        // t = 1 is the identity.
        assert_same(&a.automorphism(1).unwrap(), &a, "t = 1");
        // Applying t then its inverse mod 2N is the identity.
        let two_n = 2 * a.n();
        let t = 5usize;
        let tinv = (1..two_n)
            .step_by(2)
            .find(|&x| (x * t) % two_n == 1)
            .unwrap();
        let back = a.automorphism(t).unwrap().automorphism(tinv).unwrap();
        assert_same(&back, &a, "t then t^-1");
    }

    #[test]
    fn automorphism_is_ring_homomorphism() {
        // phi(a*b) == phi(a)*phi(b)
        let (pool, qs) = setup();
        let a = ntt(random_poly(&pool, &qs, 2));
        let b = ntt(random_poly(&pool, &qs, 3));
        let t = 7usize;
        let lhs = a.mul(&b).unwrap().automorphism(t).unwrap();
        let rhs = a
            .automorphism(t)
            .unwrap()
            .mul(&b.automorphism(t).unwrap())
            .unwrap();
        assert_same(&lhs, &rhs, "phi(a*b)");
    }

    #[test]
    fn extract_residues_by_value() {
        let (pool, qs) = setup();
        let mut a = RnsPoly::from_i64_coeffs(&pool, &qs, &[42]);
        let taken = a.extract_residues(&[qs[1]]).unwrap();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].modulus(), qs[1]);
        assert_eq!(a.moduli(), &[qs[0], qs[2]][..]);
    }

    #[test]
    fn append_zero_residues_extends_basis() {
        let (pool, qs) = setup();
        let mut a = RnsPoly::from_i64_coeffs(&pool, &qs[..2], &[1]);
        a.append_zero_residues(&[pool.table(qs[2])]).unwrap();
        assert_eq!(a.num_residues(), 3);
        assert_eq!(a.moduli(), qs.as_slice());
        assert!(a.residue(2).coeffs().iter().all(|&x| x == 0));
    }

    #[test]
    fn incompatible_add_reports_basis_mismatch() {
        let (pool, qs) = setup();
        let a = RnsPoly::from_i64_coeffs(&pool, &qs[..2], &[1]);
        let b = RnsPoly::from_i64_coeffs(&pool, &qs[..3], &[1]);
        match a.add(&b) {
            Err(RnsError::BasisMismatch { left, right }) => {
                assert_eq!(left.len(), 2);
                assert_eq!(right.len(), 3);
            }
            other => panic!("expected BasisMismatch, got {other:?}"),
        }
    }

    #[test]
    fn domain_mismatch_reported_before_basis() {
        let (pool, qs) = setup();
        let a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1]);
        let mut b = a.clone();
        b.to_ntt();
        assert!(matches!(
            a.add(&b),
            Err(RnsError::DomainMismatch {
                left: Domain::Coeff,
                right: Domain::Ntt
            })
        ));
    }

    #[test]
    fn mul_in_coeff_domain_reports_wrong_domain() {
        let (pool, qs) = setup();
        let a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, 2]);
        assert!(matches!(
            a.mul(&a),
            Err(RnsError::WrongDomain { op: "mul", .. })
        ));
    }

    #[test]
    fn automorphism_rejects_even_and_coeff() {
        let (pool, qs) = setup();
        let a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, 2]);
        assert!(matches!(
            a.automorphism(3),
            Err(RnsError::WrongDomain {
                op: "automorphism",
                found: Domain::Coeff,
                required: Domain::Ntt,
            })
        ));
        let b = ntt(a);
        assert!(matches!(
            b.automorphism(4),
            Err(RnsError::EvenGaloisElement { t: 4 })
        ));
    }

    #[test]
    fn missing_modulus_and_pop_overflow_are_typed() {
        let (pool, qs) = setup();
        let mut a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1]);
        assert!(matches!(
            a.restricted(&[12345]),
            Err(RnsError::MissingModulus { modulus: 12345 })
        ));
        assert!(matches!(
            a.extract_residues(&[999]),
            Err(RnsError::MissingModulus { modulus: 999 })
        ));
        assert!(matches!(
            a.pop_residues(17),
            Err(RnsError::NotEnoughResidues { need: 17, .. })
        ));
        assert!(matches!(
            RnsPoly::from_residues(Domain::Coeff, vec![]),
            Err(RnsError::EmptyBasis)
        ));
    }

    #[test]
    fn check_reduced_flags_corruption() {
        let (pool, qs) = setup();
        let mut a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, 2]);
        assert!(a.check_reduced().is_ok());
        let q = a.residue(0).modulus();
        a.residues_mut()[0].coeffs_mut()[1] = q; // == modulus: unreduced
        assert!(matches!(
            a.check_reduced(),
            Err(RnsError::UnreducedCoefficient { index: 1, .. })
        ));
    }

    #[test]
    fn mul_add_assign_matches_mul_then_add() {
        let (pool, qs) = setup();
        let mut x = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, 2, 3, 4]);
        let mut y = RnsPoly::from_i64_coeffs(&pool, &qs, &[5, -6, 7]);
        let mut acc = RnsPoly::from_i64_coeffs(&pool, &qs, &[9, 9, 9, 9, 9]);
        x.to_ntt();
        y.to_ntt();
        acc.to_ntt();

        let expect = acc.add(&x.mul(&y).unwrap()).unwrap();
        acc.mul_add_assign(&x, &y).unwrap();
        for i in 0..acc.num_residues() {
            assert_eq!(acc.residue(i).coeffs(), expect.residue(i).coeffs());
        }
    }

    #[test]
    fn mul_add_assign_reads_a_wider_operand_by_modulus() {
        let (pool, qs) = setup();
        // The accumulator's basis is a reordered subset of y's.
        let sub = [qs[2], qs[0]];
        let x = ntt(random_poly(&pool, &sub, 4));
        let y = ntt(random_poly(&pool, &qs, 5));
        let mut acc = ntt(random_poly(&pool, &sub, 6));
        let expect = acc
            .add(&x.mul(&y.restricted(&sub).unwrap()).unwrap())
            .unwrap();
        acc.mul_add_assign(&x, &y).unwrap();
        assert_same(&acc, &expect, "acc += x * y|sub");

        // y lacking one of acc's moduli, in the wrong domain, or of
        // another degree is a typed error, and acc is left untouched.
        let narrow = ntt(random_poly(&pool, &qs[..2], 7));
        assert!(matches!(
            acc.mul_add_assign(&x, &narrow),
            Err(RnsError::MissingModulus { modulus }) if modulus == qs[2]
        ));
        let coeff = random_poly(&pool, &qs, 8);
        assert!(matches!(
            acc.mul_add_assign(&x, &coeff),
            Err(RnsError::DomainMismatch {
                left: Domain::Ntt,
                right: Domain::Coeff
            })
        ));
        let other = PrimePool::new(2 * pool.n());
        let wide = ntt(random_poly(&other, &other.first_primes_below(30, 3), 9));
        assert!(matches!(
            acc.mul_add_assign(&x, &wide),
            Err(RnsError::DegreeMismatch { .. })
        ));
        assert_same(&acc, &expect, "unchanged after errors");
    }

    #[test]
    fn owned_variants_match_borrowed() {
        let (pool, qs) = setup();
        let a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, -2, 3]);
        let b = RnsPoly::from_i64_coeffs(&pool, &qs, &[4, 5, -6]);
        let s1 = a.add(&b).unwrap();
        let s2 = a.clone().add_owned(&b).unwrap();
        let d1 = a.sub(&b).unwrap();
        let d2 = a.clone().sub_owned(&b).unwrap();
        for i in 0..a.num_residues() {
            assert_eq!(s1.residue(i).coeffs(), s2.residue(i).coeffs());
            assert_eq!(d1.residue(i).coeffs(), d2.residue(i).coeffs());
        }
    }

    #[test]
    fn pop_residues_keeps_cached_basis_in_sync() {
        let (pool, qs) = setup();
        let mut a = RnsPoly::from_i64_coeffs(&pool, &qs, &[1, 2, 3]);
        let popped = a.pop_residues(2).unwrap();
        assert_eq!(popped.len(), 2);
        assert_eq!(a.moduli(), &qs[..1]);
        assert_eq!(a.num_residues(), 1);
    }
}
