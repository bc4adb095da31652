//! Modulus-chain construction for both representations.
//!
//! A *chain* maps each level `L` to its residue-modulus set `M_L` and exact
//! scale `S_L` (paper Figs. 4 and 5):
//!
//! * **RNS-CKKS** links residues to scales: `M_L = M_{L−1} ∪ G_L` where the
//!   group `G_L` has product ≈ the level's scale. When the scale exceeds the
//!   word width the group holds several sub-word primes (multiple-prime
//!   rescaling, Sec. 2.3); when the scale is *below* the smallest
//!   NTT-friendly prime pair, the scale is bumped to the smallest achievable
//!   value (the paper's "unavoidable inefficiency" at 28-bit words).
//! * **BitPacker** packs every level into word-sized *non-terminal* primes
//!   plus one or two sub-word *terminal* primes chosen by a greedy DFS to
//!   land within 0.5 bits of the target (Sec. 3.3, Listing 7). Moving down
//!   a level sheds the old terminals and introduces new ones.
//!
//! The chain also fixes the keyswitching layout: the ordered union of all
//! level moduli (`keyswitch_basis`), their round-robin digit assignment, and
//! the special primes `P`.

use crate::params::{CkksParams, Representation};
use bp_math::primes::{closest_ntt_prime, ntt_primes_below};
use bp_math::{BigUint, FactoredScale};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Per-level information: the residue basis and the exact scale.
#[derive(Debug, Clone)]
pub struct LevelInfo {
    /// Residue moduli at this level, non-terminals first (descending), then
    /// terminals.
    pub moduli: Vec<u64>,
    /// Exact scale `S_L`.
    pub scale: FactoredScale,
}

/// Errors from chain construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The candidate prime pool could not match a level's target modulus
    /// within the 0.5-bit tolerance.
    TargetUnmatched {
        /// Level whose target could not be met.
        level: usize,
    },
    /// Not enough NTT-friendly primes exist below the word size.
    NotEnoughPrimes(String),
    /// The total modulus (including special primes) exceeds the security
    /// budget `Q_max`.
    SecurityExceeded {
        /// Bits required by the chain (Q·P).
        needed: u32,
        /// Bits allowed at this ring degree and security level.
        allowed: u32,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::TargetUnmatched { level } => {
                write!(
                    f,
                    "no modulus combination matches level {level} within 0.5 bits"
                )
            }
            ChainError::NotEnoughPrimes(msg) => write!(f, "not enough NTT-friendly primes: {msg}"),
            ChainError::SecurityExceeded { needed, allowed } => write!(
                f,
                "modulus needs {needed} bits but security level allows {allowed}"
            ),
        }
    }
}

impl std::error::Error for ChainError {}

/// A fully constructed level-to-modulus map (paper Fig. 8 output).
#[derive(Debug, Clone)]
pub struct ModulusChain {
    levels: Vec<LevelInfo>,
    special: Vec<u64>,
    /// Ordered union of all level moduli; fixes digit assignment.
    ks_basis: Vec<u64>,
    /// Digit index per `ks_basis` entry.
    digit_of: Vec<usize>,
    dnum: usize,
    word_bits: u32,
    representation: Representation,
}

impl ModulusChain {
    /// Builds the chain for a parameter set.
    ///
    /// # Errors
    /// See [`ChainError`].
    pub fn new(params: &CkksParams) -> Result<Self, ChainError> {
        let levels = match params.representation() {
            Representation::BitPacker => build_bitpacker_levels(params)?,
            Representation::RnsCkks => build_rns_ckks_levels(params)?,
        };

        // Keyswitch basis: ordered union of all level moduli. Order:
        // first appearance scanning from the top level down (non-terminals
        // first), which keeps word-sized primes early for balanced digits.
        let mut ks_basis: Vec<u64> = Vec::new();
        for l in (0..levels.len()).rev() {
            for &q in &levels[l].moduli {
                if !ks_basis.contains(&q) {
                    ks_basis.push(q);
                }
            }
        }
        let dnum = params.dnum();
        let digit_of: Vec<usize> = (0..ks_basis.len()).map(|i| i % dnum).collect();

        // Max digit width (bits) over all levels determines the special
        // primes: P must cover the largest digit product.
        let mut max_digit_bits = 0f64;
        for li in &levels {
            let mut per_digit = vec![0f64; dnum];
            for &q in &li.moduli {
                let idx = ks_basis.iter().position(|&u| u == q).expect("in basis");
                per_digit[digit_of[idx]] += (q as f64).log2();
            }
            for d in per_digit {
                if d > max_digit_bits {
                    max_digit_bits = d;
                }
            }
        }

        // Special primes: largest NTT-friendly primes below 2^w not already
        // used, until their product exceeds the max digit product (plus one
        // bit of margin for the accumulated keyswitch noise).
        let two_n = 2 * params.n() as u64;
        let mut special = Vec::new();
        let mut sp_bits = 0f64;
        for p in ntt_primes_below(params.word_bits(), two_n) {
            if ks_basis.contains(&p) {
                continue;
            }
            special.push(p);
            sp_bits += (p as f64).log2();
            if sp_bits >= max_digit_bits + 1.0 {
                break;
            }
        }
        if sp_bits < max_digit_bits + 1.0 {
            return Err(ChainError::NotEnoughPrimes(format!(
                "cannot cover {max_digit_bits:.1}-bit digits with special primes below 2^{}",
                params.word_bits()
            )));
        }

        let chain = Self {
            levels,
            special,
            ks_basis,
            digit_of,
            dnum,
            word_bits: params.word_bits(),
            representation: params.representation(),
        };

        // Security check: Q at the top level plus the special primes.
        let needed = (chain.log_q_at(chain.max_level()) + sp_bits).ceil() as u32;
        let allowed = params.security().max_log_q(params.n());
        if needed > allowed {
            return Err(ChainError::SecurityExceeded { needed, allowed });
        }
        Ok(chain)
    }

    /// Highest level.
    pub fn max_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Level info (moduli + exact scale).
    ///
    /// # Panics
    /// Panics if `l > max_level`.
    pub fn level(&self, l: usize) -> &LevelInfo {
        &self.levels[l]
    }

    /// Residue moduli at level `l`.
    pub fn moduli_at(&self, l: usize) -> &[u64] {
        &self.levels[l].moduli
    }

    /// Exact scale at level `l`.
    pub fn scale_at(&self, l: usize) -> &FactoredScale {
        &self.levels[l].scale
    }

    /// Number of residues at level `l` (the `R` that drives accelerator
    /// cost; paper Sec. 4.2).
    pub fn residue_count_at(&self, l: usize) -> usize {
        self.levels[l].moduli.len()
    }

    /// `log₂ Q_l`.
    pub fn log_q_at(&self, l: usize) -> f64 {
        self.levels[l]
            .moduli
            .iter()
            .map(|&q| (q as f64).log2())
            .sum()
    }

    /// `Q_l` as a big integer.
    pub fn q_at(&self, l: usize) -> BigUint {
        BigUint::product_of(&self.levels[l].moduli)
    }

    /// Datapath utilization at level `l`: information bits / storage bits
    /// (`log₂ Q / (R·w)`; Fig. 1 reports the complement as overhead).
    pub fn utilization_at(&self, l: usize) -> f64 {
        self.log_q_at(l) / (self.residue_count_at(l) as f64 * self.word_bits as f64)
    }

    /// Moduli shed when rescaling from level `l` to `l−1`
    /// (`M_l \ M_{l−1}`).
    ///
    /// # Panics
    /// Panics if `l == 0`.
    pub fn shed_between(&self, l: usize) -> Vec<u64> {
        assert!(l > 0, "level 0 has no lower level");
        let lower = &self.levels[l - 1].moduli;
        self.levels[l]
            .moduli
            .iter()
            .copied()
            .filter(|q| !lower.contains(q))
            .collect()
    }

    /// Moduli introduced when rescaling from level `l` to `l−1`
    /// (`M_{l−1} \ M_l`). Empty for RNS-CKKS; the new terminals for
    /// BitPacker.
    ///
    /// # Panics
    /// Panics if `l == 0`.
    pub fn added_between(&self, l: usize) -> Vec<u64> {
        assert!(l > 0, "level 0 has no lower level");
        let upper = &self.levels[l].moduli;
        self.levels[l - 1]
            .moduli
            .iter()
            .copied()
            .filter(|q| !upper.contains(q))
            .collect()
    }

    /// Keyswitching special primes `P`.
    pub fn special(&self) -> &[u64] {
        &self.special
    }

    /// The ordered union of all level moduli (keyswitch key basis).
    pub fn keyswitch_basis(&self) -> &[u64] {
        &self.ks_basis
    }

    /// Digit index of each keyswitch-basis modulus.
    pub fn digit_assignment(&self) -> &[usize] {
        &self.digit_of
    }

    /// Number of keyswitching digits.
    pub fn dnum(&self) -> usize {
        self.dnum
    }

    /// Hardware word width this chain was built for.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// The representation this chain implements.
    pub fn representation(&self) -> Representation {
        self.representation
    }
}

/// Smallest achievable scale (bits) for a target at the given word size:
/// the paper notes that with 28-bit words a 30-bit scale is impossible (no
/// pair of NTT-friendly primes is that small), so RNS-CKKS must round the
/// scale up to the smallest representable value.
fn effective_scale_bits(target: u32, word_bits: u32, min_prime_bits: u32) -> f64 {
    if target <= word_bits {
        return target.max(min_prime_bits) as f64;
    }
    let n_p = target.div_ceil(word_bits);
    (target as f64).max((n_p * min_prime_bits) as f64)
}

/// Memoized ascending list of NTT-friendly primes below `2^max_bits`.
fn ascending_pool(two_n: u64, max_bits: u32) -> std::sync::Arc<Vec<u64>> {
    type PoolCache = Mutex<HashMap<(u64, u32), std::sync::Arc<Vec<u64>>>>;
    static CACHE: OnceLock<PoolCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(v) = cache.lock().expect("cache lock").get(&(two_n, max_bits)) {
        return std::sync::Arc::clone(v);
    }
    let limit = if max_bits >= 64 {
        u64::MAX
    } else {
        1u64 << max_bits
    };
    // Cap the pool size: chains consume at most a few hundred primes, and
    // for wide words the full enumeration would be astronomical.
    let v: Vec<u64> = bp_math::primes::ntt_primes_ascending(two_n)
        .take_while(|&p| p < limit)
        .take(4096)
        .collect();
    let v = std::sync::Arc::new(v);
    cache
        .lock()
        .expect("cache lock")
        .insert((two_n, max_bits), std::sync::Arc::clone(&v));
    v
}

fn build_rns_ckks_levels(params: &CkksParams) -> Result<Vec<LevelInfo>, ChainError> {
    let two_n = 2 * params.n() as u64;
    let w = params.word_bits();
    let min_bits = params.min_prime_bits();
    let lmax = params.max_level();
    let targets = params.target_scale_bits();
    let mut used: Vec<u64> = Vec::new();

    // Base (level-0) moduli covering Q_min. When several base primes are
    // needed, keep them comfortably above the minimum prime width: the
    // small-prime pool is extremely sparse (the paper's Sec. 3.3 point)
    // and must be preserved for narrow scales.
    let base_bits = params.base_modulus_bits();
    let n_base = base_bits.div_ceil(w).max(1);
    let per = if n_base == 1 {
        base_bits as f64
    } else {
        (base_bits as f64 / n_base as f64).max(min_bits as f64 + 6.0)
    };
    let mut base = Vec::new();
    for _ in 0..n_base {
        let target = 2f64.powf(per) as u64;
        let p = closest_ntt_prime(target, two_n, &used, 1 << 14)
            .ok_or_else(|| ChainError::NotEnoughPrimes(format!("base prime near 2^{per:.1}")))?;
        used.push(p);
        base.push(p);
    }

    // Per-level groups, chosen top-down so scales track targets exactly.
    let mut scales = vec![FactoredScale::one(); lmax + 1];
    scales[lmax] = FactoredScale::from_pow2(targets[lmax] as i64);
    let mut groups: Vec<Vec<u64>> = vec![Vec::new(); lmax + 1]; // groups[l] shed when leaving level l
                                                                // Sum of the `n` smallest NTT-friendly primes not yet used (in bits):
                                                                // the hard floor on what a group of `n` distinct primes can shed. The
                                                                // small-prime pool is sparse and *permanently consumed* as the chain
                                                                // grows — the mechanism behind the paper's "RNS-CKKS cannot meet scales
                                                                // in the 30–35-bit range at 28-bit words" observation.
    let pool = ascending_pool(two_n, w);
    let smallest_unused_sum = |used: &[u64], n: usize| -> Result<f64, ChainError> {
        let mut sum = 0.0;
        let mut found = 0usize;
        for &p in pool.iter() {
            if !used.contains(&p) {
                sum += (p as f64).log2();
                found += 1;
                if found == n {
                    return Ok(sum);
                }
            }
        }
        Err(ChainError::NotEnoughPrimes("small-prime pool empty".into()))
    };

    for l in (1..=lmax).rev() {
        let eff_static = effective_scale_bits(targets[l - 1], w, min_bits);
        // The *achievable* scale at the next level: at least the static
        // effective scale, and at least what the remaining pool can still
        // realize with that word count. The scale ratchets up rather than
        // collapsing when small primes run out.
        let n_prev = ((eff_static / w as f64).ceil() as usize).max(1);
        let eff_prev = eff_static.max(smallest_unused_sum(&used, n_prev)?);

        let raw = 2.0 * scales[l].log2() - eff_prev;
        let mut n_p = ((raw / w as f64).ceil() as u32).max(1);
        let mut target_bits = raw.max(smallest_unused_sum(&used, n_p as usize)?);
        // If the pool floor forces a large overshoot (which would collapse
        // the next scale *below* target), prefer shedding one prime fewer:
        // the scale then drifts up instead — RNS-CKKS wastes modulus bits,
        // never precision.
        if n_p > 1 && target_bits > raw + 1.0 && raw / (n_p - 1) as f64 <= w as f64 - 0.02 {
            n_p -= 1;
            target_bits = raw.max(smallest_unused_sum(&used, n_p as usize)?);
        }
        // Recompute the word count if the floor pushed the target over a
        // word boundary.
        let n_p2 = ((target_bits / w as f64).ceil() as u32).max(1);
        if n_p2 > n_p {
            n_p = n_p2;
            target_bits = target_bits.max(smallest_unused_sum(&used, n_p as usize)?);
        }
        let per = target_bits / n_p as f64;
        let mut group = Vec::new();
        for _ in 0..n_p {
            let target = 2f64.powf(per) as u64;
            let p = closest_ntt_prime(target, two_n, &used, 1 << 14).ok_or_else(|| {
                ChainError::NotEnoughPrimes(format!("level {l} prime near 2^{per:.1}"))
            })?;
            used.push(p);
            group.push(p);
        }
        let mut s = scales[l].square();
        for &p in &group {
            s = s.div_prime(p);
        }
        scales[l - 1] = s;
        groups[l] = group;
    }

    // Assemble cumulative moduli sets.
    let mut levels = Vec::with_capacity(lmax + 1);
    let mut cur = base;
    levels.push(LevelInfo {
        moduli: cur.clone(),
        scale: scales[0].clone(),
    });
    for l in 1..=lmax {
        cur.extend(groups[l].iter().copied());
        levels.push(LevelInfo {
            moduli: cur.clone(),
            scale: scales[l].clone(),
        });
    }
    Ok(levels)
}

fn build_bitpacker_levels(params: &CkksParams) -> Result<Vec<LevelInfo>, ChainError> {
    let two_n = 2 * params.n() as u64;
    let w = params.word_bits();
    let min_bits = params.min_prime_bits();
    let lmax = params.max_level();
    let targets = params.target_scale_bits();

    // Total modulus needed at the top: Q_min plus the per-level consumption.
    // Rescaling from level l sheds S_l²/S_{l−1} ≈ 2·T_l − T_{l−1} bits, so
    // for non-uniform schedules this is what each level actually costs.
    let top_bits: f64 = params.base_modulus_bits() as f64
        + (1..=lmax)
            .map(|l| 2.0 * targets[l] as f64 - targets[l - 1] as f64)
            .sum::<f64>();

    // Non-terminal pool: largest NTT-friendly primes below 2^w, enough to
    // cover the top-level modulus.
    let mut nt_pool = Vec::new();
    let mut nt_cum = Vec::new(); // cumulative log2
    let mut acc = 0f64;
    for p in ntt_primes_below(w, two_n) {
        acc += (p as f64).log2();
        nt_pool.push(p);
        nt_cum.push(acc);
        if acc >= top_bits + w as f64 {
            break;
        }
    }
    if acc < top_bits {
        return Err(ChainError::NotEnoughPrimes(format!(
            "non-terminal pool below 2^{w} covers only {acc:.0} of {top_bits:.0} bits"
        )));
    }

    let term_cands = terminal_candidates(w, two_n, min_bits);

    // Choose moduli per level, top-down, tracking exact scales.
    let mut levels: Vec<Option<LevelInfo>> = vec![None; lmax + 1];
    let mut target_log_q = top_bits;
    let mut scale = FactoredScale::from_pow2(targets[lmax] as i64);
    for l in (0..=lmax).rev() {
        let moduli = choose_packed_moduli(target_log_q, &nt_pool, &nt_cum, &term_cands)
            .ok_or(ChainError::TargetUnmatched { level: l })?;
        if l < lmax {
            // S_l = S_{l+1}^2 * Q_l / Q_{l+1}, exactly.
            let prev = levels[l + 1].as_ref().expect("filled");
            let mut s = scale.square();
            for &p in &moduli {
                if !prev.moduli.contains(&p) {
                    s = s.mul_prime(p);
                }
            }
            for &p in &prev.moduli {
                if !moduli.contains(&p) {
                    s = s.div_prime(p);
                }
            }
            scale = s;
        }
        levels[l] = Some(LevelInfo {
            moduli,
            scale: scale.clone(),
        });
        if l > 0 {
            // Next (lower) target: Q_{l-1} = Q_l * T_{l-1} / S_l^2.
            let actual_log_q: f64 = levels[l]
                .as_ref()
                .expect("filled")
                .moduli
                .iter()
                .map(|&q| (q as f64).log2())
                .sum();
            let eff_t = effective_scale_bits(targets[l - 1], u32::MAX, min_bits);
            target_log_q = actual_log_q - (2.0 * scale.log2() - eff_t);
        }
    }
    Ok(levels.into_iter().map(|l| l.expect("filled")).collect())
}

/// Picks non-terminal + terminal moduli whose product matches
/// `target_log_q` within 0.5 bits (paper Sec. 3.3). If the 0.5-bit target
/// is unreachable (possible for small moduli near the base, where the
/// sparse small-prime pool leaves gaps between "one terminal" and "two
/// terminals"), the tolerance is relaxed in 0.25-bit steps — overshooting
/// `Q_min` slightly is safe, it only spends a little extra budget.
fn choose_packed_moduli(
    target_log_q: f64,
    nt_pool: &[u64],
    nt_cum: &[f64],
    term_cands: &[u64],
) -> Option<Vec<u64>> {
    for tol_steps in 0..8 {
        let tol = 0.5 + 0.25 * tol_steps as f64;
        // Most non-terminals that still leave room for at least the
        // tolerance.
        let c_max = nt_cum
            .iter()
            .take_while(|&&c| c <= target_log_q + tol)
            .count();
        for c in (0..=c_max).rev() {
            let rem = target_log_q - if c > 0 { nt_cum[c - 1] } else { 0.0 };
            let chosen_nt = &nt_pool[..c];
            let mut terms = Vec::new();
            if greedy_terminals(rem, term_cands, 0, 4, tol, chosen_nt, &mut terms) {
                let mut moduli = chosen_nt.to_vec();
                moduli.extend(terms);
                return Some(moduli);
            }
        }
    }
    None
}

/// Greedy DFS over descending terminal candidates (paper Listing 7), in
/// log₂ space: succeeds when the residual target is within ±0.5 bits.
fn greedy_terminals(
    target_log2: f64,
    cands: &[u64],
    start: usize,
    depth_left: usize,
    tol: f64,
    exclude: &[u64],
    result: &mut Vec<u64>,
) -> bool {
    if target_log2 < -tol {
        return false; // overshot the target: backtrack
    }
    if target_log2.abs() < tol {
        return true; // within sqrt(2)/2 .. sqrt(2) of the target: success
    }
    if depth_left == 0 {
        return false;
    }
    for idx in start..cands.len() {
        let p = cands[idx];
        let lp = (p as f64).log2();
        if lp > target_log2 + tol {
            continue; // this prime alone would overshoot past tolerance
        }
        if exclude.contains(&p) {
            continue;
        }
        result.push(p);
        if greedy_terminals(
            target_log2 - lp,
            cands,
            idx + 1,
            depth_left - 1,
            tol,
            exclude,
            result,
        ) {
            return true;
        }
        result.pop();
    }
    false
}

/// Terminal candidate pool: NTT-friendly primes spanning
/// `[2^min_bits, 2^w)`, descending. Generated from ~600 log-spaced targets
/// (the paper enumerates exhaustively for `w ≤ 36` and samples 500 primes
/// otherwise; dense sampling is equivalent for the 0.5-bit tolerance) and
/// memoized process-wide.
fn terminal_candidates(w: u32, two_n: u64, min_bits: u32) -> Vec<u64> {
    type CandidateCache = Mutex<HashMap<(u32, u64, u32), Vec<u64>>>;
    static CACHE: OnceLock<CandidateCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(v) = cache.lock().expect("cache lock").get(&(w, two_n, min_bits)) {
        return v.clone();
    }
    let lo = min_bits as f64;
    let hi = w as f64 - 0.01;
    let steps = 600;
    let mut out: Vec<u64> = Vec::new();
    for i in 0..=steps {
        let bits = hi - (hi - lo) * i as f64 / steps as f64;
        let target = 2f64.powf(bits) as u64;
        if let Some(p) = closest_ntt_prime(target, two_n, &[], 1 << 12) {
            if (p as f64).log2() < hi + 0.001 && p >= (1u64 << min_bits.saturating_sub(1)) {
                out.push(p);
            }
        }
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out.dedup();
    cache
        .lock()
        .expect("cache lock")
        .insert((w, two_n, min_bits), out.clone());
    out
}

/// Memoized [`BasisConverter`]s keyed by `(source basis, destination
/// basis)`.
///
/// Keyswitching builds the same handful of conversions (digit basis →
/// extension basis, special primes → level basis) on *every* multiply and
/// rotate; each build costs `O(k·m)` BigUint divisions plus inversions.
/// Caching them per context removes that setup cost from the hot path
/// entirely — the bases in play are fixed once the chain is built.
#[derive(Debug, Default)]
pub struct ConverterCache {
    cache: std::sync::RwLock<HashMap<ConverterKey, std::sync::Arc<bp_rns::basis::BasisConverter>>>,
}

/// Cache key: `(source basis, destination basis)`.
type ConverterKey = (Vec<u64>, Vec<u64>);

impl ConverterCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the converter for `src → dst`, building and memoizing it on
    /// first use.
    ///
    /// # Errors
    /// Propagates [`bp_rns::RnsError`] from converter construction
    /// (empty/overlapping bases).
    pub fn get(
        &self,
        pool: &bp_rns::PrimePool,
        src: &[u64],
        dst: &[u64],
    ) -> Result<std::sync::Arc<bp_rns::basis::BasisConverter>, bp_rns::RnsError> {
        let key = (src.to_vec(), dst.to_vec());
        if let Some(c) = self.cache.read().expect("converter cache lock").get(&key) {
            return Ok(std::sync::Arc::clone(c));
        }
        let src_tables: Vec<_> = src.iter().map(|&q| pool.table(q)).collect();
        let dst_tables: Vec<_> = dst.iter().map(|&q| pool.table(q)).collect();
        let built = std::sync::Arc::new(bp_rns::basis::BasisConverter::new(
            &src_tables,
            &dst_tables,
        )?);
        let mut w = self.cache.write().expect("converter cache lock");
        Ok(std::sync::Arc::clone(w.entry(key).or_insert(built)))
    }

    /// Number of converters currently memoized.
    pub fn cached(&self) -> usize {
        self.cache.read().expect("converter cache lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use crate::security::SecurityLevel;

    fn params(repr: Representation, w: u32, schedule: Vec<u32>) -> CkksParams {
        CkksParams::builder()
            .log_n(12)
            .word_bits(w)
            .representation(repr)
            .security(SecurityLevel::Insecure)
            .scale_schedule(schedule)
            .base_modulus_bits(60)
            .build()
            .unwrap()
    }

    #[test]
    fn bitpacker_scales_match_targets_within_half_bit() {
        let p = params(Representation::BitPacker, 28, vec![40; 11]);
        let chain = ModulusChain::new(&p).unwrap();
        for l in 0..=chain.max_level() {
            let s = chain.scale_at(l).log2();
            assert!(
                (s - 40.0).abs() < 0.5,
                "level {l}: scale 2^{s:.2} misses 40-bit target"
            );
        }
    }

    #[test]
    fn bitpacker_moduli_fit_word_and_are_packed() {
        let p = params(Representation::BitPacker, 28, vec![45; 9]);
        let chain = ModulusChain::new(&p).unwrap();
        for l in 0..=chain.max_level() {
            for &q in chain.moduli_at(l) {
                assert!(q < 1 << 28, "modulus {q} exceeds word");
            }
            // Residue count is within one of the information-theoretic
            // minimum (the +1 absorbs terminal-prime minimum widths).
            let min_r = (chain.log_q_at(l) / 28.0).ceil() as usize;
            assert!(
                chain.residue_count_at(l) <= min_r + 1,
                "level {l}: {} residues vs min {min_r}",
                chain.residue_count_at(l)
            );
            // Paper Fig. 1: BitPacker utilization is high once ciphertexts
            // span a few words (short/base levels can't amortize the
            // terminal residue).
            if chain.log_q_at(l) >= 3.0 * 28.0 {
                assert!(
                    chain.utilization_at(l) > 0.80,
                    "level {l} utilization {:.2} too low",
                    chain.utilization_at(l)
                );
            }
        }
    }

    #[test]
    fn rns_ckks_one_prime_per_level_when_scale_fits_word() {
        let p = params(Representation::RnsCkks, 60, vec![40; 9]);
        let chain = ModulusChain::new(&p).unwrap();
        for l in 1..=chain.max_level() {
            assert_eq!(chain.shed_between(l).len(), 1, "level {l}");
            assert!(chain.added_between(l).is_empty());
        }
        // Each level's scale tracks the 40-bit target.
        for l in 0..=chain.max_level() {
            assert!((chain.scale_at(l).log2() - 40.0).abs() < 0.6);
        }
    }

    #[test]
    fn rns_ckks_double_prime_rescaling_at_narrow_words() {
        // 45-bit scales on a 28-bit datapath need two primes per level
        // (paper Sec. 2.3, "multiple-prime rescaling").
        let p = params(Representation::RnsCkks, 28, vec![45; 7]);
        let chain = ModulusChain::new(&p).unwrap();
        for l in 1..=chain.max_level() {
            assert_eq!(chain.shed_between(l).len(), 2, "level {l}");
        }
    }

    #[test]
    fn rns_ckks_30_bit_scale_impossible_at_28_bit_words() {
        // Paper Sec. 5: at w = 28 a 30-bit scale cannot be met; the smallest
        // possible (~35-bit with 17+18-bit primes at N=2^16; here N=2^12 so
        // 14+15 -> 29... use N=2^16-like min bits by checking the effective
        // scale exceeds the target when min_prime_bits forces it.
        let eff = effective_scale_bits(30, 28, 18);
        assert!(
            eff >= 35.0,
            "effective scale {eff} should be bumped to >= 35"
        );
        // And with the ring small enough that 15-bit primes exist, the
        // 30-bit scale *is* achievable: two ~15-bit primes.
        let eff_small_n = effective_scale_bits(30, 28, 14);
        assert_eq!(eff_small_n, 30.0);
    }

    #[test]
    fn paper_fig5_example_packing() {
        // 240-bit Q at the top, 40-bit scales, 64-bit words: BitPacker needs
        // 4 residues (3 word-sized + one ~48-bit terminal) where RNS-CKKS
        // needs 6 (paper Figs. 1, 4, 5).
        let mk = |repr| {
            CkksParams::builder()
                .log_n(12)
                .word_bits(64)
                .representation(repr)
                .security(SecurityLevel::Insecure)
                .scale_schedule(vec![40; 6]) // levels 0..=5
                .base_modulus_bits(40)
                .build()
                .unwrap()
        };
        let bp = ModulusChain::new(&mk(Representation::BitPacker)).unwrap();
        let rc = ModulusChain::new(&mk(Representation::RnsCkks)).unwrap();
        assert!(
            (bp.log_q_at(5) - 240.0).abs() < 2.0,
            "Q = {:.1}",
            bp.log_q_at(5)
        );
        assert_eq!(bp.residue_count_at(5), 4, "moduli: {:?}", bp.moduli_at(5));
        assert_eq!(rc.residue_count_at(5), 6);
        // Overhead: 6.6% for BitPacker vs 60% for RNS-CKKS (Fig. 1).
        assert!(bp.utilization_at(5) > 0.90);
        assert!(rc.utilization_at(5) < 0.70);
    }

    #[test]
    fn bitpacker_rescale_sheds_and_adds() {
        let p = params(Representation::BitPacker, 28, vec![40; 8]);
        let chain = ModulusChain::new(&p).unwrap();
        let mut any_added = false;
        for l in 1..=chain.max_level() {
            assert!(!chain.shed_between(l).is_empty(), "level {l} sheds nothing");
            any_added |= !chain.added_between(l).is_empty();
        }
        assert!(any_added, "BitPacker should introduce new terminal moduli");
    }

    #[test]
    fn q_decreases_monotonically() {
        for repr in [Representation::BitPacker, Representation::RnsCkks] {
            let p = params(repr, 32, vec![35; 8]);
            let chain = ModulusChain::new(&p).unwrap();
            for l in 1..=chain.max_level() {
                assert!(
                    chain.log_q_at(l) > chain.log_q_at(l - 1),
                    "{repr:?} level {l}"
                );
            }
            // 60-bit base within the algorithm's 0.5-bit matching tolerance.
            assert!(chain.log_q_at(0) >= 58.5, "{repr:?} base too small");
        }
    }

    #[test]
    fn special_primes_cover_digits_and_are_disjoint() {
        let p = params(Representation::BitPacker, 28, vec![40; 8]);
        let chain = ModulusChain::new(&p).unwrap();
        assert!(!chain.special().is_empty());
        for &sp in chain.special() {
            assert!(!chain.keyswitch_basis().contains(&sp));
            assert!(sp < 1 << 28);
        }
    }

    #[test]
    fn security_budget_enforced() {
        let p = CkksParams::builder()
            .log_n(12)
            .word_bits(28)
            .representation(Representation::BitPacker)
            .security(SecurityLevel::Bits128) // 109 bits max at N = 2^12
            .scale_schedule(vec![40; 10])
            .base_modulus_bits(60)
            .build()
            .unwrap();
        match ModulusChain::new(&p) {
            Err(ChainError::SecurityExceeded { needed, allowed }) => {
                assert!(needed > allowed);
            }
            other => panic!("expected SecurityExceeded, got {other:?}"),
        }
    }

    #[test]
    fn paper_parameters_at_n_2_16() {
        // Full-size chain: N = 2^16, log2 Qmax = 1596 bits of budget, 24
        // levels of 45-bit scales + 60-bit base (structural only; no NTT
        // tables are built at this size).
        let p = CkksParams::builder()
            .log_n(16)
            .word_bits(28)
            .representation(Representation::BitPacker)
            .security(SecurityLevel::Bits128)
            .scale_schedule(vec![45; 25])
            .base_modulus_bits(60)
            .build()
            .unwrap();
        let chain = ModulusChain::new(&p).unwrap();
        assert!(chain.log_q_at(chain.max_level()) > 1100.0);
        for l in 0..=chain.max_level() {
            assert!(chain.utilization_at(l) > 0.80, "level {l}");
        }
    }

    #[test]
    fn greedy_uses_multiple_terminals_when_needed() {
        // A 70-bit target at 28-bit words: 1 non-terminal + two terminals
        // (paper Sec. 3.3's worked example).
        let two_n = 1 << 13;
        let cands = terminal_candidates(28, two_n, 14);
        let mut result = Vec::new();
        let found = greedy_terminals(70.0 - 28.0, &cands, 0, 4, 0.5, &[], &mut result);
        assert!(found);
        assert!(
            result.len() >= 2,
            "42 remaining bits need 2+ sub-28-bit primes"
        );
        let total: f64 = result.iter().map(|&p| (p as f64).log2()).sum();
        assert!((total - 42.0).abs() < 0.5);
    }
}
