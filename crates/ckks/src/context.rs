//! The CKKS context: parameters, chain, encoder, pool, and key management.

use crate::chain::{ChainError, ModulusChain};
use crate::ciphertext::Ciphertext;
use crate::encoding::{Encoder, Plaintext};
use crate::error::EvalError;
use crate::eval::{EvalPolicy, Evaluator};
use crate::keys::{self, EvaluationKey, PublicKey, SecretKey};
use crate::noise::NoiseEstimate;
use crate::params::CkksParams;
use crate::sampling;
use bp_math::crt::{centered_to_f64, crt_reconstruct};
use bp_math::FactoredScale;
use bp_rns::{BpThreadPool, Domain, PrimePool, RnsPoly};
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Errors from context construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextError {
    /// The modulus chain could not be built.
    Chain(ChainError),
    /// The parameter combination is structurally valid but this software
    /// implementation cannot execute it (e.g. words wider than 61 bits,
    /// which exceed the fast-arithmetic modulus bound).
    Unsupported(String),
}

impl std::fmt::Display for ContextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContextError::Chain(e) => write!(f, "chain construction failed: {e}"),
            ContextError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
        }
    }
}

impl std::error::Error for ContextError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContextError::Chain(e) => Some(e),
            ContextError::Unsupported(_) => None,
        }
    }
}

impl From<ChainError> for ContextError {
    fn from(e: ChainError) -> Self {
        ContextError::Chain(e)
    }
}

/// A full key set: secret, public, and evaluation keys.
#[derive(Debug, Clone)]
pub struct KeySet {
    /// The secret key (keep private!).
    pub secret: SecretKey,
    /// The public encryption key.
    pub public: PublicKey,
    /// Relinearization + rotation keys.
    pub evaluation: EvaluationKey,
}

/// Bytes of plaintext operands one context stores: 16 MiB. `matvec-bp`,
/// the benchmark program with the most plaintext operands, stores 36 of
/// them, 5.6 MB at N = 2¹²; the `logreg-*` programs store 6, 2.4 MB
/// (BitPacker) and 3.5 MB (RNS-CKKS) at N = 2¹³.
const PLAIN_STORE_CAP_BYTES: usize = 16 << 20;

/// Profiler frame of a program plaintext operand's encode and NTT.
const ENCODE_PLAIN: &str = "encode_plain";

/// One stored plaintext operand: its key (a hash, the level, the number of
/// values) and one allocation holding the bit patterns of the values
/// followed by the NTT-form residues, residue by residue.
struct StoredPlain {
    hash: u64,
    level: usize,
    values: usize,
    words: Box<[u64]>,
}

impl StoredPlain {
    /// Whether this is `vals` at `level`: the hash picks the candidates,
    /// the bit patterns decide.
    fn is(&self, hash: u64, level: usize, vals: &[f64]) -> bool {
        let bits = self.words[..self.values].iter();
        self.hash == hash
            && self.level == level
            && self.values == vals.len()
            && bits.zip(vals).all(|(&w, v)| w == v.to_bits())
    }
}

/// FNV-1a over the level and the values' bit patterns, a word at a time.
fn plain_hash(level: usize, vals: &[f64]) -> u64 {
    let words = std::iter::once(level as u64).chain(vals.iter().map(|v| v.to_bits()));
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The program path's plaintext operands in NTT form, keyed by level and
/// by the exact bit patterns of their values, under a byte cap: an insert
/// that would pass the cap first clears the store. The lock is held only
/// to look up or insert an entry, never while a source or the encoder
/// runs, and a poisoned lock is recovered.
struct PlainStore {
    cap: usize,
    /// The entries and their bytes.
    inner: Mutex<(Vec<Arc<StoredPlain>>, usize)>,
}

impl PlainStore {
    fn with_cap(cap: usize) -> Self {
        Self {
            cap,
            inner: Mutex::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, (Vec<Arc<StoredPlain>>, usize)> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, hash: u64, level: usize, vals: &[f64]) -> Option<Arc<StoredPlain>> {
        let (entries, _) = &*self.lock();
        entries.iter().find(|e| e.is(hash, level, vals)).cloned()
    }

    /// Stores `poly`, the NTT form of `vals` at `level`, unless it alone
    /// exceeds the cap or another run stored it first.
    fn insert(&self, hash: u64, level: usize, vals: &[f64], poly: &RnsPoly) {
        let len = vals.len() + poly.num_residues() * poly.n();
        let size = len * std::mem::size_of::<u64>();
        if size > self.cap {
            return;
        }
        let mut words = Vec::with_capacity(len);
        words.extend(vals.iter().map(|v| v.to_bits()));
        for r in poly.residues() {
            words.extend_from_slice(r.coeffs());
        }
        let entry = StoredPlain {
            hash,
            level,
            values: vals.len(),
            words: words.into_boxed_slice(),
        };
        let (entries, bytes) = &mut *self.lock();
        if entries.iter().any(|e| e.is(hash, level, vals)) {
            return;
        }
        if *bytes + size > self.cap {
            entries.clear();
            *bytes = 0;
        }
        *bytes += size;
        entries.push(Arc::new(entry));
    }
}

impl std::fmt::Debug for PlainStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (entries, bytes) = &*self.lock();
        f.debug_struct("PlainStore")
            .field("entries", &entries.len())
            .field("bytes", bytes)
            .finish()
    }
}

/// An executable CKKS instance: everything needed to encode, encrypt,
/// compute, and decrypt.
///
/// A context also stores the plaintext operands that programs run on it
/// read, encoded in NTT form, so that a later run with the same operand
/// values at the same level skips their encode and NTT
/// ([`crate::ProgramStepper`]). The store is bounded and private:
/// [`CkksContext::encode`] and the per-op API never read it.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    pool: Arc<PrimePool>,
    chain: ModulusChain,
    encoder: Encoder,
    plains: PlainStore,
}

impl CkksContext {
    /// Builds a context (modulus chain + NTT machinery) for the parameters.
    ///
    /// # Errors
    /// Returns [`ContextError::Chain`] if no modulus chain satisfies the
    /// parameters, or [`ContextError::Unsupported`] if the word size
    /// exceeds what the software arithmetic supports (61 bits; chains for
    /// wider accelerator words can still be built directly via
    /// [`ModulusChain::new`] for modeling purposes).
    pub fn new(params: &CkksParams) -> Result<Self, ContextError> {
        Self::with_threads(params, BpThreadPool::global())
    }

    /// Builds a context with an explicit parallel executor instead of the
    /// process-wide default. Every residue-level loop reached from this
    /// context (NTTs, elementwise ops, basis conversions, keyswitching)
    /// fans out on `threads`; results are bit-identical at any worker
    /// count.
    ///
    /// # Errors
    /// Same as [`CkksContext::new`].
    pub fn with_threads(
        params: &CkksParams,
        threads: Arc<BpThreadPool>,
    ) -> Result<Self, ContextError> {
        if params.word_bits() > 61 {
            return Err(ContextError::Unsupported(format!(
                "word size {} > 61 bits: software moduli must stay below 2^61 \
                 (build the chain directly for accelerator modeling)",
                params.word_bits()
            )));
        }
        let chain = ModulusChain::new(params)?;
        Ok(Self {
            params: params.clone(),
            pool: Arc::new(PrimePool::with_threads(params.n(), threads)),
            chain,
            encoder: Encoder::new(params.n()),
            plains: PlainStore::with_cap(PLAIN_STORE_CAP_BYTES),
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The modulus chain.
    pub fn chain(&self) -> &ModulusChain {
        &self.chain
    }

    /// The shared pool of NTT tables and basis converters.
    pub fn pool(&self) -> &PrimePool {
        &self.pool
    }

    /// The parallel executor residue loops fan out on.
    pub fn threads(&self) -> &Arc<BpThreadPool> {
        self.pool.threads()
    }

    /// The encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Highest level of the chain.
    pub fn max_level(&self) -> usize {
        self.chain.max_level()
    }

    /// Trace metadata describing this context, for
    /// [`bp_telemetry::trace::set_meta`] — stamps emitted traces with the
    /// ring degree, digit count, special-prime count, and word size they
    /// were recorded under.
    pub fn telemetry_meta(&self, workload: &str) -> bp_telemetry::trace::TraceMeta {
        bp_telemetry::trace::TraceMeta {
            workload: workload.to_string(),
            n: self.params.n(),
            dnum: self.params.dnum(),
            special: self.chain.special().len(),
            word_bits: self.params.word_bits(),
        }
    }

    /// Creates a Strict-mode [`Evaluator`] bound to this context:
    /// misaligned operands are typed errors.
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(self, EvalPolicy::Strict)
    }

    /// Creates an [`Evaluator`] with an explicit alignment policy
    /// ([`EvalPolicy::AutoAlign`] inserts missing adjusts/rescales and
    /// counts them in the evaluator's repair log).
    pub fn evaluator_with_policy(&self, policy: EvalPolicy) -> Evaluator<'_> {
        Evaluator::new(self, policy)
    }

    /// Generates a fresh key set (secret, public, relinearization).
    pub fn keygen<R: Rng + ?Sized>(&self, rng: &mut R) -> KeySet {
        let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::KeyGen);
        let secret = keys::gen_secret(&self.pool, &self.chain, rng);
        let public = keys::gen_public(&self.pool, &self.chain, &secret, rng);
        let relin = keys::gen_relin(&self.pool, &self.chain, &secret, rng);
        KeySet {
            secret,
            public,
            evaluation: EvaluationKey {
                relin,
                galois: HashMap::new(),
            },
        }
    }

    /// Generates rotation keys for the given step counts and adds them to
    /// the key set; steps equal modulo `N/2` share one key. Each key is
    /// stored permuted by the inverse rotation, so that
    /// [`Evaluator::rotate`] permutes only its result: generating one
    /// gathers 2·dnum full-basis polynomials more than the key alone.
    pub fn gen_rotation_keys<R: Rng + ?Sized>(&self, ks: &mut KeySet, steps: &[i64], rng: &mut R) {
        let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::KeyGen);
        for &st in steps {
            let t = keys::galois_element(st, self.params.n());
            ks.evaluation
                .add_galois(&self.pool, &self.chain, &ks.secret, t, rng);
        }
    }

    /// Generates the conjugation key and adds it to the key set. It is
    /// stored permuted by the conjugation, its own inverse, so that
    /// [`Evaluator::conjugate`] permutes only its result.
    pub fn gen_conjugation_key<R: Rng + ?Sized>(&self, ks: &mut KeySet, rng: &mut R) {
        let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::KeyGen);
        let t = 2 * self.params.n() - 1;
        ks.evaluation
            .add_galois(&self.pool, &self.chain, &ks.secret, t, rng);
    }

    /// Encodes real values at `level`, using the chain's exact scale for
    /// that level.
    ///
    /// # Panics
    /// Panics if more values than slots are supplied or `level` is out of
    /// range.
    pub fn encode(&self, vals: &[f64], level: usize) -> Plaintext {
        self.encode_at_scale(vals, level, self.chain.scale_at(level).clone())
    }

    /// Encodes real values at `level` with an explicit scale.
    pub fn encode_at_scale(&self, vals: &[f64], level: usize, scale: FactoredScale) -> Plaintext {
        let moduli = self.chain.moduli_at(level);
        let poly = self.encoder.embed_with(vals, scale.to_f64(), |coeffs| {
            RnsPoly::from_i128_coeffs(&self.pool, moduli, coeffs)
        });
        Plaintext { poly, scale, level }
    }

    /// A program's plaintext operand: `vals` encoded at `level`, in NTT
    /// form. Built from the store when it holds bit-equal values at
    /// `level`; otherwise encoded and transformed once, in the
    /// `encode_plain` profiler frame, and stored. Either way the bytes are
    /// those of [`CkksContext::encode`] brought to NTT form.
    pub(crate) fn plain_operand(&self, vals: &[f64], level: usize) -> Plaintext {
        let hash = plain_hash(level, vals);
        if let Some(hit) = self.plains.get(hash, level, vals) {
            let moduli = self.chain.moduli_at(level);
            let residues = &hit.words[hit.values..];
            return Plaintext {
                poly: RnsPoly::from_flat(&self.pool, moduli, Domain::Ntt, residues),
                scale: self.chain.scale_at(level).clone(),
                level,
            };
        }
        let _frame = bp_telemetry::profile::frame(ENCODE_PLAIN);
        let mut pt = self.encode(vals, level);
        pt.poly.to_ntt();
        self.plains.insert(hash, level, vals, &pt.poly);
        pt
    }

    /// Decodes a plaintext back to real values (one per slot).
    pub fn decode(&self, pt: &Plaintext) -> Vec<f64> {
        let mut poly = pt.poly.clone();
        poly.to_coeff();
        let moduli = poly.moduli();
        let q = bp_math::BigUint::product_of(moduli);
        let n = poly.n();
        let scale = pt.scale.to_f64();
        let mut coeffs = vec![0i128; n];
        for (i, c) in coeffs.iter_mut().enumerate() {
            let residues: Vec<u64> = poly.residues().iter().map(|r| r.coeffs()[i]).collect();
            let wide = crt_reconstruct(&residues, moduli);
            // Values fit in f64 range after centering; i128 keeps enough
            // precision for the encoder's unembed.
            let centered = centered_to_f64(&wide, &q);
            *c = centered as i128;
        }
        self.encoder.unembed(&coeffs, scale)
    }

    /// Encrypts a plaintext under the public key.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        pk: &PublicKey,
        rng: &mut R,
    ) -> Ciphertext {
        let basis = self.chain.moduli_at(pt.level);
        let mut u = sampling::ternary_poly(&self.pool, basis, rng);
        u.to_ntt();
        let mut e0 = sampling::gaussian_poly(&self.pool, basis, rng);
        let mut e1 = sampling::gaussian_poly(&self.pool, basis, rng);
        e0.to_ntt();
        e1.to_ntt();
        let mut m = pt.poly.clone();
        m.to_ntt();

        let b =
            pk.b.restricted(basis)
                .expect("public key covers every chain level");
        let a =
            pk.a.restricted(basis)
                .expect("public key covers every chain level");
        let mut c0 = b
            .mul(&u)
            .expect("encryption operands share the chain basis");
        c0.add_assign(&e0)
            .expect("encryption operands share the chain basis");
        c0.add_assign(&m)
            .expect("encryption operands share the chain basis");
        let mut c1 = a
            .mul(&u)
            .expect("encryption operands share the chain basis");
        c1.add_assign(&e1)
            .expect("encryption operands share the chain basis");
        let noise = NoiseEstimate::fresh(self.params.n(), pt.scale.log2());
        Ciphertext::new(c0, c1, pt.level, pt.scale.clone(), noise)
    }

    /// Encrypts a plaintext under the secret key (smaller noise; used by
    /// tests and the reference bootstrap).
    pub fn encrypt_symmetric<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        sk: &SecretKey,
        rng: &mut R,
    ) -> Ciphertext {
        let basis = self.chain.moduli_at(pt.level);
        let a = sampling::uniform_poly(&self.pool, basis, rng);
        let mut e = sampling::gaussian_poly(&self.pool, basis, rng);
        e.to_ntt();
        let mut m = pt.poly.clone();
        m.to_ntt();

        let s =
            sk.s.restricted(basis)
                .expect("secret key covers every chain level");
        // c0 = -a*s + e + m
        let mut c0 = a
            .mul(&s)
            .expect("encryption operands share the chain basis")
            .neg();
        c0.add_assign(&e)
            .expect("encryption operands share the chain basis");
        c0.add_assign(&m)
            .expect("encryption operands share the chain basis");
        let noise = NoiseEstimate::fresh(self.params.n(), pt.scale.log2());
        Ciphertext::new(c0, a, pt.level, pt.scale.clone(), noise)
    }

    /// Decrypts a ciphertext: `m ≈ c0 + c1·s`.
    ///
    /// Guards the noise budget first: if the analytic estimate says the
    /// noise has overtaken the message, decryption would return garbage and
    /// this reports [`EvalError::BudgetExhausted`] instead. Use
    /// [`CkksContext::decrypt_unchecked`] to bypass the guard (e.g. to
    /// measure actual noise).
    ///
    /// # Errors
    /// [`EvalError::BudgetExhausted`] when no error-free message bits
    /// remain.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Result<Plaintext, EvalError> {
        if ct.noise.clear_bits() <= 0.0 {
            return Err(EvalError::BudgetExhausted {
                noise_bits: ct.noise.noise_bits,
                message_bits: ct.noise.message_bits,
            });
        }
        Ok(self.decrypt_unchecked(ct, sk))
    }

    /// Decrypts without the noise-budget guard. The result may be pure
    /// noise if the budget is spent; [`crate::noise::measure_noise_bits`]
    /// uses this to quantify the actual error.
    pub fn decrypt_unchecked(&self, ct: &Ciphertext, sk: &SecretKey) -> Plaintext {
        let basis = ct.moduli();
        let s =
            sk.s.restricted(basis)
                .expect("secret key covers every chain level");
        let mut m = ct
            .c1
            .mul(&s)
            .expect("decryption operands share the ciphertext basis");
        m.add_assign(&ct.c0)
            .expect("decryption operands share the ciphertext basis");
        Plaintext {
            poly: m,
            scale: ct.scale.clone(),
            level: ct.level,
        }
    }

    /// Convenience: decrypt + decode, truncated to `count` values.
    ///
    /// # Errors
    /// Same as [`CkksContext::decrypt`].
    pub fn decrypt_to_values(
        &self,
        ct: &Ciphertext,
        sk: &SecretKey,
        count: usize,
    ) -> Result<Vec<f64>, EvalError> {
        let mut v = self.decode(&self.decrypt(ct, sk)?);
        v.truncate(count);
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Representation;
    use crate::security::SecurityLevel;

    /// Filling the store past its cap clears it whole, an operand larger
    /// than the cap is never stored, and every operand served, stored or
    /// not, is the public encode in NTT form.
    #[test]
    fn the_store_clears_at_its_cap_and_stays_correct() {
        let params = CkksParams::builder()
            .log_n(7)
            .word_bits(28)
            .representation(Representation::BitPacker)
            .security(SecurityLevel::Insecure)
            .levels(4, 26)
            .base_modulus_bits(30)
            .build()
            .expect("params");
        let mut ctx = CkksContext::new(&params).expect("context");
        let (level, slots) = (ctx.max_level(), ctx.params().slots());
        let vals = |k: usize| -> Vec<f64> { (0..slots).map(|i| (k * i) as f64 * 1e-3).collect() };
        let entry = 8 * (slots + ctx.chain().residue_count_at(level) * ctx.params().n());
        let check = |ctx: &CkksContext, k: usize| {
            let mut want = ctx.encode(&vals(k), level);
            want.poly.to_ntt();
            let got = ctx.plain_operand(&vals(k), level);
            assert_eq!(got.poly.domain(), Domain::Ntt, "operand {k}");
            assert_eq!(got.poly.moduli(), want.poly.moduli(), "operand {k}");
            for (g, w) in got.poly.residues().iter().zip(want.poly.residues()) {
                assert_eq!(g.coeffs(), w.coeffs(), "operand {k}");
            }
            assert_eq!((got.level, &got.scale), (want.level, &want.scale));
        };
        let stored = |ctx: &CkksContext| {
            let (entries, bytes) = &*ctx.plains.lock();
            (entries.len(), *bytes)
        };

        // Room for three: the fourth operand clears the store first, and
        // operand 0 is then a miss that is stored again. Each operand is
        // asked for twice; the second time is a hit.
        ctx.plains = PlainStore::with_cap(3 * entry);
        for (k, entries) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (1, 3),
            (0, 3),
            (3, 1),
            (3, 1),
            (0, 2),
        ] {
            check(&ctx, k);
            check(&ctx, k);
            assert_eq!(
                stored(&ctx),
                (entries, entries * entry),
                "after operand {k}"
            );
        }

        // An operand larger than the cap is served but never stored.
        ctx.plains = PlainStore::with_cap(entry - 1);
        check(&ctx, 4);
        check(&ctx, 4);
        assert_eq!(stored(&ctx), (0, 0));
    }
}
