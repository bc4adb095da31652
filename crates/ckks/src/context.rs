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
use bp_rns::{BpThreadPool, PrimePool, RnsPoly};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

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

/// An executable CKKS instance: everything needed to encode, encrypt,
/// compute, and decrypt.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    pool: Arc<PrimePool>,
    chain: ModulusChain,
    encoder: Encoder,
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
