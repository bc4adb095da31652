//! Wire format: serialize ciphertexts for transport.
//!
//! FHE's deployment model ships ciphertexts between a client and an
//! untrusted server (paper Sec. 1), so a stable byte encoding is part of
//! the library surface. The format is self-describing and versioned:
//!
//! ```text
//! magic "BPCT" | version u8 | domain u8 | level u32 | n u32
//! | scale: pow2 i64, n_factors u32, (prime u64, exp i64)*
//! | noise_bits f64 | message_bits f64
//! | n_residues u32 | (modulus u64, coeffs u64*n)*   — for c0, then c1
//! ```
//!
//! All integers little-endian; floats are IEEE-754 little-endian bit
//! patterns. Version 2 added the two noise-estimate fields so the
//! noise-budget guard survives transport. Deserialization validates the
//! header, re-binds residues to the context's NTT tables, rejects moduli
//! that don't belong to the chain, and finishes with a full
//! [`Ciphertext::validate`] integrity check.

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::error::IntegrityError;
use crate::noise::NoiseEstimate;
use bp_math::FactoredScale;
use bp_rns::{Domain, RnsPoly};

const MAGIC: &[u8; 4] = b"BPCT";
const VERSION: u8 = 2;

/// Errors from [`read_ciphertext`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Bad magic, version, or structural field.
    Malformed(String),
    /// The payload references a modulus or level the context doesn't have.
    Incompatible(String),
    /// The decoded ciphertext failed structural validation against the
    /// context.
    Integrity(IntegrityError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed ciphertext bytes: {m}"),
            WireError::Incompatible(m) => write!(f, "incompatible ciphertext: {m}"),
            WireError::Integrity(e) => write!(f, "ciphertext failed validation: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Integrity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IntegrityError> for WireError {
    fn from(e: IntegrityError) -> Self {
        WireError::Integrity(e)
    }
}

impl WireError {
    /// Whether re-fetching the ciphertext bytes and retrying can
    /// plausibly succeed.
    ///
    /// [`WireError::Integrity`] means this copy arrived damaged — a
    /// fresh transfer can clear it. [`WireError::Malformed`] and
    /// [`WireError::Incompatible`] are permanent: the sender is speaking
    /// a different format or targeting a different context, and every
    /// retry reproduces the same bytes.
    pub fn is_transient(&self) -> bool {
        matches!(self, WireError::Integrity(_))
    }
}

/// Bytes before the scale: magic, version, domain, level and `n`.
const HEADER_LEN: usize = 4 + 1 + 1 + 4 + 4;

/// Exact length of `ct`'s wire encoding: the header, the scale (pow2,
/// factor count and one (prime, exponent) pair per factor), the two
/// noise-estimate fields, and for each of c0 and c1 a residue count
/// followed by one modulus and `n` coefficients per residue.
pub fn encoded_len(ct: &Ciphertext) -> usize {
    let scale = 8 + 4 + 16 * ct.scale().parts().1.len();
    let poly = |p: &RnsPoly| 4 + p.num_residues() * (8 + 8 * p.n());
    HEADER_LEN + scale + 8 + 8 + poly(ct.c0()) + poly(ct.c1())
}

/// Serializes a ciphertext to bytes.
pub fn write_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(ct));
    write_ciphertext_into(&mut out, ct);
    out
}

/// Appends `ct`'s wire encoding to `out`, so a container format can
/// write ciphertexts straight into its own buffer. Reserve
/// [`encoded_len`] bytes first to write without reallocating.
pub fn write_ciphertext_into(out: &mut Vec<u8>, ct: &Ciphertext) {
    let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::Serialize);
    let start = out.len();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(match ct.c0().domain() {
        Domain::Coeff => 0,
        Domain::Ntt => 1,
    });
    out.extend_from_slice(&(ct.level() as u32).to_le_bytes());
    out.extend_from_slice(&(ct.c0().n() as u32).to_le_bytes());
    write_scale(out, ct.scale());
    out.extend_from_slice(&ct.noise().noise_bits.to_le_bytes());
    out.extend_from_slice(&ct.noise().message_bits.to_le_bytes());
    for poly in [ct.c0(), ct.c1()] {
        out.extend_from_slice(&(poly.num_residues() as u32).to_le_bytes());
        for r in poly.residues() {
            out.extend_from_slice(&r.modulus().to_le_bytes());
            // One exact-length extend per residue, which writes each byte
            // once: a push per coefficient re-checks capacity every word.
            out.extend(r.coeffs().iter().flat_map(|c| c.to_le_bytes()));
        }
    }
    bp_telemetry::counters::add(
        bp_telemetry::counters::Counter::BytesSerialized,
        (out.len() - start) as u64,
    );
}

fn write_scale(out: &mut Vec<u8>, scale: &FactoredScale) {
    let (pow2, factors) = scale.parts();
    out.extend_from_slice(&pow2.to_le_bytes());
    out.extend_from_slice(&(factors.len() as u32).to_le_bytes());
    for (p, e) in factors {
        out.extend_from_slice(&p.to_le_bytes());
        out.extend_from_slice(&e.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Malformed("truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| WireError::Malformed("truncated u32".into()))?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| WireError::Malformed("truncated u64".into()))?;
        Ok(u64::from_le_bytes(b))
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| WireError::Malformed("truncated i64".into()))?;
        Ok(i64::from_le_bytes(b))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| WireError::Malformed("truncated f64".into()))?;
        Ok(f64::from_le_bytes(b))
    }
}

/// Deserializes a ciphertext, validating it against the context.
///
/// # Errors
/// [`WireError::Malformed`] for structural problems;
/// [`WireError::Incompatible`] when the level, ring degree, or moduli do
/// not match the context's chain; [`WireError::Integrity`] when the
/// decoded ciphertext fails [`Ciphertext::validate`].
pub fn read_ciphertext(ctx: &CkksContext, bytes: &[u8]) -> Result<Ciphertext, WireError> {
    let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::Deserialize);
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(WireError::Malformed("bad magic".into()));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::Malformed(format!("unknown version {version}")));
    }
    let domain = match r.u8()? {
        0 => Domain::Coeff,
        1 => Domain::Ntt,
        d => return Err(WireError::Malformed(format!("bad domain tag {d}"))),
    };
    let level = r.u32()? as usize;
    if level > ctx.max_level() {
        return Err(WireError::Incompatible(format!(
            "level {level} exceeds chain max {}",
            ctx.max_level()
        )));
    }
    let n = r.u32()? as usize;
    if n != ctx.params().n() {
        return Err(WireError::Incompatible(format!(
            "ring degree {n} vs context {}",
            ctx.params().n()
        )));
    }
    if n > (1 << 20) {
        return Err(WireError::Malformed(format!(
            "ring degree {n} exceeds the sanity cap"
        )));
    }

    // Scale.
    let pow2 = r.i64()?;
    let n_factors = r.u32()? as usize;
    if n_factors > 4096 {
        return Err(WireError::Malformed("factor count implausible".into()));
    }
    let mut scale = FactoredScale::from_pow2(pow2);
    for _ in 0..n_factors {
        let p = r.u64()?;
        let e = r.i64()?;
        if p == 0 || p % 2 == 0 {
            return Err(WireError::Malformed(format!("bad scale factor {p}")));
        }
        if e.unsigned_abs() > 4096 {
            return Err(WireError::Malformed(format!(
                "scale exponent {e} implausible"
            )));
        }
        for _ in 0..e.unsigned_abs() {
            scale = if e > 0 {
                scale.mul_prime(p)
            } else {
                scale.div_prime(p)
            };
        }
    }

    let noise_bits = r.f64()?;
    let message_bits = r.f64()?;
    if !noise_bits.is_finite() || !message_bits.is_finite() {
        return Err(WireError::Malformed("non-finite noise estimate".into()));
    }

    let expected_moduli = ctx.chain().moduli_at(level);
    let mut polys = Vec::with_capacity(2);
    for _ in 0..2 {
        let n_res = r.u32()? as usize;
        if n_res > 4096 {
            return Err(WireError::Malformed(format!(
                "residue count {n_res} exceeds the sanity cap"
            )));
        }
        if n_res != expected_moduli.len() {
            return Err(WireError::Incompatible(format!(
                "residue count {n_res} vs chain {}",
                expected_moduli.len()
            )));
        }
        let mut poly = RnsPoly::zero(ctx.pool(), expected_moduli, domain);
        for (i, rp) in poly.residues_mut().iter_mut().enumerate() {
            let q = r.u64()?;
            if q != expected_moduli[i] {
                return Err(WireError::Incompatible(format!(
                    "modulus {q} at position {i}, chain has {}",
                    expected_moduli[i]
                )));
            }
            for c in rp.coeffs_mut() {
                let v = r.u64()?;
                if v >= q {
                    return Err(WireError::Malformed(format!(
                        "coefficient {v} not reduced mod {q}"
                    )));
                }
                *c = v;
            }
        }
        polys.push(poly);
    }
    if r.pos != bytes.len() {
        return Err(WireError::Malformed("trailing bytes".into()));
    }
    let c1 = polys
        .pop()
        .ok_or_else(|| WireError::Malformed("missing c1 polynomial".into()))?;
    let c0 = polys
        .pop()
        .ok_or_else(|| WireError::Malformed("missing c0 polynomial".into()))?;
    let noise = NoiseEstimate {
        noise_bits,
        message_bits,
    };
    let ct = Ciphertext::new(c0, c1, level, scale, noise);
    ct.validate(ctx)?;
    Ok(ct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, Representation, SecurityLevel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn ctx() -> CkksContext {
        let params = CkksParams::builder()
            .log_n(7)
            .word_bits(28)
            .representation(Representation::BitPacker)
            .security(SecurityLevel::Insecure)
            .levels(3, 26)
            .base_modulus_bits(30)
            .build()
            .unwrap();
        CkksContext::new(&params).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ctx = ctx();
        let mut rng = ChaCha20Rng::seed_from_u64(66);
        let keys = ctx.keygen(&mut rng);
        let x = vec![0.5, -0.125, 0.75];
        let ct = ctx.encrypt(&ctx.encode(&x, ctx.max_level()), &keys.public, &mut rng);
        let bytes = write_ciphertext(&ct);
        let back = read_ciphertext(&ctx, &bytes).expect("roundtrip");
        assert_eq!(back.level(), ct.level());
        assert_eq!(back.scale(), ct.scale());
        assert_eq!(back.moduli(), ct.moduli());
        // Decrypts to the same values.
        let got = ctx.decrypt_to_values(&back, &keys.secret, 3).unwrap();
        for (g, v) in got.iter().zip(&x) {
            assert!((g - v).abs() < 1e-3);
        }
    }

    #[test]
    fn roundtrip_after_computation() {
        let ctx = ctx();
        let mut rng = ChaCha20Rng::seed_from_u64(67);
        let keys = ctx.keygen(&mut rng);
        let ev = ctx.evaluator();
        let ct = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
        let sq = ev
            .rescale(&ev.mul(&ct, &ct, &keys.evaluation).unwrap())
            .unwrap();
        let back = read_ciphertext(&ctx, &write_ciphertext(&sq)).expect("roundtrip");
        let got = ctx.decrypt_to_values(&back, &keys.secret, 1).unwrap();
        assert!((got[0] - 0.25).abs() < 1e-3);
    }

    #[test]
    fn rejects_corruption() {
        let ctx = ctx();
        let mut rng = ChaCha20Rng::seed_from_u64(68);
        let keys = ctx.keygen(&mut rng);
        let ct = ctx.encrypt(&ctx.encode(&[0.1], ctx.max_level()), &keys.public, &mut rng);
        let bytes = write_ciphertext(&ct);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_ciphertext(&ctx, &bad),
            Err(WireError::Malformed(_))
        ));

        // Truncation.
        assert!(read_ciphertext(&ctx, &bytes[..bytes.len() - 3]).is_err());

        // Unreduced coefficient: set the first coefficient word to u64::MAX.
        let mut bad = bytes.clone();
        let header = 4 + 1 + 1 + 4 + 4;
        // Skip scale (pow2 i64 + count u32 + factors) to find it robustly:
        // just flip a byte deep in the payload instead.
        let pos = bad.len() - 9;
        bad[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let _ = header;
        assert!(read_ciphertext(&ctx, &bad).is_err());

        // Wrong context (different level count).
        let params2 = CkksParams::builder()
            .log_n(7)
            .word_bits(28)
            .representation(Representation::RnsCkks)
            .security(SecurityLevel::Insecure)
            .levels(3, 26)
            .base_modulus_bits(30)
            .build()
            .unwrap();
        let ctx2 = CkksContext::new(&params2).unwrap();
        assert!(matches!(
            read_ciphertext(&ctx2, &bytes),
            Err(WireError::Incompatible(_))
        ));
    }

    /// `encoded_len` is the exact encoding length under both
    /// representations, for fresh NTT-domain and coefficient-domain
    /// operands and for a rescaled one with factored scale primes; and
    /// `write_ciphertext_into` appends exactly `write_ciphertext`'s bytes.
    #[test]
    fn encoded_len_is_exact_and_appending_matches() {
        for repr in [Representation::BitPacker, Representation::RnsCkks] {
            let params = CkksParams::builder()
                .log_n(7)
                .word_bits(28)
                .representation(repr)
                .security(SecurityLevel::Insecure)
                .levels(3, 26)
                .base_modulus_bits(30)
                .build()
                .unwrap();
            let ctx = CkksContext::new(&params).unwrap();
            let mut rng = ChaCha20Rng::seed_from_u64(70);
            let keys = ctx.keygen(&mut rng);
            let ev = ctx.evaluator();
            let ntt = ctx.encrypt(&ctx.encode(&[0.5], ctx.max_level()), &keys.public, &mut rng);
            let mut coeff = ntt.clone();
            coeff.c0.to_coeff();
            coeff.c1.to_coeff();
            let rescaled = ev
                .rescale(&ev.mul(&ntt, &ntt, &keys.evaluation).unwrap())
                .unwrap();
            for (form, ct) in [("ntt", &ntt), ("coeff", &coeff), ("rescaled", &rescaled)] {
                let bytes = write_ciphertext(ct);
                assert_eq!(
                    bytes[5],
                    u8::from(form != "coeff"),
                    "{repr} {form}: domain tag"
                );
                assert_eq!(encoded_len(ct), bytes.len(), "{repr} {form}");
                assert_eq!(
                    bytes.capacity(),
                    bytes.len(),
                    "{repr} {form}: one exact reservation"
                );
                let mut out = b"prefix".to_vec();
                write_ciphertext_into(&mut out, ct);
                assert_eq!(&out[..6], b"prefix");
                assert_eq!(&out[6..], bytes.as_slice(), "{repr} {form}");
            }
            assert!(
                !rescaled.scale().parts().1.is_empty(),
                "{repr}: scale primes"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let ctx = ctx();
        let mut rng = ChaCha20Rng::seed_from_u64(69);
        let keys = ctx.keygen(&mut rng);
        let ct = ctx.encrypt(&ctx.encode(&[0.1], ctx.max_level()), &keys.public, &mut rng);
        let mut bytes = write_ciphertext(&ct);
        bytes.push(0);
        assert!(matches!(
            read_ciphertext(&ctx, &bytes),
            Err(WireError::Malformed(_))
        ));
    }
}
