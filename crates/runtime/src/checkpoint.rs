//! Versioned checkpoint/resume for long evaluations.
//!
//! A multi-epoch encrypted computation (the logistic-regression training
//! workload runs minutes at production parameters) must survive preemption
//! without redoing completed epochs. A [`Checkpoint`] snapshots exactly
//! what [`crate::Runtime::run_program`] needs to resume bit-identically:
//! the workload key, a fingerprint of the [`bp_ir::Program`] being run,
//! the op position (`ops[..pos]` are complete), and the live ciphertexts
//! in the `bp-ckks` wire format (which preserves exact factored scales and
//! chain positions) — protected end-to-end by an FNV-1a checksum and the
//! wire layer's full structural validation on restore.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "BPCK" | version u16 = 3 | workload: len u32 + bytes | fingerprint u64 | pos u64
//!        | slot_count u32 | { name: len u32 + bytes, data: len u32 + bytes }*
//!        | fnv1a64 over everything above: u64
//! ```
//!
//! Only version 3 is read or written; an older stream fails to decode
//! with [`CheckpointError::UnsupportedVersion`].

use bp_ckks::wire::{read_ciphertext, write_ciphertext, WireError};
use bp_ckks::{Ciphertext, CkksContext};
use std::fmt;

/// File magic for checkpoints ("BPCK").
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"BPCK";
/// Checkpoint format version: the only one this build reads or writes.
pub const CHECKPOINT_VERSION: u16 = 3;

/// Why a checkpoint could not be decoded or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The byte stream ended before a required field.
    Truncated {
        /// Bytes the decoder needed next.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// The first four bytes are not [`CHECKPOINT_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The version field names a format this build cannot read.
    UnsupportedVersion {
        /// The version found.
        found: u16,
    },
    /// The trailing checksum does not match the payload — the checkpoint
    /// was corrupted at rest or in transit.
    ChecksumMismatch {
        /// Checksum stored in the stream.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A length field or string is inconsistent with the stream.
    Malformed(&'static str),
    /// A requested slot name is not present in the checkpoint.
    MissingSlot {
        /// The name requested.
        name: String,
    },
    /// A slot's ciphertext failed wire decoding or validation against the
    /// restoring context.
    Wire {
        /// The slot that failed.
        name: String,
        /// The wire-layer error.
        source: WireError,
    },
}

impl CheckpointError {
    /// True for corruption-class failures a re-read or re-transfer may
    /// fix; `false` for structural mismatches (wrong version, missing
    /// slot, incompatible context).
    pub fn is_transient(&self) -> bool {
        match self {
            CheckpointError::ChecksumMismatch { .. } => true,
            CheckpointError::Wire { source, .. } => source.is_transient(),
            _ => false,
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { need, have } => {
                write!(
                    f,
                    "checkpoint truncated: need {need} more bytes, have {have}"
                )
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "bad checkpoint magic {found:?} (expected \"BPCK\")")
            }
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::MissingSlot { name } => {
                write!(f, "checkpoint has no slot named '{name}'")
            }
            CheckpointError::Wire { name, source } => {
                write!(f, "checkpoint slot '{name}' failed wire decoding: {source}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Wire { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A resumable snapshot of an IR program run in progress.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    workload: String,
    fingerprint: u64,
    pos: u64,
    slots: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// An empty checkpoint for `workload` running the program with
    /// `fingerprint`, taken with `ops[..pos]` complete.
    pub fn new(workload: &str, fingerprint: u64, pos: u64) -> Self {
        Self {
            workload: workload.to_string(),
            fingerprint,
            pos,
            slots: Vec::new(),
        }
    }

    /// Workload key recorded at snapshot time.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Fingerprint of the program the snapshot belongs to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The op position this snapshot was taken at: `ops[..pos]` of the
    /// job's [`bp_ir::Program`] are complete, `ops[pos]` is next.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Names of the stored ciphertext slots, in insertion order.
    pub fn slot_names(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().map(|(n, _)| n.as_str())
    }

    /// Stores `ct` under `name` (replacing any previous entry of the same
    /// name) in the validated wire format.
    pub fn insert(&mut self, name: &str, ct: &Ciphertext) {
        let bytes = write_ciphertext(ct);
        if let Some(slot) = self.slots.iter_mut().find(|(n, _)| n == name) {
            slot.1 = bytes;
        } else {
            self.slots.push((name.to_string(), bytes));
        }
    }

    /// Decodes and fully validates the ciphertext stored under `name`
    /// against `ctx` (the context must be parameterized identically to
    /// the one that produced the snapshot).
    pub fn restore(&self, ctx: &CkksContext, name: &str) -> Result<Ciphertext, CheckpointError> {
        let (_, bytes) = self.slots.iter().find(|(n, _)| n == name).ok_or_else(|| {
            CheckpointError::MissingSlot {
                name: name.to_string(),
            }
        })?;
        read_ciphertext(ctx, bytes).map_err(|source| CheckpointError::Wire {
            name: name.to_string(),
            source,
        })
    }

    /// Raw wire bytes stored under `name`, if present. Exposed so tests
    /// can assert bit-identical resume without decoding.
    pub fn slot_bytes(&self, name: &str) -> Option<&[u8]> {
        self.slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Serializes the checkpoint (payload + trailing FNV-1a checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        put_bytes(&mut out, self.workload.as_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.pos.to_le_bytes());
        out.extend_from_slice(&(self.slots.len() as u32).to_le_bytes());
        for (name, data) in &self.slots {
            put_bytes(&mut out, name.as_bytes());
            put_bytes(&mut out, data);
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a checkpoint, verifying magic, version, structural
    /// consistency, and the checksum. Slot ciphertexts are validated
    /// lazily by [`Checkpoint::restore`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() {
            return Err(CheckpointError::Truncated {
                need: CHECKPOINT_MAGIC.len(),
                have: bytes.len(),
            });
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&bytes[..4]);
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        // Checksum covers everything before its own 8 bytes.
        if bytes.len() < 4 + 2 + 8 {
            return Err(CheckpointError::Truncated {
                need: 4 + 2 + 8,
                have: bytes.len(),
            });
        }
        let payload_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(
            bytes[payload_len..]
                .try_into()
                .expect("slice of the final 8 bytes"),
        );
        let computed = fnv1a64(&bytes[..payload_len]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader {
            buf: &bytes[..payload_len],
            pos: 4,
        };
        let version = u16::from_le_bytes(
            r.take(2)?
                .try_into()
                .expect("take(2) yields exactly 2 bytes"),
        );
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let workload = String::from_utf8(r.take_prefixed()?.to_vec())
            .map_err(|_| CheckpointError::Malformed("workload is not valid UTF-8"))?;
        let fingerprint = r.take_u64()?;
        let pos = r.take_u64()?;
        let slot_count = u32::from_le_bytes(
            r.take(4)?
                .try_into()
                .expect("take(4) yields exactly 4 bytes"),
        );
        let mut slots = Vec::new();
        for _ in 0..slot_count {
            let name = String::from_utf8(r.take_prefixed()?.to_vec())
                .map_err(|_| CheckpointError::Malformed("slot name is not valid UTF-8"))?;
            let data = r.take_prefixed()?.to_vec();
            slots.push((name, data));
        }
        if r.pos != r.buf.len() {
            return Err(CheckpointError::Malformed(
                "trailing bytes after the last slot",
            ));
        }
        Ok(Self {
            workload,
            fingerprint,
            pos,
            slots,
        })
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(CheckpointError::Truncated { need: n, have });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?
                .try_into()
                .expect("take(8) yields exactly 8 bytes"),
        ))
    }

    fn take_prefixed(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = u32::from_le_bytes(
            self.take(4)?
                .try_into()
                .expect("take(4) yields exactly 4 bytes"),
        ) as usize;
        self.take(len)
    }
}

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty for
/// detecting at-rest corruption (not a cryptographic MAC).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_ckks::{BpThreadPool, CkksParams, Representation, SecurityLevel};
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha20Rng;
    use std::sync::Arc;

    fn sample() -> Checkpoint {
        let mut cp = Checkpoint::new("logreg", 0xfeed_f00d, 3);
        cp.slots.push(("w".to_string(), vec![1, 2, 3, 4]));
        cp.slots.push(("x".to_string(), vec![9; 17]));
        cp
    }

    /// A stream as the runtime writes it: one real ciphertext slot.
    fn real_stream() -> Vec<u8> {
        let params = CkksParams::builder()
            .log_n(6)
            .word_bits(28)
            .representation(Representation::BitPacker)
            .security(SecurityLevel::Insecure)
            .levels(3, 30)
            .base_modulus_bits(35)
            .build()
            .expect("test params are valid");
        let ctx = CkksContext::with_threads(&params, Arc::new(BpThreadPool::sequential()))
            .expect("test context builds");
        let mut rng = ChaCha20Rng::seed_from_u64(11);
        let keys = ctx.keygen(&mut rng);
        let pt = ctx.encode(&[0.5, -0.25], ctx.max_level());
        let mut cp = Checkpoint::new("logreg", 0xfeed_f00d, 3);
        cp.insert("n2", &ctx.encrypt(&pt, &keys.public, &mut rng));
        cp.to_bytes()
    }

    /// `payload` followed by its valid checksum, so decoding gets past the
    /// checksum to the field decoder.
    fn stamped(payload: &[u8]) -> Vec<u8> {
        let mut out = payload.to_vec();
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        out
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cp = sample();
        let back = Checkpoint::from_bytes(&cp.to_bytes()).expect("roundtrip");
        assert_eq!(cp, back);
        assert_eq!(back.workload(), "logreg");
        assert_eq!(back.fingerprint(), 0xfeed_f00d);
        assert_eq!(back.pos(), 3);
        assert_eq!(back.slot_bytes("x"), Some(&[9u8; 17][..]));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut])
                .expect_err("truncated checkpoint must not decode");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_restamped_prefix_of_a_real_stream_is_a_typed_error() {
        let bytes = real_stream();
        let payload = &bytes[..bytes.len() - 8];
        for cut in 0..payload.len() {
            let err = Checkpoint::from_bytes(&stamped(&payload[..cut]))
                .expect_err("a prefix must not decode");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::BadMagic { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        assert!(Checkpoint::from_bytes(&stamped(payload)).is_ok());
    }

    #[test]
    fn byte_soup_behind_a_valid_header_is_a_typed_error() {
        let mut rng = ChaCha20Rng::seed_from_u64(0xB9C3);
        for case in 0..10_000 {
            let mut payload = CHECKPOINT_MAGIC.to_vec();
            payload.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
            // Mostly zero or tiny bytes, so length and count fields often
            // fit the stream and the decoder gets past them.
            let len = rng.gen_range(0..64);
            payload.extend((0..len).map(|_| match rng.gen_range(0..4) {
                0 | 1 => 0,
                2 => rng.gen_range(1..4),
                _ => rng.next_u32() as u8,
            }));
            let err =
                Checkpoint::from_bytes(&stamped(&payload)).expect_err("byte soup must not decode");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::Malformed(_)
                ),
                "case {case}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bitflips_are_detected() {
        let bytes = sample().to_bytes();
        for pos in [0, 5, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "bitflip at {pos} must be detected"
            );
        }
    }

    #[test]
    fn other_versions_are_rejected_with_valid_checksum() {
        let bytes = sample().to_bytes();
        // Rewrite the version field and re-stamp the checksum so only the
        // version check can fire: the older layouts 1 and 2 included.
        for version in [1u16, 2, 0xFF] {
            let mut payload = bytes[..bytes.len() - 8].to_vec();
            payload[4..6].copy_from_slice(&version.to_le_bytes());
            let err =
                Checkpoint::from_bytes(&stamped(&payload)).expect_err("version must be rejected");
            assert_eq!(err, CheckpointError::UnsupportedVersion { found: version });
            assert!(!err.is_transient());
        }
    }

    #[test]
    fn checksum_mismatch_is_transient_missing_slot_is_not() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let err = Checkpoint::from_bytes(&bytes).expect_err("bad checksum");
        assert!(err.is_transient());
        let missing = CheckpointError::MissingSlot {
            name: "nope".into(),
        };
        assert!(!missing.is_transient());
    }

    #[test]
    fn insert_replaces_existing_slot() {
        let mut cp = Checkpoint::new("w", 0, 0);
        cp.slots.push(("a".to_string(), vec![1]));
        // insert() with a real ciphertext is exercised in the integration
        // tests; here we only check the replace-by-name contract shape.
        assert_eq!(cp.slot_bytes("a"), Some(&[1u8][..]));
    }
}
