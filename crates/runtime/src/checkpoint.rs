//! Versioned checkpoint/resume for long evaluations.
//!
//! A multi-epoch encrypted computation (the logistic-regression training
//! workload runs minutes at production parameters) must survive preemption
//! without redoing completed epochs. A [`Checkpoint`] snapshots exactly
//! what [`crate::Runtime::run_program`] needs to resume bit-identically:
//! the workload key, a fingerprint of the [`bp_ir::Program`] being run,
//! the op position (`ops[..pos]` are complete), and the live ciphertexts
//! in the `bp-ckks` wire format (which preserves exact factored scales and
//! chain positions) — protected end-to-end by a trailing checksum and the
//! wire layer's full structural validation on restore.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "BPCK" | version u16 = 4 | workload: len u32 + bytes | fingerprint u64 | pos u64
//!        | slot_count u32 | { name: len u32 + bytes, data: len u32 + bytes }*
//!        | checksum over everything above: u64
//! ```
//!
//! [`Checkpoint::encode`] computes the stream's exact length, reserves it
//! once and writes every slot's ciphertext straight into that buffer, so
//! a snapshot costs one write and one checksum read of its bytes.
//!
//! **Checksum.** The payload is read as little-endian 8-byte words, the
//! final partial word zero-padded, dealt round-robin to four lanes. A lane
//! absorbs a word `w` as `lane ← rotl(lane + w·P2, 31)·P1` with odd `P1`
//! and `P2`: for a fixed lane this is a bijection of the word, and for a
//! fixed word a bijection of the lane. The stream length and then the four
//! lanes fold into the digest through the same step, followed by an
//! invertible avalanche. So any change confined to one aligned 8-byte word
//! always changes the digest. It detects corruption at rest or in transit;
//! it is not a MAC.
//!
//! **Decode order.** Magic, minimum length (14 bytes: magic, version and
//! checksum), version, checksum, then the fields. Reading the version
//! before the checksum makes a stream of another version (v3 carried a
//! byte-wise FNV-1a checksum) a permanent
//! [`CheckpointError::UnsupportedVersion`] rather than a transient
//! [`CheckpointError::ChecksumMismatch`]. Only version 4 is read or
//! written.

use bp_ckks::wire::{encoded_len, read_ciphertext, write_ciphertext_into, WireError};
use bp_ckks::{Ciphertext, CkksContext};
use std::fmt;

/// File magic for checkpoints ("BPCK").
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"BPCK";
/// Checkpoint format version: the only one this build reads or writes.
pub const CHECKPOINT_VERSION: u16 = 4;

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

/// A decoded snapshot of an IR program run in progress, borrowing every
/// field from the stream it was decoded from.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<'a> {
    workload: &'a str,
    fingerprint: u64,
    pos: u64,
    slots: Vec<(&'a str, &'a [u8])>,
}

/// Bytes of a stream before its slots and after them: magic, version,
/// workload, fingerprint, position, slot count and checksum.
fn frame_len(workload: &str) -> usize {
    4 + 2 + 4 + workload.len() + 8 + 8 + 4 + 8
}

/// Magic, version and checksum: the shortest stream the decoder reads
/// past the magic.
const MIN_LEN: usize = 4 + 2 + 8;

impl<'a> Checkpoint<'a> {
    /// Serializes a snapshot of `workload` running the program with
    /// `fingerprint`, taken with `ops[..pos]` complete, holding each
    /// `(name, ciphertext)` of `slots` in the validated wire format.
    ///
    /// The stream is written into one buffer of its exact final length:
    /// each ciphertext's bytes are written once, straight into it, and
    /// read once by the checksum.
    pub fn encode<S: AsRef<str>>(
        workload: &str,
        fingerprint: u64,
        pos: u64,
        slots: &[(S, &Ciphertext)],
    ) -> Vec<u8> {
        let len = slots.iter().fold(frame_len(workload), |len, (name, ct)| {
            len + 4 + name.as_ref().len() + 4 + encoded_len(ct)
        });
        let mut out = Vec::with_capacity(len);
        put_header(&mut out, workload, fingerprint, pos, slots.len());
        for (name, ct) in slots {
            put_bytes(&mut out, name.as_ref().as_bytes());
            put_len(&mut out, encoded_len(ct));
            write_ciphertext_into(&mut out, ct);
        }
        seal(&mut out);
        debug_assert_eq!(out.len(), len, "encoded_len is exact");
        out
    }

    /// Workload key recorded at snapshot time.
    pub fn workload(&self) -> &'a str {
        self.workload
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

    /// Names of the stored ciphertext slots, in stream order.
    pub fn slot_names(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.slots.iter().map(|&(n, _)| n)
    }

    /// Decodes and fully validates the ciphertext stored under `name`
    /// against `ctx` (the context must be parameterized identically to
    /// the one that produced the snapshot).
    pub fn restore(&self, ctx: &CkksContext, name: &str) -> Result<Ciphertext, CheckpointError> {
        let bytes = self
            .slot_bytes(name)
            .ok_or_else(|| CheckpointError::MissingSlot {
                name: name.to_string(),
            })?;
        read_ciphertext(ctx, bytes).map_err(|source| CheckpointError::Wire {
            name: name.to_string(),
            source,
        })
    }

    /// Raw wire bytes stored under `name`, if present. Exposed so tests
    /// can assert bit-identical resume without decoding.
    pub fn slot_bytes(&self, name: &str) -> Option<&'a [u8]> {
        self.slots
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, b)| b)
    }

    /// Decodes a checkpoint, verifying magic, length, version, the
    /// checksum and structural consistency, in that order, without
    /// copying any field out of `bytes`. Slot ciphertexts are validated
    /// lazily by [`Checkpoint::restore`].
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
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
        if bytes.len() < MIN_LEN {
            return Err(CheckpointError::Truncated {
                need: MIN_LEN,
                have: bytes.len(),
            });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        // The checksum covers everything before its own 8 bytes.
        let payload_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(
            bytes[payload_len..]
                .try_into()
                .expect("slice of the final 8 bytes"),
        );
        let computed = checksum(&bytes[..payload_len]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader {
            buf: &bytes[..payload_len],
            pos: 6,
        };
        let workload = std::str::from_utf8(r.take_prefixed()?)
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
            let name = std::str::from_utf8(r.take_prefixed()?)
                .map_err(|_| CheckpointError::Malformed("slot name is not valid UTF-8"))?;
            slots.push((name, r.take_prefixed()?));
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

/// Writes everything before the first slot.
fn put_header(out: &mut Vec<u8>, workload: &str, fingerprint: u64, pos: u64, slots: usize) {
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    put_bytes(out, workload.as_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&pos.to_le_bytes());
    put_len(out, slots);
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    let len = u32::try_from(len).expect("a checkpoint field is shorter than 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Appends the checksum of everything written so far.
fn seal(out: &mut Vec<u8>) {
    let sum = checksum(out);
    out.extend_from_slice(&sum.to_le_bytes());
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

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;

/// One checksum step: a bijection of `lane` for a fixed `word`, and of
/// `word` for a fixed `lane` (`P1` and `P2` are odd).
fn absorb(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The stream checksum (see the module doc): four lanes of little-endian
/// words, so the multiplies of consecutive words do not wait on each
/// other and the pass runs at about memory speed.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
            *lane = absorb(*lane, word);
        }
    }
    for (lane, word) in lanes.iter_mut().zip(stripes.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = absorb(*lane, u64::from_le_bytes(padded));
    }
    let mut h = lanes
        .into_iter()
        .fold(absorb(P3, bytes.len() as u64), absorb);
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// FNV-1a 64-bit over `bytes`: the program fingerprint and the backoff
/// jitter seed, both over short inputs (not a cryptographic MAC).
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
    use bp_ckks::wire::write_ciphertext;
    use bp_ckks::{BpThreadPool, CkksParams, Representation, SecurityLevel};
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha20Rng;
    use std::sync::Arc;

    /// A stream in [`Checkpoint::encode`]'s layout whose slots hold
    /// arbitrary bytes rather than ciphertexts, for the decoder tests.
    fn encode_raw(workload: &str, fingerprint: u64, pos: u64, slots: &[(&str, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, workload, fingerprint, pos, slots.len());
        for (name, data) in slots {
            put_bytes(&mut out, name.as_bytes());
            put_bytes(&mut out, data);
        }
        seal(&mut out);
        out
    }

    fn sample() -> Vec<u8> {
        encode_raw(
            "logreg",
            0xfeed_f00d,
            3,
            &[("w", &[1, 2, 3, 4]), ("x", &[9; 17])],
        )
    }

    /// One real ciphertext, encrypted under a small test context.
    fn real_ciphertext() -> Ciphertext {
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
        ctx.encrypt(&pt, &keys.public, &mut rng)
    }

    /// A stream as the runtime writes it: one real ciphertext slot.
    fn real_stream() -> Vec<u8> {
        Checkpoint::encode("logreg", 0xfeed_f00d, 3, &[("n2", &real_ciphertext())])
    }

    /// `payload` followed by its valid checksum, so decoding gets past the
    /// checksum to the field decoder.
    fn stamped(payload: &[u8]) -> Vec<u8> {
        let mut out = payload.to_vec();
        seal(&mut out);
        out
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let bytes = sample();
        let back = Checkpoint::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.workload(), "logreg");
        assert_eq!(back.fingerprint(), 0xfeed_f00d);
        assert_eq!(back.pos(), 3);
        assert_eq!(back.slot_names().collect::<Vec<_>>(), ["w", "x"]);
        assert_eq!(back.slot_bytes("w"), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(back.slot_bytes("x"), Some(&[9u8; 17][..]));
        assert_eq!(back.slot_bytes("y"), None);
    }

    /// The encoder reserves the exact stream length once, and each slot
    /// holds its ciphertext's wire bytes.
    #[test]
    fn encode_fills_one_exact_buffer_with_wire_bytes() {
        let ct = real_ciphertext();
        let bytes = Checkpoint::encode("w", 7, 2, &[("a", &ct), ("bb", &ct)]);
        assert_eq!(bytes.len(), bytes.capacity(), "no reallocation, no slack");
        let back = Checkpoint::from_bytes(&bytes).expect("stream decodes");
        assert_eq!(back.slot_names().collect::<Vec<_>>(), ["a", "bb"]);
        for name in ["a", "bb"] {
            assert_eq!(
                back.slot_bytes(name),
                Some(write_ciphertext(&ct).as_slice())
            );
        }
        let empty = Checkpoint::encode::<&str>("w", 7, 2, &[]);
        assert_eq!(empty.len(), frame_len("w"));
        assert_eq!(
            Checkpoint::from_bytes(&empty)
                .expect("decodes")
                .slot_names()
                .count(),
            0
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample();
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

    /// Every single-bit flip of a real stream is caught by the check that
    /// owns its byte: the magic, the version, or else the checksum.
    #[test]
    fn bitflips_are_detected() {
        let mut bytes = real_stream();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                bytes[pos] ^= 1 << bit;
                let err =
                    Checkpoint::from_bytes(&bytes).expect_err("a flipped bit must not decode");
                match pos {
                    0..=3 => assert!(matches!(err, CheckpointError::BadMagic { .. }), "{err:?}"),
                    4 | 5 => assert!(
                        matches!(err, CheckpointError::UnsupportedVersion { .. }),
                        "{err:?}"
                    ),
                    _ => assert!(
                        matches!(err, CheckpointError::ChecksumMismatch { .. }),
                        "byte {pos} bit {bit}: {err:?}"
                    ),
                }
                bytes[pos] ^= 1 << bit;
            }
        }
        assert!(Checkpoint::from_bytes(&bytes).is_ok());
    }

    /// Replacing one aligned 8-byte word of the payload, or its
    /// zero-padded tail fragment, with any other value changes the digest,
    /// at every length from 0 to 96 bytes. The reason: the word goes to
    /// one lane, and `absorb` is a bijection of the word for a fixed lane,
    /// so that lane's state differs after the step; every later step of
    /// that lane is a bijection of the lane for its fixed word, so the
    /// lane ends different. The other lanes and the length are unchanged,
    /// and each fold step and the avalanche is a bijection of the running
    /// digest for its fixed input, so the digest differs.
    #[test]
    fn any_one_word_change_moves_the_checksum() {
        let mut rng = ChaCha20Rng::seed_from_u64(0x5EED);
        for len in 0..=96usize {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            let base = checksum(&buf);
            for start in (0..len).step_by(8) {
                let end = (start + 8).min(len);
                let original = buf[start..end].to_vec();
                // Every single-bit change of the word, then random values.
                let mut values: Vec<Vec<u8>> = (0..8 * (end - start))
                    .map(|bit| {
                        let mut v = original.clone();
                        v[bit / 8] ^= 1 << (bit % 8);
                        v
                    })
                    .collect();
                values.extend((0..16).map(|_| {
                    let mut v = original.clone();
                    rng.fill_bytes(&mut v);
                    v
                }));
                for value in values.into_iter().filter(|v| *v != original) {
                    buf[start..end].copy_from_slice(&value);
                    assert_ne!(checksum(&buf), base, "len {len}, word at {start}");
                }
                buf[start..end].copy_from_slice(&original);
            }
            assert_eq!(checksum(&buf), base);
        }
    }

    #[test]
    fn other_versions_are_rejected_with_valid_checksum() {
        let bytes = sample();
        // Rewrite the version field and re-stamp the checksum so only the
        // version check can fire: the older layouts 1 to 3 included.
        for version in [1u16, 2, 3, 0xFF] {
            let mut payload = bytes[..bytes.len() - 8].to_vec();
            payload[4..6].copy_from_slice(&version.to_le_bytes());
            let err =
                Checkpoint::from_bytes(&stamped(&payload)).expect_err("version must be rejected");
            assert_eq!(err, CheckpointError::UnsupportedVersion { found: version });
            assert!(!err.is_transient());
        }
    }

    /// A stream as v3 wrote it (this layout, version 3, an FNV-1a
    /// checksum) is a permanent version error, not a transient checksum
    /// mismatch, because the version is read first.
    #[test]
    fn a_v3_stream_is_an_unsupported_version() {
        let bytes = real_stream();
        let mut v3 = bytes[..bytes.len() - 8].to_vec();
        v3[4..6].copy_from_slice(&3u16.to_le_bytes());
        let sum = fnv1a64(&v3);
        v3.extend_from_slice(&sum.to_le_bytes());
        let err = Checkpoint::from_bytes(&v3).expect_err("v3 is not read");
        assert_eq!(err, CheckpointError::UnsupportedVersion { found: 3 });
        assert!(!err.is_transient());
    }

    #[test]
    fn checksum_mismatch_is_transient_missing_slot_is_not() {
        let mut bytes = sample();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let err = Checkpoint::from_bytes(&bytes).expect_err("bad checksum");
        assert!(err.is_transient());
        let missing = CheckpointError::MissingSlot {
            name: "nope".into(),
        };
        assert!(!missing.is_transient());
    }
}
