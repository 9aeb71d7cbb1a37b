//! Binary journal encoding.
//!
//! The SSP stores journal segments as sequential shared files; this module
//! defines the record format (version 2; the header's version field names
//! it, and any other version is rejected with [`EncodeError::BadVersion`]).
//!
//! Header integers are LEB128 varints; per-record txids stay implicit
//! deltas from the varint `first_txid` base (txid of record *i* is
//! `first_txid + i`). Paths are prefix-compressed against the previous path
//! in the batch: journals have heavy directory locality (a client writing
//! `/a/b/f0001..f9999` repeats the 40-byte prefix thousands of times), so
//! each path is `⟨varint shared, varint suffix_len, suffix bytes⟩` where
//! `shared` is the byte length of the common prefix with the previously
//! encoded path. `Rename` chains: `src` deltas against the previous path and
//! `dst` deltas against `src`. The checksum is folded in while encoding via
//! [`HashingBuf`] — sealing a batch is one 8-byte append, not a second pass.
//! After the records the body may carry an **ack section** (varint count +
//! per-entry `⟨record idx, client, seq, flags⟩` varints) binding records to
//! the client requests they answer — the replicated retry-outcome window
//! rides here. The section is detected by "body bytes remain after the `n`
//! records" and elided when empty.
//!
//! Every batch ends with an 8-byte big-endian FNV-1a-64 trailer over
//! everything before it, so a torn or corrupted write is detected on
//! replay before any field is trusted.

use bytes::{Buf, Bytes};

use crate::hash::{fnv1a64, HashingBuf, WireError, WireReader};
use crate::txn::{AckRecord, JournalBatch, Txn};

/// Format magic: "MAMSJRNL" truncated to 4 bytes.
pub const MAGIC: u32 = 0x4d4a_524e;
/// Wire format version: varints and prefix-compressed paths.
pub const VERSION: u16 = 2;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    BadMagic(u32),
    BadVersion(u16),
    Truncated,
    BadChecksum {
        stored: u64,
        computed: u64,
    },
    BadTag(u8),
    BadUtf8,
    BadVarint,
    /// A path delta referenced more shared bytes than the previous path
    /// has, or split it off a UTF-8 character boundary.
    BadPrefix {
        shared: u64,
        prev_len: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::BadMagic(m) => write!(f, "bad journal magic {m:#x}"),
            EncodeError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
            EncodeError::Truncated => write!(f, "truncated journal batch"),
            EncodeError::BadChecksum { stored, computed } => {
                write!(f, "journal checksum mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            EncodeError::BadTag(t) => write!(f, "unknown transaction tag {t}"),
            EncodeError::BadUtf8 => write!(f, "non-UTF-8 path in journal record"),
            EncodeError::BadVarint => write!(f, "malformed varint in journal batch"),
            EncodeError::BadPrefix { shared, prev_len } => {
                write!(f, "journal path delta shares {shared} bytes of a {prev_len}-byte prefix")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Longest common prefix of `prev` and `next` in bytes, clamped back to a
/// character boundary so the suffix stays valid UTF-8 on its own.
fn shared_prefix(prev: &str, next: &str) -> usize {
    let a = prev.as_bytes();
    let b = next.as_bytes();
    let mut n = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    while n > 0 && !prev.is_char_boundary(n) {
        n -= 1;
    }
    n
}

/// Append one path as a delta against `prev`, then advance `prev` to it.
fn put_path(buf: &mut HashingBuf, prev: &mut String, path: &str) {
    let shared = shared_prefix(prev, path);
    let suffix = &path.as_bytes()[shared..];
    buf.put_varint(shared as u64);
    buf.put_varint(suffix.len() as u64);
    buf.put_slice(suffix);
    prev.truncate(shared);
    prev.push_str(&path[shared..]);
}

fn put_txn(buf: &mut HashingBuf, prev: &mut String, t: &Txn) {
    buf.put_u8(t.tag());
    match t {
        Txn::Create { path, replication } => {
            put_path(buf, prev, path);
            buf.put_u8(*replication);
        }
        Txn::Mkdir { path } => put_path(buf, prev, path),
        Txn::Delete { path, recursive } => {
            put_path(buf, prev, path);
            buf.put_u8(*recursive as u8);
        }
        Txn::Rename { src, dst } => {
            put_path(buf, prev, src);
            put_path(buf, prev, dst);
        }
        Txn::AddBlock { path, block_id, len } => {
            put_path(buf, prev, path);
            buf.put_varint(*block_id);
            buf.put_varint(*len as u64);
        }
        Txn::CloseFile { path } => put_path(buf, prev, path),
        Txn::SetPerm { path, perm } => {
            put_path(buf, prev, path);
            buf.put_u16(*perm);
        }
    }
}

impl From<WireError> for EncodeError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => EncodeError::Truncated,
            WireError::BadVarint => EncodeError::BadVarint,
        }
    }
}

/// Rebuild a delta-encoded path into `prev` and return an owned copy.
fn get_path(r: &mut WireReader<'_>, prev: &mut String) -> Result<String, EncodeError> {
    let shared = r.varint()?;
    if shared as usize > prev.len() || !prev.is_char_boundary(shared as usize) {
        return Err(EncodeError::BadPrefix { shared, prev_len: prev.len() });
    }
    let suffix_len = r.varint()? as usize;
    let suffix = std::str::from_utf8(r.take(suffix_len)?).map_err(|_| EncodeError::BadUtf8)?;
    prev.truncate(shared as usize);
    prev.push_str(suffix);
    Ok(prev.clone())
}

fn get_txn(r: &mut WireReader<'_>, prev: &mut String) -> Result<Txn, EncodeError> {
    let tag = r.u8()?;
    Ok(match tag {
        1 => {
            let path = get_path(r, prev)?;
            Txn::Create { path, replication: r.u8()? }
        }
        2 => Txn::Mkdir { path: get_path(r, prev)? },
        3 => {
            let path = get_path(r, prev)?;
            Txn::Delete { path, recursive: r.u8()? != 0 }
        }
        4 => {
            let src = get_path(r, prev)?;
            let dst = get_path(r, prev)?;
            Txn::Rename { src, dst }
        }
        5 => {
            let path = get_path(r, prev)?;
            let block_id = r.varint()?;
            let len = r.varint()?;
            Txn::AddBlock { path, block_id, len: len as u32 }
        }
        6 => Txn::CloseFile { path: get_path(r, prev)? },
        7 => {
            let path = get_path(r, prev)?;
            Txn::SetPerm { path, perm: r.u16()? }
        }
        t => return Err(EncodeError::BadTag(t)),
    })
}

/// Encode a batch into its on-disk/wire bytes.
pub fn encode_batch(batch: &JournalBatch) -> Bytes {
    let mut buf = HashingBuf::with_capacity(32 + batch.records.len() * 24);
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION);
    buf.put_varint(batch.sn);
    buf.put_varint(batch.first_txid);
    buf.put_varint(batch.records.len() as u64);
    let mut prev = String::new();
    for t in &batch.records {
        put_txn(&mut buf, &mut prev, t);
    }
    // Optional ack section, elided when empty.
    if !batch.acks.is_empty() {
        buf.put_varint(batch.acks.len() as u64);
        for a in &batch.acks {
            buf.put_varint(a.record as u64);
            buf.put_varint(a.client as u64);
            buf.put_varint(a.seq);
            buf.put_u8(a.spec as u8);
        }
    }
    buf.seal()
}

fn decode_body(body: &[u8]) -> Result<JournalBatch, EncodeError> {
    let mut r = WireReader::new(body);
    let sn = r.varint()?;
    let first_txid = r.varint()?;
    let n = r.varint()? as usize;
    let mut records = Vec::with_capacity(n.min(body.len()));
    let mut prev = String::new();
    for _ in 0..n {
        records.push(get_txn(&mut r, &mut prev)?);
    }
    // Body bytes past the records host the ack section (absent when the
    // batch owes nothing to clients).
    let mut acks = Vec::new();
    if !r.is_empty() {
        let count = r.varint()? as usize;
        acks.reserve(count.min(body.len()));
        for _ in 0..count {
            let record = r.varint()?;
            let client = r.varint()?;
            let seq = r.varint()?;
            let spec = r.u8()? != 0;
            if record >= n as u64 || record > u32::MAX as u64 || client > u32::MAX as u64 {
                return Err(EncodeError::BadVarint);
            }
            acks.push(AckRecord { record: record as u32, client: client as u32, seq, spec });
        }
        if !r.is_empty() {
            return Err(EncodeError::Truncated);
        }
    }
    Ok(JournalBatch { sn, first_txid, records, acks })
}

/// Decode a batch, verifying checksum, magic and version.
pub fn decode_batch(data: Bytes) -> Result<JournalBatch, EncodeError> {
    if data.remaining() < 8 {
        return Err(EncodeError::Truncated);
    }
    let body_len = data.remaining() - 8;
    let stored = u64::from_be_bytes(data[body_len..].try_into().expect("8-byte trailer"));
    let computed = fnv1a64(&data[..body_len]);
    if stored != computed {
        return Err(EncodeError::BadChecksum { stored, computed });
    }
    if body_len < 4 + 2 {
        return Err(EncodeError::Truncated);
    }
    let magic = u32::from_be_bytes(data[..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(EncodeError::BadMagic(magic));
    }
    let version = u16::from_be_bytes(data[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(EncodeError::BadVersion(version));
    }
    decode_body(&data[6..body_len])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> JournalBatch {
        JournalBatch::new(
            3,
            40,
            vec![
                Txn::Create { path: "/dir/file-α".into(), replication: 3 },
                Txn::Mkdir { path: "/dir/sub".into() },
                Txn::Delete { path: "/old".into(), recursive: true },
                Txn::Rename { src: "/a".into(), dst: "/b".into() },
                Txn::AddBlock { path: "/dir/file-α".into(), block_id: 99, len: 4096 },
                Txn::CloseFile { path: "/dir/file-α".into() },
                Txn::SetPerm { path: "/dir".into(), perm: 0o750 },
            ],
        )
    }

    #[test]
    fn round_trip_all_variants() {
        let b = sample_batch();
        let dec = decode_batch(encode_batch(&b)).unwrap();
        assert_eq!(dec, b);
    }

    #[test]
    fn ack_section_round_trips() {
        let mut b = sample_batch();
        b.acks = vec![
            AckRecord { record: 0, client: 17, seq: 5, spec: false },
            AckRecord { record: 3, client: 2, seq: u64::MAX - 7, spec: true },
            AckRecord { record: 6, client: u32::MAX, seq: 0, spec: false },
        ];
        let enc = encode_batch(&b);
        let dec = decode_batch(enc).unwrap();
        assert_eq!(dec, b);
    }

    #[test]
    fn ack_free_batches_elide_the_section() {
        let b = sample_batch();
        let enc = encode_batch(&b);
        let dec = decode_batch(enc.clone()).unwrap();
        assert!(dec.acks.is_empty());
        let mut with_acks = b.clone();
        with_acks.acks = vec![AckRecord { record: 1, client: 9, seq: 4, spec: false }];
        assert!(encode_batch(&with_acks).len() > enc.len());
    }

    #[test]
    fn ack_referencing_missing_record_rejected() {
        let mut b = sample_batch();
        let n = b.records.len() as u32;
        b.acks = vec![AckRecord { record: n, client: 1, seq: 1, spec: false }];
        // Bypass the constructor's debug assertion: encode the raw struct.
        let enc = encode_batch(&b);
        assert!(decode_batch(enc).is_err(), "out-of-range ack index must not decode");
    }

    #[test]
    fn version_1_header_is_rejected() {
        // A checksum-valid batch whose header names the retired
        // fixed-width format: outside input the decoder must refuse.
        let enc = encode_batch(&sample_batch());
        let mut body = enc[..enc.len() - 8].to_vec();
        body[4..6].copy_from_slice(&1u16.to_be_bytes());
        let sum = fnv1a64(&body);
        body.extend_from_slice(&sum.to_be_bytes());
        assert_eq!(decode_batch(Bytes::from(body)).unwrap_err(), EncodeError::BadVersion(1));
    }

    #[test]
    fn prefix_compression_shrinks_local_workloads() {
        // A directory-local run of creates: shared-prefix deltas should
        // beat the raw path bytes comfortably.
        let records: Vec<Txn> = (0..256)
            .map(|i| Txn::Create {
                path: format!("/warehouse/db7/events/part-{i:05}"),
                replication: 3,
            })
            .collect();
        let raw: usize = records
            .iter()
            .map(|t| match t {
                Txn::Create { path, .. } => path.len(),
                _ => unreachable!(),
            })
            .sum();
        let b = JournalBatch::new(9, 1000, records);
        let enc = encode_batch(&b);
        assert_eq!(decode_batch(enc.clone()).unwrap(), b);
        assert!(
            enc.len() * 2 < raw,
            "encoded {} B should be <half of the {raw} B of paths",
            enc.len()
        );
    }

    #[test]
    fn handles_multibyte_boundary_prefixes() {
        // Paths diverging inside a multi-byte character: the shared prefix
        // must clamp to a char boundary, not split "α"/"β" mid-sequence.
        let b = JournalBatch::new(
            1,
            1,
            vec![
                Txn::Mkdir { path: "/αβ".into() },
                Txn::Mkdir { path: "/αγ".into() },
                Txn::Mkdir { path: "/α".into() },
                Txn::Mkdir { path: "/αβγδ".into() },
            ],
        );
        assert_eq!(decode_batch(encode_batch(&b)).unwrap(), b);
    }

    #[test]
    fn single_record_batch_round_trips() {
        let b = JournalBatch::new(1, u64::MAX - 1, vec![Txn::Mkdir { path: "/x".into() }]);
        assert_eq!(decode_batch(encode_batch(&b)).unwrap(), b);
    }

    #[test]
    fn corruption_detected() {
        let enc = encode_batch(&sample_batch());
        for i in [0usize, 6, enc.len() / 2, enc.len() - 1] {
            let mut bad = enc.to_vec();
            bad[i] ^= 0xff;
            let err = decode_batch(Bytes::from(bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    EncodeError::BadChecksum { .. }
                        | EncodeError::BadMagic(_)
                        | EncodeError::BadVersion(_)
                ),
                "unexpected error at byte {i}: {err:?}"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let enc = encode_batch(&sample_batch());
        for cut in [0usize, 4, 7, 20, enc.len() - 9] {
            let err = decode_batch(enc.slice(..cut)).unwrap_err();
            assert!(
                matches!(err, EncodeError::Truncated | EncodeError::BadChecksum { .. }),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = EncodeError::BadChecksum { stored: 1, computed: 2 };
        assert!(format!("{e}").contains("checksum"));
        assert!(format!("{}", EncodeError::BadTag(9)).contains("tag 9"));
        assert!(format!("{}", EncodeError::BadVarint).contains("varint"));
        assert!(format!("{}", EncodeError::BadPrefix { shared: 5, prev_len: 2 }).contains("5"));
    }
}
