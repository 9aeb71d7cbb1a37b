//! Delta images: journal-anchored incremental checkpoints.
//!
//! A delta image covers the journal range `(base_sn, end_sn]` as a minimal
//! **changed-path set**: folding the range keeps only the *final* state of
//! every path it touched (last-writer-wins), with tombstones for paths that
//! ended up removed. A delta is therefore far smaller than the raw journal
//! span it covers — a file appended a thousand times folds to one entry —
//! and applying it over any state within the covered range lands exactly on
//! the end state.
//!
//! **Apply-anywhere invariant.** A delta over `(N, M]` applied to the
//! namespace as of *any* sn `S ∈ [N, M]` yields the namespace as of `M`.
//! This holds because every path whose state differs between `S` and `M`
//! was necessarily touched by the range `(S, M] ⊆ (N, M]`, entries carry
//! whole final states (not edits), tombstones are idempotent
//! remove-if-present, and directories whose inode identity was severed
//! (delete or rename) ship as *replace* entries with their full final
//! subtree so stale children can never survive a merge. The renewing
//! junior's flat-MTTR fast path rests on this: a restarting replica at sn
//! `S ≥ N` skips the base image entirely and applies only the deltas whose
//! `end_sn > S`.
//!
//! Wire format (magic `MDLT`): the v2 image idiom — varint lengths, paths
//! prefix-compressed against the previous entry (entries are sorted, so
//! siblings share long prefixes), per-entry op tags, and the repo-wide
//! FNV-1a-64 trailer via [`HashingBuf`]. Deltas are small enough to buffer
//! whole before decoding, so unlike the base image there is no streaming
//! decoder; corruption anywhere fails [`decode_delta`] loudly.

use std::collections::BTreeSet;

use bytes::Bytes;
use mams_journal::hash::{fnv1a64, HashingBuf, WireReader};
use mams_journal::{Sn, Txn};

use crate::image::ImageError;
use crate::retry::RetryWindow;
use crate::shard::ShardedNamespace;
use crate::tree::NsError;

/// Delta image magic ("MDLT").
pub const DELTA_MAGIC: u32 = 0x4d44_4c54;
/// Delta wire format version.
pub const DELTA_VERSION: u16 = 1;

/// Fixed header: magic (4) + version (2) + base sn (8) + end sn (8).
const HEADER_LEN: usize = 22;
/// Trailing checksum length.
const TRAILER_LEN: usize = 8;

/// One folded change: the final state of a touched path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Merge-upsert a directory: create it if absent, otherwise keep its
    /// children and refresh the permission bits (a file in the way is
    /// replaced).
    UpsertDir { perm: u16 },
    /// Replace whatever is at the path with a fresh empty directory. Used
    /// when the inode identity was severed inside the folded range (delete
    /// or rename): merging would let children that only exist in the
    /// consumer's older state survive. The directory's final subtree rides
    /// along as ordinary upsert entries sorted after it.
    ReplaceDir { perm: u16 },
    /// Replace/create the file with exactly these attributes.
    UpsertFile { perm: u16, replication: u8, sealed: bool, blocks: Vec<u64> },
    /// Remove the path (recursively) if present.
    Tombstone,
}

/// A folded entry: path plus its final state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    pub path: String,
    pub op: DeltaOp,
}

/// A serialized delta image covering the journal range `(base_sn, end_sn]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaImage {
    /// The sn this delta chains onto (exclusive).
    pub base_sn: Sn,
    /// The sn this delta advances the consumer to (inclusive).
    pub end_sn: Sn,
    /// Number of folded entries.
    pub entries: u64,
    /// Encoded bytes.
    pub data: Bytes,
}

impl DeltaImage {
    /// Size of the encoded delta in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// A chunk `[offset, offset + len)` of the encoded bytes, clamped to
    /// the end (resumable transfer, same contract as the base image).
    pub fn chunk(&self, offset: u64, len: u64) -> Bytes {
        let size = self.data.len() as u64;
        let start = offset.min(size) as usize;
        let end = offset.saturating_add(len).min(size) as usize;
        self.data.slice(start..end)
    }
}

/// A decoded delta, ready to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedDelta {
    pub base_sn: Sn,
    pub end_sn: Sn,
    /// Entries in ascending path order (parents precede descendants).
    pub entries: Vec<DeltaEntry>,
    /// Retry-outcome window as of `end_sn` (empty for deltas written before
    /// the window extension). A junior restored from base + deltas adopts
    /// the window of the *last* delta it applies, so at-most-once survives
    /// the delta recovery ladder too.
    pub window: RetryWindow,
}

// -------------------------------------------------------------------- fold

/// Fold a journal range into a delta image.
///
/// `src` must be the namespace **as of `end_sn`** (the producer folds off
/// its live tree right after applying the range), and `txns` the records of
/// `(base_sn, end_sn]` in order. Cost is proportional to the touched-path
/// set, not the namespace: only final states are looked up.
///
/// One deliberate coarseness: a directory that was renamed (or deleted and
/// recreated) ships its entire final subtree, because the consumer rebuilds
/// it from scratch. "Churn" for sizing purposes therefore counts the
/// subtrees moved by renames, not just the paths named in the journal.
pub fn fold_delta<'a>(
    src: &ShardedNamespace,
    base_sn: Sn,
    end_sn: Sn,
    txns: impl IntoIterator<Item = &'a Txn>,
) -> DeltaImage {
    fold_delta_with_window(src, base_sn, end_sn, txns, &RetryWindow::new())
}

/// [`fold_delta`] variant that embeds the producer's retry-outcome window as
/// of `end_sn`, so consumers on the delta ladder inherit at-most-once state
/// along with the namespace. An empty window is elided on the wire.
pub fn fold_delta_with_window<'a>(
    src: &ShardedNamespace,
    base_sn: Sn,
    end_sn: Sn,
    txns: impl IntoIterator<Item = &'a Txn>,
    window: &RetryWindow,
) -> DeltaImage {
    let mut touched: BTreeSet<String> = BTreeSet::new();
    let mut severed: BTreeSet<String> = BTreeSet::new();
    for txn in txns {
        match txn {
            Txn::Create { path, .. }
            | Txn::Mkdir { path }
            | Txn::AddBlock { path, .. }
            | Txn::CloseFile { path }
            | Txn::SetPerm { path, .. } => {
                touched.insert(path.clone());
            }
            Txn::Delete { path, .. } => {
                touched.insert(path.clone());
                severed.insert(path.clone());
            }
            Txn::Rename { src: s, dst: d } => {
                touched.insert(s.clone());
                severed.insert(s.clone());
                touched.insert(d.clone());
                severed.insert(d.clone());
            }
        }
    }
    // Severed paths that ended up as directories ship their whole final
    // subtree: the consumer replaces them with a fresh directory, so every
    // surviving descendant must ride along.
    let mut subtree: Vec<String> = Vec::new();
    for p in &severed {
        if src.getfileinfo(p).is_ok_and(|i| i.is_dir) {
            collect_subtree(src, p, &mut subtree);
        }
    }
    touched.extend(subtree);

    let mut entries = Vec::with_capacity(touched.len());
    for path in touched {
        match src.getfileinfo(&path).ok() {
            None => {
                if path != "/" {
                    entries.push(DeltaEntry { path, op: DeltaOp::Tombstone });
                }
            }
            Some(info) if info.is_dir => {
                let op = if path != "/" && severed.contains(path.as_str()) {
                    DeltaOp::ReplaceDir { perm: info.perm }
                } else {
                    DeltaOp::UpsertDir { perm: info.perm }
                };
                entries.push(DeltaEntry { path, op });
            }
            Some(info) => {
                entries.push(DeltaEntry {
                    path,
                    op: DeltaOp::UpsertFile {
                        perm: info.perm,
                        replication: info.replication,
                        sealed: info.sealed,
                        blocks: info.blocks,
                    },
                });
            }
        }
    }
    encode_delta_with_window(base_sn, end_sn, &entries, window)
}

fn collect_subtree(src: &ShardedNamespace, root: &str, out: &mut Vec<String>) {
    let mut stack = vec![root.to_string()];
    while let Some(p) = stack.pop() {
        for name in src.list(&p).unwrap_or_default() {
            let child = if p == "/" { format!("/{name}") } else { format!("{p}/{name}") };
            if src.getfileinfo(&child).is_ok_and(|i| i.is_dir) {
                stack.push(child.clone());
            }
            out.push(child);
        }
    }
}

// ------------------------------------------------------------------ encode

/// Encode sorted entries into the `MDLT` wire format. Callers normally go
/// through [`fold_delta`]; this is exposed for tests and the compactor.
pub fn encode_delta(base_sn: Sn, end_sn: Sn, entries: &[DeltaEntry]) -> DeltaImage {
    encode_delta_with_window(base_sn, end_sn, entries, &RetryWindow::new())
}

/// [`encode_delta`] variant carrying a retry-outcome window. The window
/// rides after the entries as `'W'` + varint length + blob, mirroring the
/// base image's section; an empty window writes nothing, keeping window-free
/// deltas byte-identical to the pre-extension format.
pub fn encode_delta_with_window(
    base_sn: Sn,
    end_sn: Sn,
    entries: &[DeltaEntry],
    window: &RetryWindow,
) -> DeltaImage {
    debug_assert!(entries.windows(2).all(|w| w[0].path < w[1].path), "entries must be sorted");
    let mut out = HashingBuf::with_capacity(256);
    out.put_u32(DELTA_MAGIC);
    out.put_u16(DELTA_VERSION);
    out.put_u64(base_sn);
    out.put_u64(end_sn);
    out.put_varint(entries.len() as u64);
    let mut prev: &str = "";
    for e in entries {
        let tag = match &e.op {
            DeltaOp::UpsertDir { .. } => b'D',
            DeltaOp::ReplaceDir { .. } => b'R',
            DeltaOp::UpsertFile { .. } => b'F',
            DeltaOp::Tombstone => b'T',
        };
        out.put_u8(tag);
        let shared = common_prefix(prev.as_bytes(), e.path.as_bytes());
        let suffix = &e.path.as_bytes()[shared..];
        out.put_varint(shared as u64);
        out.put_varint(suffix.len() as u64);
        out.put_slice(suffix);
        match &e.op {
            DeltaOp::UpsertDir { perm } | DeltaOp::ReplaceDir { perm } => out.put_u16(*perm),
            DeltaOp::UpsertFile { perm, replication, sealed, blocks } => {
                out.put_u16(*perm);
                out.put_u8(*replication);
                out.put_u8(*sealed as u8);
                out.put_varint(blocks.len() as u64);
                for b in blocks {
                    out.put_varint(*b);
                }
            }
            DeltaOp::Tombstone => {}
        }
        prev = &e.path;
    }
    if !window.is_empty() {
        let wb = window.encode_bytes();
        out.put_u8(b'W');
        out.put_varint(wb.len() as u64);
        out.put_slice(&wb);
    }
    DeltaImage { base_sn, end_sn, entries: entries.len() as u64, data: out.seal() }
}

// ------------------------------------------------------------------ decode

/// Decode a delta image, verifying the checksum first. Corruption anywhere
/// in the artifact fails the whole decode: the consumer falls back down the
/// recovery ladder instead of applying a half-trusted delta.
pub fn decode_delta(data: &[u8]) -> Result<DecodedDelta, ImageError> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(ImageError::Truncated);
    }
    let (body, trailer) = data.split_at(data.len() - TRAILER_LEN);
    let want = u64::from_be_bytes(trailer.try_into().expect("trailer len"));
    if fnv1a64(body) != want {
        return Err(ImageError::BadChecksum);
    }
    let mut r = WireReader::new(body);
    let magic = r.u32()?;
    if magic != DELTA_MAGIC {
        return Err(ImageError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != DELTA_VERSION {
        return Err(ImageError::BadVersion(version));
    }
    let base_sn = r.u64()?;
    let end_sn = r.u64()?;
    if end_sn <= base_sn {
        return Err(ImageError::Corrupt(format!("empty range ({base_sn}, {end_sn}]")));
    }
    let count = r.varint()?;
    let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut prev = String::new();
    for _ in 0..count {
        let tag = r.u8()?;
        let shared = r.varint()? as usize;
        let suffix_len = r.varint()? as usize;
        if shared > prev.len() {
            return Err(ImageError::Corrupt(format!(
                "prefix {shared} exceeds previous path length {}",
                prev.len()
            )));
        }
        let suffix = std::str::from_utf8(r.take(suffix_len)?)
            .map_err(|_| ImageError::Corrupt("non-utf8 path".to_string()))?;
        let mut path = String::with_capacity(shared + suffix_len);
        path.push_str(&prev[..shared]);
        path.push_str(suffix);
        let op = match tag {
            b'D' => DeltaOp::UpsertDir { perm: r.u16()? },
            b'R' => DeltaOp::ReplaceDir { perm: r.u16()? },
            b'F' => {
                let perm = r.u16()?;
                let replication = r.u8()?;
                let sealed = r.u8()? != 0;
                let nblocks = r.varint()?;
                let mut blocks = Vec::with_capacity(nblocks.min(1 << 16) as usize);
                for _ in 0..nblocks {
                    blocks.push(r.varint()?);
                }
                DeltaOp::UpsertFile { perm, replication, sealed, blocks }
            }
            b'T' => DeltaOp::Tombstone,
            other => return Err(ImageError::Corrupt(format!("bad entry tag {other:#x}"))),
        };
        prev.clone_from(&path);
        entries.push(DeltaEntry { path, op });
    }
    let mut window = RetryWindow::new();
    if !r.is_empty() {
        // Optional retry-window section: 'W' + varint length + blob.
        let tag = r.u8()?;
        if tag != b'W' {
            return Err(ImageError::Corrupt(format!("bad section tag {tag:#x}")));
        }
        let wlen = r.varint()? as usize;
        window = RetryWindow::decode_bytes(r.take(wlen)?)?;
        if window.is_empty() {
            return Err(ImageError::Corrupt("empty retry-window section".to_string()));
        }
    }
    if !r.is_empty() {
        return Err(ImageError::Corrupt("trailing garbage after entries".to_string()));
    }
    Ok(DecodedDelta { base_sn, end_sn, entries, window })
}

/// Peek a delta artifact's `(base_sn, end_sn)` without a full decode (the
/// header is fixed-position). Checksum is *not* verified here.
pub fn peek_delta_range(data: &[u8]) -> Option<(Sn, Sn)> {
    if data.len() < HEADER_LEN {
        return None;
    }
    if u32::from_be_bytes(data[0..4].try_into().ok()?) != DELTA_MAGIC {
        return None;
    }
    let base = u64::from_be_bytes(data[6..14].try_into().ok()?);
    let end = u64::from_be_bytes(data[14..22].try_into().ok()?);
    Some((base, end))
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    // Cap at b.len() - 1 so every entry emits at least one suffix byte and
    // the shared-length bound check stays meaningful on decode.
    let max = a.len().min(b.len().saturating_sub(1));
    while n < max && a[n] == b[n] {
        n += 1;
    }
    // Never split a UTF-8 code point (paths are almost always ASCII, but
    // component names are arbitrary UTF-8).
    while n > 0 && b[n] & 0xC0 == 0x80 {
        n -= 1;
    }
    n
}

// ------------------------------------------------------------------- apply

/// Apply a decoded delta. Entries are visited in their (ascending-path)
/// order, so parents materialize before their descendants. Errors indicate
/// a delta applied against a state outside its covered range — the caller
/// treats that exactly like corruption and falls back.
pub fn apply_delta(ns: &ShardedNamespace, delta: &DecodedDelta) -> Result<(), NsError> {
    for e in &delta.entries {
        let p = e.path.as_str();
        match &e.op {
            DeltaOp::Tombstone => remove_if_present(ns, p)?,
            DeltaOp::ReplaceDir { perm } => {
                remove_if_present(ns, p)?;
                ns.mkdir(p)?;
                ns.set_perm(p, *perm)?;
            }
            DeltaOp::UpsertDir { perm } => {
                match ns.getfileinfo(p) {
                    Ok(i) if i.is_dir => {}
                    Ok(_) => {
                        remove_if_present(ns, p)?;
                        ns.mkdir(p)?;
                    }
                    Err(_) => ns.mkdir(p)?,
                }
                ns.set_perm(p, *perm)?;
            }
            DeltaOp::UpsertFile { perm, replication, sealed, blocks } => {
                remove_if_present(ns, p)?;
                ns.create(p, *replication)?;
                for b in blocks {
                    ns.add_block(p, *b)?;
                }
                if *sealed {
                    ns.close_file(p)?;
                }
                ns.set_perm(p, *perm)?;
            }
        }
    }
    Ok(())
}

fn remove_if_present(ns: &ShardedNamespace, p: &str) -> Result<(), NsError> {
    match ns.delete(p, true) {
        Ok(_) | Err(NsError::NotFound(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn base_txns() -> Vec<Txn> {
        let mut txns = vec![
            Txn::Mkdir { path: "/data".into() },
            Txn::Mkdir { path: "/data/logs".into() },
            Txn::Mkdir { path: "/tmp".into() },
        ];
        for i in 0..8 {
            let path = format!("/data/logs/f{i}");
            txns.push(Txn::Create { path: path.clone(), replication: 3 });
            txns.push(Txn::AddBlock { path, block_id: 100 + i, len: 1 });
        }
        txns
    }

    /// A namespace and the reference model after `txns` (all must apply).
    fn replay(txns: &[Txn]) -> (ShardedNamespace, Model) {
        let (ns, mut model) = (ShardedNamespace::new(), Model::new());
        for txn in txns {
            ns.apply(txn).unwrap();
            model.apply(txn).unwrap();
        }
        (ns, model)
    }

    /// Run `txns` after the base, fold them, apply the delta over a fresh
    /// base, and require it to land on the model's replay of the whole
    /// history.
    fn fold_and_check(txns: &[Txn]) -> DeltaImage {
        let base = base_txns();
        let (end, mut model) = replay(&base);
        for txn in txns {
            assert_eq!(end.apply(txn), model.apply(txn), "{txn:?}");
        }
        let delta = fold_delta(&end, 10, 20, txns.iter());
        let decoded = decode_delta(&delta.data).unwrap();
        assert_eq!((decoded.base_sn, decoded.end_sn), (10, 20));
        let (applied, _) = replay(&base);
        apply_delta(&applied, &decoded).unwrap();
        assert_eq!(applied.fingerprint(), model.fingerprint(), "apply parity");
        delta
    }

    #[test]
    fn last_writer_wins_folds_to_one_entry() {
        let txns: Vec<Txn> = (0..50)
            .map(|i| Txn::AddBlock { path: "/data/logs/f0".to_string(), block_id: 500 + i, len: 1 })
            .collect();
        let delta = fold_and_check(&txns);
        assert_eq!(delta.entries, 1, "50 appends to one file fold to one entry");
    }

    #[test]
    fn deletes_fold_to_tombstones() {
        let txns = vec![
            Txn::Delete { path: "/data/logs/f1".to_string(), recursive: false },
            Txn::Create { path: "/data/logs/g".to_string(), replication: 1 },
            Txn::Delete { path: "/tmp".to_string(), recursive: true },
        ];
        let delta = fold_and_check(&txns);
        let d = decode_delta(&delta.data).unwrap();
        let tombs: Vec<_> = d
            .entries
            .iter()
            .filter(|e| e.op == DeltaOp::Tombstone)
            .map(|e| e.path.as_str())
            .collect();
        assert_eq!(tombs, vec!["/data/logs/f1", "/tmp"]);
    }

    #[test]
    fn create_then_delete_folds_to_single_tombstone() {
        let txns = vec![
            Txn::Create { path: "/x".to_string(), replication: 1 },
            Txn::AddBlock { path: "/x".to_string(), block_id: 1, len: 1 },
            Txn::Delete { path: "/x".to_string(), recursive: false },
        ];
        let delta = fold_and_check(&txns);
        let d = decode_delta(&delta.data).unwrap();
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].op, DeltaOp::Tombstone);
    }

    #[test]
    fn renamed_directory_ships_its_subtree() {
        let txns = vec![Txn::Rename { src: "/data".to_string(), dst: "/moved".to_string() }];
        let delta = fold_and_check(&txns);
        let d = decode_delta(&delta.data).unwrap();
        // Tombstone for /data, replace for /moved, plus /moved/logs and the
        // eight files under it.
        assert!(d.entries.iter().any(|e| e.path == "/data" && e.op == DeltaOp::Tombstone));
        assert!(d
            .entries
            .iter()
            .any(|e| e.path == "/moved" && matches!(e.op, DeltaOp::ReplaceDir { .. })));
        assert_eq!(d.entries.iter().filter(|e| e.path.starts_with("/moved/")).count(), 9);
    }

    #[test]
    fn delete_and_recreate_replaces_instead_of_merging() {
        // /data/logs holds f0..f7 at base; nuke it and recreate with one
        // file. A merge-upsert would resurrect the old files.
        let txns = vec![
            Txn::Delete { path: "/data/logs".to_string(), recursive: true },
            Txn::Mkdir { path: "/data/logs".to_string() },
            Txn::Create { path: "/data/logs/only".to_string(), replication: 1 },
        ];
        fold_and_check(&txns);
    }

    #[test]
    fn root_perm_change_folds_to_root_upsert() {
        let txns = vec![Txn::SetPerm { path: "/".to_string(), perm: 0o700 }];
        let delta = fold_and_check(&txns);
        let d = decode_delta(&delta.data).unwrap();
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].path, "/");
        assert_eq!(d.entries[0].op, DeltaOp::UpsertDir { perm: 0o700 });
    }

    #[test]
    fn applies_from_any_intermediate_state() {
        // The flat-MTTR invariant: a delta over (N, M] applied at any
        // S ∈ [N, M] lands on the state at M.
        let base = base_txns();
        let txns = vec![
            Txn::Create { path: "/a".to_string(), replication: 1 },
            Txn::Delete { path: "/data/logs/f3".to_string(), recursive: false },
            Txn::Rename { src: "/data/logs".to_string(), dst: "/archive".to_string() },
            Txn::Mkdir { path: "/data/logs".to_string() },
            Txn::Create { path: "/data/logs/new".to_string(), replication: 2 },
            Txn::SetPerm { path: "/a".to_string(), perm: 0o600 },
            Txn::CloseFile { path: "/archive/f5".to_string() },
        ];
        let all = [base.clone(), txns.clone()].concat();
        let (end, model) = replay(&all);
        let delta = fold_delta(&end, 0, txns.len() as u64, txns.iter());
        let decoded = decode_delta(&delta.data).unwrap();
        // Apply over every prefix state S = 0..=len.
        for cut in 0..=txns.len() {
            let (state, _) = replay(&all[..base.len() + cut]);
            apply_delta(&state, &decoded).unwrap();
            assert_eq!(state.fingerprint(), model.fingerprint(), "applied at S={cut}");
        }
    }

    #[test]
    fn corruption_detected_at_every_byte() {
        let txns = vec![
            Txn::Create { path: "/q".to_string(), replication: 1 },
            Txn::Delete { path: "/tmp".to_string(), recursive: true },
        ];
        let (end, _) = replay(&[base_txns(), txns.clone()].concat());
        let delta = fold_delta(&end, 1, 3, txns.iter());
        assert!(decode_delta(&delta.data).is_ok());
        for i in 0..delta.data.len() {
            let mut bad = delta.data.to_vec();
            bad[i] ^= 0x55;
            assert!(decode_delta(&bad).is_err(), "flip at byte {i} must not decode");
        }
        for cut in 0..delta.data.len() {
            assert!(decode_delta(&delta.data[..cut]).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn window_section_round_trips_and_empty_is_elided() {
        use crate::retry::{RetryEntry, RetryOutcome};
        let base = base_txns();
        let txns = vec![Txn::Create { path: "/w".to_string(), replication: 1 }];
        let (end, model) = replay(&[base.clone(), txns.clone()].concat());
        let mut win = RetryWindow::new();
        win.record(3, 41, RetryEntry { outcome: RetryOutcome::Done, token: None });
        win.record(9, 2, RetryEntry { outcome: RetryOutcome::Block(777), token: Some(12) });
        let with = fold_delta_with_window(&end, 1, 2, txns.iter(), &win);
        let d = decode_delta(&with.data).unwrap();
        assert_eq!(d.window, win);
        // Applying still lands on the end state; the window rides alongside.
        let (applied, _) = replay(&base);
        apply_delta(&applied, &d).unwrap();
        assert_eq!(applied.fingerprint(), model.fingerprint());
        // An empty window writes the pre-extension bytes exactly.
        let plain = fold_delta(&end, 1, 2, txns.iter());
        let explicit = fold_delta_with_window(&end, 1, 2, txns.iter(), &RetryWindow::new());
        assert_eq!(plain.data, explicit.data);
        assert!(decode_delta(&plain.data).unwrap().window.is_empty());
    }

    #[test]
    fn windowed_delta_corruption_detected_at_every_byte() {
        use crate::retry::{RetryEntry, RetryOutcome};
        let txns = vec![Txn::Delete { path: "/tmp".to_string(), recursive: true }];
        let (end, _) = replay(&[base_txns(), txns.clone()].concat());
        let mut win = RetryWindow::new();
        win.record(1, 1, RetryEntry { outcome: RetryOutcome::Done, token: None });
        let delta = fold_delta_with_window(&end, 1, 2, txns.iter(), &win);
        assert!(decode_delta(&delta.data).is_ok());
        for i in 0..delta.data.len() {
            let mut bad = delta.data.to_vec();
            bad[i] ^= 0x55;
            assert!(decode_delta(&bad).is_err(), "flip at byte {i} must not decode");
        }
    }

    #[test]
    fn peek_reads_range_without_decode() {
        let delta = encode_delta(7, 19, &[]);
        assert_eq!(peek_delta_range(&delta.data), Some((7, 19)));
        assert_eq!(peek_delta_range(b"short"), None);
    }

    #[test]
    fn empty_range_rejected() {
        let delta = encode_delta(5, 5, &[]);
        assert!(matches!(decode_delta(&delta.data), Err(ImageError::Corrupt(_))));
    }

    #[test]
    fn delta_is_smaller_than_full_image_for_small_churn() {
        let end = ShardedNamespace::new();
        end.mkdir_p("/big/dir").unwrap();
        for i in 0..2000 {
            end.create(&format!("/big/dir/f{i}"), 3).unwrap();
        }
        let txns = [Txn::Create { path: "/big/dir/new".to_string(), replication: 3 }];
        end.apply(&txns[0]).unwrap();
        let delta = fold_delta(&end, 1, 2, txns.iter());
        let full = crate::image::encode_image(&end.to_tree(), 2);
        assert!(
            delta.size_bytes() * 20 < full.size_bytes(),
            "delta {} B vs full image {} B",
            delta.size_bytes(),
            full.size_bytes()
        );
    }
}
