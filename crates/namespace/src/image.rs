//! Namespace images: checkpoints of the whole tree.
//!
//! The renewing protocol ships an image to a junior whose journal gap is too
//! large to replay record-by-record. The wire format (version 2) is a
//! preorder DFS of **parent-id delta** entries — `(parent entry index,
//! name, attrs)` with varint lengths. The encoder emits borrowed name slices
//! (zero per-entry `String`s) and the decoder attaches each inode directly
//! under its already-materialized parent in a single pass: no from-root path
//! resolution, no second lookup to set permissions, and names shrink the
//! image (a path appears once, not once per descendant). Any other version
//! in the header is rejected with [`ImageError::BadVersion`].
//!
//! Images are read back in *chunks* so the junior can checkpoint its
//! progress and resume after an interruption (Section III-D: "the junior
//! records the checkpoint that has been committed ... and avoid
//! retransmitting the whole files"). [`StreamingImageDecoder`] consumes
//! those chunks at arbitrary boundaries as they arrive, so the junior never
//! buffers a whole image before starting to rebuild the tree.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use mams_journal::hash::{peek_varint, Fnv1a64, HashingBuf, Varint, WireError};
use mams_journal::Sn;

use crate::inode::{Inode, InodeId, ROOT_ID};
use crate::retry::RetryWindow;
use crate::tree::NamespaceTree;

/// Image format magic ("MIMG").
pub const MAGIC: u32 = 0x4d49_4d47;
/// Image format version: the parent-id delta format, the only one the
/// decoder accepts.
pub const VERSION: u16 = 2;

/// Fixed header: magic (4) + version (2) + checkpoint sn (8) + root perm (2).
const HEADER_LEN: usize = 16;
/// Trailing checksum length.
const TRAILER_LEN: usize = 8;

/// Image decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    BadMagic(u32),
    BadVersion(u16),
    Truncated,
    BadChecksum,
    Corrupt(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::BadMagic(m) => write!(f, "bad image magic {m:#x}"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageError::Truncated => write!(f, "truncated image"),
            ImageError::BadChecksum => write!(f, "image checksum mismatch"),
            ImageError::Corrupt(s) => write!(f, "corrupt image: {s}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<WireError> for ImageError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => ImageError::Truncated,
            WireError::BadVarint => ImageError::Corrupt("bad varint".into()),
        }
    }
}

/// A serialized namespace checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceImage {
    /// The journal sn this image reflects (replay continues from
    /// `checkpoint_sn + 1`).
    pub checkpoint_sn: Sn,
    /// Encoded bytes.
    pub data: Bytes,
    /// File count at checkpoint time.
    pub files: u64,
    /// Directory count at checkpoint time (excluding root).
    pub dirs: u64,
}

impl NamespaceImage {
    /// Size of the encoded image in bytes — the paper's "Image (MB)" column.
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Wire format version of the encoded bytes (`None` if the header is
    /// shorter than the version field).
    pub fn version(&self) -> Option<u16> {
        self.data.get(4..6).map(|b| u16::from_be_bytes([b[0], b[1]]))
    }

    /// A chunk `[offset, offset + len)` of the encoded bytes, clamped to the
    /// image end. Used by the resumable transfer in the renewing protocol.
    pub fn chunk(&self, offset: u64, len: u64) -> Bytes {
        let size = self.data.len() as u64;
        let start = offset.min(size) as usize;
        let end = offset.saturating_add(len).min(size) as usize;
        self.data.slice(start..end)
    }
}

// ------------------------------------------------------------------ encode
//
// The checksum machinery ([`Fnv1a64`], [`HashingBuf`], varints) is shared
// with the journal wire format and lives in `mams_journal::hash`.

fn put_header(out: &mut HashingBuf, checkpoint_sn: Sn, root_perm: u16) {
    out.put_u32(MAGIC);
    out.put_u16(VERSION);
    out.put_u64(checkpoint_sn);
    out.put_u16(root_perm);
}

/// Encode the tree into an image checkpointed at `checkpoint_sn`.
pub fn encode_image(tree: &NamespaceTree, checkpoint_sn: Sn) -> NamespaceImage {
    encode_image_with_window(tree, checkpoint_sn, &RetryWindow::new())
}

/// Encode an image carrying the retry-outcome window as of
/// `checkpoint_sn`. The window rides as one `W`-tagged, length-prefixed
/// section after the tree entries (elided when empty, so window-free
/// images stay byte-identical to the pre-extension format and old images
/// decode with an empty window).
pub fn encode_image_with_window(
    tree: &NamespaceTree,
    checkpoint_sn: Sn,
    window: &RetryWindow,
) -> NamespaceImage {
    let mut out = HashingBuf::with_capacity(4096);
    put_header(&mut out, checkpoint_sn, tree.inodes[&ROOT_ID].perm());

    // Preorder DFS. Every emitted entry gets the next index (the root is
    // index 0 and is never emitted); children reference their parent by
    // that index, which the decoder has always already materialized.
    // Names ride as `Arc<str>` handles — reference-count bumps, no copies.
    let mut next_index: u64 = 1;
    let mut stack: Vec<(InodeId, Arc<str>, u64)> = Vec::new();
    if let Inode::Directory { children, .. } = &tree.inodes[&ROOT_ID] {
        for (name, child) in children.iter().rev() {
            stack.push((*child, name.clone(), 0));
        }
    }
    while let Some((id, name, parent)) = stack.pop() {
        let my_index = next_index;
        next_index += 1;
        match &tree.inodes[&id] {
            Inode::Directory { children, perm } => {
                out.put_u8(b'D');
                out.put_varint(parent);
                out.put_varint(name.len() as u64);
                out.put_slice(name.as_bytes());
                out.put_u16(*perm);
                for (n, child) in children.iter().rev() {
                    stack.push((*child, n.clone(), my_index));
                }
            }
            Inode::File { blocks, replication, sealed, perm } => {
                out.put_u8(b'F');
                out.put_varint(parent);
                out.put_varint(name.len() as u64);
                out.put_slice(name.as_bytes());
                out.put_u16(*perm);
                out.put_u8(*replication);
                out.put_u8(*sealed as u8);
                out.put_varint(blocks.len() as u64);
                for b in blocks {
                    out.put_varint(*b);
                }
            }
        }
    }
    if !window.is_empty() {
        let wb = window.encode_bytes();
        out.put_u8(b'W');
        out.put_varint(wb.len() as u64);
        out.put_slice(&wb);
    }
    NamespaceImage {
        checkpoint_sn,
        data: out.seal(),
        files: tree.num_files(),
        dirs: tree.num_dirs(),
    }
}

// ------------------------------------------------------------------ decode

/// Chunk-incremental image decoder.
///
/// A push-based state machine: feed encoded bytes in chunks of any size
/// with [`push`](Self::push), then call [`finish`](Self::finish) once the
/// whole image has been delivered. Entries are applied to the tree as soon
/// as they are complete, so decoding overlaps the transfer and no whole-
/// image buffer ever exists.
///
/// **Checkpoint rule:** after any `push`, [`checkpoint`](Self::checkpoint)
/// reports `(offset, last_inode)` — the total bytes accepted and the most
/// recently materialized inode. A transfer interrupted and resumed from
/// `offset` (with the same decoder, as the renewing junior does) yields a
/// result identical to an uninterrupted decode: the decoder internally
/// holds back the final [`TRAILER_LEN`] bytes it has seen plus any
/// incomplete entry, so chunk boundaries never split its view of the body.
///
/// Errors are sticky: after a `push` fails the decoder refuses further
/// input, and the caller restarts the transfer from scratch.
#[derive(Debug)]
pub struct StreamingImageDecoder {
    tree: NamespaceTree,
    /// Entry index → inode id (index 0 is the root).
    ids: Vec<InodeId>,
    sn: Sn,
    header_done: bool,
    hash: Fnv1a64,
    /// Total bytes accepted (the junior's resume offset).
    offset: u64,
    /// Undecoded tail: the held-back checksum candidate plus any
    /// incomplete entry straddling the last chunk boundary.
    pending: Vec<u8>,
    /// Most recently attached inode (checkpoint telemetry).
    last_id: InodeId,
    /// Retry-outcome window section (`W`), when the image carries one.
    window: RetryWindow,
    window_seen: bool,
    err: Option<ImageError>,
}

impl Default for StreamingImageDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingImageDecoder {
    pub fn new() -> Self {
        StreamingImageDecoder {
            tree: NamespaceTree::new(),
            ids: vec![ROOT_ID],
            sn: 0,
            header_done: false,
            hash: Fnv1a64::new(),
            offset: 0,
            pending: Vec::new(),
            last_id: ROOT_ID,
            window: RetryWindow::new(),
            window_seen: false,
            err: None,
        }
    }

    /// Consume the next chunk of encoded bytes (any size, including empty).
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), ImageError> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        self.offset += chunk.len() as u64;
        let mut owned = std::mem::take(&mut self.pending);
        let res = if owned.is_empty() {
            self.process(chunk)
        } else {
            owned.extend_from_slice(chunk);
            self.process(&owned)
        };
        match res {
            Ok(consumed) => {
                if owned.is_empty() {
                    self.pending = chunk[consumed..].to_vec();
                } else {
                    owned.drain(..consumed);
                    self.pending = owned;
                }
                Ok(())
            }
            Err(e) => {
                self.err = Some(e.clone());
                Err(e)
            }
        }
    }

    /// `(offset, last inode id)`: the resume checkpoint after the bytes
    /// pushed so far.
    pub fn checkpoint(&self) -> (u64, InodeId) {
        (self.offset, self.last_id)
    }

    /// Pre-size internal tables for an image of `image_bytes` encoded
    /// bytes (e.g. the total announced by the image transfer's metadata).
    /// Purely an optimization — avoids rehash churn while millions of
    /// entries stream in.
    pub fn reserve_hint(&mut self, image_bytes: u64) {
        // An entry averages ~30 encoded bytes.
        let entries = (image_bytes / 30) as usize;
        self.ids.reserve(entries);
        self.tree.reserve_inodes(entries);
    }

    /// The checkpoint sn from the header, once seen.
    pub fn checkpoint_sn(&self) -> Option<Sn> {
        self.header_done.then_some(self.sn)
    }

    /// Verify the checksum and return the decoded tree and checkpoint sn.
    pub fn finish(self) -> Result<(NamespaceTree, Sn), ImageError> {
        self.finish_with_window().map(|(tree, sn, _)| (tree, sn))
    }

    /// Verify the checksum and return the decoded tree, checkpoint sn, and
    /// the retry-outcome window (empty when the image carries none).
    pub fn finish_with_window(self) -> Result<(NamespaceTree, Sn, RetryWindow), ImageError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if !self.header_done || self.pending.len() > TRAILER_LEN {
            // Never saw a full header, or ended mid-entry.
            return Err(ImageError::Truncated);
        }
        if self.pending.len() < TRAILER_LEN {
            return Err(ImageError::Truncated);
        }
        let stored = u64::from_be_bytes(self.pending[..8].try_into().expect("8 bytes"));
        if stored != self.hash.digest() {
            return Err(ImageError::BadChecksum);
        }
        Ok((self.tree, self.sn, self.window))
    }

    /// Decode as much of `s` as possible; returns the consumed prefix
    /// length. The final [`TRAILER_LEN`] bytes currently visible are never
    /// consumed — they are the checksum candidate until more data proves
    /// otherwise.
    fn process(&mut self, s: &[u8]) -> Result<usize, ImageError> {
        let mut pos = 0;
        if !self.header_done {
            if s.len() < HEADER_LEN + TRAILER_LEN {
                return Ok(0);
            }
            let magic = u32::from_be_bytes(s[0..4].try_into().expect("4 bytes"));
            if magic != MAGIC {
                return Err(ImageError::BadMagic(magic));
            }
            let version = u16::from_be_bytes(s[4..6].try_into().expect("2 bytes"));
            if version != VERSION {
                return Err(ImageError::BadVersion(version));
            }
            self.sn = u64::from_be_bytes(s[6..14].try_into().expect("8 bytes"));
            let root_perm = u16::from_be_bytes(s[14..16].try_into().expect("2 bytes"));
            self.tree.inodes.get_mut(&ROOT_ID).expect("root exists").set_perm(root_perm);
            self.hash.write(&s[..HEADER_LEN]);
            self.header_done = true;
            pos = HEADER_LEN;
        }
        while s.len() - pos > TRAILER_LEN {
            let window = &s[pos..s.len() - TRAILER_LEN];
            match self.entry(window)? {
                Some(n) => {
                    self.hash.write(&window[..n]);
                    pos += n;
                }
                None => break,
            }
        }
        Ok(pos)
    }

    /// Try to decode one entry from the front of `w`. `Ok(None)` means the
    /// entry is not complete yet.
    fn entry(&mut self, w: &[u8]) -> Result<Option<usize>, ImageError> {
        let Some(&kind) = w.first() else { return Ok(None) };
        if self.window_seen {
            return Err(ImageError::Corrupt("entry after retry-window section".into()));
        }
        if kind == b'W' {
            // Retry-outcome window: one length-prefixed blob, decoded whole
            // once fully visible (incomplete prefixes stay pending like any
            // other straddling entry).
            let mut pos = 1;
            let wlen = match peek_varint(&w[pos..]) {
                Varint::Need => return Ok(None),
                Varint::Bad => return Err(ImageError::Corrupt("malformed window length".into())),
                Varint::Val(v, n) => {
                    pos += n;
                    v as usize
                }
            };
            if w.len() < pos + wlen {
                return Ok(None);
            }
            self.window = RetryWindow::decode_bytes(&w[pos..pos + wlen])?;
            self.window_seen = true;
            return Ok(Some(pos + wlen));
        }
        let mut pos = 1;
        let parent = match peek_varint(&w[pos..]) {
            Varint::Need => return Ok(None),
            Varint::Bad => return Err(ImageError::Corrupt("malformed parent varint".into())),
            Varint::Val(v, n) => {
                pos += n;
                v
            }
        };
        let nlen = match peek_varint(&w[pos..]) {
            Varint::Need => return Ok(None),
            Varint::Bad => return Err(ImageError::Corrupt("malformed name length".into())),
            Varint::Val(v, n) => {
                pos += n;
                v as usize
            }
        };
        if w.len() < pos + nlen {
            return Ok(None);
        }
        let name = std::str::from_utf8(&w[pos..pos + nlen])
            .map_err(|_| ImageError::Corrupt("non-UTF-8 name".into()))?;
        pos += nlen;
        if name.is_empty() || name.contains('/') || name == "." || name == ".." {
            return Err(ImageError::Corrupt(format!("invalid component name {name:?}")));
        }
        let parent_id = *self
            .ids
            .get(parent as usize)
            .ok_or_else(|| ImageError::Corrupt(format!("parent index {parent} not yet seen")))?;
        let inode = match kind {
            b'D' => {
                if w.len() < pos + 2 {
                    return Ok(None);
                }
                let perm = u16::from_be_bytes(w[pos..pos + 2].try_into().expect("2 bytes"));
                pos += 2;
                Inode::Directory { children: BTreeMap::new(), perm }
            }
            b'F' => {
                if w.len() < pos + 4 {
                    return Ok(None);
                }
                let perm = u16::from_be_bytes(w[pos..pos + 2].try_into().expect("2 bytes"));
                let replication = w[pos + 2];
                let sealed = w[pos + 3] != 0;
                pos += 4;
                let nblocks = match peek_varint(&w[pos..]) {
                    Varint::Need => return Ok(None),
                    Varint::Bad => return Err(ImageError::Corrupt("malformed block count".into())),
                    Varint::Val(v, n) => {
                        pos += n;
                        v as usize
                    }
                };
                let mut blocks = Vec::with_capacity(nblocks.min(1024));
                for _ in 0..nblocks {
                    match peek_varint(&w[pos..]) {
                        Varint::Need => return Ok(None),
                        Varint::Bad => {
                            return Err(ImageError::Corrupt("malformed block id".into()))
                        }
                        Varint::Val(v, n) => {
                            pos += n;
                            blocks.push(v);
                        }
                    }
                }
                Inode::File { blocks, replication, sealed, perm }
            }
            k => return Err(ImageError::Corrupt(format!("unknown entry kind {k}"))),
        };
        let id = self
            .tree
            .attach_child(parent_id, name, inode)
            .map_err(|e| ImageError::Corrupt(e.to_string()))?;
        self.ids.push(id);
        self.last_id = id;
        Ok(Some(pos))
    }
}

/// Decode a whole in-memory image back into a tree,
/// verifying the checksum. Returns the tree and the checkpoint sn stored in
/// the image. One pass over the bytes — this is the streaming decoder fed a
/// single chunk.
pub fn decode_image(data: Bytes) -> Result<(NamespaceTree, Sn), ImageError> {
    let mut d = StreamingImageDecoder::new();
    d.reserve_hint(data.len() as u64);
    d.push(&data)?;
    d.finish()
}

/// [`decode_image`] variant that also returns the retry-outcome window
/// (empty for images written without one).
pub fn decode_image_with_window(
    data: Bytes,
) -> Result<(NamespaceTree, Sn, RetryWindow), ImageError> {
    let mut d = StreamingImageDecoder::new();
    d.reserve_hint(data.len() as u64);
    d.push(&data)?;
    d.finish_with_window()
}

/// Estimated encoded image size (bytes) for a namespace with the given
/// shape, used to size experiments without materializing millions of
/// inodes. Derived from the encoding: ~`name + 6` bytes per entry (kind,
/// parent varint, name length, perm) plus ~11 bytes of file attributes and
/// a short block list. Note the paper's calibration point — "more than 7
/// million files when the image size is about 1 GB", i.e. ~150 B/file — is
/// a property of HDFS's full-path-style records; the parent-id format
/// stores the same namespace in roughly a third of that.
pub fn estimated_image_bytes(files: u64, dirs: u64, avg_name_len: u64) -> u64 {
    (HEADER_LEN + TRAILER_LEN) as u64 + (files + dirs) * (avg_name_len + 6) + files * 11
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedNamespace;

    fn sample_ns() -> ShardedNamespace {
        let ns = ShardedNamespace::new();
        ns.mkdir_p("/data/logs").unwrap();
        ns.mkdir_p("/tmp").unwrap();
        for i in 0..20 {
            let p = format!("/data/logs/f{i}");
            ns.create(&p, 3).unwrap();
            ns.add_block(&p, 1000 + i).unwrap();
            if i % 2 == 0 {
                ns.close_file(&p).unwrap();
            }
        }
        ns.set_perm("/tmp", 0o777).unwrap();
        ns.set_perm("/", 0o711).unwrap();
        ns
    }

    fn sample_tree() -> NamespaceTree {
        sample_ns().to_tree()
    }

    /// Fingerprint of a decoded tree, through the engine that installs it.
    fn fp(t: &NamespaceTree) -> u64 {
        ShardedNamespace::from_tree(t.clone()).fingerprint()
    }

    /// A well-formed image whose header claims `version`.
    fn with_version(img: &NamespaceImage, version: u16) -> Bytes {
        let mut body = img.data[..img.data.len() - TRAILER_LEN].to_vec();
        body[4..6].copy_from_slice(&version.to_be_bytes());
        let sum = mams_journal::hash::fnv1a64(&body);
        body.extend_from_slice(&sum.to_be_bytes());
        Bytes::from(body)
    }

    #[test]
    fn image_round_trip_preserves_tree() {
        let ns = sample_ns();
        let img = encode_image(&ns.to_tree(), 42);
        assert_eq!(img.checkpoint_sn, 42);
        assert_eq!(img.files, 20);
        assert_eq!(img.dirs, 3);
        assert_eq!(img.version(), Some(VERSION));
        let (t2, sn) = decode_image(img.data.clone()).unwrap();
        assert_eq!(sn, 42);
        assert_eq!(t2.num_files(), 20);
        assert_eq!(t2.num_dirs(), 3);
        let back = ShardedNamespace::from_tree(t2);
        assert_eq!(back.fingerprint(), ns.fingerprint());
        assert_eq!(back.getfileinfo("/").unwrap().perm, 0o711);
        assert_eq!(back.getfileinfo("/tmp").unwrap().perm, 0o777);
        assert_eq!(back.getfileinfo("/data/logs/f3").unwrap().blocks, vec![1003]);
        assert!(back.getfileinfo("/data/logs/f4").unwrap().sealed);
    }

    #[test]
    fn window_section_round_trips_at_every_chunk_boundary() {
        use crate::retry::{RetryEntry, RetryOutcome, RetryWindow};
        let t = sample_tree();
        let mut win = RetryWindow::new();
        win.record(4, 9, RetryEntry { outcome: RetryOutcome::Done, token: None });
        win.record(4, 10, RetryEntry { outcome: RetryOutcome::Block(1007), token: Some(55) });
        let img = encode_image_with_window(&t, 42, &win);
        // Buffered decode.
        let (t2, sn, w2) = decode_image_with_window(img.data.clone()).unwrap();
        assert_eq!(sn, 42);
        assert_eq!(fp(&t2), fp(&t));
        assert_eq!(w2, win);
        // Plain decode ignores the window but still verifies.
        let (t3, _) = decode_image(img.data.clone()).unwrap();
        assert_eq!(fp(&t3), fp(&t));
        // Streaming decode at every split point.
        for cut in 0..=img.data.len() {
            let mut d = StreamingImageDecoder::new();
            d.push(&img.data[..cut]).unwrap();
            d.push(&img.data[cut..]).unwrap();
            let (_, _, w) = d.finish_with_window().unwrap();
            assert_eq!(w, win, "split at {cut}");
        }
    }

    #[test]
    fn windowless_images_stay_byte_identical_and_decode_empty() {
        use crate::retry::RetryWindow;
        let t = sample_tree();
        let plain = encode_image(&t, 7);
        let explicit = encode_image_with_window(&t, 7, &RetryWindow::new());
        assert_eq!(plain.data, explicit.data, "empty window must be elided");
        let (_, _, w) = decode_image_with_window(plain.data.clone()).unwrap();
        assert!(w.is_empty(), "pre-extension images decode to an empty window");
    }

    #[test]
    fn windowed_image_corruption_detected_at_every_byte() {
        use crate::retry::{RetryEntry, RetryOutcome, RetryWindow};
        let mut win = RetryWindow::new();
        win.record(1, 1, RetryEntry { outcome: RetryOutcome::Done, token: None });
        let img = encode_image_with_window(&sample_tree(), 1, &win);
        for i in 0..img.data.len() {
            let mut bad = img.data.to_vec();
            bad[i] ^= 0x55;
            assert!(decode_image(Bytes::from(bad)).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn version_1_header_is_rejected() {
        // A checksum-valid image whose header names the retired full-path
        // format: outside input the decoder must refuse, not misparse.
        let img = encode_image(&sample_tree(), 9);
        let v1 = with_version(&img, 1);
        assert_eq!(decode_image(v1.clone()).unwrap_err(), ImageError::BadVersion(1));
        let mut d = StreamingImageDecoder::new();
        assert_eq!(d.push(&v1).unwrap_err(), ImageError::BadVersion(1));
        assert_eq!(d.finish().unwrap_err(), ImageError::BadVersion(1));
        // The same bytes under the current version decode.
        assert!(decode_image(with_version(&img, VERSION)).is_ok());
    }

    #[test]
    fn corruption_detected_at_every_byte() {
        let img = encode_image(&sample_tree(), 1);
        for i in 0..img.data.len() {
            let mut bad = img.data.to_vec();
            bad[i] ^= 0x55;
            assert!(
                decode_image(Bytes::from(bad)).is_err(),
                "flip at byte {i}/{} must not decode",
                img.data.len()
            );
        }
    }

    #[test]
    fn truncation_detected_at_every_cut_point() {
        let img = encode_image(&sample_tree(), 1);
        for cut in 0..img.data.len() {
            let prefix = img.data.slice(..cut);
            assert!(decode_image(prefix.clone()).is_err(), "cut at {cut} must not decode");
            // Streaming path: same prefix, any boundary, then finish.
            let mut d = StreamingImageDecoder::new();
            let ok = d.push(&prefix).is_ok();
            assert!(!ok || d.finish().is_err(), "streaming cut at {cut} must not finish");
        }
    }

    #[test]
    fn streaming_matches_buffered_at_every_boundary() {
        let t = sample_tree();
        let img = encode_image(&t, 77);
        let (buffered, sn) = decode_image(img.data.clone()).unwrap();
        let reencoded = encode_image(&buffered, sn).data;
        for cut in 0..=img.data.len() {
            let mut d = StreamingImageDecoder::new();
            d.push(&img.data[..cut]).unwrap();
            let (off, _) = d.checkpoint();
            assert_eq!(off, cut as u64);
            d.push(&img.data[cut..]).unwrap();
            let (t2, sn2) = d.finish().unwrap();
            assert_eq!(sn2, 77);
            assert_eq!(fp(&t2), fp(&buffered), "split at {cut}");
            // Byte-identical result: re-encoding the resumed decode equals
            // re-encoding the buffered decode.
            assert_eq!(encode_image(&t2, sn).data, reencoded, "split at {cut}");
        }
    }

    #[test]
    fn streaming_decodes_in_small_chunks() {
        let t = sample_tree();
        let img = encode_image(&t, 3);
        for chunk in [1usize, 3, 7, 64] {
            let mut d = StreamingImageDecoder::new();
            for c in img.data.chunks(chunk) {
                d.push(c).unwrap();
            }
            assert_eq!(d.checkpoint_sn(), Some(3));
            let (t2, sn) = d.finish().unwrap();
            assert_eq!(sn, 3);
            assert_eq!(fp(&t2), fp(&t), "chunk size {chunk}");
        }
    }

    #[test]
    fn decoder_error_is_sticky() {
        let img = encode_image(&sample_tree(), 1);
        let mut bad = img.data.to_vec();
        bad[HEADER_LEN] = b'Z'; // first entry kind
        let mut d = StreamingImageDecoder::new();
        let err = d.push(&bad).unwrap_err();
        assert!(matches!(err, ImageError::Corrupt(_)));
        assert_eq!(d.push(b"more").unwrap_err(), err);
        assert_eq!(d.finish().unwrap_err(), err);
    }

    #[test]
    fn chunks_cover_exactly_the_image() {
        let img = encode_image(&sample_tree(), 1);
        let mut reassembled = Vec::new();
        let chunk = 37u64;
        let mut off = 0u64;
        loop {
            let c = img.chunk(off, chunk);
            if c.is_empty() {
                break;
            }
            reassembled.extend_from_slice(&c);
            off += c.len() as u64;
        }
        assert_eq!(Bytes::from(reassembled), img.data);
        // Past-the-end chunks are empty, not panics.
        assert!(img.chunk(img.size_bytes() + 100, 10).is_empty());
    }

    #[test]
    fn chunk_survives_u64_overflow_offsets() {
        let img = encode_image(&sample_tree(), 1);
        // Regression: `offset + len` used to overflow u64 and panic.
        assert!(img.chunk(u64::MAX, 10).is_empty());
        assert!(img.chunk(u64::MAX, u64::MAX).is_empty());
        let tail = img.chunk(1, u64::MAX);
        assert_eq!(tail.len(), img.data.len() - 1);
    }

    #[test]
    fn empty_tree_round_trips() {
        let t = NamespaceTree::new();
        let img = encode_image(&t, 0);
        let (t2, sn) = decode_image(img.data).unwrap();
        assert_eq!(sn, 0);
        assert_eq!(fp(&t), fp(&t2));
    }

    #[test]
    fn image_trailer_is_shared_fnv_of_body() {
        // The image checksum is the repo-wide shared FNV-1a-64
        // (`mams_journal::hash`), the same digest journal batches carry.
        let img = encode_image(&sample_tree(), 1);
        let (body, trailer) = img.data.split_at(img.data.len() - TRAILER_LEN);
        assert_eq!(
            u64::from_be_bytes(trailer.try_into().unwrap()),
            mams_journal::hash::fnv1a64(body)
        );
    }

    #[test]
    fn estimator_reflects_parent_id_compaction() {
        // The paper's 7M-file namespace needs ~1 GB as full-path records;
        // the parent-id format holds it in a few hundred MB.
        let est = estimated_image_bytes(7_000_000, 700_000, 16);
        let mb = est as f64 / (1024.0 * 1024.0);
        assert!((150.0..500.0).contains(&mb), "estimated {mb:.0} MB");
    }

    #[test]
    fn encoded_size_tracks_estimate_roughly() {
        let t = sample_tree();
        let img = encode_image(&t, 1);
        let est = estimated_image_bytes(t.num_files(), t.num_dirs(), 3);
        let ratio = img.size_bytes() as f64 / est as f64;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }
}
