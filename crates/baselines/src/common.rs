//! Shared machinery for baseline namenodes: checkpoints, journal replay,
//! reply caching, and the scale model. Operations execute through the same
//! [`mams_core::exec_op`] the MAMS active uses.

use mams_core::{MdsResp, OpOutput};
use mams_journal::{JournalBatch, ReplayCursor, Sn, Txn};
use mams_namespace::{ImageError, NamespaceImage, ShardedNamespace, ShardedReplaySession};
use mams_sim::{Ctx, NodeId};

/// File-system scale for experiments that cannot materialize millions of
/// inodes. Derived from the paper's calibration point: a ~1 GB image holds
/// "more than 7 million files" (Section IV-B), i.e. ~150 B of image per
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsScale {
    pub nominal_files: u64,
}

impl FsScale {
    pub const BYTES_PER_FILE: u64 = 150;

    pub fn from_image_bytes(image_bytes: u64) -> Self {
        FsScale { nominal_files: image_bytes / Self::BYTES_PER_FILE }
    }

    pub fn from_image_mb(image_mb: u64) -> Self {
        Self::from_image_bytes(image_mb * 1024 * 1024)
    }

    pub fn image_bytes(&self) -> u64 {
        self.nominal_files * Self::BYTES_PER_FILE
    }
}

/// A namenode checkpoint: the fsimage a restarting or taking-over node
/// reloads (HDFS `-importCheckpoint` style), plus the block-id cursor that
/// rides alongside it.
#[derive(Debug, Clone)]
pub struct SavedCheckpoint {
    pub image: NamespaceImage,
    pub next_block: u64,
}

impl SavedCheckpoint {
    /// Snapshot the namespace as an image.
    pub fn save(ns: &ShardedNamespace, next_block: u64, sn: Sn) -> SavedCheckpoint {
        SavedCheckpoint { image: mams_namespace::encode_image(&ns.to_tree(), sn), next_block }
    }

    /// Reload the image into a fresh namespace.
    pub fn restore(&self) -> Result<(ShardedNamespace, Sn), ImageError> {
        let (tree, sn) = mams_namespace::decode_image(self.image.data.clone())?;
        Ok((ShardedNamespace::from_tree(tree), sn))
    }
}

/// Journal replay for a baseline standby: the same validate-skip
/// [`ShardedReplaySession`] fast path the MAMS standby uses, plus the block-id
/// high-water mark every namenode keeps alongside its namespace — so
/// replay-throughput comparisons across systems measure protocol
/// differences, not apply-loop differences.
#[derive(Debug, Default)]
pub struct StandbyReplayer {
    session: ShardedReplaySession,
}

impl StandbyReplayer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the cached handles. Call after the namespace is replaced or
    /// mutated outside replay (checkpoint reload, a stint as primary).
    pub fn reset(&mut self) {
        self.session.reset();
    }

    /// Offer one batch to `cursor`, applying the in-order records through
    /// the fast path and advancing the block-id high-water mark.
    pub fn offer(
        &mut self,
        cursor: &mut ReplayCursor,
        ns: &ShardedNamespace,
        next_block: &mut u64,
        batch: &JournalBatch,
    ) {
        let session = &mut self.session;
        cursor.offer(batch, &mut |_, t: &Txn| {
            let _ = session.apply(ns, t);
            if let Txn::AddBlock { block_id, .. } = t {
                *next_block = (*next_block).max(*block_id + 1);
            }
        });
    }
}

/// Re-exported duplicate-suppression cache (same type MAMS uses, so every
/// system handles retried requests identically).
pub use mams_core::retry::RetryCache;

/// A client reply waiting on durability: `(client, seq, result)`.
pub type PendingReply = (NodeId, u64, Result<OpOutput, String>);

/// Reply to a client, updating the retry cache. The response is built
/// behind `Arc` once; the cache entry and the wire message share it.
pub fn reply(
    cache: &mut RetryCache,
    ctx: &mut Ctx<'_>,
    to: NodeId,
    seq: u64,
    result: Result<OpOutput, String>,
) {
    let resp = std::sync::Arc::new(MdsResp::Reply { seq, result });
    cache.store(to, seq, resp.clone());
    ctx.send(to, resp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_calibration_matches_paper() {
        let s = FsScale::from_image_mb(1024);
        assert!(
            (6_500_000..8_000_000).contains(&s.nominal_files),
            "1 GB ↔ ~7M files, got {}",
            s.nominal_files
        );
        assert_eq!(FsScale { nominal_files: 10 }.image_bytes(), 1_500);
    }

    #[test]
    fn checkpoint_restores_identically() {
        let ns = ShardedNamespace::new();
        ns.mkdir_p("/srv/data").unwrap();
        for i in 0..10 {
            ns.create(&format!("/srv/data/f{i}"), 3).unwrap();
            ns.add_block(&format!("/srv/data/f{i}"), 100 + i).unwrap();
        }
        let cp = SavedCheckpoint::save(&ns, 111, 42);
        assert_eq!(cp.image.version(), Some(mams_namespace::image::VERSION));
        let (restored, sn) = cp.restore().unwrap();
        assert_eq!(sn, 42);
        assert_eq!(cp.next_block, 111);
        assert_eq!(restored.fingerprint(), ns.fingerprint());
    }

    #[test]
    fn standby_replay_tracks_block_ids() {
        let ns = ShardedNamespace::new();
        let mut next_block = 1;
        let mut cursor = ReplayCursor::new();
        let batch = JournalBatch::new(
            1,
            1,
            vec![
                Txn::Create { path: "/f".into(), replication: 1 },
                Txn::AddBlock { path: "/f".into(), block_id: 41, len: 8 },
            ],
        );
        StandbyReplayer::new().offer(&mut cursor, &ns, &mut next_block, &batch);
        assert_eq!(next_block, 42);
        assert_eq!(ns.getfileinfo("/f").unwrap().blocks, vec![41]);
    }
}
