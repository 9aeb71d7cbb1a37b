//! Manifest-chain compaction seen from a consumer's side of the pool.
//!
//! The unit tests in `pool.rs` pin the producer-side invariants (chaining,
//! fencing, crash-safe swap). These tests drive the same API the way a
//! renewing junior does — resolve the manifest, stream artifacts, re-plan
//! on `NoSuchArtifact` — and pin the stale-manifest window: a consumer that
//! cached a manifest *before* a compaction GC'd the chain must recover by
//! re-resolving, never by erroring out or adopting a wrong state.

use mams_journal::{Sn, Txn};
use mams_namespace::{
    apply_delta, decode_delta, decode_image, encode_image, fold_delta, ShardedNamespace,
};
use mams_storage::{GroupStore, Manifest, PoolError};

/// A group with a base image at `base_sn` and `n_deltas` single-txn deltas
/// chained on top. Returns the store and the live (end-of-chain) namespace.
fn chained_group(base_sn: Sn, n_deltas: usize) -> (GroupStore, ShardedNamespace) {
    let mut g = GroupStore::default();
    let t = ShardedNamespace::new();
    t.mkdir("/d").unwrap();
    g.write_image(1, encode_image(&t.to_tree(), base_sn)).unwrap();
    for (i, sn) in (base_sn..base_sn + n_deltas as u64).enumerate() {
        let txn = Txn::Create { path: format!("/d/f{i}"), replication: 3 };
        // Fold reads the *final* state of touched paths, so apply first.
        t.apply(&txn).unwrap();
        let delta = fold_delta(&t, sn, sn + 1, [&txn]);
        g.append_delta(1, delta).unwrap();
    }
    (g, t)
}

/// A minimal renewing-junior model: holds a (possibly stale) manifest,
/// streams artifacts whole, and re-resolves the manifest when the pool
/// answers `NoSuchArtifact`. Mirrors the chain-planning the real consumer
/// in `mams-core` does, at the pool API level.
struct SimConsumer {
    manifest: Manifest,
    applied: Sn,
    ns: ShardedNamespace,
    /// Manifest re-resolutions forced by `NoSuchArtifact`.
    replans: usize,
}

impl SimConsumer {
    fn new(g: &GroupStore) -> Self {
        SimConsumer {
            manifest: g.manifest().clone(),
            applied: 0,
            ns: ShardedNamespace::new(),
            replans: 0,
        }
    }

    /// Stream the planned chain to completion, re-resolving the manifest on
    /// `NoSuchArtifact` (bounded, so a bug fails the test instead of
    /// looping). Returns the number of artifact bytes fetched.
    fn catch_up(&mut self, g: &GroupStore) -> u64 {
        let mut fetched = 0u64;
        'replan: for _attempt in 0..8 {
            let plan: Vec<_> =
                self.manifest.chain.iter().filter(|e| e.end_sn > self.applied).cloned().collect();
            for entry in plan {
                let (data, total) = match g.artifact_chunk(entry.id, 0, u64::MAX) {
                    Ok(ok) => ok,
                    Err(PoolError::NoSuchArtifact { .. }) => {
                        // The stale-manifest window: the chain we planned
                        // was GC'd underneath us. Re-resolve and re-plan.
                        self.manifest = g.manifest().clone();
                        self.replans += 1;
                        continue 'replan;
                    }
                    Err(e) => panic!("unexpected pool error: {e:?}"),
                };
                assert_eq!(data.len() as u64, total, "whole-artifact fetch");
                fetched += total;
                if entry.base_sn == entry.end_sn {
                    let (t, sn) = decode_image(data).expect("base decodes");
                    self.ns = ShardedNamespace::from_tree(t);
                    self.applied = sn;
                } else {
                    let d = decode_delta(&data).expect("delta decodes");
                    apply_delta(&self.ns, &d).expect("delta applies");
                    self.applied = d.end_sn;
                }
            }
            return fetched;
        }
        panic!("consumer did not converge after 8 manifest re-resolutions");
    }
}

/// The satellite regression: a consumer that cached the manifest, streamed
/// part of the chain, and then lost the rest to a compaction GC must finish
/// by re-resolving — and land on the exact end-of-chain state.
#[test]
fn stale_manifest_consumer_re_resolves_after_compaction() {
    let (mut g, live) = chained_group(10, 4);
    let mut c = SimConsumer::new(&g);

    // Stream only the base from the cached manifest, then stall.
    let base = c.manifest.base().unwrap().clone();
    let (data, _) = g.artifact_chunk(base.id, 0, u64::MAX).unwrap();
    let (t, sn) = decode_image(data).unwrap();
    c.ns = ShardedNamespace::from_tree(t);
    c.applied = sn;

    // Compaction merges the chain and GCs every artifact the consumer's
    // cached manifest still points at.
    let merged_sn = g.compact().unwrap().expect("chain to merge");
    assert_eq!(merged_sn, 14);
    for e in c.manifest.deltas() {
        assert_eq!(
            g.artifact_chunk(e.id, 0, u64::MAX).unwrap_err(),
            PoolError::NoSuchArtifact { id: e.id },
            "old chain must be gone"
        );
    }

    // The consumer resumes: first fetch hits NoSuchArtifact, re-resolves,
    // and streams the merged base.
    c.catch_up(&g);
    assert_eq!(c.replans, 1, "exactly one forced re-resolution");
    assert_eq!(c.applied, 14);
    assert_eq!(c.ns.fingerprint(), live.fingerprint(), "state after retry");
}

/// Between `compact_commit` and `compact_gc` the old artifacts are garbage
/// but still present: a consumer mid-stream on the pre-swap manifest keeps
/// going and still lands on a correct (if older) state.
#[test]
fn pre_swap_manifest_streams_until_gc() {
    let (mut g, live) = chained_group(10, 3);
    let stale = g.manifest().clone();

    let staged = g.compact_begin().unwrap().expect("staged base");
    g.compact_commit(staged).unwrap();
    // No GC yet: the whole old chain must still stream.
    let mut c = SimConsumer::new(&g);
    c.manifest = stale.clone();
    c.catch_up(&g);
    assert_eq!(c.replans, 0, "no re-resolution needed before GC");
    assert_eq!(c.ns.fingerprint(), live.fingerprint());

    // After GC the same stale manifest forces the retry path instead.
    g.compact_gc();
    let mut c2 = SimConsumer::new(&g);
    c2.manifest = stale;
    c2.catch_up(&g);
    assert!(c2.replans >= 1, "GC'd chain must force a re-resolution");
    assert_eq!(c2.ns.fingerprint(), live.fingerprint());
}

/// Compaction is idempotent: a second merge over an already-merged chain is
/// a no-op, and re-running the GC step never removes live artifacts.
#[test]
fn double_compaction_is_a_noop() {
    let (mut g, live) = chained_group(5, 6);
    let first = g.compact().unwrap();
    assert_eq!(first, Some(11));
    let after_first = g.manifest().clone();

    assert_eq!(g.compact().unwrap(), None, "nothing left to merge");
    g.compact_gc();
    g.compact_gc();
    assert_eq!(g.manifest(), &after_first, "manifest unchanged by the no-ops");

    let mut c = SimConsumer::new(&g);
    c.catch_up(&g);
    assert_eq!(c.ns.fingerprint(), live.fingerprint());
}

/// Crash between `compact_begin` and `compact_commit`, then a fresh
/// compaction run from scratch (what the sweep does on restart): the
/// leaked staged artifact is garbage, the retry merges the same chain, and
/// consumers only ever see the old chain or the final merged base.
#[test]
fn compaction_retry_after_crash_before_commit() {
    let (mut g, live) = chained_group(20, 5);
    let leaked = g.compact_begin().unwrap().expect("first staging");
    // "Crash": the sweep restarts and runs the whole merge again.
    let sn = g.compact().unwrap().expect("retry merges");
    assert_eq!(sn, 25);
    // The first staging is unreferenced garbage and must be collected.
    assert_eq!(
        g.artifact_chunk(leaked, 0, u64::MAX).unwrap_err(),
        PoolError::NoSuchArtifact { id: leaked }
    );
    let mut c = SimConsumer::new(&g);
    c.catch_up(&g);
    assert_eq!(c.ns.fingerprint(), live.fingerprint());
}

/// Crash between `compact_commit` and `compact_gc`: the merged chain is
/// already the manifest (resolvable), and the deferred GC on restart
/// collects the old chain without touching the live base.
#[test]
fn deferred_gc_after_crash_between_commit_and_gc() {
    let (mut g, live) = chained_group(7, 4);
    let old = g.manifest().clone();
    let staged = g.compact_begin().unwrap().unwrap();
    g.compact_commit(staged).unwrap();
    // "Crash" before GC; restart resolves fine and then sweeps.
    let mut c = SimConsumer::new(&g);
    c.catch_up(&g);
    assert_eq!(c.ns.fingerprint(), live.fingerprint());

    g.compact_gc();
    for e in &old.chain {
        assert_eq!(
            g.artifact_chunk(e.id, 0, u64::MAX).unwrap_err(),
            PoolError::NoSuchArtifact { id: e.id }
        );
    }
    let base = g.manifest().base().unwrap().clone();
    assert!(g.artifact_chunk(base.id, 0, u64::MAX).is_ok(), "live base survives GC");
}

/// Compaction advances the journal floor to the merged base sn: catch-up
/// from at/past the new base keeps working, older cursors are told to go
/// fetch the image — and a producer can chain fresh deltas onto the merged
/// base immediately.
#[test]
fn journal_floor_and_chain_resume_after_compaction() {
    // Build the group the way a live producer does: journal first, then the
    // checkpoint at sn 3, then folded deltas covering (3, 7].
    let mut g = GroupStore::default();
    let live = ShardedNamespace::new();
    live.mkdir("/d").unwrap();
    for sn in 1..=7u64 {
        let txn = Txn::Mkdir { path: format!("/d/j{sn}") };
        g.append_journal(1, mams_journal::JournalBatch::new(sn, sn, vec![txn.clone()])).unwrap();
        live.apply(&txn).unwrap();
        if sn == 3 {
            g.write_image(1, encode_image(&live.to_tree(), 3)).unwrap();
        } else if sn > 3 {
            g.append_delta(1, fold_delta(&live, sn - 1, sn, [&txn])).unwrap();
        }
    }
    let merged = g.compact().unwrap().unwrap();
    assert_eq!(merged, 7);
    assert!(g.read_journal(2, 16).is_none(), "pre-merge range is compacted away");
    assert!(g.read_journal(7, 16).is_some(), "tail from the merged base works");

    // New deltas chain onto the merged base, not the old chain end.
    let txn = Txn::Mkdir { path: "/post".into() };
    live.apply(&txn).unwrap();
    let delta = fold_delta(&live, merged, merged + 1, [&txn]);
    assert_eq!(g.append_delta(1, delta).unwrap(), merged + 1);

    let mut c = SimConsumer::new(&g);
    c.catch_up(&g);
    assert_eq!(c.applied, merged + 1);
    assert_eq!(c.ns.fingerprint(), live.fingerprint());
}
