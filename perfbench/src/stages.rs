//! Stage probes: the round's own journal, read from the pool through the
//! deployment's `SharedPool` handle while the round ran, fed to the public
//! namespace, journal, image and delta APIs and timed here. They give a
//! per-stage cost to set beside the handler spans (`active.tick_s`,
//! `standby.apply_s`).

use std::time::Instant;

use mams_journal::{encode_batch, SharedBatch};
use mams_namespace::{
    decode_image, encode_image, fold_delta, ShardedNamespace, ShardedReplaySession,
};

#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub exec_us_per_op: f64,
    pub seal_us_per_batch: f64,
    pub replay_us_per_batch: f64,
    pub image_encode_s: f64,
    pub image_decode_s: f64,
    pub delta_fold_s: f64,
}

/// `journal` holds each group's batches from sn 1, so every group starts
/// from an empty namespace.
pub fn probe(journal: &[Vec<SharedBatch>]) -> Result<Stages, String> {
    let (mut exec_s, mut seal_s, mut replay_s) = (0.0, 0.0, 0.0);
    let (mut records, mut batches) = (0u64, 0u64);
    let mut s = Stages::default();
    for (g, journal) in journal.iter().enumerate() {
        let tail_sn = journal.last().map_or(0, |b| b.sn);

        // Namespace exec: validated apply of every record.
        let ns = ShardedNamespace::new();
        let t = Instant::now();
        for batch in journal {
            for txn in &batch.records {
                ns.apply(txn).map_err(|e| format!("group {g}: journal exec failed: {e:?}"))?;
            }
        }
        exec_s += t.elapsed().as_secs_f64();

        // Seal: encode each batch to its wire form.
        let t = Instant::now();
        let bytes: usize = journal.iter().map(|b| encode_batch(b.batch()).len()).sum();
        seal_s += t.elapsed().as_secs_f64();
        std::hint::black_box(bytes);

        // Standby replay: the session's validate-skip fast path.
        let replica = ShardedNamespace::new();
        let mut session = ShardedReplaySession::new();
        let t = Instant::now();
        for batch in journal {
            for txn in &batch.records {
                session.apply(&replica, txn).map_err(|e| format!("group {g}: replay: {e:?}"))?;
            }
        }
        replay_s += t.elapsed().as_secs_f64();
        if replica.fingerprint() != ns.fingerprint() {
            return Err(format!("group {g}: replay and exec of the journal disagree"));
        }

        // Full image of the final namespace, and back.
        let t = Instant::now();
        let image = encode_image(&ns.to_tree(), tail_sn);
        s.image_encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (tree, _) = decode_image(image.data.clone()).map_err(|e| format!("{e:?}"))?;
        let decoded = ShardedNamespace::from_tree(tree);
        s.image_decode_s += t.elapsed().as_secs_f64();
        if decoded.fingerprint() != ns.fingerprint() {
            return Err(format!("group {g}: image round trip changed the namespace"));
        }

        // One delta folding the whole journal.
        let t = Instant::now();
        let txns = journal.iter().flat_map(|b| b.records.iter());
        let delta = fold_delta(&ns, 0, tail_sn, txns);
        s.delta_fold_s += t.elapsed().as_secs_f64();
        std::hint::black_box(delta.size_bytes());

        records += journal.iter().map(|b| b.records.len() as u64).sum::<u64>();
        batches += journal.len() as u64;
    }
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total * 1e6 / n as f64 };
    s.exec_us_per_op = per(exec_s, records);
    s.seal_us_per_batch = per(seal_s, batches);
    s.replay_us_per_batch = per(replay_s, batches);
    Ok(s)
}
