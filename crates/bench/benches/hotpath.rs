//! Criterion benches for the two hot paths this repo optimises: the
//! encode-once shared journal batch (flush → standby fan-out → pool
//! append) and the namespace path-resolution fast path (interned names +
//! parent-directory cache vs a from-root component walk).
//!
//! `cargo bench --bench hotpath` (under the offline criterion stand-in the
//! closures still run, so the bench doubles as a smoke test).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mams_journal::{decode_batch, encode_batch, JournalBatch, JournalLog, SharedBatch, Txn};
use mams_namespace::ShardedNamespace;

const BATCH_RECORDS: usize = 64;
const STANDBYS: usize = 3;

fn sample_batch(records: usize) -> JournalBatch {
    let txns = (0..records)
        .map(|i| Txn::Create { path: format!("/bench/dir{}/file{}", i % 8, i), replication: 3 })
        .collect();
    JournalBatch::new(1, 1, txns)
}

/// Wire round-trip: seal (encode once), then decode the shared bytes back.
fn bench_encode_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/wire");
    g.throughput(Throughput::Elements(BATCH_RECORDS as u64));
    g.bench_function("seal_64", |b| {
        b.iter_batched(|| sample_batch(BATCH_RECORDS), SharedBatch::sealed, BatchSize::SmallInput)
    });
    let sealed = SharedBatch::sealed(sample_batch(BATCH_RECORDS));
    g.bench_function("round_trip_64", |b| b.iter(|| decode_batch(sealed.wire().clone()).unwrap()));
    // The old cost model: encode the same batch once per fan-out leg.
    g.bench_function("encode_per_leg_64_x4", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..=STANDBYS {
                total += encode_batch(sealed.batch()).len();
            }
            total
        })
    });
    g.finish();
}

/// Fan one sealed batch out to the active's log, every standby log, and the
/// pool segment — the exact replication pattern of `flush_batch` — and
/// contrast the shared (rc-bump) form with per-leg deep clones.
fn bench_fan_out(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/fan_out");
    g.throughput(Throughput::Elements((STANDBYS + 2) as u64));
    g.bench_function("shared_5_legs", |b| {
        b.iter_batched(
            || {
                let logs: Vec<JournalLog> = (0..STANDBYS + 2).map(|_| JournalLog::new()).collect();
                (logs, SharedBatch::sealed(sample_batch(BATCH_RECORDS)))
            },
            |(mut logs, batch)| {
                let wire_len = batch.wire().len();
                for log in &mut logs {
                    log.append(batch.share()).unwrap();
                }
                wire_len
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("deep_clone_5_legs", |b| {
        b.iter_batched(
            || {
                let logs: Vec<JournalLog> = (0..STANDBYS + 2).map(|_| JournalLog::new()).collect();
                (logs, sample_batch(BATCH_RECORDS))
            },
            |(mut logs, batch)| {
                // One encode per leg plus one deep copy per leg: what the
                // flush path paid before batches were sealed and shared.
                let mut wire_len = 0usize;
                for log in &mut logs {
                    wire_len += encode_batch(&batch).len();
                    log.append(batch.clone()).unwrap();
                }
                wire_len
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Build the 10k-inode tree the resolution benches walk: 100 directories
/// of 100 files, three components deep.
fn deep_tree() -> (ShardedNamespace, Vec<String>) {
    let tree = ShardedNamespace::new();
    let mut paths = Vec::new();
    for d in 0..100 {
        let dir = format!("/bench/d{d}");
        tree.mkdir_p(&dir).unwrap();
        for f in 0..100 {
            let p = format!("{dir}/f{f}");
            tree.create(&p, 3).unwrap();
            paths.push(p);
        }
    }
    (tree, paths)
}

fn bench_resolution(c: &mut Criterion) {
    let (tree, paths) = deep_tree();
    let mut g = c.benchmark_group("hotpath/resolve");
    g.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    g.bench_function("cached_10k", |b| {
        b.iter(|| {
            i = (i + 1) % paths.len();
            tree.resolve_path(&paths[i]).unwrap()
        })
    });
    let mut j = 0usize;
    g.bench_function("from_root_10k", |b| {
        b.iter(|| {
            j = (j + 1) % paths.len();
            tree.resolve_path_uncached(&paths[j]).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_encode_decode, bench_fan_out, bench_resolution);
criterion_main!(benches);
