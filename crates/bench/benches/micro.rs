//! Criterion micro-benchmarks for the hot paths under the experiment
//! harnesses: journal encode/decode/replay, namespace operations, image
//! checkpointing, Paxos rounds, and a full simulated failover.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mams_journal::{decode_batch, encode_batch, JournalBatch, ReplayCursor, Txn};
use mams_namespace::{decode_image, encode_image, Partitioner, ShardedNamespace};
use mams_paxos::{Acceptor, Ballot, Proposer, ProposerEvent};

fn sample_batch(records: usize) -> JournalBatch {
    let txns = (0..records)
        .map(|i| Txn::Create { path: format!("/bench/dir{}/file{}", i % 8, i), replication: 3 })
        .collect();
    JournalBatch::new(1, 1, txns)
}

fn bench_journal(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal");
    let batch = sample_batch(64);
    g.throughput(Throughput::Elements(64));
    g.bench_function("encode_64", |b| b.iter(|| encode_batch(&batch)));
    let encoded = encode_batch(&batch);
    g.bench_function("decode_64", |b| b.iter(|| decode_batch(encoded.clone()).unwrap()));
    g.bench_function("replay_64", |b| {
        b.iter_batched(
            || (ReplayCursor::new(), ShardedNamespace::new()),
            |(mut cur, ns)| {
                let mut sink = |_: u64, t: &Txn| {
                    let _ = ns.apply(t);
                };
                cur.offer(&batch, &mut sink)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_namespace(c: &mut Criterion) {
    let mut g = c.benchmark_group("namespace");
    g.bench_function("create", |b| {
        b.iter_batched(
            || {
                let t = ShardedNamespace::new();
                t.mkdir("/d").unwrap();
                (t, 0u64)
            },
            |(t, mut i)| {
                t.create(&format!("/d/f{i}"), 3).unwrap();
                i += 1;
                (t, i)
            },
            BatchSize::SmallInput,
        )
    });
    let tree = ShardedNamespace::new();
    tree.mkdir("/d").unwrap();
    for i in 0..10_000 {
        tree.create(&format!("/d/f{i}"), 3).unwrap();
    }
    g.bench_function("getfileinfo_10k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 10_000;
            tree.getfileinfo(&format!("/d/f{i}")).unwrap()
        })
    });
    g.bench_function("fingerprint_10k", |b| b.iter(|| tree.fingerprint()));
    g.finish();
}

fn bench_image(c: &mut Criterion) {
    let mut g = c.benchmark_group("image");
    let ns = ShardedNamespace::new();
    ns.mkdir("/d").unwrap();
    for i in 0..10_000 {
        ns.create(&format!("/d/f{i}"), 3).unwrap();
    }
    let tree = ns.into_tree();
    g.bench_function("encode_10k_files", |b| b.iter(|| encode_image(&tree, 1)));
    let img = encode_image(&tree, 1);
    g.bench_function("decode_10k_files", |b| b.iter(|| decode_image(img.data.clone()).unwrap()));
    g.finish();
}

fn bench_paxos(c: &mut Criterion) {
    c.bench_function("paxos/single_decree_round", |b| {
        b.iter_batched(
            || vec![Acceptor::new(); 5],
            |mut acceptors| {
                let ballot = Ballot::new(1, 0);
                let mut p = Proposer::new(0, 5, ballot, bytes::Bytes::from_static(b"value"));
                let mut accepts = None;
                for (i, a) in acceptors.iter_mut().enumerate() {
                    let r = a.on_prepare(ballot);
                    if let ProposerEvent::SendAccepts { ballot, value } =
                        p.on_prepare_reply(i as u32, r)
                    {
                        accepts = Some((ballot, value));
                        break;
                    }
                }
                let (ballot, value) = accepts.expect("quorum");
                for (i, a) in acceptors.iter_mut().enumerate() {
                    let r = a.on_accept(ballot, value.clone());
                    if let ProposerEvent::Chosen { .. } = p.on_accept_reply(i as u32, r) {
                        break;
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_partitioner(c: &mut Criterion) {
    let p = Partitioner::new(3);
    let mut i = 0u64;
    c.bench_function("partitioner/owner", |b| {
        b.iter(|| {
            i += 1;
            p.owner(&format!("/bench/dir{}/file{}", i % 100, i))
        })
    });
}

fn bench_failover_sim(c: &mut Criterion) {
    use mams_cluster::deploy::{build, DeploySpec};
    use mams_cluster::metrics::Metrics;
    use mams_cluster::workload::Workload;
    use mams_sim::{Sim, SimConfig, SimTime};

    c.bench_function("sim/full_failover_30s_virtual", |b| {
        b.iter(|| {
            let mut sim = Sim::new(SimConfig { seed: 1, trace: false, ..SimConfig::default() });
            let mut d = build(
                &mut sim,
                DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() },
            );
            let m = Metrics::new(false);
            d.add_client(&mut sim, Workload::create_only(0), m.clone());
            let victim = d.initial_active(0);
            sim.at(SimTime(10_000_000), move |s| s.crash(victim));
            sim.run_until(SimTime(30_000_000));
            m.ok_count()
        })
    });
}

criterion_group!(
    benches,
    bench_journal,
    bench_namespace,
    bench_image,
    bench_paxos,
    bench_partitioner,
    bench_failover_sim
);
criterion_main!(benches);
