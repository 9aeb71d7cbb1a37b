//! Cross-group transaction legs: structural operations (mkdir, delete,
//! rename) coordinated by one group's active run as legs on every other
//! group. These tests hold the leg path to its two promises — an acked
//! structural op is durable on every group, whoever coordinated it and
//! whatever failed in between — and check that a slow cross-group link
//! does not slow down ops that never leave their group.

use std::collections::HashSet;

use mams_cluster::deploy::{build, DeploySpec, Deployment};
use mams_cluster::faults;
use mams_cluster::history::History;
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_core::FsOp;
use mams_sim::{Duration, Sim, SimConfig, SimTime};

fn sim(seed: u64) -> Sim {
    Sim::new(SimConfig { seed, ..SimConfig::default() })
}

/// Paths of every `Mkdir` in `group`'s durable (pool) journal.
fn journaled_mkdirs(d: &Deployment, group: u32) -> HashSet<String> {
    let pool = d.shared_pool.lock();
    let g = pool.group(group).expect("group journal exists");
    let mut out = HashSet::new();
    for b in g.read_journal(0, usize::MAX).expect("journal uncompacted") {
        for r in &b.records {
            if let mams_journal::Txn::Mkdir { path } = r {
                out.insert(path.clone());
            }
        }
    }
    out
}

/// `n` root-level mkdirs whose paths group `owner` coordinates.
fn mkdirs_owned_by(d: &Deployment, owner: u32, prefix: &str, n: usize) -> Vec<FsOp> {
    (0..)
        .map(|i| format!("/{prefix}{i}"))
        .filter(|p| d.partitioner.owner(p) == owner)
        .take(n)
        .map(|path| FsOp::Mkdir { path })
        .collect()
}

/// A promoted coordinator must not reuse its predecessor's transaction
/// ids: a participant that already saw `(group, xid)` re-acks it without
/// applying anything, so the structural op would be acked but missing from
/// the other group's skeleton.
#[test]
fn a_promoted_coordinator_does_not_reuse_its_predecessors_xids() {
    let mut s = sim(5);
    let mut d = build(&mut s, DeploySpec::mams(2, 2));
    let before = mkdirs_owned_by(&d, 0, "a", 5);
    let after = mkdirs_owned_by(&d, 0, "b", 5);
    let m = Metrics::new(false);
    d.add_client(&mut s, Workload::script(before.clone()), m.clone());
    faults::schedule_crash(&mut s, d.initial_active(0), SimTime(10_000_000));
    d.add_client_with(&mut s, Workload::script(after.clone()), m.clone(), |mut c| {
        c.start_delay = Duration::from_secs(25);
        c
    });
    s.run_for(Duration::from_secs(40));
    assert_eq!(m.ok_count(), 10, "every mkdir is acked");
    assert_eq!(m.failed_count(), 0);

    let on_group_1 = journaled_mkdirs(&d, 1);
    for op in before.iter().chain(&after) {
        let FsOp::Mkdir { path } = op else { unreachable!() };
        assert!(on_group_1.contains(path), "acked {path} is missing from group 1's journal");
    }
}

/// A resent leg must not be re-acked while the first copy is still queued
/// or not yet durable. Group 1's active is cut from the pool and from its
/// standby, so nothing it applies can become durable; the coordinator's
/// periodic resends reach it all the same. If those were acked, group 0
/// would answer its client and the leg would die with group 1's active.
#[test]
fn a_resent_leg_is_not_acked_before_it_is_durable() {
    let mut s = sim(11);
    let mut d = build(&mut s, DeploySpec::mams(2, 2));
    let history = History::new();
    let m = Metrics::new(false);
    for c in 0..4 {
        let ops = (0..3000).map(|i| FsOp::Mkdir { path: format!("/m{c}-{i}") }).collect();
        d.add_client_recorded(&mut s, Workload::script(ops), m.clone(), history.clone());
    }
    let active = d.initial_active(1);
    let mut cut_off = d.pool.clone();
    cut_off.extend(d.groups[1].members.iter().copied().filter(|&n| n != active));
    faults::schedule_partition(&mut s, vec![active], cut_off, SimTime(4_000_000), None);
    faults::schedule_crash(&mut s, active, SimTime(6_000_000));
    s.run_for(Duration::from_secs(60));

    let acked: Vec<String> = history
        .records()
        .into_iter()
        .filter(|r| r.ok == Some(true))
        .filter_map(|r| match r.op {
            FsOp::Mkdir { path } if d.partitioner.owner(&path) == 0 => Some(path),
            _ => None,
        })
        .collect();
    assert!(acked.len() > 1_000, "only {} group-0 mkdirs acked", acked.len());
    let on_group_1 = journaled_mkdirs(&d, 1);
    let missing: Vec<&String> = acked.iter().filter(|p| !on_group_1.contains(*p)).collect();
    assert!(
        missing.is_empty(),
        "{} of {} acked mkdirs are missing from group 1's journal: {:?}",
        missing.len(),
        acked.len(),
        missing
    );
}

/// Median create latency (ms) over completions after `from_us`.
fn p50_ms(m: &Metrics, from_us: u64) -> f64 {
    let mut lat: Vec<u64> = m
        .completions()
        .iter()
        .filter(|c| c.ok && c.at_us >= from_us)
        .map(|c| c.latency_us())
        .collect();
    assert!(lat.len() > 1_000, "only {} completions to measure", lat.len());
    lat.sort_unstable();
    lat[lat.len() / 2] as f64 / 1_000.0
}

/// Creates never leave their group, but they share group commit with the
/// mkdirs whose batches wait on legs to the other group. Pacing the flush
/// cadence on those batches' full release would make every create pay the
/// slow cross-group round; pacing on durability keeps creates near their
/// unslowed latency.
#[test]
fn a_slow_cross_group_link_does_not_pace_local_commits() {
    let create_p50 = |slow: bool| {
        let mut s = sim(9);
        let mut d = build(&mut s, DeploySpec::mams(2, 2));
        let creates = Metrics::new(true);
        let mkdirs = Metrics::new(false);
        for c in 0..8 {
            d.add_client(&mut s, Workload::create_only(c), creates.clone());
        }
        for c in 8..12 {
            d.add_client(&mut s, Workload::mkdir_only(c), mkdirs.clone());
        }
        if slow {
            let (a, b) = (d.initial_active(0), d.initial_active(1));
            faults::schedule_slow_link(&mut s, a, b, 20.0, SimTime::ZERO, None);
        }
        s.run_for(Duration::from_secs(20));
        assert!(mkdirs.ok_count() > 100, "mkdirs stalled: {}", mkdirs.ok_count());
        p50_ms(&creates, 5_000_000)
    };
    let unslowed = create_p50(false);
    let slowed = create_p50(true);
    assert!(
        slowed < 2.5 * unslowed,
        "create p50 {slowed:.2} ms over a slow cross-group link vs {unslowed:.2} ms without"
    );
}
