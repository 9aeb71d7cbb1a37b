//! One round: build and pre-populate a fresh cluster, run the fixed-work
//! load as the measured window, let the cluster settle, and check it.

use std::time::Instant;

use mams_cluster::Metrics;
use mams_core::{FsOp, Role};
use mams_journal::SharedBatch;
use mams_sim::{Duration, NodeId};

use crate::cluster::Cluster;
use crate::workloads::{Plan, Workload};
use crate::wrap::{Recorder, Shared, Transition};

/// Simulated time a set-up phase or the measured window may take before
/// the round gives up on the ops still outstanding.
const SIM_CAP: Duration = Duration::from_secs(300);
/// Quiet time after set-up and after the window, so every replica applies
/// the last batches before anything is read.
const SETTLE: Duration = Duration::from_secs(2);
/// Span buffer preallocated per client op of the window.
const SPANS_PER_OP: usize = 12;

/// Everything a round measures in simulated time. On one group this must
/// repeat exactly for a seed, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub attempted: u64,
    pub ok: u64,
    /// Ops answered with an error.
    pub failed: u64,
    /// Ops still outstanding at the simulated-time cap.
    pub outstanding: u64,
    /// From the first op's issue to the last reply.
    pub window_us: u64,
    /// Latency of every answered op (first attempt's issue to reply), sorted.
    pub latencies_us: Vec<u64>,
    pub mttr_us: Option<u64>,
    pub renew_us: Option<u64>,
    /// Crash to first `Electing`, to `Upgrading`, to `Active`, to first op.
    pub failover_us: Option<[u64; 4]>,
    /// Per group: the agreed fingerprint and applied sn.
    pub groups: Vec<(u64, u64)>,
}

/// The latency percentiles reported, by metric name.
pub const PERCENTILES: [(&str, f64); 3] =
    [("sim_p50_ms", 0.5), ("sim_p99_ms", 0.99), ("sim_p999_ms", 0.999)];

/// Nearest-rank percentile of sorted latencies, in ms, and how many
/// samples lie above it.
pub fn percentile_ms(sorted_us: &[u64], p: f64) -> (f64, usize) {
    if sorted_us.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    (sorted_us[rank - 1] as f64 / 1e3, sorted_us.len() - rank)
}

pub struct Round {
    pub setup_s: f64,
    pub wall_s: f64,
    /// `PERCENTILES` of the window's latencies.
    pub pct_ms: [f64; 3],
    pub sim: SimOutcome,
    /// Set when the round was traced.
    pub trace: Option<Recorder>,
    /// Per group, the whole journal of a traced round.
    pub journal: Option<Vec<Vec<SharedBatch>>>,
    /// On more than one group: whether the cross-group rename defect
    /// showed (see `rename_defect_shows`).
    pub rename_defect: Option<bool>,
}

impl Round {
    pub fn answered(&self) -> u64 {
        self.sim.ok + self.sim.failed
    }
}

/// The group-0 member that most recently became active.
fn current_active(shared: &Shared, members: &[NodeId]) -> Option<NodeId> {
    let transitions = shared.transitions.lock().expect("transitions lock poisoned");
    transitions
        .iter()
        .rev()
        .find(|t| t.to == Role::Active && members.contains(&t.node))
        .map(|t| t.node)
}

fn first_after(
    transitions: &[Transition],
    after: u64,
    to: Role,
    node: Option<NodeId>,
) -> Option<u64> {
    transitions
        .iter()
        .find(|t| t.at_us >= after && t.to == to && node.is_none_or(|n| n == t.node))
        .map(|t| t.at_us)
}

pub fn run_round(
    w: &Workload,
    plan: &Plan,
    sim_seed: u64,
    reference: u64,
    traced: bool,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut cl = Cluster::build(sim_seed, &w.topo, traced);
    for (phase, scripts) in plan.setup.iter().enumerate() {
        let metrics = Metrics::new(false);
        let mut total = 0;
        for script in scripts.iter().filter(|s| !s.is_empty()) {
            total += script.len() as u64;
            cl.add_client(script.clone(), metrics.clone());
        }
        let cap = cl.sim.now() + SIM_CAP;
        cl.run_until_answered(&metrics, total, cap)?;
        let missing = total - metrics.ok_count();
        if missing > 0 {
            return Err(format!("set-up phase {phase}: {missing} of {total} ops not applied"));
        }
    }
    cl.run_for(SETTLE)?;
    let metrics = Metrics::new(true);
    for script in &plan.load {
        cl.add_client(script.clone(), metrics.clone());
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let start = cl.sim.now();
    let attempted = plan.load_ops();
    let crash = match w.fault {
        Some(f) => {
            let victim = current_active(&cl.shared, &cl.groups[0])
                .ok_or("group 0 has no active after set-up")?;
            let crash_at = start + f.crash_after;
            let restart_at = crash_at + f.restart_after;
            cl.sim.at(crash_at, move |s| s.crash(victim));
            cl.sim.at(restart_at, move |s| s.restart(victim));
            Some((victim, crash_at.micros(), restart_at.micros()))
        }
        None => None,
    };
    if traced {
        cl.shared.start_tracing(attempted as usize * SPANS_PER_OP);
    }
    let w0 = Instant::now();
    cl.run_until_answered(&metrics, attempted, start + SIM_CAP)?;
    let wall_s = w0.elapsed().as_secs_f64();
    cl.shared.stop_tracing();
    let trace = traced.then(|| std::mem::replace(&mut *cl.shared.recorder(), Recorder::empty()));

    // A restarted member must finish renewing before the replicas are
    // compared.
    if let Some((victim, _, restart_at)) = crash {
        let cap = cl.sim.now() + SIM_CAP;
        while cl.sim.now() < cap && renewed_at(&cl.shared, victim, restart_at).is_none() {
            cl.run_for(Duration::from_millis(100))?;
        }
    }
    cl.run_for(SETTLE)?;

    let completions = metrics.completions();
    let mut latencies_us: Vec<u64> = completions.iter().map(|c| c.latency_us()).collect();
    latencies_us.sort_unstable();
    let first_issue = completions.iter().map(|c| c.issued_us).min().unwrap_or(0);
    let last_reply = completions.iter().map(|c| c.at_us).max().unwrap_or(0);
    let (ok, failed) = (metrics.ok_count(), metrics.failed_count());

    let (mut mttr_us, mut renew_us, mut failover_us) = (None, None, None);
    if let Some((victim, crash_at, restart_at)) = crash {
        renew_us = renewed_at(&cl.shared, victim, restart_at).map(|t| t - restart_at);
        let transitions = cl.shared.transitions.lock().expect("transitions lock poisoned");
        let electing = first_after(&transitions, crash_at, Role::Electing, None);
        let upgrading = first_after(&transitions, crash_at, Role::Upgrading, None);
        let active = first_after(&transitions, crash_at, Role::Active, None);
        if let (Some(e), Some(u), Some(a)) = (electing, upgrading, active) {
            let served = completions.iter().filter(|c| c.ok && c.at_us > a).map(|c| c.at_us).min();
            let served = served.unwrap_or(a);
            failover_us = Some([e - crash_at, u - e, a - u, served - a]);
            // From the crash to the first op the successor served. The
            // first op completed after the crash can be a reply the old
            // active sent just before it, which would hide the outage.
            mttr_us = Some(served - crash_at);
        }
    }

    let pct_ms = PERCENTILES.map(|(_, p)| percentile_ms(&latencies_us, p).0);
    let groups = check_replicas(&mut cl, reference)?;
    let rename_defect =
        if cl.groups.len() > 1 { Some(rename_defect_shows(&mut cl)?) } else { None };
    Ok(Round {
        setup_s,
        wall_s,
        pct_ms,
        sim: SimOutcome {
            attempted,
            ok,
            failed,
            outstanding: attempted - ok - failed,
            window_us: last_reply.saturating_sub(first_issue),
            latencies_us,
            mttr_us,
            renew_us,
            failover_us,
            groups,
        },
        trace,
        journal: cl.journal.take(),
        rename_defect,
    })
}

/// Shows the known cross-group rename defect the multi-group scripts step
/// around (see `workloads.rs`): one client creates a file at the root,
/// renames it to a name another group owns, and looks it up there. True
/// when the lookup fails. Runs after the checks, outside the window and
/// its op counts.
fn rename_defect_shows(cl: &mut Cluster) -> Result<bool, String> {
    let p = cl.partitioner;
    let src = "/renamed-0".to_string();
    let dst = (1..)
        .map(|i| format!("/renamed-{i}"))
        .find(|d| p.owner(d) != p.owner(&src))
        .expect("more than one group owns some name");
    let script = vec![
        FsOp::Create { path: src.clone(), replication: 3 },
        FsOp::Rename { src, dst: dst.clone() },
        FsOp::GetFileInfo { path: dst },
    ];
    let metrics = Metrics::new(false);
    cl.add_client(script, metrics.clone());
    let cap = cl.sim.now() + SIM_CAP;
    cl.run_until_answered(&metrics, 3, cap)?;
    match (metrics.ok_count(), metrics.failed_count()) {
        (3, 0) => Ok(false),
        (2, 1) => Ok(true),
        (ok, failed) => Err(format!("rename probe: {ok} ok, {failed} failed of 3 ops")),
    }
}

/// When `victim`, restarted at `restart_at`, became a standby again after
/// registering as a junior.
fn renewed_at(shared: &Shared, victim: NodeId, restart_at: u64) -> Option<u64> {
    let transitions = shared.transitions.lock().expect("transitions lock poisoned");
    let junior = first_after(&transitions, restart_at, Role::Junior, Some(victim))?;
    first_after(&transitions, junior, Role::Standby, Some(victim))
}

/// At quiescence every group has one active and only standbys besides it,
/// all members agree on `fingerprint()` and `applied_sn()`, and none saw a
/// divergence. On one group the active also matches the reference model.
fn check_replicas(cl: &mut Cluster, reference: u64) -> Result<Vec<(u64, u64)>, String> {
    let probes = cl.probe_all();
    let mut agreed = Vec::new();
    for (g, members) in cl.groups.iter().enumerate() {
        let mut reports = Vec::new();
        for id in members {
            let r = probes.get(id).ok_or_else(|| format!("group {g}: member {id} is down"))?;
            reports.push(*r);
        }
        let actives = reports.iter().filter(|r| r.role == Role::Active).count();
        let standbys = reports.iter().filter(|r| r.role == Role::Standby).count();
        if actives != 1 || actives + standbys != reports.len() {
            let roles: Vec<Role> = reports.iter().map(|r| r.role).collect();
            return Err(format!("group {g}: roles at quiescence {roles:?}"));
        }
        let first = reports[0];
        for r in &reports {
            if r.divergences != 0 {
                return Err(format!("group {g}: {} replay divergences", r.divergences));
            }
            if (r.fingerprint, r.applied_sn) != (first.fingerprint, first.applied_sn) {
                return Err(format!(
                    "group {g}: members disagree: fingerprint {:#x} sn {} vs {:#x} sn {}",
                    r.fingerprint, r.applied_sn, first.fingerprint, first.applied_sn
                ));
            }
        }
        agreed.push((first.fingerprint, first.applied_sn));
    }
    if cl.groups.len() == 1 && agreed[0].0 != reference {
        return Err(format!(
            "active fingerprint {:#x} differs from the reference model's {reference:#x}",
            agreed[0].0
        ));
    }
    Ok(agreed)
}
