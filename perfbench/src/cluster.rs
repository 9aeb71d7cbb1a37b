//! Builds the cluster the way `mams_cluster::deploy::build` does, with the
//! benchmark's wrapper around every node: coordination server, pool nodes,
//! `groups × (1 active + standbys)` restartable metadata servers, data
//! servers, and closed-loop clients running fixed scripts.

use std::collections::BTreeMap;
use std::sync::Arc;

use mams_cluster::{ClientConfig, DataServer, FsClient, Metrics, Workload};
use mams_coord::{CoordConfig, CoordServer};
use mams_core::{FsOp, InitialRole, MdsConfig, MdsServer, MdsTiming};
use mams_journal::SharedBatch;
use mams_namespace::Partitioner;
use mams_sim::{DetRng, Duration, LatencyModel, NodeId, NodeStatus, Sim, SimConfig, SimTime};
use mams_storage::pool::{new_shared_pool, SharedPool};
use mams_storage::PoolNode;

use crate::wrap::{Instrumented, Probe, ProbeReport, Shared};

/// Cluster shape and protocol timing.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    pub groups: u32,
    pub standbys_per_group: usize,
    pub timing: MdsTiming,
}

const POOL_NODES: usize = 3;
const DATA_SERVERS: u64 = 4;
const REPORT_INTERVAL: Duration = Duration::from_secs(3);

pub struct Cluster {
    pub sim: Sim,
    pub groups: Vec<Vec<NodeId>>,
    pub shared: Arc<Shared>,
    shared_pool: SharedPool,
    /// Per group, every journal batch the pool stored, read through the
    /// deployment's `SharedPool` handle as the run goes (checkpoints
    /// compact the pool's copy). Kept only when the stage probes need it.
    pub journal: Option<Vec<Vec<SharedBatch>>>,
    coord: NodeId,
    pub partitioner: Partitioner,
    clients: u64,
}

impl Cluster {
    /// Every link samples `LatencyModel::lan` (100 µs plus up to 50 µs of
    /// jitter one way); servers, pool disks and the CPU model keep their
    /// defaults.
    pub fn build(sim_seed: u64, topo: &Topology, keep_journal: bool) -> Cluster {
        let mut sim =
            Sim::new(SimConfig { seed: sim_seed, trace: false, latency: LatencyModel::lan() });
        let shared = Shared::new();
        let shared_pool = new_shared_pool();
        let coord = sim.add_node(
            "coord",
            Box::new(Instrumented::new(
                CoordServer::new(CoordConfig::default()),
                0,
                shared.clone(),
            )),
        );
        let pool: Vec<NodeId> = (0..POOL_NODES)
            .map(|i| {
                let node = PoolNode::new(shared_pool.clone());
                sim.add_node(
                    format!("pool-{i}"),
                    Box::new(Instrumented::new(node, 0, shared.clone())),
                )
            })
            .collect();
        let partitioner = Partitioner::new(topo.groups);
        let mut groups = Vec::new();
        for g in 0..topo.groups {
            let base = sim.num_nodes() as NodeId;
            let members: Vec<NodeId> =
                (0..=topo.standbys_per_group as NodeId).map(|i| base + i).collect();
            for (i, &id) in members.iter().enumerate() {
                let cfg = MdsConfig {
                    group: g,
                    members: members.clone(),
                    coord,
                    pool: pool.clone(),
                    partitioner,
                    initial_role: if i == 0 { InitialRole::Active } else { InitialRole::Standby },
                    timing: topo.timing,
                };
                let shared = shared.clone();
                let got = sim.add_restartable(format!("mds-g{g}-{i}"), move || {
                    Box::new(Instrumented::new(MdsServer::new(cfg.clone()), g, shared.clone()))
                });
                assert_eq!(got, id, "node id plan must match registration order");
            }
            groups.push(members);
        }
        let all_mds: Vec<NodeId> = groups.iter().flatten().copied().collect();
        for i in 0..DATA_SERVERS {
            let ds = DataServer::new(i as u32, all_mds.clone(), REPORT_INTERVAL)
                .with_blocks((i * 1000)..(i * 1000 + 16));
            sim.add_node(format!("ds-{i}"), Box::new(Instrumented::new(ds, 0, shared.clone())));
        }
        let journal = keep_journal.then(|| vec![Vec::new(); groups.len()]);
        Cluster { sim, groups, shared, shared_pool, journal, coord, partitioner, clients: 0 }
    }

    /// Advance in 20 ms steps while `more` holds, reading the pool's
    /// journal after each step.
    fn run_while(&mut self, more: impl Fn(&Sim) -> bool) -> Result<(), String> {
        while more(&self.sim) {
            self.sim.run_for(Duration::from_millis(20));
            self.read_journal()?;
        }
        Ok(())
    }

    /// Run until `metrics` has seen `total` answers or the clock reaches
    /// `cap`.
    pub fn run_until_answered(
        &mut self,
        metrics: &Metrics,
        total: u64,
        cap: SimTime,
    ) -> Result<(), String> {
        self.run_while(|sim| metrics.ok_count() + metrics.failed_count() < total && sim.now() < cap)
    }

    pub fn run_for(&mut self, d: Duration) -> Result<(), String> {
        let until = self.sim.now() + d;
        self.run_while(|sim| sim.now() < until)
    }

    /// Copy the batches the pool appended since the last call.
    fn read_journal(&mut self) -> Result<(), String> {
        let Some(kept) = self.journal.as_mut() else { return Ok(()) };
        let pool = self.shared_pool.lock();
        for (g, batches) in kept.iter_mut().enumerate() {
            let Some(store) = pool.group(g as u32) else { continue };
            let after = batches.last().map_or(0, |b| b.sn);
            let new = store.read_journal(after, usize::MAX).ok_or_else(|| {
                format!("group {g}: pool compacted its journal before it was read")
            })?;
            batches.extend(new);
        }
        Ok(())
    }

    /// Add a closed-loop client that runs `script` once and stops.
    pub fn add_client(&mut self, script: Vec<FsOp>, metrics: Arc<Metrics>) -> NodeId {
        let cfg = ClientConfig::new(self.coord, self.partitioner);
        let rng = DetRng::seed_from_u64(0xC11E47 + self.clients);
        self.clients += 1;
        let client = FsClient::new(cfg, Workload::script(script), metrics, rng);
        let name = format!("client-{}", self.clients - 1);
        self.sim.add_node(name, Box::new(Instrumented::new(client, 0, self.shared.clone())))
    }

    /// Probe every live metadata server through its wrapper.
    pub fn probe_all(&mut self) -> BTreeMap<NodeId, ProbeReport> {
        self.shared.probes.lock().expect("probe lock poisoned").clear();
        for &id in self.groups.iter().flatten() {
            if self.sim.node_status(id) == NodeStatus::Up {
                self.sim.send_external(id, Probe);
            }
        }
        self.sim.run_for(Duration::from_millis(10));
        self.shared.probes.lock().expect("probe lock poisoned").clone()
    }
}
