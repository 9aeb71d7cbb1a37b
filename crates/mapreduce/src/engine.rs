//! Job tracker and task workers.
//!
//! Execution model (wordcount-shaped): each map task computes for
//! `map_compute`, then writes one intermediate file per reduce partition
//! through the metadata service; each reduce task stats every map's
//! intermediate file for its partition, computes, and writes one output
//! file. Reduces start only after every map has finished — the dependency
//! that makes Boom-FS's reduce curve "suspend" in the paper's Figure 9.

use std::collections::VecDeque;
use std::sync::Arc;

use mams_cluster::ClientCore;
use mams_core::FsOp;
use mams_namespace::Partitioner;
use mams_sim::{Ctx, Duration, Message, Node, NodeId, Sim};

use crate::stats::JobStats;

/// Worker-local timer tokens (the client core owns tokens ≥ 2^20).
const T_MAP_COMPUTE: u64 = 1;
const T_REDUCE_COMPUTE: u64 = 2;

/// Job shape and costs.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    pub maps: usize,
    pub reduces: usize,
    pub workers: usize,
    pub map_compute: Duration,
    pub reduce_compute: Duration,
}

impl Default for JobSpec {
    fn default() -> Self {
        // ~5 GB input at 128 MB splits → 40 maps, 10 reduces, 8 workers.
        JobSpec {
            maps: 40,
            reduces: 10,
            workers: 8,
            map_compute: Duration::from_secs(10),
            reduce_compute: Duration::from_secs(8),
        }
    }
}

/// Tracker ↔ worker messages.
#[derive(Debug, Clone)]
pub enum MrMsg {
    AssignMap { id: usize },
    AssignReduce { id: usize },
    MapDone { id: usize },
    ReduceDone { id: usize },
}

/// Paths used by the job.
fn intermediate(map: usize, reduce: usize) -> String {
    format!("/job/tmp/m{map}-r{reduce}")
}

fn output(reduce: usize) -> String {
    format!("/job/out/part-{reduce}")
}

/// The tasks' file-system client: the same routing/retry core as the
/// standalone client, with its default one-second attempt timeout.
fn client(coord: NodeId, partitioner: Partitioner) -> ClientCore {
    ClientCore::new(coord, partitioner, Duration::from_secs(1))
}

/// The job tracker: runs setup, assigns tasks, records completions.
pub struct JobTracker {
    spec: JobSpec,
    workers: Vec<NodeId>,
    io: ClientCore,
    stats: Arc<JobStats>,
    setup_pending: usize,
    map_queue: VecDeque<usize>,
    reduce_queue: VecDeque<usize>,
    maps_done: usize,
    reduces_done: usize,
    started_reduce: bool,
}

impl JobTracker {
    pub fn new(
        coord: NodeId,
        partitioner: Partitioner,
        spec: JobSpec,
        workers: Vec<NodeId>,
        stats: Arc<JobStats>,
    ) -> Self {
        JobTracker {
            spec,
            workers,
            io: client(coord, partitioner),
            stats,
            setup_pending: 0,
            map_queue: (0..spec.maps).collect(),
            reduce_queue: (0..spec.reduces).collect(),
            maps_done: 0,
            reduces_done: 0,
            started_reduce: false,
        }
    }

    fn assign_initial_maps(&mut self, ctx: &mut Ctx<'_>) {
        let workers = self.workers.clone();
        for w in workers {
            if let Some(id) = self.map_queue.pop_front() {
                ctx.send(w, MrMsg::AssignMap { id });
            }
        }
    }

    fn begin_reduce_phase(&mut self, ctx: &mut Ctx<'_>) {
        self.started_reduce = true;
        ctx.trace("mr.reduce_phase", String::new);
        let workers = self.workers.clone();
        for w in workers {
            if let Some(id) = self.reduce_queue.pop_front() {
                ctx.send(w, MrMsg::AssignReduce { id });
            }
        }
    }
}

impl Node for JobTracker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.io.start(ctx);
        for dir in ["/job", "/job/tmp", "/job/out"] {
            self.io.submit(ctx, FsOp::Mkdir { path: dir.into() }, None);
            self.setup_pending += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.io.on_timer(ctx, token);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let msg = match self.io.on_message(ctx, msg) {
            Ok(Some(_)) => {
                if self.setup_pending > 0 {
                    self.setup_pending -= 1;
                    if self.setup_pending == 0 {
                        ctx.trace("mr.job_start", String::new);
                        self.stats.job_started(ctx.now().micros());
                        self.assign_initial_maps(ctx);
                    }
                }
                return;
            }
            Ok(None) => return,
            Err(m) => m,
        };
        if let Ok(mr) = msg.downcast::<MrMsg>() {
            match mr {
                MrMsg::MapDone { id } => {
                    self.maps_done += 1;
                    self.stats.map_done(ctx.now().micros());
                    ctx.trace("mr.map_done", || format!("map {id} ({})", self.maps_done));
                    if let Some(next) = self.map_queue.pop_front() {
                        ctx.send(from, MrMsg::AssignMap { id: next });
                    } else if self.maps_done == self.spec.maps && !self.started_reduce {
                        self.begin_reduce_phase(ctx);
                    }
                }
                MrMsg::ReduceDone { id } => {
                    self.reduces_done += 1;
                    self.stats.reduce_done(ctx.now().micros());
                    ctx.trace("mr.reduce_done", || format!("reduce {id} ({})", self.reduces_done));
                    if let Some(next) = self.reduce_queue.pop_front() {
                        ctx.send(from, MrMsg::AssignReduce { id: next });
                    } else if self.reduces_done == self.spec.reduces {
                        self.stats.job_done(ctx.now().micros());
                        ctx.trace("mr.job_done", String::new);
                    }
                }
                MrMsg::AssignMap { .. } | MrMsg::AssignReduce { .. } => {}
            }
        }
    }
}

#[derive(Debug)]
enum TaskState {
    Idle,
    MapComputing { id: usize },
    MapWriting { id: usize, remaining: usize },
    ReduceReading { id: usize, remaining: usize },
    ReduceComputing { id: usize },
    ReduceWriting { id: usize },
}

/// A task worker (one task at a time).
pub struct TaskWorker {
    spec: JobSpec,
    tracker: NodeId,
    io: ClientCore,
    state: TaskState,
}

impl TaskWorker {
    pub fn new(coord: NodeId, partitioner: Partitioner, spec: JobSpec, tracker: NodeId) -> Self {
        TaskWorker { spec, tracker, io: client(coord, partitioner), state: TaskState::Idle }
    }

    fn start_map_write(&mut self, ctx: &mut Ctx<'_>, id: usize) {
        for r in 0..self.spec.reduces {
            self.io.submit(ctx, FsOp::Create { path: intermediate(id, r), replication: 3 }, None);
        }
        self.state = TaskState::MapWriting { id, remaining: self.spec.reduces };
    }

    fn start_reduce_read(&mut self, ctx: &mut Ctx<'_>, id: usize) {
        for m in 0..self.spec.maps {
            self.io.submit(ctx, FsOp::GetFileInfo { path: intermediate(m, id) }, None);
        }
        self.state = TaskState::ReduceReading { id, remaining: self.spec.maps };
    }

    fn op_completed(&mut self, ctx: &mut Ctx<'_>) {
        match &mut self.state {
            TaskState::MapWriting { id, remaining } => {
                *remaining -= 1;
                if *remaining == 0 {
                    let id = *id;
                    self.state = TaskState::Idle;
                    ctx.send(self.tracker, MrMsg::MapDone { id });
                }
            }
            TaskState::ReduceReading { id, remaining } => {
                *remaining -= 1;
                if *remaining == 0 {
                    let id = *id;
                    self.state = TaskState::ReduceComputing { id };
                    ctx.set_timer(self.spec.reduce_compute, T_REDUCE_COMPUTE);
                }
            }
            TaskState::ReduceWriting { id } => {
                let id = *id;
                self.state = TaskState::Idle;
                ctx.send(self.tracker, MrMsg::ReduceDone { id });
            }
            _ => {}
        }
    }
}

impl Node for TaskWorker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.io.start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.io.on_timer(ctx, token) {
            return;
        }
        match (token, &self.state) {
            (T_MAP_COMPUTE, TaskState::MapComputing { id }) => {
                let id = *id;
                self.start_map_write(ctx, id);
            }
            (T_REDUCE_COMPUTE, TaskState::ReduceComputing { id }) => {
                let id = *id;
                self.io.submit(ctx, FsOp::Create { path: output(id), replication: 3 }, None);
                self.state = TaskState::ReduceWriting { id };
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        let msg = match self.io.on_message(ctx, msg) {
            Ok(Some(_)) => {
                self.op_completed(ctx);
                return;
            }
            Ok(None) => return,
            Err(m) => m,
        };
        if let Ok(mr) = msg.downcast::<MrMsg>() {
            match mr {
                MrMsg::AssignMap { id } => {
                    self.state = TaskState::MapComputing { id };
                    ctx.set_timer(self.spec.map_compute, T_MAP_COMPUTE);
                }
                MrMsg::AssignReduce { id } => {
                    self.start_reduce_read(ctx, id);
                }
                _ => {}
            }
        }
    }
}

/// Add a tracker and its workers to the simulation. Returns
/// `(tracker, workers)`.
pub fn build_job(
    sim: &mut Sim,
    coord: NodeId,
    partitioner: Partitioner,
    spec: JobSpec,
    stats: Arc<JobStats>,
) -> (NodeId, Vec<NodeId>) {
    let base = sim.num_nodes() as NodeId;
    let tracker_id = base;
    let worker_ids: Vec<NodeId> = (0..spec.workers as NodeId).map(|i| base + 1 + i).collect();
    let tracker = JobTracker::new(coord, partitioner, spec, worker_ids.clone(), stats);
    let got = sim.add_node("mr-tracker", Box::new(tracker));
    assert_eq!(got, tracker_id);
    for (i, &planned) in worker_ids.iter().enumerate() {
        let w = TaskWorker::new(coord, partitioner, spec, tracker_id);
        let got = sim.add_node(format!("mr-worker-{i}"), Box::new(w));
        assert_eq!(got, planned);
    }
    (tracker_id, worker_ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_cluster::deploy::{build, DeploySpec};
    use mams_sim::{Sim, SimConfig, SimTime};

    fn small_spec() -> JobSpec {
        JobSpec {
            maps: 8,
            reduces: 4,
            workers: 4,
            map_compute: Duration::from_secs(2),
            reduce_compute: Duration::from_secs(1),
        }
    }

    #[test]
    fn job_completes_on_a_healthy_cluster() {
        let mut sim = Sim::new(SimConfig::default());
        let d = build(&mut sim, DeploySpec { standbys_per_group: 2, ..DeploySpec::default() });
        let stats = JobStats::new();
        build_job(&mut sim, d.coord, d.partitioner, small_spec(), stats.clone());
        sim.run_for(Duration::from_secs(60));
        assert_eq!(stats.maps_done().len(), 8);
        assert_eq!(stats.reduces_done().len(), 4);
        assert!(stats.job_done_at().is_some());
        // Reduces strictly after the last map.
        let last_map = *stats.maps_done().last().unwrap();
        assert!(stats.reduces_done().iter().all(|&r| r > last_map));
    }

    #[test]
    fn mid_job_failover_delays_but_does_not_kill_the_job() {
        let mut sim = Sim::new(SimConfig::default());
        let d = build(&mut sim, DeploySpec { standbys_per_group: 3, ..DeploySpec::default() });
        let active = d.initial_active(0);
        let stats = JobStats::new();
        build_job(&mut sim, d.coord, d.partitioner, small_spec(), stats.clone());
        sim.at(SimTime(3_000_000), move |s| s.crash(active));
        sim.run_for(Duration::from_secs(120));
        assert_eq!(stats.maps_done().len(), 8, "all maps finish despite failover");
        assert_eq!(stats.reduces_done().len(), 4);
        assert!(stats.job_done_at().is_some());
    }
}
