//! The client's retry budget, held for both nodes that embed the client
//! core: the closed-loop `FsClient` and a MapReduce `TaskWorker`.
//!
//! A fake coordinator publishes one group's active, and a fake metadata
//! server counts the requests it receives.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mams_cluster::{ClientConfig, FsClient, Metrics, Workload};
use mams_coord::{CoordReq, CoordResp};
use mams_core::{FsOp, MdsReq, MdsResp, OpOutput};
use mams_mapreduce::{JobSpec, MrMsg, TaskWorker};
use mams_namespace::Partitioner;
use mams_sim::{Ctx, DetRng, Duration, Message, Node, NodeId, Sim, SimConfig, SimTime};

const OP_AT: SimTime = SimTime(500_000);

/// Answers view listings; the active becomes visible at `visible_from`.
/// Watches get no events, so only a listing teaches the client the route.
struct FakeCoord {
    mds: NodeId,
    visible_from: SimTime,
}

impl Node for FakeCoord {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        if let Ok(CoordReq::List { prefix, req }) = msg.downcast::<CoordReq>() {
            let entries = if ctx.now() >= self.visible_from {
                vec![(mams_core::keys::active(0), self.mds.to_string())]
            } else {
                Vec::new()
            };
            ctx.send(from, CoordResp::Listing { prefix, entries, req });
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// Replies `NotActive` until `serve_from`, then `Ok`. Counts every request
/// and remembers when the first one arrived.
struct FakeMds {
    serve_from: SimTime,
    requests: Arc<AtomicU64>,
    first_at_us: Arc<AtomicU64>,
}

impl Node for FakeMds {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        if let Ok(MdsReq::Op { seq, .. }) = msg.downcast::<MdsReq>() {
            if self.requests.fetch_add(1, Ordering::Relaxed) == 0 {
                self.first_at_us.store(ctx.now().micros(), Ordering::Relaxed);
            }
            let resp = if ctx.now() >= self.serve_from {
                MdsResp::Reply { seq, result: Ok(OpOutput::Done) }
            } else {
                MdsResp::NotActive { seq }
            };
            ctx.send(from, resp);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

#[derive(Clone, Copy)]
enum Host {
    Client,
    Worker,
}

/// Run one op issued at `OP_AT` by `host` against the fakes; returns the
/// request count and the first request's arrival time.
fn run(host: Host, visible_from: SimTime, serve_from: SimTime) -> (u64, SimTime) {
    let mut sim = Sim::new(SimConfig::default());
    let requests = Arc::new(AtomicU64::new(0));
    let first_at_us = Arc::new(AtomicU64::new(0));
    let coord = sim.add_node("coord", Box::new(FakeCoord { mds: 1, visible_from }));
    let mds = sim.add_node(
        "mds",
        Box::new(FakeMds {
            serve_from,
            requests: requests.clone(),
            first_at_us: first_at_us.clone(),
        }),
    );
    assert_eq!(mds, 1);
    let partitioner = Partitioner::new(1);
    match host {
        Host::Client => {
            let mut cfg = ClientConfig::new(coord, partitioner);
            cfg.start_delay = Duration::from_micros(OP_AT.micros());
            cfg.max_ops = Some(1);
            let script = Workload::script(vec![FsOp::GetFileInfo { path: "/x".into() }]);
            let client = FsClient::new(cfg, script, Metrics::new(false), DetRng::seed_from_u64(1));
            sim.add_node("client", Box::new(client));
        }
        Host::Worker => {
            // One map, so the reduce reads one intermediate file; its
            // compute outlasts the run, so no second op is issued.
            let spec = JobSpec {
                maps: 1,
                reduces: 1,
                workers: 1,
                map_compute: Duration::from_secs(1),
                reduce_compute: Duration::from_secs(1_000),
            };
            let worker =
                sim.add_node("worker", Box::new(TaskWorker::new(coord, partitioner, spec, coord)));
            sim.at(OP_AT, move |s| s.send_external(worker, MrMsg::AssignReduce { id: 0 }));
        }
    }
    sim.run_for(Duration::from_secs(10));
    (requests.load(Ordering::Relaxed), SimTime(first_at_us.load(Ordering::Relaxed)))
}

/// `NotActive` until t = 5 s: one request per 50 ms backoff (90 of them
/// from 0.5 s) plus the one that succeeds, not an exponential storm.
fn holds_the_not_active_backoff(host: Host) {
    let (requests, _) = run(host, SimTime::ZERO, SimTime(5_000_000));
    assert!(requests <= 92, "{requests} requests for one op");
}

/// The op's first attempt finds no active and is sent as soon as the
/// listing it triggered names one, well before the 1 s attempt timeout.
fn resends_a_swallowed_first_attempt_on_the_listing(host: Host) {
    let (requests, first_at) = run(host, OP_AT, SimTime::ZERO);
    assert_eq!(requests, 1);
    assert!(first_at < SimTime(OP_AT.micros() + 100_000), "first request at {first_at:?}");
}

#[test]
fn client_holds_the_not_active_backoff() {
    holds_the_not_active_backoff(Host::Client);
}

#[test]
fn task_worker_holds_the_not_active_backoff() {
    holds_the_not_active_backoff(Host::Worker);
}

#[test]
fn client_resends_a_swallowed_first_attempt_on_the_listing() {
    resends_a_swallowed_first_attempt_on_the_listing(Host::Client);
}

#[test]
fn task_worker_resends_a_swallowed_first_attempt_on_the_listing() {
    resends_a_swallowed_first_attempt_on_the_listing(Host::Worker);
}
