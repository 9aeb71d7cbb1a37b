//! The benchmark's only instrument: a [`Node`] wrapper that sits around
//! every node of the cluster.
//!
//! It does three things, none of which changes what the wrapped node does
//! or what it sends, so simulated results are identical with and without
//! it:
//!
//! - It answers the benchmark-defined [`Probe`] message from the wrapped
//!   node's public getters, so the end-of-run checks read replica state
//!   without any change to the program.
//! - Around `MdsServer`s it notes role transitions (one field compare per
//!   callback). `renew_sim_s` and the failover breakdown come from them.
//! - In the measured window of a traced round only, it times every
//!   `on_start`/`on_message`/`on_timer` call into the layer's public
//!   `Node` impl and stores one [`Span`] per call in a preallocated
//!   buffer, labelled by role and message kind. Labels are small enums,
//!   never strings.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mams_cluster::{DataServer, FsClient};
use mams_coord::{CoordEvent, CoordReq, CoordResp, CoordServer};
use mams_core::{GroupMsg, MdsReq, MdsResp, MdsServer, Role};
use mams_sim::{Ctx, Message, Node, NodeId};
use mams_storage::{PoolNode, PoolReq, PoolResp};

/// `MdsServer`'s flush-tick timer token (`T_FLUSH` in mams-core's server
/// module): ingress drain, namespace exec, retry window, seal and fan-out.
const FLUSH_TICK: u64 = 1;

/// Benchmark-defined probe, answered by the wrapper, never by the node.
#[derive(Debug, Clone)]
pub struct Probe;

/// What a probe reads from an `MdsServer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeReport {
    pub role: Role,
    pub fingerprint: u64,
    pub applied_sn: u64,
    pub divergences: u64,
}

/// Which layer a node belongs to; for metadata servers the span label is
/// the role it held when the call began.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Who {
    Active,
    Standby,
    Junior,
    Electing,
    Upgrading,
    Pool,
    Coord,
    Data,
    Client,
}

impl Who {
    fn of_role(role: Role) -> Who {
        match role {
            Role::Active => Who::Active,
            Role::Standby => Who::Standby,
            Role::Junior => Who::Junior,
            Role::Electing => Who::Electing,
            Role::Upgrading => Who::Upgrading,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Who::Active => "active",
            Who::Standby => "standby",
            Who::Junior => "junior",
            Who::Electing => "electing",
            Who::Upgrading => "upgrading",
            Who::Pool => "pool",
            Who::Coord => "coord",
            Who::Data => "data",
            Who::Client => "client",
        }
    }
}

/// What a call handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Start,
    FlushTick,
    Timer,
    ClientOp,
    MdsAdmin,
    SyncJournal,
    SyncAck,
    Membership,
    Renew,
    XGroupApply,
    XGroupAck,
    PoolAppend,
    PoolWriteArtifact,
    PoolRead,
    PoolResp,
    Coord,
    Reply,
    NotActive,
    Other,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Start => "start",
            Kind::FlushTick => "flush_tick",
            Kind::Timer => "timer",
            Kind::ClientOp => "MdsReq::Op",
            Kind::MdsAdmin => "MdsReq::admin",
            Kind::SyncJournal => "GroupMsg::SyncJournal",
            Kind::SyncAck => "GroupMsg::SyncAck",
            Kind::Membership => "GroupMsg::Register*",
            Kind::Renew => "GroupMsg::Renew*",
            Kind::XGroupApply => "GroupMsg::XGroupApply",
            Kind::XGroupAck => "GroupMsg::XGroupAck",
            Kind::PoolAppend => "PoolReq::AppendJournal",
            Kind::PoolWriteArtifact => "PoolReq::Write{Image,Delta}",
            Kind::PoolRead => "PoolReq::read",
            Kind::PoolResp => "PoolResp",
            Kind::Coord => "coord",
            Kind::Reply => "MdsResp::Reply",
            Kind::NotActive => "MdsResp::NotActive",
            Kind::Other => "other",
        }
    }
}

/// Cause tags: a client op is `(client, seq)`, journal traffic its batch sn.
const CAUSE_OP: u64 = 1 << 63;
const CAUSE_SN: u64 = 1 << 62;

fn op_cause(client: NodeId, seq: u64) -> u64 {
    CAUSE_OP | (u64::from(client) & 0xFF_FFFF) << 38 | (seq & ((1 << 38) - 1))
}

/// One timed call. The span id is its index in the buffer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, in ns since the traced round began.
    pub start_ns: u64,
    pub dur_ns: u32,
    pub node: u16,
    pub who: Who,
    pub kind: Kind,
    /// `(client, seq)` of a client op or the sn of a journal batch, tagged
    /// in the top bits; 0 when the call has no single cause.
    pub cause: u64,
}

/// A role change seen after a call into an `MdsServer`.
#[derive(Debug, Clone, Copy)]
pub struct Transition {
    pub at_us: u64,
    pub node: NodeId,
    pub to: Role,
}

/// One journal batch as counted from `SyncJournal` payloads.
#[derive(Debug, Clone, Copy)]
pub struct BatchSeen {
    pub records: u32,
    pub wire_bytes: u32,
}

/// The traced run's in-memory record.
pub struct Recorder {
    /// When tracing was switched on (the start of the measured window).
    pub origin: Instant,
    pub spans: Vec<Span>,
    /// Distinct `(group, sn)` batches fanned out to standbys.
    pub batches: HashMap<(u32, u64), BatchSeen>,
    /// Bytes the pool nodes were asked to store.
    pub pool_bytes_in: u64,
    /// `SyncJournal` deliveries applied by standbys.
    pub standby_batches: u64,
}

impl Recorder {
    pub fn empty() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            batches: HashMap::new(),
            pool_bytes_in: 0,
            standby_batches: 0,
        }
    }
}

/// State shared between the wrappers and the rounds that read it.
pub struct Shared {
    /// Off during set-up and in every timed round.
    tracing: AtomicBool,
    recorder: Mutex<Recorder>,
    pub transitions: Mutex<Vec<Transition>>,
    pub probes: Mutex<BTreeMap<NodeId, ProbeReport>>,
}

impl Shared {
    pub fn new() -> Arc<Shared> {
        Arc::new(Shared {
            tracing: AtomicBool::new(false),
            recorder: Mutex::new(Recorder::empty()),
            transitions: Mutex::new(Vec::new()),
            probes: Mutex::new(BTreeMap::new()),
        })
    }

    /// Start recording spans into a buffer preallocated for `capacity`.
    pub fn start_tracing(&self, capacity: usize) {
        let mut rec = self.recorder();
        rec.spans = Vec::with_capacity(capacity);
        rec.origin = Instant::now();
        self.tracing.store(true, Ordering::Relaxed);
    }

    pub fn stop_tracing(&self) {
        self.tracing.store(false, Ordering::Relaxed);
    }

    pub fn recorder(&self) -> MutexGuard<'_, Recorder> {
        self.recorder.lock().expect("recorder lock poisoned")
    }
}

/// Read access a wrapper needs to the node inside it.
pub trait Inspect: Node {
    const WHO: Who;
    fn role(&self) -> Option<Role> {
        None
    }
    fn probe(&self) -> Option<ProbeReport> {
        None
    }
}

impl Inspect for MdsServer {
    // Unused: spans of a metadata server are labelled by its role.
    const WHO: Who = Who::Standby;
    fn role(&self) -> Option<Role> {
        Some(MdsServer::role(self))
    }
    fn probe(&self) -> Option<ProbeReport> {
        Some(ProbeReport {
            role: MdsServer::role(self),
            fingerprint: self.fingerprint(),
            applied_sn: self.applied_sn(),
            divergences: self.divergences(),
        })
    }
}

impl Inspect for PoolNode {
    const WHO: Who = Who::Pool;
}

impl Inspect for CoordServer {
    const WHO: Who = Who::Coord;
}

impl Inspect for DataServer {
    const WHO: Who = Who::Data;
}

impl Inspect for FsClient {
    const WHO: Who = Who::Client;
}

/// Label a message and find its cause; byte counts feed the journal and
/// pool metrics. Only the traced run calls this.
fn classify(
    rec: &mut Recorder,
    group: u32,
    who: Who,
    (from, to): (NodeId, NodeId),
    msg: &Message,
) -> (Kind, u64) {
    if let Some(req) = msg.downcast_ref::<MdsReq>() {
        return match req {
            MdsReq::Op { seq, .. } | MdsReq::OpSpec { seq, .. } => {
                (Kind::ClientOp, op_cause(from, *seq))
            }
            MdsReq::Checkpoint | MdsReq::BlockReport { .. } => (Kind::MdsAdmin, 0),
        };
    }
    if let Some(gm) = msg.downcast_ref::<GroupMsg>() {
        return match gm {
            GroupMsg::SyncJournal { batch, .. } => {
                if who == Who::Standby {
                    rec.standby_batches += 1;
                }
                rec.batches.entry((group, batch.sn)).or_insert_with(|| BatchSeen {
                    records: batch.records.len() as u32,
                    wire_bytes: batch.wire().len() as u32,
                });
                (Kind::SyncJournal, CAUSE_SN | batch.sn)
            }
            GroupMsg::SyncAck { sn } => (Kind::SyncAck, CAUSE_SN | sn),
            GroupMsg::Register { .. } | GroupMsg::RegisterAck { .. } => (Kind::Membership, 0),
            GroupMsg::RenewStart { .. }
            | GroupMsg::RenewProgress { .. }
            | GroupMsg::RenewJournal { .. } => (Kind::Renew, 0),
            GroupMsg::XGroupApply { .. } => (Kind::XGroupApply, 0),
            GroupMsg::XGroupAck { .. } => (Kind::XGroupAck, 0),
        };
    }
    if let Some(req) = msg.downcast_ref::<PoolReq>() {
        return match req {
            PoolReq::AppendJournal { batch, .. } => {
                rec.pool_bytes_in += batch.wire().len() as u64;
                (Kind::PoolAppend, CAUSE_SN | batch.sn)
            }
            PoolReq::WriteImage { image, .. } => {
                rec.pool_bytes_in += image.size_bytes();
                (Kind::PoolWriteArtifact, 0)
            }
            PoolReq::WriteDelta { delta, .. } => {
                rec.pool_bytes_in += delta.size_bytes();
                (Kind::PoolWriteArtifact, 0)
            }
            _ => (Kind::PoolRead, 0),
        };
    }
    if let Some(resp) = msg.downcast_ref::<PoolResp>() {
        let cause = match resp {
            PoolResp::AppendOk { sn, .. } => CAUSE_SN | sn,
            _ => 0,
        };
        return (Kind::PoolResp, cause);
    }
    let resp = msg
        .downcast_ref::<MdsResp>()
        .or_else(|| msg.downcast_ref::<Arc<MdsResp>>().map(|a| a.as_ref()));
    if let Some(resp) = resp {
        return match resp {
            MdsResp::Reply { seq, .. } | MdsResp::ReplySpec { seq, .. } => {
                (Kind::Reply, op_cause(to, *seq))
            }
            MdsResp::NotActive { seq } => (Kind::NotActive, op_cause(to, *seq)),
        };
    }
    if msg.is::<CoordReq>() || msg.is::<CoordResp>() || msg.is::<CoordEvent>() {
        return (Kind::Coord, 0);
    }
    (Kind::Other, 0)
}

/// The wrapper. `N` is the concrete node type so the wrapper can read its
/// public getters.
pub struct Instrumented<N> {
    inner: N,
    group: u32,
    shared: Arc<Shared>,
    role: Option<Role>,
}

impl<N: Inspect> Instrumented<N> {
    pub fn new(inner: N, group: u32, shared: Arc<Shared>) -> Self {
        let role = inner.role();
        Instrumented { inner, group, shared, role }
    }

    fn note_role(&mut self, ctx: &Ctx<'_>) {
        let now = self.inner.role();
        if now != self.role {
            if let Some(to) = now {
                self.shared
                    .transitions
                    .lock()
                    .expect("transitions lock poisoned")
                    .push(Transition { at_us: ctx.now().micros(), node: ctx.id(), to });
            }
            self.role = now;
        }
    }

    /// The span label of the next call, or `None` when not tracing.
    fn label(
        &self,
        classify: impl FnOnce(&mut Recorder, Who) -> (Kind, u64),
    ) -> Option<(Who, Kind, u64)> {
        if !self.shared.tracing.load(Ordering::Relaxed) {
            return None;
        }
        let who = self.role.map_or(N::WHO, Who::of_role);
        let (kind, cause) = classify(&mut self.shared.recorder(), who);
        Some((who, kind, cause))
    }

    /// Run one call; with a label, time it into a span.
    fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        label: Option<(Who, Kind, u64)>,
        f: impl FnOnce(&mut N, &mut Ctx<'_>),
    ) {
        let Some((who, kind, cause)) = label else {
            f(&mut self.inner, ctx);
            self.note_role(ctx);
            return;
        };
        let t0 = Instant::now();
        f(&mut self.inner, ctx);
        let t1 = Instant::now();
        let mut rec = self.shared.recorder();
        let span = Span {
            start_ns: t0.saturating_duration_since(rec.origin).as_nanos() as u64,
            dur_ns: t1.duration_since(t0).as_nanos().min(u128::from(u32::MAX)) as u32,
            node: ctx.id() as u16,
            who,
            kind,
            cause,
        };
        rec.spans.push(span);
        drop(rec);
        self.note_role(ctx);
    }
}

impl<N: Inspect> Node for Instrumented<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let label = self.label(|_, _| (Kind::Start, 0));
        self.call(ctx, label, |n, ctx| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        if msg.is::<Probe>() {
            if let Some(report) = self.inner.probe() {
                self.shared.probes.lock().expect("probe lock poisoned").insert(ctx.id(), report);
            }
            return;
        }
        let (group, to) = (self.group, ctx.id());
        let label = self.label(|rec, who| classify(rec, group, who, (from, to), &msg));
        self.call(ctx, label, move |n, ctx| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let kind = if token == FLUSH_TICK && self.role == Some(Role::Active) {
            Kind::FlushTick
        } else {
            Kind::Timer
        };
        let label = self.label(|_, _| (kind, 0));
        self.call(ctx, label, |n, ctx| n.on_timer(ctx, token));
    }
}
