//! The file-system client: partition routing, active discovery through the
//! global view, and transparent retry across failovers.
//!
//! "Benefiting from our namespace partition strategy, the client can
//! reconnect to the new active directly and automatically after
//! active-standby switching and resend requests when needed. As the process
//! is completely transparent to applications, the file system sees no
//! errors occur in the case of failures." (Section III-C.)
//!
//! [`ClientCore`] is that mechanism, for any number of outstanding
//! operations; any node can embed it (the MapReduce tasks do). [`FsClient`]
//! is the closed-loop benchmark client built on it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mams_coord::{CoordEvent, CoordReq, CoordResp};
use mams_core::{FsOp, MdsReq, MdsResp, OpOutput};
use mams_namespace::Partitioner;
use mams_sim::{Ctx, DetRng, Duration, Message, Node, NodeId, SimTime};

use crate::history::Recorder;
use crate::metrics::Metrics;
use crate::workload::Workload;

const T_START: u64 = 1;
const T_NEXT: u64 = 2;
/// Seqs start above zero so every operation timer token is at least
/// `1 << 20`: tokens below that belong to the node embedding the core.
const SEQ_BASE: u64 = 1_000;
const ATTEMPT_BITS: u32 = 20;
const ATTEMPT_MASK: u64 = (1 << ATTEMPT_BITS) - 1;
/// Retry delay after a `NotActive` reply (stale routing).
const NOT_ACTIVE_RETRY: Duration = Duration::from_millis(50);

/// Retry timers are scoped to `(seq, attempt)`: a firing only acts if the
/// op is still outstanding *on that same attempt*. Without the attempt
/// scope, a fast retry (NotActive backoff) and the per-attempt timeout both
/// stay armed for the same op, and each firing re-arms both — under a
/// persistently unavailable group the live timer chains double on every
/// round and the client melts down in an exponential retry storm.
fn op_token(seq: u64, attempts: u32) -> u64 {
    (seq << ATTEMPT_BITS) | (u64::from(attempts) & ATTEMPT_MASK)
}

/// A retried mutation may hit the result of its own earlier, half-acked
/// execution; reconcile those errors into successes.
fn reconcile_retry(op: &FsOp, err: &str) -> bool {
    match op {
        FsOp::Create { .. } | FsOp::Mkdir { .. } => err.contains("already exists"),
        FsOp::Delete { .. } | FsOp::Rename { .. } => err.contains("no such file"),
        _ => false,
    }
}

#[derive(Debug)]
struct Pending {
    op: FsOp,
    group: u32,
    attempts: u32,
    /// Whether the current attempt reached an active (false: no active
    /// was known, so it waits for the next view listing).
    sent: bool,
    /// `Some(t)`: speculative request carrying `t` as its `min_token`.
    min_token: Option<u64>,
}

/// A finished operation, as [`ClientCore::on_message`] reports it.
#[derive(Debug)]
pub struct Finished {
    pub op: FsOp,
    pub attempts: u32,
    /// The server's reply, unmodified.
    pub result: Result<OpOutput, String>,
    /// Whether the reply counts as success: `Ok`, or on a retry an error
    /// that matches the op's own earlier execution.
    pub ok: bool,
    /// Ordering token of a speculative reply.
    pub token: Option<u64>,
}

/// Routing, retry and reconciliation for any number of outstanding
/// operations. The embedding node forwards its timers and messages; timer
/// tokens below `1 << 20` are left to it.
pub struct ClientCore {
    coord: NodeId,
    partitioner: Partitioner,
    op_timeout: Duration,
    actives: HashMap<u32, NodeId>,
    /// Keyed by seq; ordered, so listing resends are deterministic.
    pending: BTreeMap<u64, Pending>,
    next_seq: u64,
    /// Receipt watermark piggybacked on every request: seqs are issued in
    /// order, so every reply below the lowest outstanding seq has been
    /// received. The server evicts exactly those retry-cache entries.
    acked: u64,
}

impl ClientCore {
    pub fn new(coord: NodeId, partitioner: Partitioner, op_timeout: Duration) -> Self {
        ClientCore {
            coord,
            partitioner,
            op_timeout,
            actives: HashMap::new(),
            pending: BTreeMap::new(),
            next_seq: SEQ_BASE,
            acked: 0,
        }
    }

    /// Subscribe to the global view. Call from `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.coord, CoordReq::Watch { prefix: "g/".into(), req: 0 });
        self.refresh_view(ctx);
    }

    fn refresh_view(&self, ctx: &mut Ctx<'_>) {
        ctx.send(self.coord, CoordReq::List { prefix: "g/".into(), req: 0 });
    }

    /// Issue `op`; its completion comes back through
    /// [`ClientCore::on_message`]. `min_token` makes it a speculative
    /// request (`MdsReq::OpSpec`).
    pub fn submit(&mut self, ctx: &mut Ctx<'_>, op: FsOp, min_token: Option<u64>) {
        self.next_seq += 1;
        let seq = self.next_seq;
        let group = self.partitioner.owner(op.primary_path());
        self.pending.insert(seq, Pending { op, group, attempts: 0, sent: false, min_token });
        self.attempt(ctx, seq);
    }

    fn attempt(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        let Some(p) = self.pending.get_mut(&seq) else { return };
        p.attempts += 1;
        let token = op_token(seq, p.attempts);
        if !self.send(ctx, seq) {
            self.refresh_view(ctx);
        }
        ctx.set_timer(self.op_timeout, token);
    }

    /// Send op `seq` to its group's active, if one is known.
    fn send(&mut self, ctx: &mut Ctx<'_>, seq: u64) -> bool {
        let acked = self.acked;
        let p = self.pending.get_mut(&seq).expect("pending op");
        let Some(&active) = self.actives.get(&p.group) else {
            p.sent = false;
            return false;
        };
        p.sent = true;
        let op = p.op.clone();
        let req = match p.min_token {
            Some(min_token) => MdsReq::OpSpec { op, seq, min_token, acked },
            None => MdsReq::Op { op, seq, acked },
        };
        ctx.send(active, req);
        true
    }

    /// Feed a timer through; `false` if it is the embedding node's.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        let seq = token >> ATTEMPT_BITS;
        if seq == 0 {
            return false;
        }
        // Re-resolve the active and resend with the same seq (server-side
        // duplicate suppression makes this safe). Timers of superseded
        // attempts are inert, so at most one retry chain is live per op.
        if self.pending.get(&seq).is_some_and(|p| op_token(seq, p.attempts) == token) {
            self.refresh_view(ctx);
            self.attempt(ctx, seq);
        }
        true
    }

    fn absorb_active(&mut self, key: &str, value: Option<&str>) {
        if let Some(group) = mams_core::keys::parse_active_key(key) {
            match value.and_then(|v| v.parse().ok()) {
                Some(n) => {
                    self.actives.insert(group, n);
                }
                None => {
                    self.actives.remove(&group);
                }
            }
        }
    }

    fn finish(
        &mut self,
        seq: u64,
        result: Result<OpOutput, String>,
        token: Option<u64>,
    ) -> Option<Finished> {
        let p = self.pending.remove(&seq)?; // stale reply
        self.acked = self.pending.keys().next().map_or(self.next_seq, |&m| m - 1);
        let ok = match &result {
            Ok(_) => true,
            Err(e) => p.attempts > 1 && reconcile_retry(&p.op, e),
        };
        Some(Finished { op: p.op, attempts: p.attempts, result, ok, token })
    }

    /// Feed a message through: `Ok(Some(_))` when it finished an operation,
    /// `Ok(None)` when it was other client traffic, `Err` when it is the
    /// embedding node's.
    pub fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Message,
    ) -> Result<Option<Finished>, Message> {
        let msg = match MdsResp::from_message(msg) {
            Ok(MdsResp::Reply { seq, result }) => return Ok(self.finish(seq, result, None)),
            Ok(MdsResp::ReplySpec { seq, result, token }) => {
                return Ok(self.finish(seq, result, Some(token)));
            }
            Ok(MdsResp::NotActive { seq }) => {
                if let Some(p) = self.pending.get(&seq) {
                    // Stale routing: refresh and retry shortly. The fast
                    // timer shares the current attempt's token, so whichever
                    // of it and the full timeout fires first supersedes the
                    // other.
                    let token = op_token(seq, p.attempts);
                    self.refresh_view(ctx);
                    ctx.set_timer(NOT_ACTIVE_RETRY, token);
                }
                return Ok(None);
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CoordEvent>() {
            Ok(CoordEvent::KeyChanged { key, value, .. }) => {
                self.absorb_active(&key, value.as_deref());
                return Ok(None);
            }
            Ok(_) => return Ok(None),
            Err(m) => m,
        };
        match msg.downcast::<CoordResp>() {
            Ok(CoordResp::Listing { entries, .. }) => {
                for (k, v) in &entries {
                    self.absorb_active(k, Some(v));
                }
                // An attempt that found no active was never sent; push it
                // out now rather than waiting for its timeout.
                let unsent: Vec<u64> =
                    self.pending.iter().filter(|(_, p)| !p.sent).map(|(&s, _)| s).collect();
                for seq in unsent {
                    self.send(ctx, seq);
                }
                Ok(None)
            }
            Ok(_) => Ok(None),
            Err(m) => Err(m),
        }
    }
}

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub coord: NodeId,
    pub partitioner: Partitioner,
    /// Per-attempt timeout before re-resolving the active and resending.
    pub op_timeout: Duration,
    /// Grace period before the first operation (cluster boot).
    pub start_delay: Duration,
    /// Stop after this many completed operations (`None` = run forever).
    pub max_ops: Option<u64>,
    /// Pause between a completion and the next operation (zero = closed
    /// loop at full speed). Chaos runs use this to pace bounded histories
    /// across long fault windows.
    pub think: Duration,
    /// When set, every operation's invocation/completion is logged for
    /// linearizability checking.
    pub history: Option<Recorder>,
    /// Opt into speculative acks (`MdsReq::OpSpec`): mutations acknowledge
    /// on apply (before durability) with an ordering token, and reads carry
    /// the last token so the server enforces read-your-writes. A token
    /// regression on a reply means a failover discarded acked operations.
    pub speculative: bool,
}

impl ClientConfig {
    pub fn new(coord: NodeId, partitioner: Partitioner) -> Self {
        ClientConfig {
            coord,
            partitioner,
            op_timeout: Duration::from_millis(1_000),
            start_delay: Duration::from_millis(500),
            max_ops: None,
            think: Duration::ZERO,
            history: None,
            speculative: false,
        }
    }
}

/// The outstanding operation's client-side bookkeeping.
#[derive(Debug)]
struct Current {
    issued: SimTime,
    /// The private-directory setup mkdir (idempotent by construction).
    is_setup: bool,
    /// Index of this op's record in the history log, when recording.
    rec: Option<usize>,
}

/// A closed-loop client (one outstanding operation).
pub struct FsClient {
    cfg: ClientConfig,
    core: ClientCore,
    workload: Workload,
    metrics: Arc<Metrics>,
    rng: DetRng,
    current: Option<Current>,
    setup: Option<String>,
    completed: u64,
    /// Last ordering token seen (speculative mode); sent as `min_token`.
    last_token: u64,
}

impl FsClient {
    pub fn new(cfg: ClientConfig, workload: Workload, metrics: Arc<Metrics>, rng: DetRng) -> Self {
        let setup = workload.setup_dir();
        let core = ClientCore::new(cfg.coord, cfg.partitioner, cfg.op_timeout);
        FsClient {
            cfg,
            core,
            workload,
            metrics,
            rng,
            current: None,
            setup,
            completed: 0,
            last_token: 0,
        }
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.current.is_some() {
            return;
        }
        if let Some(max) = self.cfg.max_ops {
            if self.completed >= max {
                return;
            }
        }
        let mut is_setup = false;
        let op = if let Some(dir) = self.setup.take() {
            is_setup = true;
            FsOp::Mkdir { path: dir }
        } else {
            match self.workload.next_op(&mut self.rng) {
                Some(op) => op,
                None => return, // stream exhausted
            }
        };
        let rec = self
            .cfg
            .history
            .as_ref()
            .map(|h| h.log.invoke(h.client, op.clone(), is_setup, ctx.now().micros()));
        self.current = Some(Current { issued: ctx.now(), is_setup, rec });
        let min_token = self.cfg.speculative.then_some(self.last_token);
        self.core.submit(ctx, op, min_token);
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, f: Finished) {
        let cur = self.current.take().expect("outstanding op");
        if let Some(t) = f.token {
            if t < self.last_token {
                // The active changed and our speculatively acked suffix was
                // discarded — the opt-in contract's loss signal.
                ctx.trace("client.spec_token_regressed", || {
                    format!("token {t} < last {}", self.last_token)
                });
            }
            // Adopt the server's timeline either way; subsequent reads wait
            // on it, not on the discarded one.
            self.last_token = t;
        }
        let ok =
            f.ok || cur.is_setup && f.result.as_ref().is_err_and(|e| e.contains("already exists"));
        if !ok {
            // A genuine error (e.g. AlreadyExists on a first attempt) is an
            // application-level failure; trace it for diagnosis.
            let err = f.result.as_ref().err().cloned().unwrap_or_default();
            ctx.trace("client.op_failed", || format!("{:?}: {err}", f.op));
        }
        self.metrics.record(cur.issued, ctx.now(), ok);
        if let (Some(idx), Some(h)) = (cur.rec, self.cfg.history.as_ref()) {
            h.log.complete(idx, ctx.now().micros(), &f.result, ok, f.attempts);
            if let Some(t) = f.token {
                h.log.set_spec_token(idx, t);
            }
        }
        self.completed += 1;
        if self.cfg.think > Duration::ZERO {
            ctx.set_timer(self.cfg.think, T_NEXT);
        } else {
            self.issue_next(ctx);
        }
    }
}

impl Node for FsClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.start(ctx);
        ctx.set_timer(self.cfg.start_delay, T_START);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if !self.core.on_timer(ctx, token) && (token == T_START || token == T_NEXT) {
            self.issue_next(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        if let Ok(Some(f)) = self.core.on_message(ctx, msg) {
            self.finish(ctx, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::workload::Workload;
    use mams_coord::{CoordConfig, CoordServer};
    use mams_core::OpOutput;
    use mams_sim::{Sim, SimConfig};

    #[test]
    fn reconcile_only_accepts_own_echoes() {
        let create = FsOp::Create { path: "/f".into(), replication: 1 };
        assert!(reconcile_retry(&create, "/f: already exists"));
        assert!(!reconcile_retry(&create, "/f: no such file or directory"));
        let del = FsOp::Delete { path: "/f".into(), recursive: false };
        assert!(reconcile_retry(&del, "/f: no such file or directory"));
        assert!(!reconcile_retry(&del, "/f: directory not empty"));
        let read = FsOp::GetFileInfo { path: "/f".into() };
        assert!(!reconcile_retry(&read, "/f: already exists"));
    }

    /// A fake MDS that ignores the first `drop_n` requests (forcing client
    /// timeouts + same-seq resends), then answers; duplicate seqs must not
    /// be double-counted by the client.
    struct FlakyMds {
        drop_n: usize,
        seen: Vec<u64>,
        coord: NodeId,
        published: bool,
    }

    impl Node for FlakyMds {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.coord, mams_coord::CoordReq::Register);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if msg.is::<mams_coord::CoordResp>() {
                if !self.published {
                    self.published = true;
                    ctx.send(
                        self.coord,
                        mams_coord::CoordReq::Multi {
                            ops: vec![mams_coord::KeyOp::Set {
                                key: mams_core::keys::active(0),
                                value: ctx.id().to_string(),
                                ephemeral: true,
                            }],
                            req: 1,
                        },
                    );
                    ctx.send(self.coord, mams_coord::CoordReq::Heartbeat);
                }
                return;
            }
            if let Ok(mams_core::MdsReq::Op { seq, .. }) = msg.downcast::<mams_core::MdsReq>() {
                self.seen.push(seq);
                if self.drop_n > 0 {
                    self.drop_n -= 1;
                    return; // swallow: client must time out and resend
                }
                ctx.send(from, MdsResp::Reply { seq, result: Ok(OpOutput::Done) });
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
    }

    #[test]
    fn client_resends_with_the_same_seq_after_timeout() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let mds = sim.add_node(
            "mds",
            Box::new(FlakyMds { drop_n: 2, seen: Vec::new(), coord, published: false }),
        );
        let m = Metrics::new(true);
        let mut cfg = ClientConfig::new(coord, Partitioner::new(1));
        cfg.max_ops = Some(1);
        sim.add_node(
            "client",
            Box::new(FsClient::new(
                cfg,
                Workload::script(vec![FsOp::Mkdir { path: "/x".into() }]),
                m.clone(),
                DetRng::seed_from_u64(1),
            )),
        );
        sim.run_for(Duration::from_secs(10));
        assert_eq!(m.ok_count(), 1, "exactly one completion");
        // Latency includes the two dropped attempts (two 1 s timeouts).
        let c = m.completions();
        assert!(c[0].latency_us() >= 2_000_000, "latency {}us", c[0].latency_us());
        let _ = mds;
    }
}
