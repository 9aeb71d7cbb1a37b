//! A Paxos-replicated log ("RSM") running on the simulator.
//!
//! Multi-Paxos with a stable leader: one phase-1 round establishes
//! leadership for every subsequent slot; normal-case writes are a single
//! accept round (one network round trip to a quorum). This is the structure
//! Boom-FS uses for its globally-consistent distributed log, and its costs
//! are exactly the ones the paper attributes to that design: every metadata
//! mutation pays a quorum round trip, and failover pays an election plus
//! log-repair delay ("centralizing repair action decisions and state
//! transition, which leads to additional failover time", Section II).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mams_sim::{Ctx, Duration, Message, Node, NodeId};

use crate::acceptor::Acceptor;
use crate::ballot::Ballot;
use crate::messages::Value;

/// An accepted slot entry: `(slot, ballot, value)`.
pub type SlotEntry = (u64, Ballot, Value);

/// Timer tokens.
const T_HEARTBEAT: u64 = 1;
const T_ELECTION: u64 = 2;

/// Application state machine driven by the replicated log.
pub trait RsmApp: Send {
    /// Apply a committed command (called exactly once per slot, in order)
    /// and return its result, which the leader sends to the proposer.
    fn apply(&mut self, slot: u64, cmd: &Value) -> Value;
    /// Serve a read-only query (leader-side, after all committed entries
    /// are applied).
    fn query(&mut self, q: &Value) -> Value;
}

/// RSM protocol messages.
#[derive(Debug, Clone)]
pub enum RsmMsg {
    /// Phase 1 for all slots ≥ `from_slot`.
    Prepare {
        ballot: Ballot,
        from_slot: u64,
    },
    /// Promise carrying the acceptor's accepted entries ≥ `from_slot`.
    Promise {
        ballot: Ballot,
        entries: Vec<SlotEntry>,
        commit_index: u64,
    },
    PrepareNack {
        ballot: Ballot,
        promised: Ballot,
    },
    Accept {
        ballot: Ballot,
        slot: u64,
        value: Value,
    },
    Accepted {
        ballot: Ballot,
        slot: u64,
    },
    AcceptNack {
        ballot: Ballot,
        promised: Ballot,
    },
    /// Leader liveness + commit propagation.
    Heartbeat {
        ballot: Ballot,
        commit_index: u64,
    },
    /// Client write request.
    Propose {
        cmd: Value,
        req: u64,
    },
    /// Client write reply (`slot` and the applied command's `result` set
    /// on success; `leader_hint` on redirect).
    ProposeReply {
        req: u64,
        committed: bool,
        slot: Option<u64>,
        result: Option<Value>,
        leader_hint: Option<NodeId>,
    },
    /// Client read request.
    Query {
        q: Value,
        req: u64,
    },
    QueryReply {
        req: u64,
        ok: bool,
        result: Option<Value>,
        leader_hint: Option<NodeId>,
    },
}

/// Configuration for one RSM member.
#[derive(Debug, Clone)]
pub struct RsmConfig {
    /// Sim node ids of every member, in index order (including this node).
    pub members: Vec<NodeId>,
    /// This node's index in `members`.
    pub me: u32,
    /// Leader heartbeat interval.
    pub heartbeat: Duration,
    /// Follower patience before standing for election (jittered ±50%).
    pub election_timeout: Duration,
}

impl RsmConfig {
    pub fn new(members: Vec<NodeId>, me: u32) -> Self {
        RsmConfig {
            members,
            me,
            heartbeat: Duration::from_millis(500),
            election_timeout: Duration::from_secs(2),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

#[derive(Debug, Default)]
struct Slot {
    acceptor: Acceptor,
}

/// A replicated-log member.
pub struct RsmNode<A: RsmApp> {
    cfg: RsmConfig,
    app: A,
    role: Role,
    /// Leadership ballot this node has promised (acceptor side, shared by
    /// all slots ≥ the prepare's from_slot — we use one leadership promise
    /// for simplicity and track per-slot accepts separately).
    promised: Ballot,
    /// Our ballot when leading/campaigning.
    ballot: Ballot,
    leader_hint: Option<NodeId>,
    slots: BTreeMap<u64, Slot>,
    /// Slots [0, commit_index) are committed and applied.
    commit_index: u64,
    /// Candidate: promises gathered (member index → entries).
    promises: BTreeMap<u32, Vec<SlotEntry>>,
    /// Leader: per-slot accept quorum tracking.
    accepts: HashMap<u64, BTreeSet<u32>>,
    /// Leader: next free slot.
    next_slot: u64,
    /// Leader: client to answer when a slot commits.
    waiting_clients: HashMap<u64, (NodeId, u64)>,
    /// Follower: whether a heartbeat arrived since the last election check.
    heard_from_leader: bool,
}

impl<A: RsmApp> RsmNode<A> {
    pub fn new(cfg: RsmConfig, app: A) -> Self {
        assert!((cfg.me as usize) < cfg.members.len());
        RsmNode {
            cfg,
            app,
            role: Role::Follower,
            promised: Ballot::ZERO,
            ballot: Ballot::ZERO,
            leader_hint: None,
            slots: BTreeMap::new(),
            commit_index: 0,
            promises: BTreeMap::new(),
            accepts: HashMap::new(),
            next_slot: 0,
            waiting_clients: HashMap::new(),
            heard_from_leader: false,
        }
    }

    fn quorum(&self) -> usize {
        self.cfg.members.len() / 2 + 1
    }

    fn my_id(&self) -> NodeId {
        self.cfg.members[self.cfg.me as usize]
    }

    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.my_id();
        self.cfg.members.iter().copied().filter(move |&n| n != me)
    }

    fn broadcast(&self, ctx: &mut Ctx<'_>, msg: &RsmMsg) {
        for p in self.peers().collect::<Vec<_>>() {
            ctx.send(p, msg.clone());
        }
    }

    fn arm_election_timer(&mut self, ctx: &mut Ctx<'_>) {
        let base = self.cfg.election_timeout.micros();
        let jitter = ctx.rng().range(base / 2, base + base / 2);
        ctx.set_timer(Duration::from_micros(jitter), T_ELECTION);
    }

    fn start_election(&mut self, ctx: &mut Ctx<'_>) {
        self.role = Role::Candidate;
        self.ballot = self.promised.max(self.ballot).next_for(self.cfg.me);
        self.promised = self.ballot;
        self.promises.clear();
        // Self-promise with our own accepted suffix.
        let mine = self.accepted_from(self.commit_index);
        self.promises.insert(self.cfg.me, mine);
        ctx.trace("rsm.election_start", || format!("ballot {}", self.ballot));
        let msg = RsmMsg::Prepare { ballot: self.ballot, from_slot: self.commit_index };
        self.broadcast(ctx, &msg);
        self.arm_election_timer(ctx);
    }

    fn accepted_from(&self, from_slot: u64) -> Vec<SlotEntry> {
        self.slots
            .range(from_slot..)
            .filter_map(|(&s, slot)| slot.acceptor.accepted().map(|(b, v)| (s, *b, v.clone())))
            .collect()
    }

    fn become_leader(&mut self, ctx: &mut Ctx<'_>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.my_id());
        self.accepts.clear();
        ctx.trace("rsm.leader", || format!("ballot {}", self.ballot));

        // Merge promise suffixes: per slot keep the highest-ballot value,
        // then re-propose everything uncommitted under our ballot.
        let mut merged: BTreeMap<u64, (Ballot, Value)> = BTreeMap::new();
        for entries in self.promises.values() {
            for (slot, b, v) in entries {
                match merged.get(slot) {
                    Some((mb, _)) if mb >= b => {}
                    _ => {
                        merged.insert(*slot, (*b, v.clone()));
                    }
                }
            }
        }
        self.next_slot = merged
            .keys()
            .next_back()
            .map(|&s| s + 1)
            .unwrap_or(self.commit_index)
            .max(self.commit_index);
        for (slot, (_b, v)) in merged {
            if slot >= self.commit_index {
                self.propose_in_slot(ctx, slot, v, None);
            }
        }
        self.send_heartbeat(ctx);
        ctx.set_timer(self.cfg.heartbeat, T_HEARTBEAT);
    }

    fn send_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        let msg = RsmMsg::Heartbeat { ballot: self.ballot, commit_index: self.commit_index };
        self.broadcast(ctx, &msg);
    }

    fn propose_in_slot(
        &mut self,
        ctx: &mut Ctx<'_>,
        slot: u64,
        value: Value,
        client: Option<(NodeId, u64)>,
    ) {
        // Accept locally first.
        let entry = self.slots.entry(slot).or_default();
        entry.acceptor.on_accept(self.ballot, value.clone());
        let mut set = BTreeSet::new();
        set.insert(self.cfg.me);
        self.accepts.insert(slot, set);
        if let Some(c) = client {
            self.waiting_clients.insert(slot, c);
        }
        let msg = RsmMsg::Accept { ballot: self.ballot, slot, value };
        self.broadcast(ctx, &msg);
        self.maybe_commit(ctx);
    }

    fn maybe_commit(&mut self, ctx: &mut Ctx<'_>) {
        // Advance commit_index over contiguous quorum-accepted slots.
        loop {
            let slot = self.commit_index;
            let have_quorum = self.accepts.get(&slot).is_some_and(|s| s.len() >= self.quorum());
            if !have_quorum {
                break;
            }
            let value = self
                .slots
                .get(&slot)
                .and_then(|s| s.acceptor.accepted().map(|(_, v)| v.clone()))
                .expect("quorum-accepted slot has a local value");
            let result = self.app.apply(slot, &value);
            self.commit_index += 1;
            ctx.trace("rsm.commit", || format!("slot {slot}"));
            if let Some((client, req)) = self.waiting_clients.remove(&slot) {
                ctx.send(
                    client,
                    RsmMsg::ProposeReply {
                        req,
                        committed: true,
                        slot: Some(slot),
                        result: Some(result),
                        leader_hint: Some(self.my_id()),
                    },
                );
            }
        }
    }

    /// Follower-side: apply contiguous accepted entries up to the leader's
    /// commit index.
    fn follow_commits(&mut self, ctx: &mut Ctx<'_>, leader_commit: u64) {
        while self.commit_index < leader_commit {
            let slot = self.commit_index;
            let value = match self.slots.get(&slot).and_then(|s| s.acceptor.accepted()) {
                Some((_, v)) => v.clone(),
                None => break, // hole: wait for the leader's re-propose
            };
            // Only the leader answers the proposer; a follower's result is
            // the same and is dropped.
            self.app.apply(slot, &value);
            self.commit_index += 1;
            ctx.trace("rsm.commit", || format!("slot {slot} (follower)"));
        }
    }

    fn step_down(&mut self, higher: Ballot, leader: Option<NodeId>) {
        self.promised = self.promised.max(higher);
        self.role = Role::Follower;
        self.leader_hint = leader;
        self.heard_from_leader = true;
        self.accepts.clear();
        self.waiting_clients.clear();
        self.promises.clear();
    }

    /// Whether this node currently believes it is the leader (test hook).
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Committed prefix length (test hook).
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// The application (test hook).
    pub fn app(&self) -> &A {
        &self.app
    }
}

impl<A: RsmApp + 'static> Node for RsmNode<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_election_timer(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            T_HEARTBEAT if self.role == Role::Leader => {
                self.send_heartbeat(ctx);
                ctx.set_timer(self.cfg.heartbeat, T_HEARTBEAT);
            }
            T_ELECTION => match self.role {
                Role::Leader => {}
                _ => {
                    if self.heard_from_leader {
                        self.heard_from_leader = false;
                        self.arm_election_timer(ctx);
                    } else {
                        self.start_election(ctx);
                    }
                }
            },
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let msg = match msg.downcast::<RsmMsg>() {
            Ok(m) => m,
            Err(_) => return,
        };
        match msg {
            RsmMsg::Prepare { ballot, from_slot } => {
                if ballot > self.promised {
                    self.step_down(ballot, None);
                    let entries = self.accepted_from(from_slot);
                    ctx.send(
                        from,
                        RsmMsg::Promise { ballot, entries, commit_index: self.commit_index },
                    );
                } else {
                    ctx.send(from, RsmMsg::PrepareNack { ballot, promised: self.promised });
                }
            }
            RsmMsg::Promise { ballot, entries, commit_index: _ } => {
                if self.role != Role::Candidate || ballot != self.ballot {
                    return;
                }
                let idx = self.cfg.members.iter().position(|&n| n == from);
                if let Some(idx) = idx {
                    self.promises.insert(idx as u32, entries);
                    if self.promises.len() >= self.quorum() {
                        self.become_leader(ctx);
                    }
                }
            }
            RsmMsg::PrepareNack { ballot, promised } => {
                if self.role == Role::Candidate && ballot == self.ballot && promised > self.ballot {
                    self.step_down(promised, None);
                    self.arm_election_timer(ctx);
                }
            }
            RsmMsg::Accept { ballot, slot, value } => {
                if ballot >= self.promised {
                    if ballot > self.promised || self.role != Role::Follower {
                        self.step_down(ballot, Some(from));
                    }
                    self.promised = ballot;
                    self.leader_hint = Some(from);
                    self.heard_from_leader = true;
                    let entry = self.slots.entry(slot).or_default();
                    entry.acceptor.on_accept(ballot, value);
                    ctx.send(from, RsmMsg::Accepted { ballot, slot });
                } else {
                    ctx.send(from, RsmMsg::AcceptNack { ballot, promised: self.promised });
                }
            }
            RsmMsg::Accepted { ballot, slot } => {
                if self.role != Role::Leader || ballot != self.ballot {
                    return;
                }
                if let Some(idx) = self.cfg.members.iter().position(|&n| n == from) {
                    self.accepts.entry(slot).or_default().insert(idx as u32);
                    self.maybe_commit(ctx);
                }
            }
            RsmMsg::AcceptNack { ballot, promised } => {
                if self.role == Role::Leader && ballot == self.ballot && promised > self.ballot {
                    self.step_down(promised, None);
                    self.arm_election_timer(ctx);
                }
            }
            RsmMsg::Heartbeat { ballot, commit_index } => {
                if ballot >= self.promised {
                    if self.role != Role::Follower || ballot > self.promised {
                        self.step_down(ballot, Some(from));
                    }
                    self.promised = ballot;
                    self.leader_hint = Some(from);
                    self.heard_from_leader = true;
                    self.follow_commits(ctx, commit_index);
                }
            }
            RsmMsg::Propose { cmd, req } => {
                if self.role == Role::Leader {
                    let slot = self.next_slot;
                    self.next_slot += 1;
                    self.propose_in_slot(ctx, slot, cmd, Some((from, req)));
                } else {
                    ctx.send(
                        from,
                        RsmMsg::ProposeReply {
                            req,
                            committed: false,
                            slot: None,
                            result: None,
                            leader_hint: self.leader_hint,
                        },
                    );
                }
            }
            RsmMsg::Query { q, req } => {
                if self.role == Role::Leader {
                    let result = self.app.query(&q);
                    ctx.send(
                        from,
                        RsmMsg::QueryReply {
                            req,
                            ok: true,
                            result: Some(result),
                            leader_hint: Some(self.my_id()),
                        },
                    );
                } else {
                    ctx.send(
                        from,
                        RsmMsg::QueryReply {
                            req,
                            ok: false,
                            result: None,
                            leader_hint: self.leader_hint,
                        },
                    );
                }
            }
            RsmMsg::ProposeReply { .. } | RsmMsg::QueryReply { .. } => {
                // Client-side messages; an RSM member ignores them.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mams_sim::{Sim, SimConfig, SimTime};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Test app: accumulates applied commands.
    struct VecApp {
        applied: Arc<Mutex<Vec<Value>>>,
    }

    impl RsmApp for VecApp {
        fn apply(&mut self, slot: u64, cmd: &Value) -> Value {
            self.applied.lock().push(cmd.clone());
            Bytes::from(format!("slot={slot}"))
        }
        fn query(&mut self, _q: &Value) -> Value {
            Bytes::from(format!("len={}", self.applied.lock().len()))
        }
    }

    /// Client that retries proposals against whatever leader it can find.
    struct TestClient {
        members: Vec<NodeId>,
        cmds: Vec<Value>,
        next: usize,
        target: usize,
        committed: Arc<Mutex<Vec<u64>>>,
        req: u64,
    }

    impl Node for TestClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(Duration::from_millis(300), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.next < self.cmds.len() {
                self.req += 1;
                let cmd = self.cmds[self.next].clone();
                ctx.send(self.members[self.target], RsmMsg::Propose { cmd, req: self.req });
                ctx.set_timer(Duration::from_millis(700), 1);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if let Ok(RsmMsg::ProposeReply { committed, slot, result, leader_hint, .. }) =
                msg.downcast::<RsmMsg>()
            {
                if committed {
                    let slot = slot.unwrap();
                    // The proposer gets the applied command's result back.
                    assert_eq!(result, Some(Bytes::from(format!("slot={slot}"))));
                    self.committed.lock().push(slot);
                    self.next += 1;
                } else if let Some(hint) = leader_hint {
                    if let Some(i) = self.members.iter().position(|&m| m == hint) {
                        self.target = i;
                    }
                } else {
                    self.target = (self.target + 1) % self.members.len();
                }
                let _ = from;
            }
        }
    }

    type SharedLog = Arc<Mutex<Vec<Value>>>;

    fn build_cluster(sim: &mut Sim, n: usize) -> (Vec<NodeId>, Vec<SharedLog>) {
        let ids: Vec<NodeId> = (0..n as u32).collect();
        let mut logs = Vec::new();
        for i in 0..n {
            let applied = Arc::new(Mutex::new(Vec::new()));
            logs.push(applied.clone());
            let cfg = RsmConfig::new(ids.clone(), i as u32);
            let id =
                sim.add_node(format!("rsm-{i}"), Box::new(RsmNode::new(cfg, VecApp { applied })));
            assert_eq!(id, ids[i]);
        }
        (ids, logs)
    }

    #[test]
    fn cluster_elects_and_replicates() {
        let mut sim = Sim::new(SimConfig::default());
        let (ids, logs) = build_cluster(&mut sim, 3);
        let committed = Arc::new(Mutex::new(Vec::new()));
        let cmds: Vec<Value> = (0..5).map(|i| Bytes::from(format!("cmd-{i}"))).collect();
        sim.add_node(
            "client",
            Box::new(TestClient {
                members: ids.clone(),
                cmds: cmds.clone(),
                next: 0,
                target: 0,
                committed: committed.clone(),
                req: 0,
            }),
        );
        sim.run_for(Duration::from_secs(30));
        assert_eq!(committed.lock().len(), 5, "all proposals commit");
        // Every member applied the same sequence.
        for log in &logs {
            assert_eq!(*log.lock(), cmds, "replica log diverged");
        }
    }

    #[test]
    fn leader_crash_triggers_reelection_and_no_loss() {
        let mut sim = Sim::new(SimConfig::default());
        let (ids, logs) = build_cluster(&mut sim, 3);
        let committed = Arc::new(Mutex::new(Vec::new()));
        let cmds: Vec<Value> = (0..8).map(|i| Bytes::from(format!("c{i}"))).collect();
        sim.add_node(
            "client",
            Box::new(TestClient {
                members: ids.clone(),
                cmds: cmds.clone(),
                next: 0,
                target: 0,
                committed: committed.clone(),
                req: 0,
            }),
        );
        // Let some commits land, then kill whichever node committed most
        // (a good proxy for the leader) at t=10s.
        sim.at(SimTime(10_000_000), {
            let logs = logs.clone();
            move |sim| {
                let leader = (0..logs.len()).max_by_key(|&i| logs[i].lock().len()).unwrap();
                sim.crash(leader as NodeId);
            }
        });
        sim.run_for(Duration::from_secs(60));
        let done = committed.lock().len();
        assert_eq!(done, 8, "commits resume after failover (got {done})");
        // The two survivors agree on a common prefix containing all
        // committed commands.
        let alive: Vec<Vec<Value>> =
            logs.iter().map(|l| l.lock().clone()).filter(|l| l.len() == 8).collect();
        assert!(!alive.is_empty());
        for l in &alive {
            assert_eq!(*l, cmds);
        }
    }

    #[test]
    fn five_node_cluster_survives_two_crashes() {
        let mut sim = Sim::new(SimConfig::default());
        let (ids, logs) = build_cluster(&mut sim, 5);
        let committed = Arc::new(Mutex::new(Vec::new()));
        let cmds: Vec<Value> = (0..6).map(|i| Bytes::from(format!("x{i}"))).collect();
        sim.add_node(
            "client",
            Box::new(TestClient {
                members: ids.clone(),
                cmds: cmds.clone(),
                next: 0,
                target: 2,
                committed: committed.clone(),
                req: 0,
            }),
        );
        sim.at(SimTime(8_000_000), move |sim| sim.crash(0));
        sim.at(SimTime(16_000_000), move |sim| sim.crash(1));
        sim.run_for(Duration::from_secs(90));
        assert_eq!(committed.lock().len(), 6);
        let full: Vec<_> = logs.iter().filter(|l| l.lock().len() == 6).collect();
        assert!(full.len() >= 3, "a quorum of replicas holds the full log");
    }
}
