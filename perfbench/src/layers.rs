//! Per-layer metrics of a traced round, computed from its spans.
//!
//! Each metric names the end-to-end metric and workload it should move,
//! written down before measuring:
//!
//! | per-layer metric | moves | on |
//! |---|---|---|
//! | `sim.events_per_op` | `wall_ops_per_s` | all |
//! | `sim.kernel_self_s` (traced wall − all handler spans) | `wall_ops_per_s` | mostly `read_mostly` |
//! | `active.tick_s`, `active.tick_us_p50` (the active's timers, mostly the flush tick: drain, exec, retry window, seal, fan-out) | `wall_ops_per_s` | `read_mostly`, `write_xg` |
//! | `active.tick_us_max` (the inline checkpoint/delta timer stall) | no sim metric sees it | `failover_renew` |
//! | `active.admit_s` (`MdsReq` arrivals: admit, retry-cache lookup) | `wall_ops_per_s` | `read_mostly` |
//! | `active.ack_s` (`SyncAck` + `PoolResp`: durable frontier, release, replies) | `wall_ops_per_s`, `sim_p99_ms` | `write_xg` |
//! | `active.leg_s`, `xg.legs_per_op` (`XGroupApply`/`XGroupAck`) | `wall_ops_per_s`, `fail_frac` | `write_xg` |
//! | `active.ops_per_tick` | `sim_p50_ms`, `wall_ops_per_s` | all |
//! | `standby.apply_s`, `standby.apply_us_per_batch`, `standby.apply_share` (of traced wall) (`SyncJournal`: replay + window fold) | `wall_ops_per_s` | `write_xg`, `failover_renew` |
//! | `junior.busy_s`, `junior.max_us` | `wall_ops_per_s` | `failover_renew` |
//! | `failover.{detect,elect,switch,reconnect}_s` (sim time) | `mttr_s` | `failover_renew` |
//! | `journal.batches_per_kop`, `journal.records_per_batch`, `journal.wire_bytes_per_op` | `standby.apply_s`, then `wall_ops_per_s`, `sim_p99_ms` | `write_xg` |
//! | `pool.busy_s`, `pool.max_us` (compaction), `pool.bytes_in_per_op` | `renew_sim_s`, `wall_ops_per_s` | `failover_renew` |
//! | `coord.busy_s`, `coord.msgs` | `mttr_s` | `failover_renew` |
//! | `client.busy_s` | `wall_ops_per_s` | `read_mostly` |
//! | `client.attempts_per_op`, `client.not_active` | `fail_frac`, `mttr_s` | `failover_renew` |
//!
//! `sim.kernel_self_s` also holds the benchmark's own loop, including the
//! traced round's journal reads. The traced record further carries
//! `trace.overhead_ratio` (traced wall ÷ untraced wall of the same seed)
//! and the end-to-end `fail_frac`, `mttr_s` and `renew_sim_s`, which are
//! not defined (or may be 0) on every workload, and `wall_ops_per_s`,
//! which on a shared host moves too much between runs of the same code to
//! be held to a bound (see `HEADLINE` in `main.rs`).
//!
//! The stage probes (`ns.exec_us_per_op`, `journal.seal_us_per_batch`,
//! `ns.replay_us_per_batch`, `image.*`, `delta.fold_s`) time single stages
//! outside the cluster; `active.tick_unexplained_s` and
//! `standby.apply_unexplained_s` are what the handler spans spend beyond
//! them.

use crate::round::Round;
use crate::stages::Stages;
use crate::wrap::{Kind, Span, Who};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Busy time, call count and longest call of the spans matching `keep`.
struct Busy {
    secs: f64,
    calls: u64,
    max_us: f64,
}

fn busy(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Busy {
    let mut b = Busy { secs: 0.0, calls: 0, max_us: 0.0 };
    for s in spans.iter().filter(|s| keep(s)) {
        b.secs += f64::from(s.dur_ns) / 1e9;
        b.calls += 1;
        b.max_us = b.max_us.max(f64::from(s.dur_ns) / 1e3);
    }
    b
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn per_layer(round: &Round, stages: &Stages) -> Vec<Metric> {
    let rec = round.trace.as_ref().expect("a traced round");
    let spans = &rec.spans;
    let ops = round.answered() as f64;
    let sim = &round.sim;

    let all = busy(spans, |_| true);
    let is_tick =
        |s: &Span| s.who == Who::Active && matches!(s.kind, Kind::FlushTick | Kind::Timer);
    let tick = busy(spans, is_tick);
    let mut tick_us: Vec<u32> = spans.iter().filter(|s| is_tick(s)).map(|s| s.dur_ns).collect();
    tick_us.sort_unstable();
    let tick_p50 = tick_us.get(tick_us.len() / 2).map_or(0.0, |&d| f64::from(d) / 1e3);
    let admit = busy(spans, |s| s.who == Who::Active && s.kind == Kind::ClientOp);
    let ack =
        busy(spans, |s| s.who == Who::Active && matches!(s.kind, Kind::SyncAck | Kind::PoolResp));
    let leg = busy(spans, |s| {
        s.who == Who::Active && matches!(s.kind, Kind::XGroupApply | Kind::XGroupAck)
    });
    let legs = busy(spans, |s| s.kind == Kind::XGroupApply).calls as f64;
    let apply = busy(spans, |s| s.who == Who::Standby && s.kind == Kind::SyncJournal);
    let junior = busy(spans, |s| s.who == Who::Junior);
    let pool = busy(spans, |s| s.who == Who::Pool);
    let coord = busy(spans, |s| s.who == Who::Coord);
    let coord_msgs =
        busy(spans, |s| s.who == Who::Coord && !matches!(s.kind, Kind::Timer | Kind::Start));
    let client = busy(spans, |s| s.who == Who::Client);
    let attempts = busy(spans, |s| s.kind == Kind::ClientOp).calls as f64;
    let not_active = busy(spans, |s| s.kind == Kind::NotActive).calls as f64;

    let batches = rec.batches.len() as f64;
    let records: f64 = rec.batches.values().map(|b| f64::from(b.records)).sum();
    let wire: f64 = rec.batches.values().map(|b| f64::from(b.wire_bytes)).sum();
    let [detect, elect, switch, reconnect] =
        sim.failover_us.unwrap_or_default().map(|us| us as f64 / 1e6);

    let explained_tick =
        (stages.exec_us_per_op * records + stages.seal_us_per_batch * batches) / 1e6;
    let explained_apply = stages.replay_us_per_batch * rec.standby_batches as f64 / 1e6;

    vec![
        m("sim.events_per_op", "events/op", ratio(spans.len() as f64, ops)),
        m("sim.kernel_self_s", "s", round.wall_s - all.secs),
        m("active.tick_s", "s", tick.secs),
        m("active.tick_us_p50", "us", tick_p50),
        m("active.tick_us_max", "us", tick.max_us),
        m("active.admit_s", "s", admit.secs),
        m("active.ack_s", "s", ack.secs),
        m("active.leg_s", "s", leg.secs),
        m("active.ops_per_tick", "ops/tick", ratio(admit.calls as f64, tick.calls as f64)),
        m("xg.legs_per_op", "legs/op", ratio(legs, ops)),
        m("standby.apply_s", "s", apply.secs),
        m("standby.apply_us_per_batch", "us", ratio(apply.secs * 1e6, apply.calls as f64)),
        m("standby.apply_share", "ratio", ratio(apply.secs, round.wall_s)),
        m("junior.busy_s", "s", junior.secs),
        m("junior.max_us", "us", junior.max_us),
        m("failover.detect_s", "s", detect),
        m("failover.elect_s", "s", elect),
        m("failover.switch_s", "s", switch),
        m("failover.reconnect_s", "s", reconnect),
        m("journal.batches_per_kop", "batches/kop", ratio(batches * 1e3, ops)),
        m("journal.records_per_batch", "records", ratio(records, batches)),
        m("journal.wire_bytes_per_op", "B/op", ratio(wire, ops)),
        m("pool.busy_s", "s", pool.secs),
        m("pool.max_us", "us", pool.max_us),
        m("pool.bytes_in_per_op", "B/op", ratio(rec.pool_bytes_in as f64, ops)),
        m("coord.busy_s", "s", coord.secs),
        m("coord.msgs", "count", coord_msgs.calls as f64),
        m("client.busy_s", "s", client.secs),
        m("client.attempts_per_op", "attempts/op", ratio(attempts, ops)),
        m("client.not_active", "count", not_active),
        m("ns.exec_us_per_op", "us", stages.exec_us_per_op),
        m("journal.seal_us_per_batch", "us", stages.seal_us_per_batch),
        m("ns.replay_us_per_batch", "us", stages.replay_us_per_batch),
        m("image.encode_s", "s", stages.image_encode_s),
        m("image.decode_s", "s", stages.image_decode_s),
        m("delta.fold_s", "s", stages.delta_fold_s),
        m("active.tick_unexplained_s", "s", tick.secs - explained_tick),
        m("standby.apply_unexplained_s", "s", apply.secs - explained_apply),
    ]
}
