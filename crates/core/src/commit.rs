//! Adaptive group-commit controller.
//!
//! The fixed `flush_interval` cadence trades throughput against tail
//! latency statically: a short interval acks single ops quickly but floods
//! the durability pipe with tiny batches under load; a long one amortizes
//! the fan-out but adds up to a full interval of residual wait to every
//! reply. [`GroupCommitPolicy`] replaces the constant with a controller
//! driven by two observed signals:
//!
//! * **arrival rate** (EWMA of admitted ops per µs) — decides whether the
//!   server is idle. An idle server keeps the configured base cadence, so
//!   a lone op is never delayed longer than the fixed baseline would have.
//! * **in-flight ack latency** (EWMA of seal→durable per batch: the SSP
//!   append plus every current standby's ack) — paces flushes under load.
//!   A batch's outgoing cross-group legs are not part of it: they hold
//!   client replies, not durability, and pacing on them would tie this
//!   group's cadence to the other groups' ticks. One batch per durability
//!   round-trip is the group commit sweet spot: everything that arrives
//!   while the previous batch commits rides the next seal, so batches grow
//!   exactly as fast as the pipe is slow, and the in-flight window stays
//!   bounded even when a gray standby stretches acks by orders of
//!   magnitude.
//!
//! The output interval is clamped to `[flush_min, flush_max]`. The policy
//! is pure bookkeeping — no clocks, no I/O — so it is unit-testable in
//! isolation and deterministic under simulation.

use mams_sim::Duration;

/// Smoothing horizon for the arrival-rate EWMA (µs). One tick's weight is
/// `elapsed / RATE_TAU`, so bursts are visible within a few milliseconds
/// while a single stray op decays quickly.
const RATE_TAU_US: f64 = 20_000.0;

/// Fixed smoothing factor for the per-batch ack-latency EWMA.
const ACK_ALPHA: f64 = 0.25;

/// Expected admissions per *base* interval below which the server counts
/// as idle (with an empty backlog).
const IDLE_OPS_PER_BASE: f64 = 0.5;

/// Adaptive flush-cadence controller (see module docs).
#[derive(Debug, Clone)]
pub struct GroupCommitPolicy {
    base_us: f64,
    min_us: f64,
    max_us: f64,
    /// EWMA of the admission rate, in ops per µs.
    rate_per_us: f64,
    /// EWMA of batch durability latency (seal → last durability ack), in
    /// µs.
    ack_us: f64,
}

impl GroupCommitPolicy {
    /// `base` is the fixed cadence the idle server keeps (the legacy
    /// `flush_interval`); `min`/`max` bound the adaptive range.
    pub fn new(base: Duration, min: Duration, max: Duration) -> Self {
        let min_us = (min.micros() as f64).max(1.0);
        let max_us = (max.micros() as f64).max(min_us);
        GroupCommitPolicy {
            base_us: (base.micros() as f64).max(1.0),
            min_us,
            max_us,
            rate_per_us: 0.0,
            // Optimistic start: flush fast until the first ack says
            // otherwise.
            ack_us: min_us,
        }
    }

    /// Record one drain tick: `arrived` ops were admitted over `elapsed`.
    pub fn observe_tick(&mut self, arrived: u64, elapsed: Duration) {
        let us = (elapsed.micros() as f64).max(1.0);
        let alpha = (us / RATE_TAU_US).min(1.0);
        let inst = arrived as f64 / us;
        self.rate_per_us += alpha * (inst - self.rate_per_us);
    }

    /// Record one batch reaching durability `latency` after its seal.
    pub fn observe_ack(&mut self, latency: Duration) {
        let us = (latency.micros() as f64).max(1.0);
        self.ack_us += ACK_ALPHA * (us - self.ack_us);
    }

    /// The interval until the next drain-and-flush tick. `backlog` is the
    /// number of ops still queued after the current drain.
    pub fn next_interval(&self, backlog: usize) -> Duration {
        if backlog == 0 && self.rate_per_us * self.base_us < IDLE_OPS_PER_BASE {
            // Idle: keep the fixed cadence — no extra timer traffic, and a
            // lone op never waits longer than under the fixed policy.
            return Duration::from_micros(self.base_us as u64);
        }
        Duration::from_micros(self.ack_us.clamp(self.min_us, self.max_us) as u64)
    }

    /// Observed admission rate in ops per second (diagnostics).
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_us * 1_000_000.0
    }

    /// Observed ack latency in µs (diagnostics).
    pub fn ack_latency_us(&self) -> f64 {
        self.ack_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> GroupCommitPolicy {
        GroupCommitPolicy::new(
            Duration::from_millis(2),
            Duration::from_micros(250),
            Duration::from_millis(8),
        )
    }

    #[test]
    fn idle_server_keeps_the_base_cadence() {
        let mut p = policy();
        for _ in 0..100 {
            p.observe_tick(0, Duration::from_millis(2));
        }
        assert_eq!(p.next_interval(0), Duration::from_millis(2));
    }

    #[test]
    fn loaded_fast_pipe_flushes_at_the_floor() {
        let mut p = policy();
        // Sustained traffic, acks faster than the floor.
        for _ in 0..200 {
            p.observe_tick(40, Duration::from_millis(2));
            p.observe_ack(Duration::from_micros(100));
        }
        assert_eq!(p.next_interval(10), Duration::from_micros(250));
    }

    #[test]
    fn interval_tracks_the_ack_round_trip_under_load() {
        let mut p = policy();
        for _ in 0..200 {
            p.observe_tick(40, Duration::from_millis(2));
            p.observe_ack(Duration::from_micros(900));
        }
        let us = p.next_interval(10).micros();
        assert!((800..=1000).contains(&us), "interval {us}µs should track the ~900µs ack EWMA");
    }

    #[test]
    fn slow_acks_are_clamped_at_the_ceiling() {
        let mut p = policy();
        for _ in 0..50 {
            p.observe_tick(40, Duration::from_millis(2));
            p.observe_ack(Duration::from_millis(400)); // gray standby
        }
        assert_eq!(p.next_interval(100), Duration::from_millis(8));
    }

    #[test]
    fn interval_is_monotone_in_ack_latency() {
        let mut prev = Duration::ZERO;
        for ack_us in [100u64, 400, 900, 2000, 5000, 20_000] {
            let mut p = policy();
            for _ in 0..100 {
                p.observe_tick(40, Duration::from_millis(2));
                p.observe_ack(Duration::from_micros(ack_us));
            }
            let i = p.next_interval(5);
            assert!(i >= prev, "ack {ack_us}µs -> {i:?} must not shrink below {prev:?}");
            prev = i;
        }
    }

    #[test]
    fn backlog_forces_the_busy_path_even_at_low_rate() {
        let mut p = policy();
        for _ in 0..100 {
            p.observe_tick(0, Duration::from_millis(2));
            p.observe_ack(Duration::from_micros(300));
        }
        // Queued work means the next tick comes at the ack pace, not the
        // idle cadence.
        assert!(p.next_interval(3) < Duration::from_millis(2));
    }

    #[test]
    fn a_light_closed_loop_client_gets_the_fast_cadence() {
        let mut p = policy();
        // ~1 op/ms: far from saturation, but well above the idle threshold.
        for _ in 0..200 {
            p.observe_tick(2, Duration::from_millis(2));
            p.observe_ack(Duration::from_micros(120));
        }
        assert_eq!(p.next_interval(0), Duration::from_micros(250));
    }

    #[test]
    fn rate_ewma_decays_back_to_idle() {
        let mut p = policy();
        for _ in 0..50 {
            p.observe_tick(40, Duration::from_millis(2));
        }
        assert!(p.rate_per_sec() > 10_000.0);
        for _ in 0..200 {
            p.observe_tick(0, Duration::from_millis(2));
        }
        assert_eq!(p.next_interval(0), Duration::from_millis(2));
    }
}
