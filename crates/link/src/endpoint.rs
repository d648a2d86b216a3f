//! Reliable endpoints and heartbeat leases over a lossy channel.
//!
//! An [`Endpoint`] is one side of a bidirectional link: it *sends* payloads
//! of type `S` reliably and *receives* payloads of type `R`. Reliability is
//! the classic recipe — sequence numbers on data, cumulative acks, bounded
//! retransmission with exponential backoff and seeded jitter, and a
//! receive-side reorder/dedup window that delivers each sequence number
//! **exactly once, in order**. Redelivered frames are therefore
//! effect-idempotent at the application layer by construction: the second
//! copy of a command never reaches the caller.
//!
//! The endpoint also carries the liveness machinery: it emits a
//! heartbeat frame every [`LeaseConfig::heartbeat_interval_s`] and
//! timestamps every frame it hears. [`Endpoint::lease_expired`] is the
//! supervision predicate both sides poll — the drone to trigger its
//! autonomous safe-hold, the supervisor to declare the drone lost.
//!
//! Everything is driven by the caller's simulation clock. The only
//! randomness is the retransmission jitter, drawn from a SplitMix64 stream
//! owned by the endpoint, so a link exchange is a pure function of
//! `(configs, seeds, traffic)`.

use hdc_runtime::SplitMix64;
use std::collections::{BTreeMap, VecDeque};

/// How far past the exact lease-expiry instant [`Endpoint::lease_edge`]
/// falls: far enough that the strict expiry comparison holds there.
const LEASE_EDGE_S: f64 = 1e-6;

/// Retransmission and windowing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointConfig {
    /// Initial retransmission timeout, seconds.
    pub resend_timeout_s: f64,
    /// Exponential backoff factor per retransmission of the same frame.
    pub backoff: f64,
    /// Ceiling on the backed-off timeout, seconds.
    pub max_resend_timeout_s: f64,
    /// Seeded jitter added to every timeout: `timeout * (1 + frac * u)`
    /// with `u` uniform in `[0, 1)` (desynchronises retransmission bursts).
    pub jitter_frac: f64,
    /// Receive window: how far ahead of the next expected sequence number a
    /// data frame may be buffered. Frames beyond it are discarded (the
    /// sender's retransmission recovers them later).
    pub window: u64,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            resend_timeout_s: 0.4,
            backoff: 2.0,
            max_resend_timeout_s: 3.2,
            jitter_frac: 0.25,
            window: 64,
        }
    }
}

/// Heartbeat/lease supervision parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaseConfig {
    /// How often each side emits a heartbeat, seconds.
    pub heartbeat_interval_s: f64,
    /// Silence longer than this expires the lease, seconds.
    pub timeout_s: f64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            heartbeat_interval_s: 0.5,
            timeout_s: 3.0,
        }
    }
}

/// What travels on the wire in one direction: data, acks for the *other*
/// direction's data, and heartbeats.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame<T> {
    /// A sequenced payload.
    Data {
        /// Sequence number, starting at 1.
        seq: u64,
        /// The payload.
        payload: T,
    },
    /// Cumulative acknowledgement: every sequence number `<= cumulative`
    /// has been received in order.
    Ack {
        /// Highest in-order sequence number received.
        cumulative: u64,
    },
    /// Liveness beacon (also implicitly carried by any other frame).
    Heartbeat,
}

/// Endpoint traffic statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndpointStats {
    /// Distinct payloads accepted for sending.
    pub data_sent: u64,
    /// Data frames retransmitted (beyond each payload's first emission).
    pub retransmits: u64,
    /// Ack frames emitted.
    pub acks_sent: u64,
    /// Heartbeat frames emitted.
    pub heartbeats_sent: u64,
    /// Payloads delivered to the application (exactly once each).
    pub delivered: u64,
    /// Received data frames discarded as duplicates.
    pub duplicates_discarded: u64,
    /// Received data frames discarded as beyond the receive window.
    pub out_of_window_discarded: u64,
}

/// One unacknowledged outbound payload.
#[derive(Debug, Clone)]
struct TxSlot<S> {
    seq: u64,
    payload: S,
    resend_at: f64,
    attempt: u32,
}

/// One side of a reliable bidirectional link: sends `S`, receives `R`.
/// See the module docs for the protocol. Endpoints are built and pumped
/// only by a [`Duplex`](crate::Duplex).
#[derive(Debug, Clone)]
pub struct Endpoint<S, R> {
    config: EndpointConfig,
    lease: LeaseConfig,
    jitter_rng: SplitMix64,
    // --- transmit side ---
    next_seq: u64,
    unacked: VecDeque<TxSlot<S>>,
    // --- receive side ---
    next_expected: u64,
    reorder_buf: BTreeMap<u64, R>,
    ack_due: bool,
    // --- lease ---
    last_heard: f64,
    last_beat: f64,
    stats: EndpointStats,
}

impl<S: Clone, R> Endpoint<S, R> {
    /// An endpoint created at simulation time `now` (the lease clock starts
    /// satisfied — a drone is not "lost" before the first heartbeat slot).
    pub(crate) fn new(config: EndpointConfig, lease: LeaseConfig, seed: u64, now: f64) -> Self {
        Endpoint {
            config,
            lease,
            jitter_rng: SplitMix64::new(seed),
            next_seq: 1,
            unacked: VecDeque::new(),
            next_expected: 1,
            reorder_buf: BTreeMap::new(),
            ack_due: false,
            last_heard: now,
            last_beat: now,
            stats: EndpointStats::default(),
        }
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Number of payloads sent but not yet acknowledged. Callers pushing
    /// bulk traffic should keep this below the peer's receive window, or
    /// frames beyond it are discarded on arrival and retransmitted later.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Whether the peer has been silent past the lease timeout. Expiry is
    /// strict: at exactly `last_heard + timeout` the lease still holds.
    pub fn lease_expired(&self, now: f64) -> bool {
        now - self.last_heard > self.lease.timeout_s
    }

    /// Where an event-driven scheduler wakes to observe the lease expiring
    /// if the peer stays silent: just past `last_heard + timeout` (expiry
    /// is strict), and never before `now`.
    pub fn lease_edge(&self, now: f64) -> f64 {
        (self.last_heard + self.lease.timeout_s).max(now) + LEASE_EDGE_S
    }

    /// Queues one payload for reliable delivery. It is first transmitted by
    /// the next [`Duplex::pump`](crate::Duplex::pump).
    pub fn send(&mut self, now: f64, payload: S) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.data_sent += 1;
        self.unacked.push_back(TxSlot {
            seq,
            payload,
            resend_at: now,
            attempt: 0,
        });
    }

    /// The backed-off, jittered timeout for a frame's `attempt`-th
    /// retransmission.
    fn timeout(&mut self, attempt: u32) -> f64 {
        let base = (self.config.resend_timeout_s * self.config.backoff.powi(attempt as i32))
            .min(self.config.max_resend_timeout_s);
        let u = self.jitter_rng.next_unit_f64();
        base * (1.0 + self.config.jitter_frac * u)
    }

    /// Earliest time this endpoint will have work for [`Endpoint::tick`]:
    /// the soonest retransmission slot, the next heartbeat slot, or `now`
    /// itself when an ack is pending. Event-driven schedulers use this to
    /// skip polling a quiet link.
    pub(crate) fn next_due(&self, now: f64) -> f64 {
        let mut due = self.last_beat + self.lease.heartbeat_interval_s;
        for slot in &self.unacked {
            due = due.min(slot.resend_at);
        }
        if self.ack_due {
            due = due.min(now);
        }
        due
    }

    /// Emits every frame due at `now`: first transmissions, retransmissions,
    /// a pending ack, and the heartbeat. The caller forwards them into its
    /// outbound channel.
    pub(crate) fn tick(&mut self, now: f64) -> Vec<Frame<S>> {
        let mut out = Vec::new();
        for i in 0..self.unacked.len() {
            if self.unacked[i].resend_at <= now {
                let (seq, attempt, payload) = {
                    let slot = &self.unacked[i];
                    (slot.seq, slot.attempt, slot.payload.clone())
                };
                if attempt > 0 {
                    self.stats.retransmits += 1;
                }
                let wait = self.timeout(attempt);
                let slot = &mut self.unacked[i];
                slot.attempt += 1;
                slot.resend_at = now + wait;
                out.push(Frame::Data { seq, payload });
            }
        }
        if self.ack_due {
            self.ack_due = false;
            self.stats.acks_sent += 1;
            out.push(Frame::Ack {
                cumulative: self.next_expected - 1,
            });
        }
        if now - self.last_beat >= self.lease.heartbeat_interval_s {
            self.last_beat = now;
            self.stats.heartbeats_sent += 1;
            out.push(Frame::Heartbeat);
        }
        out
    }

    /// Processes one inbound frame; returns the payloads that became
    /// deliverable, in sequence order. Every frame refreshes the lease.
    pub(crate) fn handle(&mut self, now: f64, frame: Frame<R>) -> Vec<R> {
        self.last_heard = now;
        match frame {
            Frame::Heartbeat => Vec::new(),
            Frame::Ack { cumulative } => {
                while self
                    .unacked
                    .front()
                    .is_some_and(|slot| slot.seq <= cumulative)
                {
                    self.unacked.pop_front();
                }
                Vec::new()
            }
            Frame::Data { seq, payload } => {
                self.ack_due = true;
                if seq < self.next_expected {
                    self.stats.duplicates_discarded += 1;
                    return Vec::new();
                }
                if seq >= self.next_expected + self.config.window {
                    self.stats.out_of_window_discarded += 1;
                    return Vec::new();
                }
                if self.reorder_buf.insert(seq, payload).is_some() {
                    self.stats.duplicates_discarded += 1;
                }
                let mut delivered = Vec::new();
                while let Some(p) = self.reorder_buf.remove(&self.next_expected) {
                    self.next_expected += 1;
                    self.stats.delivered += 1;
                    delivered.push(p);
                }
                delivered
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{LinkQuality, LossyChannel};

    type Ep = Endpoint<u32, u32>;

    fn pair(now: f64) -> (Ep, Ep) {
        (
            Endpoint::new(EndpointConfig::default(), LeaseConfig::default(), 1, now),
            Endpoint::new(EndpointConfig::default(), LeaseConfig::default(), 2, now),
        )
    }

    /// Pumps both directions for `steps` of `dt`, collecting what each side
    /// delivers.
    fn pump(
        a: &mut Ep,
        b: &mut Ep,
        ab: &mut LossyChannel<Frame<u32>>,
        ba: &mut LossyChannel<Frame<u32>>,
        t0: f64,
        steps: usize,
        dt: f64,
    ) -> (Vec<u32>, Vec<u32>) {
        let (mut at_a, mut at_b) = (Vec::new(), Vec::new());
        for k in 0..steps {
            let now = t0 + k as f64 * dt;
            for f in a.tick(now) {
                ab.send(now, f);
            }
            for f in b.tick(now) {
                ba.send(now, f);
            }
            for f in ab.poll(now) {
                at_b.extend(b.handle(now, f));
            }
            for f in ba.poll(now) {
                at_a.extend(a.handle(now, f));
            }
        }
        (at_a, at_b)
    }

    #[test]
    fn clean_link_delivers_in_order_exactly_once() {
        let (mut a, mut b) = pair(0.0);
        let mut ab = LossyChannel::new(LinkQuality::clean(), 10);
        let mut ba = LossyChannel::new(LinkQuality::clean(), 11);
        for i in 0..20 {
            a.send(0.0, i);
        }
        let (_, at_b) = pump(&mut a, &mut b, &mut ab, &mut ba, 0.0, 50, 0.1);
        assert_eq!(at_b, (0..20).collect::<Vec<_>>());
        assert_eq!(a.in_flight(), 0, "acks must drain the retransmit queue");
        assert_eq!(b.stats().delivered, 20);
    }

    #[test]
    fn heavy_loss_is_recovered_by_retransmission() {
        let (mut a, mut b) = pair(0.0);
        let mut ab = LossyChannel::new(LinkQuality::clean().with_drop(0.5), 20);
        let mut ba = LossyChannel::new(LinkQuality::clean().with_drop(0.5), 21);
        for i in 0..30 {
            a.send(0.0, i);
        }
        let (_, at_b) = pump(&mut a, &mut b, &mut ab, &mut ba, 0.0, 1200, 0.1);
        assert_eq!(at_b, (0..30).collect::<Vec<_>>());
        assert!(a.stats().retransmits > 0, "loss must force retransmissions");
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn duplication_and_reordering_never_deliver_twice_or_out_of_order() {
        let (mut a, mut b) = pair(0.0);
        let q = LinkQuality::clean().with_dup(0.6).with_jitter(0.8);
        let mut ab = LossyChannel::new(q, 30);
        let mut ba = LossyChannel::new(q, 31);
        for i in 0..40 {
            a.send(0.0, i);
        }
        let (_, at_b) = pump(&mut a, &mut b, &mut ab, &mut ba, 0.0, 600, 0.1);
        assert_eq!(at_b, (0..40).collect::<Vec<_>>());
        assert!(b.stats().duplicates_discarded > 0, "dup window must engage");
    }

    #[test]
    fn lease_expires_during_a_partition_and_recovers_after() {
        let lease = LeaseConfig {
            heartbeat_interval_s: 0.5,
            timeout_s: 2.0,
        };
        let mut a: Ep = Endpoint::new(EndpointConfig::default(), lease, 1, 0.0);
        let mut b: Ep = Endpoint::new(EndpointConfig::default(), lease, 2, 0.0);
        // both directions partitioned from t=3 for 4 s
        let q = LinkQuality::clean().with_partition(3.0, 4.0);
        let mut ab = LossyChannel::new(q, 40);
        let mut ba = LossyChannel::new(q, 41);
        let mut expired_at = None;
        let mut recovered = false;
        for k in 0..120 {
            let now = k as f64 * 0.1;
            for f in a.tick(now) {
                ab.send(now, f);
            }
            for f in b.tick(now) {
                ba.send(now, f);
            }
            for f in ab.poll(now) {
                b.handle(now, f);
            }
            for f in ba.poll(now) {
                a.handle(now, f);
            }
            if b.lease_expired(now) && expired_at.is_none() {
                expired_at = Some(now);
            }
            if expired_at.is_some() && !b.lease_expired(now) {
                recovered = true;
            }
        }
        let expired_at = expired_at.expect("partition must expire the lease");
        assert!(
            expired_at > 3.0 && expired_at < 7.0,
            "expired at {expired_at}"
        );
        assert!(recovered, "heartbeats must refresh the lease after healing");
    }

    #[test]
    fn lease_edge_falls_just_past_the_strict_expiry() {
        let lease = LeaseConfig {
            heartbeat_interval_s: 0.5,
            timeout_s: 2.0,
        };
        let mut a: Ep = Endpoint::new(EndpointConfig::default(), lease, 1, 0.0);
        a.handle(1.0, Frame::Heartbeat);
        let edge = a.lease_edge(1.5);
        assert!(edge > 3.0 && edge < 3.0 + 1e-3, "edge {edge}");
        assert!(
            !a.lease_expired(3.0),
            "at last_heard + timeout the lease still holds"
        );
        assert!(a.lease_expired(edge), "the lease is expired at its edge");
        // an edge already behind `now` falls just past `now`
        assert!(a.lease_edge(10.0) > 10.0 && a.lease_expired(a.lease_edge(10.0)));
    }

    #[test]
    fn window_bounds_the_reorder_buffer() {
        let cfg = EndpointConfig {
            window: 4,
            ..Default::default()
        };
        let mut b: Ep = Endpoint::new(cfg, LeaseConfig::default(), 2, 0.0);
        // seq 6 is beyond next_expected(1) + window(4): discarded
        assert!(b
            .handle(
                0.1,
                Frame::Data {
                    seq: 6,
                    payload: 60
                }
            )
            .is_empty());
        assert_eq!(b.stats().out_of_window_discarded, 1);
        // in-window out-of-order frames buffer and flush in order
        assert!(b.handle(0.2, Frame::Data { seq: 2, payload: 2 }).is_empty());
        let got = b.handle(0.3, Frame::Data { seq: 1, payload: 1 });
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn next_due_covers_retransmit_heartbeat_and_pending_ack() {
        let mut a: Ep = Endpoint::new(EndpointConfig::default(), LeaseConfig::default(), 1, 0.0);
        // quiet endpoint: only the heartbeat slot is due
        assert_eq!(a.next_due(0.0), 0.5);
        // an unsent payload is due immediately (first transmission slot)
        a.send(0.2, 7);
        assert_eq!(a.next_due(0.2), 0.2);
        let frames = a.tick(0.2);
        assert!(matches!(frames[0], Frame::Data { seq: 1, .. }));
        // after emission, next_due is the backed-off retransmission slot,
        // which tick(now) at that time honours
        let due = a.next_due(0.3);
        assert!(
            due > 0.3,
            "retransmit slot must be in the future, got {due}"
        );
        assert!(
            a.tick(due - 1e-9).is_empty() || due >= 0.5,
            "nothing due before the slot"
        );
        // a received data frame makes an ack due no later than right now
        let _ = a.handle(1.0, Frame::Data { seq: 1, payload: 9 });
        assert!(a.next_due(1.0) <= 1.0);
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let cfg = EndpointConfig {
            jitter_frac: 0.0,
            ..Default::default()
        };
        let mut a: Ep = Endpoint::new(cfg, LeaseConfig::default(), 1, 0.0);
        a.send(0.0, 9);
        let mut emissions = Vec::new();
        let mut t = 0.0;
        while emissions.len() < 5 && t < 60.0 {
            for f in a.tick(t) {
                if matches!(f, Frame::Data { .. }) {
                    emissions.push(t);
                }
            }
            t += 0.05;
        }
        assert_eq!(emissions.len(), 5);
        let gaps: Vec<f64> = emissions.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps[1] > gaps[0], "backoff must grow: {gaps:?}");
        assert!(
            gaps.iter().all(|g| *g <= 3.2 + 0.1),
            "capped at max: {gaps:?}"
        );
    }
}
