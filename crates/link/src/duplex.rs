//! A reliable two-way link: two endpoints and the two lossy channels
//! between them. Side `a` sends `A` and receives `B`; side `b` the reverse.
//! The endpoints are public, so callers send and read leases directly; the
//! channels move frames only inside [`Duplex::pump`].
//!
//! Side `a` can lose its radio for good ([`Duplex::kill_a`]): a dead side
//! neither ticks nor handles what reaches it (its inbound channel still
//! drains and counts), and its timers leave [`Duplex::next_due`], so side
//! `b` hears silence and its lease expires.

use crate::channel::{ChannelStats, LinkQuality, LossyChannel};
use crate::endpoint::{Endpoint, EndpointConfig, Frame, LeaseConfig};

/// What one [`Duplex::pump`] delivered, in sequence order per side.
#[derive(Debug)]
pub struct Delivered<A, B> {
    /// Payloads side `a` received from `b`.
    pub to_a: Vec<B>,
    /// Payloads side `b` received from `a`.
    pub to_b: Vec<A>,
}

/// One reliable two-way link. See the module docs.
#[derive(Debug, Clone)]
pub struct Duplex<A, B> {
    /// Side `a`: sends `A`, receives `B`.
    pub a: Endpoint<A, B>,
    /// Side `b`: sends `B`, receives `A`.
    pub b: Endpoint<B, A>,
    a_to_b: LossyChannel<Frame<A>>,
    b_to_a: LossyChannel<Frame<B>>,
    a_dead: bool,
}

impl<A: Clone, B: Clone> Duplex<A, B> {
    /// A link created at simulation time `now`, both endpoints sharing one
    /// transport and lease tuning, each direction with its own impairments.
    /// The four decision seeds are side `a`'s endpoint's, side `b`'s
    /// endpoint's, the a→b channel's and the b→a channel's.
    pub fn new(
        endpoint: EndpointConfig,
        lease: LeaseConfig,
        a_to_b: LinkQuality,
        b_to_a: LinkQuality,
        [seed_a, seed_b, seed_a_to_b, seed_b_to_a]: [u64; 4],
        now: f64,
    ) -> Self {
        Duplex {
            a: Endpoint::new(endpoint, lease, seed_a, now),
            b: Endpoint::new(endpoint, lease, seed_b, now),
            a_to_b: LossyChannel::new(a_to_b, seed_a_to_b),
            b_to_a: LossyChannel::new(b_to_a, seed_b_to_a),
            a_dead: false,
        }
    }

    /// Side `a`'s radio dies for good (see the module docs).
    pub fn kill_a(&mut self) {
        self.a_dead = true;
    }

    /// Whether side `a`'s radio is dead.
    pub fn a_dead(&self) -> bool {
        self.a_dead
    }

    /// One link round at `now`: both sides emit their due frames, then
    /// a→b delivers to `b` and b→a delivers to `a`.
    pub fn pump(&mut self, now: f64) -> Delivered<A, B> {
        if !self.a_dead {
            for frame in self.a.tick(now) {
                self.a_to_b.send(now, frame);
            }
        }
        for frame in self.b.tick(now) {
            self.b_to_a.send(now, frame);
        }
        let mut to_b = Vec::new();
        for frame in self.a_to_b.poll(now) {
            append(&mut to_b, self.b.handle(now, frame));
        }
        let mut to_a = Vec::new();
        for frame in self.b_to_a.poll(now) {
            if !self.a_dead {
                append(&mut to_a, self.a.handle(now, frame));
            }
        }
        Delivered { to_a, to_b }
    }

    /// Earliest time the link has work for [`Duplex::pump`]: a live
    /// endpoint's retransmission, heartbeat or pending ack, or an in-flight
    /// copy becoming deliverable. Lease edges are the caller's, through
    /// [`Endpoint::lease_edge`], since only it knows which leases it watches.
    pub fn next_due(&self, now: f64) -> f64 {
        let mut due = self.b.next_due(now);
        if !self.a_dead {
            due = due.min(self.a.next_due(now));
        }
        for t in [self.a_to_b.next_due(), self.b_to_a.next_due()]
            .into_iter()
            .flatten()
        {
            due = due.min(t);
        }
        due
    }

    /// Whether every sent payload has been acknowledged and nothing is in
    /// flight in either direction.
    pub fn is_quiet(&self) -> bool {
        self.a.in_flight() == 0
            && self.b.in_flight() == 0
            && self.a_to_b.is_idle()
            && self.b_to_a.is_idle()
    }

    /// What the a→b channel did with its traffic.
    pub fn a_to_b_stats(&self) -> ChannelStats {
        self.a_to_b.stats()
    }

    /// What the b→a channel did with its traffic.
    pub fn b_to_a_stats(&self) -> ChannelStats {
        self.b_to_a.stats()
    }
}

/// Appends a batch of delivered payloads, taking the batch's own buffer when
/// nothing came before it, so a pump that delivers one batch allocates no
/// buffer of its own.
fn append<T>(out: &mut Vec<T>, batch: Vec<T>) {
    if out.is_empty() {
        *out = batch;
    } else {
        out.extend(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link whose side `a` sends `u32` events and side `b` `u8` actions,
    /// the same quality both ways.
    fn link(quality: LinkQuality, lease: LeaseConfig, seed: u64) -> Duplex<u32, u8> {
        let seeds = [seed, seed ^ 1, seed ^ 2, seed ^ 3];
        Duplex::new(
            EndpointConfig::default(),
            lease,
            quality,
            quality,
            seeds,
            0.0,
        )
    }

    #[test]
    fn clean_link_round_trips_events_and_actions() {
        let mut link = link(LinkQuality::clean(), LeaseConfig::default(), 7);
        link.a.send(0.0, 1);
        link.b.send(0.0, 2);
        let mut events = Vec::new();
        let mut actions = Vec::new();
        for k in 0..10 {
            let delivered = link.pump(k as f64 * 0.1);
            events.extend(delivered.to_b);
            actions.extend(delivered.to_a);
        }
        assert_eq!(events, vec![1]);
        assert_eq!(actions, vec![2]);
        assert!(link.is_quiet());
    }

    #[test]
    fn next_due_lets_a_quiet_link_sleep_between_heartbeats() {
        let mut link = link(LinkQuality::clean(), LeaseConfig::default(), 7);
        link.pump(0.0);
        let due = link.next_due(0.0);
        assert!(
            due >= 0.5 - 1e-9,
            "a quiet link's next work is the heartbeat slot, got {due}"
        );
        // queued traffic is due immediately (first transmission slot)
        link.a.send(0.1, 1);
        assert!(link.next_due(0.1) <= 0.1 + 1e-9);
        // pumping at each due time (never in between) still delivers
        let mut now = 0.1;
        let mut events = Vec::new();
        for _ in 0..50 {
            now = link.next_due(now).max(now);
            events.extend(link.pump(now).to_b);
            if link.is_quiet() {
                break;
            }
        }
        assert_eq!(events, vec![1]);
        assert!(link.is_quiet());
    }

    #[test]
    fn next_due_covers_the_lease_expiry_edge() {
        let quality = LinkQuality::clean().with_partition(0.5, 1000.0);
        let lease = LeaseConfig {
            timeout_s: 2.0,
            ..LeaseConfig::default()
        };
        let mut link = link(quality, lease, 9);
        // event-driven pumping only at the link's due times and the edges of
        // the leases not yet expired must still observe both expiries (the
        // partition silences every heartbeat)
        let mut now = 0.0;
        let (mut a_lost, mut b_lost) = (false, false);
        for _ in 0..200 {
            link.pump(now);
            a_lost |= link.a.lease_expired(now);
            b_lost |= link.b.lease_expired(now);
            if a_lost && b_lost {
                break;
            }
            let mut due = link.next_due(now);
            if !a_lost {
                due = due.min(link.a.lease_edge(now));
            }
            if !b_lost {
                due = due.min(link.b.lease_edge(now));
            }
            now = due.max(now);
        }
        assert!(a_lost, "side a's lease must expire under partition");
        assert!(b_lost, "side b's lease must expire");
        assert!(now < 10.0, "expiry observed promptly, got t={now}");
    }

    #[test]
    fn same_seed_same_link_trace() {
        let quality = LinkQuality::clean().with_drop(0.3).with_jitter(0.4);
        let run = || {
            let mut link = link(quality, LeaseConfig::default(), 42);
            let mut out = Vec::new();
            for k in 0..400 {
                let now = k as f64 * 0.1;
                if k % 7 == 0 {
                    link.a.send(now, k);
                }
                let delivered = link.pump(now);
                out.push((k, delivered.to_b, delivered.to_a.len()));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_dead_side_is_silent_while_its_inbound_channel_drains() {
        let mut link = link(LinkQuality::clean(), LeaseConfig::default(), 3);
        link.a.send(0.0, 1);
        link.kill_a();
        assert!(link.a_dead());
        // side a's payload is due now, but a dead side's timers are not the
        // link's: only b's heartbeat slot is
        assert_eq!(link.a.next_due(0.0), 0.0);
        assert_eq!(link.next_due(0.0), 0.5);
        link.b.send(0.0, 2);
        let a_before = link.a.stats();
        for k in 0..=50 {
            let delivered = link.pump(k as f64 * 0.1);
            assert!(delivered.to_a.is_empty() && delivered.to_b.is_empty());
        }
        // nothing emitted, nothing handled
        assert_eq!(link.a.stats(), a_before);
        assert_eq!(link.a_to_b_stats().offered, 0);
        // b's data, retransmissions and heartbeats still cross b→a and are
        // counted as they drain
        assert!(link.b.stats().retransmits > 0, "b's data is never acked");
        assert!(link.b_to_a_stats().delivered > 0);
        // the peer hears silence: its lease expires after the timeout
        assert!(!link.b.lease_expired(3.0));
        assert!(link.b.lease_expired(5.0));
    }
}
