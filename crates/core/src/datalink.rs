//! The session's drone↔supervisor datalink.
//!
//! When a [`DatalinkConfig`] is installed in
//! [`SessionConfig::datalink`](crate::SessionConfig), the negotiation no
//! longer runs over in-process calls: drone-side events ([`LinkEvent`])
//! travel to the supervisor over a reliable [`Endpoint`] riding a seeded
//! [`LossyChannel`] (the uplink), and the supervisor's
//! [`ProtocolAction`]s come back the same way (the downlink). Both
//! endpoints exchange heartbeats; either side that hears nothing for the
//! lease timeout declares the link lost — the drone answers with an
//! autonomous safe-hold, the supervisor by aborting the negotiation.
//!
//! Both paths share one event route. The session hands every drone-side
//! event to one dispatch step, which sends it up the uplink when a link is
//! configured and otherwise hands it straight to the supervisor's handler,
//! the same handler the uplink delivers to. That handler runs one machine
//! handler per event and logs the new state iff it changed. With no config
//! installed the traces are byte-identical to every build that predates the
//! link layer.

use crate::protocol::ProtocolAction;
use hdc_figure::MarshallingSign;
use hdc_link::{
    ChannelStats, Endpoint, EndpointConfig, EndpointStats, Frame, LeaseConfig, LinkQuality,
    LossyChannel,
};

/// Datalink parameters: one impairment model per direction plus the shared
/// transport and lease tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatalinkConfig {
    /// Drone → supervisor direction (negotiation events).
    pub uplink: LinkQuality,
    /// Supervisor → drone direction (protocol actions).
    pub downlink: LinkQuality,
    /// Retransmission/window tuning, both endpoints.
    pub endpoint: EndpointConfig,
    /// Heartbeat/lease tuning, both endpoints.
    pub lease: LeaseConfig,
}

impl DatalinkConfig {
    /// A clean 50 ms link in both directions with default transport tuning.
    pub fn clean() -> Self {
        DatalinkConfig::symmetric(LinkQuality::clean())
    }

    /// The same impairment model in both directions.
    pub fn symmetric(quality: LinkQuality) -> Self {
        DatalinkConfig {
            uplink: quality,
            downlink: quality,
            endpoint: EndpointConfig::default(),
            lease: LeaseConfig::default(),
        }
    }
}

/// A drone-side negotiation event carried over the uplink. Each variant
/// maps onto exactly one `NegotiationMachine` handler at the supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkEvent {
    /// The drone reached the contact point.
    Arrived,
    /// A commanded communicative pattern finished.
    PatternComplete,
    /// The vision pipeline confirmed a static sign. (Frames that confirm
    /// nothing are not reported — the supervisor's timeouts cover silence.)
    Sign(MarshallingSign),
    /// The dynamic channel detected a wave-off gesture.
    WaveOff,
    /// A drone-side safety function engaged.
    Safety,
}

/// What one finished session's link carried — part of the session report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkReport {
    /// Uplink (events) channel statistics.
    pub up: ChannelStats,
    /// Downlink (actions) channel statistics.
    pub down: ChannelStats,
    /// Drone endpoint statistics.
    pub drone_endpoint: EndpointStats,
    /// Supervisor endpoint statistics.
    pub supervisor_endpoint: EndpointStats,
    /// Whether the drone-side lease expired at any point (forcing the
    /// autonomous safe-hold).
    pub drone_lease_expired: bool,
    /// Whether the supervisor-side lease expired at any point (the drone
    /// was declared lost).
    pub supervisor_lease_expired: bool,
}

/// What one pump of the link produced, for the session loop to act on.
#[derive(Debug)]
pub struct LinkPump {
    /// Events that became deliverable at the supervisor, in order.
    pub events: Vec<LinkEvent>,
    /// Actions that became deliverable at the drone, in order.
    pub actions: Vec<ProtocolAction>,
    /// The drone-side lease expired on this pump (latched: reported once).
    pub drone_lease_expired: bool,
    /// The supervisor-side lease expired on this pump (latched: reported
    /// once).
    pub supervisor_lease_expired: bool,
}

/// The session's live link state: two endpoints and the two directed
/// channels between them.
#[derive(Debug)]
pub struct SessionLink {
    drone_ep: Endpoint<LinkEvent, ProtocolAction>,
    supervisor_ep: Endpoint<ProtocolAction, LinkEvent>,
    up: LossyChannel<Frame<LinkEvent>>,
    down: LossyChannel<Frame<ProtocolAction>>,
    lease_timeout_s: f64,
    drone_lease_lost: bool,
    supervisor_lease_lost: bool,
}

/// How far past the exact lease-expiry instant the scheduler pumps: the
/// expiry predicate is a strict inequality, so landing exactly on the edge
/// would not observe it.
const LEASE_EDGE_S: f64 = 1e-6;

/// Derives an independent stream seed from the session seed and a salt —
/// the shared SplitMix64 finaliser, so the link never shares draws with the
/// human or the wind process. The cohort relay pairs use the same derivation
/// with their own salt range.
pub(crate) fn derive_seed(seed: u64, salt: u64) -> u64 {
    hdc_runtime::mix(seed ^ salt.wrapping_mul(hdc_runtime::GOLDEN_GAMMA))
}

impl SessionLink {
    /// Builds the link at simulation time `now`, deriving all four decision
    /// streams (two channels, two endpoints) from the one session seed.
    pub fn new(config: DatalinkConfig, seed: u64, now: f64) -> Self {
        SessionLink {
            drone_ep: Endpoint::new(config.endpoint, config.lease, derive_seed(seed, 1), now),
            supervisor_ep: Endpoint::new(config.endpoint, config.lease, derive_seed(seed, 2), now),
            up: LossyChannel::new(config.uplink, derive_seed(seed, 3)),
            down: LossyChannel::new(config.downlink, derive_seed(seed, 4)),
            lease_timeout_s: config.lease.timeout_s,
            drone_lease_lost: false,
            supervisor_lease_lost: false,
        }
    }

    /// Queues a drone-side event for reliable uplink delivery.
    pub fn send_event(&mut self, now: f64, event: LinkEvent) {
        self.drone_ep.send(now, event);
    }

    /// Queues a supervisor action for reliable downlink delivery.
    pub fn send_action(&mut self, now: f64, action: ProtocolAction) {
        self.supervisor_ep.send(now, action);
    }

    /// One link round: both endpoints emit their due frames into the
    /// channels, both channels deliver what is due, and the leases are
    /// checked. Call exactly once per simulation step.
    pub fn pump(&mut self, now: f64) -> LinkPump {
        for frame in self.drone_ep.tick(now) {
            self.up.send(now, frame);
        }
        for frame in self.supervisor_ep.tick(now) {
            self.down.send(now, frame);
        }
        let mut events = Vec::new();
        for frame in self.up.poll(now) {
            events.extend(self.supervisor_ep.handle(now, frame));
        }
        let mut actions = Vec::new();
        for frame in self.down.poll(now) {
            actions.extend(self.drone_ep.handle(now, frame));
        }
        let drone_lease_expired = !self.drone_lease_lost && self.drone_ep.lease_expired(now);
        self.drone_lease_lost |= drone_lease_expired;
        let supervisor_lease_expired =
            !self.supervisor_lease_lost && self.supervisor_ep.lease_expired(now);
        self.supervisor_lease_lost |= supervisor_lease_expired;
        LinkPump {
            events,
            actions,
            drone_lease_expired,
            supervisor_lease_expired,
        }
    }

    /// Earliest future time this link has work: an endpoint retransmission,
    /// heartbeat or pending ack, an in-flight copy becoming deliverable, or
    /// a lease expiring. `None` only if nothing will ever be due (cannot
    /// happen in practice — endpoints always heartbeat). An event-driven
    /// scheduler pumps the link at this time instead of every tick; a quiet
    /// link between heartbeats costs zero work.
    pub fn next_due(&self, now: f64) -> Option<f64> {
        let mut due = self
            .drone_ep
            .next_due(now)
            .min(self.supervisor_ep.next_due(now));
        if let Some(t) = self.up.next_due() {
            due = due.min(t);
        }
        if let Some(t) = self.down.next_due() {
            due = due.min(t);
        }
        // lease expiry is an edge the pump must observe: schedule the first
        // instant strictly past `last_heard + timeout` for whichever lease
        // has not latched yet
        for (latched, ep_last_heard, timeout) in [
            (
                self.drone_lease_lost,
                self.drone_ep.last_heard(),
                self.lease_timeout_s,
            ),
            (
                self.supervisor_lease_lost,
                self.supervisor_ep.last_heard(),
                self.lease_timeout_s,
            ),
        ] {
            if !latched {
                due = due.min((ep_last_heard + timeout).max(now) + LEASE_EDGE_S);
            }
        }
        Some(due)
    }

    /// Whether every sent payload has been acknowledged and nothing is in
    /// flight — the link's contribution to session termination.
    pub fn is_quiet(&self) -> bool {
        !self.drone_ep.has_unacked()
            && !self.supervisor_ep.has_unacked()
            && self.up.is_idle()
            && self.down.is_idle()
    }

    /// The link's traffic summary for the session report.
    pub fn report(&self) -> LinkReport {
        LinkReport {
            up: self.up.stats(),
            down: self.down.stats(),
            drone_endpoint: self.drone_ep.stats(),
            supervisor_endpoint: self.supervisor_ep.stats(),
            drone_lease_expired: self.drone_lease_lost,
            supervisor_lease_expired: self.supervisor_lease_lost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_round_trips_events_and_actions() {
        let mut link = SessionLink::new(DatalinkConfig::clean(), 7, 0.0);
        link.send_event(0.0, LinkEvent::Arrived);
        link.send_action(0.0, ProtocolAction::ExecutePoke);
        let mut events = Vec::new();
        let mut actions = Vec::new();
        for k in 0..10 {
            let pump = link.pump(k as f64 * 0.1);
            events.extend(pump.events);
            actions.extend(pump.actions);
        }
        assert_eq!(events, vec![LinkEvent::Arrived]);
        assert_eq!(actions, vec![ProtocolAction::ExecutePoke]);
        assert!(link.is_quiet());
    }

    #[test]
    fn partition_expires_both_leases_exactly_once() {
        let quality = LinkQuality::clean().with_partition(1.0, 30.0);
        let mut config = DatalinkConfig::symmetric(quality);
        config.lease.timeout_s = 2.0;
        let mut link = SessionLink::new(config, 9, 0.0);
        let mut drone_expiries = 0;
        let mut supervisor_expiries = 0;
        for k in 0..200 {
            let pump = link.pump(k as f64 * 0.1);
            drone_expiries += usize::from(pump.drone_lease_expired);
            supervisor_expiries += usize::from(pump.supervisor_lease_expired);
        }
        assert_eq!(drone_expiries, 1, "drone lease latches once");
        assert_eq!(supervisor_expiries, 1, "supervisor lease latches once");
        let report = link.report();
        assert!(report.drone_lease_expired && report.supervisor_lease_expired);
    }

    #[test]
    fn next_due_lets_a_quiet_link_sleep_between_heartbeats() {
        let mut link = SessionLink::new(DatalinkConfig::clean(), 7, 0.0);
        link.pump(0.0);
        let due = link.next_due(0.0).unwrap();
        assert!(
            due >= 0.5 - 1e-9,
            "a quiet link's next work is the heartbeat slot, got {due}"
        );
        // queued traffic is due immediately (first transmission slot)
        link.send_event(0.1, LinkEvent::Arrived);
        assert!(link.next_due(0.1).unwrap() <= 0.1 + 1e-9);
        // pumping at each due time (never in between) still delivers
        let mut now = 0.1;
        let mut events = Vec::new();
        for _ in 0..50 {
            now = link.next_due(now).unwrap().max(now);
            events.extend(link.pump(now).events);
            if link.is_quiet() {
                break;
            }
        }
        assert_eq!(events, vec![LinkEvent::Arrived]);
        assert!(link.is_quiet());
    }

    #[test]
    fn next_due_covers_the_lease_expiry_edge() {
        let quality = LinkQuality::clean().with_partition(0.5, 1000.0);
        let mut config = DatalinkConfig::symmetric(quality);
        config.lease.timeout_s = 2.0;
        let mut link = SessionLink::new(config, 9, 0.0);
        // event-driven pumping only at next_due times must still latch both
        // lease expiries (the partition silences every heartbeat)
        let mut now = 0.0;
        let (mut drone_lost, mut supervisor_lost) = (false, false);
        for _ in 0..200 {
            let pump = link.pump(now);
            drone_lost |= pump.drone_lease_expired;
            supervisor_lost |= pump.supervisor_lease_expired;
            if drone_lost && supervisor_lost {
                break;
            }
            now = link.next_due(now).unwrap().max(now);
        }
        assert!(drone_lost, "drone lease must expire under partition");
        assert!(supervisor_lost, "supervisor lease must expire");
        assert!(now < 10.0, "expiry observed promptly, got t={now}");
    }

    #[test]
    fn same_seed_same_link_trace() {
        let quality = LinkQuality::clean().with_drop(0.3).with_jitter(0.4);
        let run = || {
            let mut link = SessionLink::new(DatalinkConfig::symmetric(quality), 42, 0.0);
            let mut out = Vec::new();
            for k in 0..400 {
                let now = k as f64 * 0.1;
                if k % 7 == 0 {
                    link.send_event(now, LinkEvent::PatternComplete);
                }
                let pump = link.pump(now);
                out.push((k, pump.events.len(), pump.actions.len()));
            }
            out
        };
        assert_eq!(run(), run());
    }
}
