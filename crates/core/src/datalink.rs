//! The session's drone↔supervisor datalink.
//!
//! When a [`DatalinkConfig`] is installed in
//! [`SessionConfig::datalink`](crate::SessionConfig), the negotiation no
//! longer runs over in-process calls: drone-side events ([`LinkEvent`])
//! travel to the supervisor over one reliable [`Duplex`] link (the uplink is
//! its a→b direction), and the supervisor's [`ProtocolAction`]s come back
//! the same way (the downlink, b→a). Both
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
use hdc_link::{ChannelStats, Duplex, EndpointConfig, EndpointStats, LeaseConfig, LinkQuality};
use hdc_runtime::derive_seed;

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
pub(crate) struct LinkPump {
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

/// The session's live link: a [`Duplex`] whose side `a` is the drone and
/// side `b` the supervisor, and the two lease latches.
#[derive(Debug)]
pub(crate) struct SessionLink {
    link: Duplex<LinkEvent, ProtocolAction>,
    drone_lease_lost: bool,
    supervisor_lease_lost: bool,
}

impl SessionLink {
    /// Builds the link at simulation time `now`, deriving all four decision
    /// streams (two endpoints, two channels) from the one session seed, so
    /// the link never shares draws with the human or the wind process.
    pub fn new(config: DatalinkConfig, seed: u64, now: f64) -> Self {
        let seeds = [1, 2, 3, 4].map(|salt| derive_seed(seed, salt));
        SessionLink {
            link: Duplex::new(
                config.endpoint,
                config.lease,
                config.uplink,
                config.downlink,
                seeds,
                now,
            ),
            drone_lease_lost: false,
            supervisor_lease_lost: false,
        }
    }

    /// Queues a drone-side event for reliable uplink delivery.
    pub fn send_event(&mut self, now: f64, event: LinkEvent) {
        self.link.a.send(now, event);
    }

    /// Queues a supervisor action for reliable downlink delivery.
    pub fn send_action(&mut self, now: f64, action: ProtocolAction) {
        self.link.b.send(now, action);
    }

    /// One link round ([`Duplex::pump`]), then the lease checks. Call
    /// exactly once per simulation step.
    pub fn pump(&mut self, now: f64) -> LinkPump {
        let delivered = self.link.pump(now);
        let drone_lease_expired = !self.drone_lease_lost && self.link.a.lease_expired(now);
        self.drone_lease_lost |= drone_lease_expired;
        let supervisor_lease_expired =
            !self.supervisor_lease_lost && self.link.b.lease_expired(now);
        self.supervisor_lease_lost |= supervisor_lease_expired;
        LinkPump {
            events: delivered.to_b,
            actions: delivered.to_a,
            drone_lease_expired,
            supervisor_lease_expired,
        }
    }

    /// Earliest future time this link has work: the link's own timers and
    /// in-flight copies, or the expiry edge of a lease not yet latched. An
    /// event-driven scheduler pumps the link at this time instead of every
    /// tick; a quiet link between heartbeats costs zero work.
    pub fn next_due(&self, now: f64) -> f64 {
        let mut due = self.link.next_due(now);
        if !self.drone_lease_lost {
            due = due.min(self.link.a.lease_edge(now));
        }
        if !self.supervisor_lease_lost {
            due = due.min(self.link.b.lease_edge(now));
        }
        due
    }

    /// Whether every sent payload has been acknowledged and nothing is in
    /// flight — the link's contribution to session termination.
    pub fn is_quiet(&self) -> bool {
        self.link.is_quiet()
    }

    /// The link's traffic summary for the session report.
    pub fn report(&self) -> LinkReport {
        LinkReport {
            up: self.link.a_to_b_stats(),
            down: self.link.b_to_a_stats(),
            drone_endpoint: self.link.a.stats(),
            supervisor_endpoint: self.link.b.stats(),
            drone_lease_expired: self.drone_lease_lost,
            supervisor_lease_expired: self.supervisor_lease_lost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
