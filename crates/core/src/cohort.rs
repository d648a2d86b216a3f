//! The fault-tolerant observation cohort.
//!
//! A [`CohortConfig`] installed in `SessionConfig::cohort` puts one or two
//! extra observer drones on station around the same human, each at an
//! azimuth offset from the session owner. Every observer runs the full
//! recognition stack (static pipeline, debounce filter, dynamic wave-off
//! channel) on its *own* rendered view and relays confirmed decisions to the
//! owner over a per-pair reliable [`Endpoint`] riding seeded
//! [`LossyChannel`]s — the same transport the drone↔supervisor datalink
//! uses, with the same retransmission, dedup and heartbeat-lease machinery.
//! An observer whose own relative azimuth falls inside the recogniser's
//! dead band *abstains* from static votes — a blind viewpoint never outvotes
//! a sighted one — while its wave-off channel stays live.
//!
//! The owner fuses its own confirmed sign with the relayed votes through a
//! deterministic quorum rule before anything reaches the negotiation
//! machine:
//!
//! * **agreement** — one distinct sign among the in-window votes of live
//!   members, with at least `quorum` supporters (clamped to the live member
//!   count) → the sign is accepted and delivered exactly once into the
//!   existing protocol path;
//! * **disagreement** — two distinct signs in the window → every vote is
//!   discarded and the human is effectively asked to re-signal (the
//!   protocol's own timeouts re-poke);
//! * **relay lease expiry** — an observer silent past the lease timeout is
//!   declared lost and the quorum re-anchors on the surviving members,
//!   degrading all the way down to the owner's single-view behaviour.
//!   Losing relays can delay or abandon a negotiation; it can never grant
//!   one, and a relayed wave-off is honoured immediately without any vote
//!   (the conservative direction is never gated).
//!
//! **Determinism discipline.** Every relay channel draws from its own
//! SplitMix64 stream derived from `(session seed, member, direction)`; the
//! vote state machine is pure bookkeeping. A cohort session is a pure
//! function of its config at any worker count, and `cohort: None` leaves the
//! session byte-identical to the pre-cohort engine — the committed golden
//! manifests prove both.

use crate::datalink::derive_seed;
use crate::view::{calibrated_pipeline, Calibrated, ViewMemo};
use hdc_figure::{MarshallingSign, Signaller, ViewSpec};
use hdc_geometry::azimuth::{in_dead_angle_deg, relative_azimuth_rad, rotate_about};
use hdc_geometry::Vec3;
use hdc_link::{
    ChannelStats, Endpoint, EndpointConfig, Frame, LeaseConfig, LinkQuality, LossyChannel,
};
use hdc_vision::dynamic::{DynamicDecision, DynamicRecognizer};
use hdc_vision::DecisionFilter;

/// One observer drone of the cohort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserverSpec {
    /// Counter-clockwise ground-plane offset from the owner's position
    /// around the human, radians. An observer offset by the dead-angle
    /// centre sees the human frontally exactly when the owner is blind.
    pub azimuth_offset_rad: f64,
    /// Impairment model of this observer's relay link, both directions.
    pub relay: LinkQuality,
    /// The observer platform fails (goes permanently radio-silent) at this
    /// simulated time, if set — the drone-loss fault.
    pub fail_at_s: Option<f64>,
}

impl ObserverSpec {
    /// A healthy observer at the given azimuth offset with a clean relay.
    pub fn at_offset(azimuth_offset_rad: f64) -> Self {
        ObserverSpec {
            azimuth_offset_rad,
            relay: LinkQuality::clean(),
            fail_at_s: None,
        }
    }
}

/// Cohort parameters, installed in `SessionConfig::cohort`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortConfig {
    /// The observers on station (fixed capacity: up to two, so the config
    /// stays `Copy` like the rest of `SessionConfig`).
    pub observers: [Option<ObserverSpec>; 2],
    /// Minimum number of agreeing votes required to accept a sign. Clamped
    /// at resolution time to the number of live members, so losing relays
    /// re-anchors the quorum instead of deadlocking it.
    pub quorum: usize,
    /// Votes older than this no longer count toward the quorum, seconds.
    pub vote_window_s: f64,
    /// An observer re-sends its standing confirmed sign at this cadence so
    /// the owner's vote window never starves during a long hold, seconds.
    pub vote_refresh_s: f64,
    /// Retransmission/window tuning for every relay endpoint.
    pub endpoint: EndpointConfig,
    /// Heartbeat/lease tuning for every relay endpoint.
    pub lease: LeaseConfig,
}

impl CohortConfig {
    /// One observer at the given offset, quorum 1: any live member that
    /// confirms an uncontested sign speaks for the cohort — the dead-angle
    /// fusion configuration.
    pub fn single_observer(azimuth_offset_rad: f64) -> Self {
        CohortConfig {
            observers: [Some(ObserverSpec::at_offset(azimuth_offset_rad)), None],
            quorum: 1,
            vote_window_s: 2.5,
            vote_refresh_s: 1.0,
            endpoint: EndpointConfig::default(),
            lease: LeaseConfig::default(),
        }
    }

    /// Two observers, quorum 2: a sign needs independent confirmation from
    /// a second live member before it is believed.
    pub fn dual_observer(first_offset_rad: f64, second_offset_rad: f64) -> Self {
        CohortConfig {
            observers: [
                Some(ObserverSpec::at_offset(first_offset_rad)),
                Some(ObserverSpec::at_offset(second_offset_rad)),
            ],
            quorum: 2,
            ..CohortConfig::single_observer(first_offset_rad)
        }
    }

    /// The same cohort with this impairment model on every relay link.
    pub fn with_relay(mut self, quality: LinkQuality) -> Self {
        for spec in self.observers.iter_mut().flatten() {
            spec.relay = quality;
        }
        self
    }

    /// The same cohort with observer `index` failing at `at_s`.
    pub fn with_observer_failure(mut self, index: usize, at_s: f64) -> Self {
        if let Some(Some(spec)) = self.observers.get_mut(index) {
            spec.fail_at_s = Some(at_s);
        }
        self
    }

    /// Configured observer count.
    pub fn observer_count(&self) -> usize {
        self.observers.iter().flatten().count()
    }
}

/// A message an observer relays to the session owner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelayMsg {
    /// The observer's recognition stack confirmed this static sign.
    Vote(MarshallingSign),
    /// The observer's dynamic channel detected a wave-off.
    WaveOff,
}

/// What one finished session's cohort did — part of the session report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CohortReport {
    /// Observers configured.
    pub observers: usize,
    /// Observers declared lost (relay lease expired).
    pub lost: usize,
    /// Observer platforms that failed (scheduled drone loss).
    pub failed: usize,
    /// Relayed votes the owner received (after endpoint dedup).
    pub votes_received: u64,
    /// Quorum acceptances (signs delivered into the protocol path).
    pub accepts: u64,
    /// Vote rounds discarded because live members disagreed.
    pub disagreements: u64,
    /// Relayed wave-offs honoured.
    pub wave_offs_relayed: u64,
    /// Relay traffic toward the owner, summed over observers.
    pub relay_up: ChannelStats,
    /// Observer views served from the observers' view memos (a repeat of
    /// that observer's previous view, neither rendered nor recognised
    /// again) — a host-independent work counter outside every digest.
    pub views_reused: u64,
}

/// What one pump of the cohort produced, for the session loop to act on.
#[derive(Debug, Default)]
pub(crate) struct CohortPump {
    /// A sign that won the quorum vote on this pump, to deliver into the
    /// protocol path.
    pub accepted: Option<MarshallingSign>,
    /// A relayed wave-off arrived (honour immediately, no vote).
    pub wave_off: bool,
    /// Signs recognised by observers on this pump (logged like the owner's
    /// own recognitions, so the R4 audit sees cohort-wide evidence).
    pub recognized: Vec<MarshallingSign>,
    /// Human-readable cohort events for the session log.
    pub notes: Vec<String>,
}

/// A standing vote: which sign, and when it was last refreshed.
#[derive(Debug, Clone, Copy)]
struct Vote {
    sign: MarshallingSign,
    at: f64,
}

/// One observer's live state: its recognition stack, its side of the relay,
/// the owner's side, and the two directed channels between them.
#[derive(Debug)]
struct Member {
    spec: ObserverSpec,
    pipeline: Calibrated,
    filter: DecisionFilter,
    dynamic: DynamicRecognizer,
    memo: ViewMemo,
    /// Observer-side endpoint (sends `RelayMsg`, receives nothing).
    ep: Endpoint<RelayMsg, ()>,
    /// Owner-side endpoint (receives `RelayMsg`).
    owner_ep: Endpoint<(), RelayMsg>,
    to_owner: LossyChannel<Frame<RelayMsg>>,
    to_observer: LossyChannel<Frame<()>>,
    /// Owner declared this observer lost (lease latched).
    lost: bool,
    /// The platform failure fired; the observer is radio-silent forever.
    failed: bool,
    /// The last vote this observer sent, for refresh pacing.
    last_sent: Option<Vote>,
}

/// The live cohort state owned by a `CollaborationSession`.
#[derive(Debug)]
pub(crate) struct Cohort {
    quorum: usize,
    vote_window_s: f64,
    vote_refresh_s: f64,
    lease_timeout_s: f64,
    members: Vec<Member>,
    /// Standing votes: index 0 is the owner, `1 + i` is observer `i`.
    votes: Vec<Option<Vote>>,
    report: CohortReport,
}

/// How far past the exact lease-expiry instant the scheduler pumps (the
/// expiry predicate is strict — same edge the datalink schedules).
const LEASE_EDGE_S: f64 = 1e-6;

/// Seed-salt base for cohort streams; the session datalink uses salts 1–4,
/// so cohort members start well clear of them.
const SALT_BASE: u64 = 0x20;

impl Cohort {
    /// Builds the cohort: one recognition stack (sharing the calibrated
    /// pipeline) and one seeded relay pair per observer, all streams derived
    /// from the session seed.
    pub fn new(
        config: CohortConfig,
        seed: u64,
        negotiation_altitude_m: f64,
        contact_distance_m: f64,
        now: f64,
    ) -> Self {
        let pipeline = calibrated_pipeline(&ViewSpec::paper_default(
            0.0,
            negotiation_altitude_m,
            contact_distance_m,
        ));
        let members: Vec<Member> = config
            .observers
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, spec)| {
                let salt = SALT_BASE + 4 * i as u64;
                Member {
                    spec: *spec,
                    pipeline: pipeline.clone(),
                    filter: DecisionFilter::new(2),
                    dynamic: crate::session::session_dynamic_recognizer(),
                    memo: ViewMemo::default(),
                    ep: Endpoint::new(config.endpoint, config.lease, derive_seed(seed, salt), now),
                    owner_ep: Endpoint::new(
                        config.endpoint,
                        config.lease,
                        derive_seed(seed, salt + 1),
                        now,
                    ),
                    to_owner: LossyChannel::new(spec.relay, derive_seed(seed, salt + 2)),
                    to_observer: LossyChannel::new(spec.relay, derive_seed(seed, salt + 3)),
                    lost: false,
                    failed: false,
                    last_sent: None,
                }
            })
            .collect();
        let votes = vec![None; 1 + members.len()];
        let report = CohortReport {
            observers: members.len(),
            ..CohortReport::default()
        };
        Cohort {
            quorum: config.quorum.max(1),
            vote_window_s: config.vote_window_s,
            vote_refresh_s: config.vote_refresh_s,
            lease_timeout_s: config.lease.timeout_s,
            members,
            votes,
            report,
        }
    }

    /// Members the owner still believes are on station, itself included.
    fn live_members(&self) -> usize {
        1 + self.members.iter().filter(|m| !m.lost).count()
    }

    /// Every observer senses the scene from its own viewpoint and queues
    /// votes/wave-offs for relay. Called once per owner camera frame with
    /// the current signaller and the owner's eye position.
    ///
    /// Fault layers touch only the owner's frame, so every observer always
    /// reads through its view memo: a repeat of its previous view reuses
    /// that view's features and static decision instead of rendering and
    /// recognising again.
    pub fn sense(&mut self, now: f64, signaller: &Signaller, owner_eye: Vec3) {
        let refresh = self.vote_refresh_s;
        let human = signaller.position();
        for member in &mut self.members {
            if member.failed || member.lost {
                continue;
            }
            let ground = rotate_about(owner_eye.xy(), human, member.spec.azimuth_offset_rad);
            if ground.distance(human) < 0.5 {
                continue; // directly overhead: no usable view (the owner's floor)
            }
            let eye = Vec3::from_xy(ground, owner_eye.z);

            // A member whose own relative azimuth falls inside the
            // recogniser's dead band abstains from static votes instead of
            // guessing — a blind viewpoint must never outvote a sighted one.
            // Blindness is a function of the view key, so a blind member
            // never reads the static decision at all.
            let rel_az = relative_azimuth_rad(human, signaller.heading(), ground);
            let blind = in_dead_angle_deg(rel_az.to_degrees());
            let read = member.memo.view(signaller, eye, &member.pipeline, !blind);

            // dynamic channel first — a wave-off outranks any static read
            member.dynamic.push_features(now, read.features);
            if member.dynamic.decision() == DynamicDecision::WaveOff {
                member.dynamic.reset();
                member.ep.send(now, RelayMsg::WaveOff);
                continue;
            }

            // (The wave-off channel above stays live for a blind member: its
            // failure mode is a missed wave-off, never a false grant.)
            if blind {
                member.filter.push(None);
                continue;
            }
            let decision = read.decision.expect("a sighted read carries its decision");

            // static channel, debounced exactly like the owner's
            let confirmed = member.filter.push(decision.as_deref());
            let sign = confirmed.and_then(|label| {
                MarshallingSign::ALL
                    .into_iter()
                    .find(|s| s.label() == label)
            });
            if let Some(sign) = sign {
                let refresh_due = match member.last_sent {
                    Some(prev) => prev.sign != sign || now - prev.at >= refresh,
                    None => true,
                };
                if refresh_due {
                    member.last_sent = Some(Vote { sign, at: now });
                    member.ep.send(now, RelayMsg::Vote(sign));
                }
            }
        }
    }

    /// Records the owner's own confirmed sign as vote 0 and resolves the
    /// quorum. Returns the pump-shaped result for the session to act on.
    pub fn owner_vote(&mut self, now: f64, sign: MarshallingSign) -> CohortPump {
        self.votes[0] = Some(Vote { sign, at: now });
        let mut pump = CohortPump::default();
        self.resolve(now, &mut pump);
        pump
    }

    /// One cohort round: every live relay pair ticks its endpoints, moves
    /// frames through its channels, delivers votes, and checks its lease.
    /// Call exactly once per simulation step.
    pub fn pump(&mut self, now: f64) -> CohortPump {
        let mut pump = CohortPump::default();
        let mut new_votes = false;
        let mut newly_lost: Vec<usize> = Vec::new();
        for (i, member) in self.members.iter_mut().enumerate() {
            if member.lost {
                continue; // the owner has written this relay off entirely
            }
            if !member.failed {
                if let Some(at) = member.spec.fail_at_s {
                    if now >= at {
                        member.failed = true;
                        self.report.failed += 1;
                        pump.notes.push(format!(
                            "cohort: observer {i} platform failed (radio silent)"
                        ));
                    }
                }
            }
            if !member.failed {
                for frame in member.ep.tick(now) {
                    member.to_owner.send(now, frame);
                }
            }
            for frame in member.owner_ep.tick(now) {
                member.to_observer.send(now, frame);
            }
            for frame in member.to_observer.poll(now) {
                if !member.failed {
                    member.ep.handle(now, frame);
                }
            }
            for frame in member.to_owner.poll(now) {
                for msg in member.owner_ep.handle(now, frame) {
                    match msg {
                        RelayMsg::Vote(sign) => {
                            self.votes[1 + i] = Some(Vote { sign, at: now });
                            self.report.votes_received += 1;
                            pump.recognized.push(sign);
                            new_votes = true;
                        }
                        RelayMsg::WaveOff => {
                            self.report.wave_offs_relayed += 1;
                            pump.wave_off = true;
                            pump.notes
                                .push(format!("cohort: observer {i} relayed a wave-off"));
                        }
                    }
                }
            }
            if member.owner_ep.lease_expired(now) {
                member.lost = true;
                self.votes[1 + i] = None;
                newly_lost.push(i);
            }
        }
        // the notes go in after the loop so each carries the fully
        // re-anchored live-member count even when several leases expire on
        // the same pump
        for i in newly_lost {
            self.report.lost += 1;
            pump.notes.push(format!(
                "cohort: relay lease expired — observer {i} declared lost; \
                 re-anchoring consensus on {} live member(s)",
                self.live_members()
            ));
        }
        if new_votes {
            self.resolve(now, &mut pump);
        }
        pump
    }

    /// The deterministic quorum rule. Mutates the vote table (acceptance and
    /// disagreement both clear it) and appends its verdict to `pump`.
    fn resolve(&mut self, now: f64, pump: &mut CohortPump) {
        let live = self.live_members();
        let need = self.quorum.min(live);
        // in-window votes of live members only (vote slot 0 is the owner)
        let valid: Vec<Vote> = self
            .votes
            .iter()
            .enumerate()
            .filter(|(slot, _)| *slot == 0 || !self.members[slot - 1].lost)
            .filter_map(|(_, v)| *v)
            .filter(|v| now - v.at <= self.vote_window_s)
            .collect();
        let Some(first) = valid.first() else {
            return;
        };
        if let Some(other) = valid.iter().find(|v| v.sign != first.sign) {
            self.report.disagreements += 1;
            pump.notes.push(format!(
                "cohort: conflicting votes ({} vs {}) — round discarded, forcing a re-signal",
                first.sign.label(),
                other.sign.label()
            ));
            self.votes.iter_mut().for_each(|v| *v = None);
            return;
        }
        let count = valid.len();
        if count >= need {
            self.report.accepts += 1;
            pump.notes.push(format!(
                "cohort: quorum accepted {} ({count}/{need} of {live} live)",
                first.sign.label()
            ));
            pump.accepted = Some(first.sign);
            self.votes.iter_mut().for_each(|v| *v = None);
        }
    }

    /// Earliest future time any relay pair has work: endpoint timers,
    /// in-flight copies, scheduled platform failures, or a lease edge.
    pub fn next_due(&self, now: f64) -> Option<f64> {
        let mut due = f64::INFINITY;
        for member in &self.members {
            if member.lost {
                continue;
            }
            if !member.failed {
                due = due.min(member.ep.next_due(now));
                if let Some(at) = member.spec.fail_at_s {
                    due = due.min(at.max(now));
                }
            }
            due = due.min(member.owner_ep.next_due(now));
            if let Some(t) = member.to_owner.next_due() {
                due = due.min(t);
            }
            if let Some(t) = member.to_observer.next_due() {
                due = due.min(t);
            }
            let lease_edge = member.owner_ep.last_heard() + self.lease_timeout_s;
            due = due.min(lease_edge.max(now) + LEASE_EDGE_S);
        }
        if due.is_finite() {
            Some(due)
        } else {
            None
        }
    }

    /// Whether every relay has settled: each member is either written off
    /// (lost or failed) or has nothing unacknowledged and nothing in flight
    /// — the cohort's contribution to session termination.
    pub fn is_settled(&self) -> bool {
        self.members.iter().all(|m| {
            m.lost
                || m.failed
                || (!m.ep.has_unacked() && m.to_owner.is_idle() && m.to_observer.is_idle())
        })
    }

    /// The cohort's summary for the session report.
    pub fn report(&self) -> CohortReport {
        let mut report = self.report;
        for member in &self.members {
            report.views_reused += member.memo.reused();
            let s = member.to_owner.stats();
            report.relay_up.offered += s.offered;
            report.relay_up.dropped += s.dropped;
            report.relay_up.duplicated += s.duplicated;
            report.relay_up.delivered += s.delivered;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cohort(config: CohortConfig) -> Cohort {
        Cohort::new(config, 7, 4.0, 3.0, 0.0)
    }

    #[test]
    fn owner_alone_reaches_quorum_one_immediately() {
        let mut c = cohort(CohortConfig::single_observer(1.75));
        let pump = c.owner_vote(1.0, MarshallingSign::Yes);
        assert_eq!(pump.accepted, Some(MarshallingSign::Yes));
        assert_eq!(c.report().accepts, 1);
    }

    #[test]
    fn quorum_two_waits_for_a_second_voter() {
        let mut c = cohort(CohortConfig::dual_observer(0.35, 1.75));
        let pump = c.owner_vote(1.0, MarshallingSign::Yes);
        assert_eq!(pump.accepted, None, "one vote of quorum two must wait");
        // a matching observer vote within the window completes the quorum
        c.votes[1] = Some(Vote {
            sign: MarshallingSign::Yes,
            at: 1.5,
        });
        let mut pump = CohortPump::default();
        c.resolve(2.0, &mut pump);
        assert_eq!(pump.accepted, Some(MarshallingSign::Yes));
    }

    #[test]
    fn stale_votes_fall_out_of_the_window() {
        let mut c = cohort(CohortConfig::dual_observer(0.35, 1.75));
        c.votes[1] = Some(Vote {
            sign: MarshallingSign::Yes,
            at: 0.0,
        });
        let pump = c.owner_vote(10.0, MarshallingSign::Yes);
        assert_eq!(pump.accepted, None, "a 10 s old vote must not count");
    }

    #[test]
    fn disagreement_discards_the_round() {
        let mut c = cohort(CohortConfig::single_observer(1.75));
        c.votes[1] = Some(Vote {
            sign: MarshallingSign::No,
            at: 0.9,
        });
        let pump = c.owner_vote(1.0, MarshallingSign::Yes);
        assert_eq!(pump.accepted, None);
        assert_eq!(c.report().disagreements, 1);
        assert!(
            c.votes.iter().all(Option::is_none),
            "the round is discarded"
        );
        // the very next uncontested owner vote goes through
        let pump = c.owner_vote(1.5, MarshallingSign::Yes);
        assert_eq!(pump.accepted, Some(MarshallingSign::Yes));
    }

    #[test]
    fn losing_every_observer_reanchors_to_single_view() {
        let mut c = cohort(CohortConfig::dual_observer(0.35, 1.75));
        c.members[0].lost = true;
        c.members[1].lost = true;
        // quorum 2 clamps to the 1 live member: the owner alone decides
        let pump = c.owner_vote(1.0, MarshallingSign::Yes);
        assert_eq!(pump.accepted, Some(MarshallingSign::Yes));
        assert!(
            c.is_settled(),
            "written-off members cannot hold the session open"
        );
    }

    #[test]
    fn lost_observers_votes_do_not_count() {
        let mut c = cohort(CohortConfig::single_observer(1.75));
        c.votes[1] = Some(Vote {
            sign: MarshallingSign::No,
            at: 0.95,
        });
        c.members[0].lost = true;
        // the dissenting vote belongs to a lost member: no conflict
        let pump = c.owner_vote(1.0, MarshallingSign::Yes);
        assert_eq!(pump.accepted, Some(MarshallingSign::Yes));
        assert_eq!(c.report().disagreements, 0);
    }

    #[test]
    fn failed_platform_expires_the_owner_lease() {
        let config = CohortConfig::single_observer(1.75).with_observer_failure(0, 1.0);
        let mut c = cohort(config);
        let mut declared = 0;
        let mut t = 0.0;
        while t < 10.0 {
            let pump = c.pump(t);
            declared += pump
                .notes
                .iter()
                .filter(|n| n.contains("declared lost"))
                .count();
            t += 0.1;
        }
        assert_eq!(
            declared, 1,
            "the silent observer is declared lost exactly once"
        );
        let report = c.report();
        assert_eq!(report.failed, 1);
        assert_eq!(report.lost, 1);
        assert!(c.is_settled());
    }

    #[test]
    fn observer_memo_matches_the_full_path() {
        // Observers read through their memo even when the owner has a fault
        // layer, so their oracle is a twin cohort whose memos are wiped
        // before every frame. A seeded walk holds each view for a few
        // frames, then changes one input: the pose (signs, arms down, wave
        // phases), the heading (in and out of the dead band) or the eye.
        use hdc_figure::Pose;
        use hdc_geometry::Vec2;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let config = CohortConfig::dual_observer(0.35, 1.75);
        let (mut fast, mut full) = (cohort(config), cohort(config));
        let human = Vec2::new(12.0, 8.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let (mut pose, mut heading, mut bearing) = (Pose::neutral(), 0.3, 0.3);
        for k in 0..120 {
            let t = k as f64 * 0.5;
            if rng.gen::<f64>() < 0.4 {
                match rng.gen_range(0..3) {
                    0 => {
                        pose = match rng.gen_range(0..5) {
                            0 => Pose::neutral(),
                            1 => Pose::wave_off_phase(t * 0.4),
                            k => Pose::for_sign(MarshallingSign::ALL[k - 2]),
                        }
                    }
                    1 => heading = rng.gen_range(-3.1..3.1),
                    _ => bearing = rng.gen_range(-3.1..3.1),
                }
            }
            let signaller = Signaller::new(human, heading, pose);
            let eye = Vec3::from_xy(human + Vec2::from_angle(bearing) * 3.0, 4.0);
            fast.sense(t, &signaller, eye);
            for member in &mut full.members {
                member.memo = ViewMemo::default();
            }
            full.sense(t, &signaller, eye);
            let (a, b) = (fast.pump(t), full.pump(t));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "frame {k}");
        }
        let (mut a, b) = (fast.report(), full.report());
        assert!(a.views_reused > 40, "held views must repeat: {a:?}");
        assert_eq!(b.views_reused, 0);
        a.views_reused = 0;
        assert_eq!(a, b);
        assert!(a.votes_received > 0, "the walk must produce relayed votes");
    }

    #[test]
    fn relay_round_trip_delivers_a_vote() {
        let mut c = cohort(CohortConfig::single_observer(1.75));
        c.members[0]
            .ep
            .send(0.0, RelayMsg::Vote(MarshallingSign::Yes));
        let mut got = None;
        for k in 0..20 {
            let pump = c.pump(k as f64 * 0.1);
            if let Some(sign) = pump.accepted {
                got = Some(sign);
                break;
            }
        }
        assert_eq!(
            got,
            Some(MarshallingSign::Yes),
            "quorum 1: one relayed vote accepts"
        );
        assert_eq!(c.report().votes_received, 1);
    }
}
