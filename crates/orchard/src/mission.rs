//! The trap-collection mission with negotiated access.

use crate::agents::HumanActor;
use crate::events::{EventQueue, ScheduledEvent};
use crate::map::OrchardMap;
use crate::metrics::MissionStats;
use hdc_core::{CollaborationSession, Role, SessionConfig, SessionOutcome};
use hdc_drone::{Drone, DroneConfig, FlightPattern};
use hdc_geometry::{Vec2, Vec3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How the mission resolves a blocked trap.
pub trait NegotiationBackend {
    /// Negotiates access with `actor`; returns the outcome.
    fn negotiate(&mut self, actor: &HumanActor, seed: u64) -> SessionOutcome;
}

/// Fast statistical negotiation: outcome probabilities derived from the role
/// profiles (calibrated against the full closed-loop sessions; see the
/// `statistical_backend_matches_full_loop` integration test).
#[derive(Debug, Clone, Default)]
pub struct StatisticalNegotiation;

impl NegotiationBackend for StatisticalNegotiation {
    fn negotiate(&mut self, actor: &HumanActor, seed: u64) -> SessionOutcome {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = actor.role.profile();
        // attention phase: up to 3 pokes
        let attended =
            (0..3).any(|_| rng.gen::<f64>() < p.attend_probability * p.correct_sign_probability);
        if !attended {
            return SessionOutcome::Abandoned;
        }
        // answer phase: up to 2 requests
        let answered = (0..2).any(|_| rng.gen::<f64>() < p.answer_probability);
        if !answered {
            return SessionOutcome::Abandoned;
        }
        let says_yes = actor.will_consent;
        let correct = rng.gen::<f64>() < p.correct_sign_probability;
        match (says_yes, correct) {
            (true, true) => SessionOutcome::Granted,
            (false, true) => SessionOutcome::Denied,
            // a garbled answer sign: the ambiguity test rejects it and the
            // retry usually lands; approximate with a second draw
            (intent, false) => {
                if rng.gen::<f64>() < p.correct_sign_probability {
                    if intent {
                        SessionOutcome::Granted
                    } else {
                        SessionOutcome::Denied
                    }
                } else {
                    SessionOutcome::Abandoned
                }
            }
        }
    }
}

/// Full closed-loop negotiation: runs a [`CollaborationSession`] (rendered
/// camera frames, SAX recognition, protocol machine) per encounter. Slow but
/// faithful; used by the integration tests and small demos.
#[derive(Debug, Clone, Default)]
pub struct FullLoopNegotiation;

impl NegotiationBackend for FullLoopNegotiation {
    fn negotiate(&mut self, actor: &HumanActor, seed: u64) -> SessionOutcome {
        let mut cfg = SessionConfig::for_role(actor.role, actor.will_consent, seed);
        cfg.human_position = actor.position;
        cfg.drone_home = actor.position + Vec2::new(10.0, 6.0);
        let mut session = CollaborationSession::new(cfg);
        session.run()
    }
}

/// Mission parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionConfig {
    /// Cruise altitude between traps, metres.
    pub cruise_altitude_m: f64,
    /// Hover time to read a trap, seconds.
    pub read_time_s: f64,
    /// A human within this distance of a trap blocks it, metres.
    pub blocking_radius_m: f64,
    /// Number of human actors in the orchard.
    pub human_count: u32,
    /// Hard cap on mission time, seconds.
    pub max_mission_s: f64,
}

impl Default for MissionConfig {
    fn default() -> Self {
        MissionConfig {
            cruise_altitude_m: 6.0,
            read_time_s: 2.0,
            blocking_radius_m: 2.5,
            human_count: 2,
            max_mission_s: 3600.0,
        }
    }
}

/// The mission runner.
pub struct Mission {
    config: MissionConfig,
    map: OrchardMap,
    drone: Drone,
    humans: Vec<HumanActor>,
    queue: EventQueue,
    rng: SmallRng,
    stats: MissionStats,
    backend: Box<dyn NegotiationBackend>,
    time: f64,
}

impl std::fmt::Debug for Mission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mission")
            .field("config", &self.config)
            .field("time", &self.time)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Mission {
    /// Creates a mission over a map with the default (statistical)
    /// negotiation backend.
    pub fn new(config: MissionConfig, map: OrchardMap, seed: u64) -> Self {
        Mission::with_backend(config, map, seed, Box::new(StatisticalNegotiation))
    }

    /// Creates a mission with an explicit negotiation backend.
    pub fn with_backend(
        config: MissionConfig,
        map: OrchardMap,
        seed: u64,
        backend: Box<dyn NegotiationBackend>,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (lo, hi) = map.bounds();
        let roles = [Role::Supervisor, Role::Worker, Role::Worker, Role::Visitor];
        let humans = (0..config.human_count)
            .map(|i| {
                let pos = Vec2::new(rng.gen_range(lo.x..=hi.x), rng.gen_range(lo.y..=hi.y));
                let mut h = HumanActor::new(i, roles[i as usize % roles.len()], pos);
                h.will_consent = rng.gen::<f64>() < 0.8;
                h
            })
            .collect();
        Mission {
            // the mission drone derives its wind-process stream from the
            // mission seed rather than the ambient DroneConfig default
            drone: Drone::new(DroneConfig {
                seed: seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x0D0E),
                ..DroneConfig::default()
            }),
            humans,
            queue: EventQueue::new(),
            rng,
            stats: MissionStats::default(),
            backend,
            time: 0.0,
            config,
            map,
        }
    }

    /// The humans (for inspection).
    pub fn humans(&self) -> &[HumanActor] {
        &self.humans
    }

    /// The statistics so far.
    pub fn stats(&self) -> &MissionStats {
        &self.stats
    }

    fn advance_world(&mut self, duration: f64) {
        // step humans, the hovering drone (battery!) and the clock in 0.5 s slices
        let mut remaining = duration;
        while remaining > 0.0 {
            let dt = remaining.min(0.5);
            for h in &mut self.humans {
                h.step(dt);
            }
            self.drone.tick(dt);
            remaining -= dt;
        }
        self.time += duration;
    }

    fn fly_to(&mut self, target: Vec3) -> f64 {
        // abstract transit: distance / cruise speed, energy via the battery
        let from = self.drone.state().position;
        let dist = from.distance(target);
        let speed = 5.0;
        let duration = dist / speed;
        self.stats.distance_flown_m += dist;
        self.advance_world(duration);
        // teleport the drone model (the orchard layer abstracts transits;
        // the fine-grained dynamics live in hdc-drone and are exercised by
        // the session layer)
        self.drone.goto(target);
        let mut guard = 0.0;
        while self.drone.state().position.distance(target) > 0.35 && guard < duration * 4.0 + 10.0 {
            self.drone.tick(0.1);
            guard += 0.1;
        }
        duration
    }

    /// Runs the whole mission and returns the statistics.
    pub fn run(&mut self) -> MissionStats {
        // take off
        self.drone.execute_pattern(FlightPattern::TakeOff {
            target_altitude: self.config.cruise_altitude_m,
        });
        while self.drone.is_executing() {
            self.drone.tick(0.1);
            self.time += 0.1;
        }

        // schedule the tour
        let start = self.drone.state().position.xy();
        let mut pending_visits = 0u32;
        for id in self.map.plan_tour(start) {
            self.queue
                .schedule(self.time, ScheduledEvent::VisitTrap(id));
            pending_visits += 1;
        }
        for h in 0..self.humans.len() as u32 {
            self.queue
                .schedule(self.time + 5.0, ScheduledEvent::HumanReplan(h));
        }

        let energy0 = self.drone.battery().remaining_wh();

        while let Some((t, event)) = self.queue.pop() {
            if pending_visits == 0 {
                break; // only self-perpetuating housekeeping events remain
            }
            if t > self.config.max_mission_s {
                break;
            }
            if t > self.time {
                self.advance_world(t - self.time);
            }
            match event {
                ScheduledEvent::HumanReplan(id) => {
                    let (lo, hi) = self.map.bounds();
                    if let Some(h) = self.humans.get_mut(id as usize) {
                        if h.is_idle() {
                            h.replan(lo, hi, &mut self.rng);
                        }
                    }
                    self.queue
                        .schedule(self.time + 20.0, ScheduledEvent::HumanReplan(id));
                }
                ScheduledEvent::Checkpoint => {}
                ScheduledEvent::VisitTrap(id) => {
                    pending_visits -= 1;
                    let trap = self.map.traps()[id as usize];
                    let target = Vec3::from_xy(trap.position, self.config.cruise_altitude_m);
                    self.fly_to(target);

                    // is someone blocking?
                    let radius = self.config.blocking_radius_m;
                    let blocker = self
                        .humans
                        .iter()
                        .find(|h| h.blocks(trap.position, radius))
                        .cloned();
                    if let Some(actor) = blocker {
                        let seed = self.rng.gen();
                        let outcome = self.backend.negotiate(&actor, seed);
                        self.stats.negotiations.record(outcome);
                        // a negotiation takes real time
                        self.advance_world(30.0);
                        match outcome {
                            SessionOutcome::Granted => {}
                            SessionOutcome::Aborted => {
                                self.stats.safety_events += 1;
                                self.stats.traps_skipped += 1;
                                continue;
                            }
                            _ => {
                                self.stats.traps_skipped += 1;
                                continue;
                            }
                        }
                    }
                    // read the trap
                    self.advance_world(self.config.read_time_s);
                    self.map.traps_mut()[id as usize].read = true;
                    self.stats.traps_read += 1;
                }
            }
            if self.drone.battery().below_reserve() {
                // count everything unvisited as skipped and stop
                while let Some((_, e)) = self.queue.pop() {
                    if matches!(e, ScheduledEvent::VisitTrap(_)) {
                        self.stats.traps_skipped += 1;
                    }
                }
                self.stats.safety_events += 1;
                break;
            }
        }

        // return + land
        self.fly_to(Vec3::new(0.0, 0.0, self.config.cruise_altitude_m));
        self.drone.execute_pattern(FlightPattern::Landing);
        while self.drone.is_executing() {
            self.drone.tick(0.1);
            self.time += 0.1;
        }

        self.stats.mission_time_s = self.time;
        self.stats.energy_wh = energy0 - self.drone.battery().remaining_wh();
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_orchard_reads_everything() {
        let map = OrchardMap::grid(3, 3, 4.0, 3.0);
        let cfg = MissionConfig {
            human_count: 0,
            ..Default::default()
        };
        let mut m = Mission::new(cfg, map, 1);
        let stats = m.run();
        assert_eq!(stats.traps_read, 9);
        assert_eq!(stats.traps_skipped, 0);
        assert_eq!(stats.negotiations.total(), 0);
        assert!(stats.distance_flown_m > 0.0);
        assert!(stats.energy_wh > 0.0);
    }

    #[test]
    fn humans_cause_negotiations() {
        let map = OrchardMap::grid(4, 4, 4.0, 3.0);
        let cfg = MissionConfig {
            human_count: 6,
            blocking_radius_m: 6.0, // crowded orchard
            ..Default::default()
        };
        let mut m = Mission::new(cfg, map, 2);
        let stats = m.run();
        assert!(
            stats.negotiations.total() > 0,
            "crowd must trigger negotiations"
        );
        assert_eq!(stats.traps_read + stats.traps_skipped, 16);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let map = OrchardMap::grid(3, 3, 4.0, 3.0);
            let cfg = MissionConfig {
                human_count: 3,
                ..Default::default()
            };
            Mission::new(cfg, map, seed).run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same mission");
        // don't assert inequality for different seeds (they may coincide),
        // but the stats should at least be well-formed
        let c = run(8);
        assert_eq!(c.traps_read + c.traps_skipped, 9);
    }

    #[test]
    fn statistical_backend_role_ordering() {
        // supervisors succeed more often than visitors
        let mut backend = StatisticalNegotiation;
        let mut rate = |role: Role| {
            let mut ok = 0;
            for seed in 0..200 {
                let mut actor = HumanActor::new(0, role, Vec2::ZERO);
                actor.will_consent = true;
                if backend.negotiate(&actor, seed) == SessionOutcome::Granted {
                    ok += 1;
                }
            }
            ok as f64 / 200.0
        };
        let sup = rate(Role::Supervisor);
        let vis = rate(Role::Visitor);
        assert!(sup > 0.9, "supervisor grant rate {sup}");
        assert!(vis < sup, "visitor {vis} below supervisor {sup}");
    }

    #[test]
    fn mission_time_is_positive_and_bounded() {
        let map = OrchardMap::grid(2, 2, 4.0, 3.0);
        let mut m = Mission::new(MissionConfig::default(), map, 3);
        let stats = m.run();
        assert!(stats.mission_time_s > 0.0);
        assert!(stats.mission_time_s < MissionConfig::default().max_mission_s);
    }
}
