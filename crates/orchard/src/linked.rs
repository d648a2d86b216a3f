//! Supervised fleet dispatch over the fault-tolerant datalink.
//!
//! [`run_fleet`](crate::run_fleet) splits the trap tour once, up front, and
//! then every drone is on its own — fine for a perfect radio, wrong for a
//! real one. This module runs the same trap-collection campaign as a
//! *supervised* fleet: a ground-station supervisor holds each drone's chunk
//! of the tour and feeds it one [`FleetCommand::Assign`] at a time over a
//! reliable [`Duplex`] link; the drone works the trap and reports
//! [`FleetTelemetry::TrapRead`] back up the same way.
//!
//! The failure contract mirrors `hdc-core`'s session datalink:
//!
//! * **Reliable delivery** — assignments and reports survive drop,
//!   duplication and reordering; the endpoint's dedup window means no
//!   command's effect is ever applied twice at one drone.
//! * **Drone-side lease expiry** — a drone that hears nothing for the lease
//!   timeout abandons its work and returns home (the autonomous failsafe:
//!   it must not keep operating in a shared workspace unsupervised).
//! * **Supervisor-side lease expiry** — the supervisor declares the drone
//!   lost and re-dispatches its remaining chunk (everything assigned or
//!   queued but not yet confirmed) across the surviving drones. A trap the
//!   lost drone had already read but never managed to report is read a
//!   second time by someone else — counted as a duplicate read, the honest
//!   price of at-least-once dispatch over a partitioned link.
//!
//! Everything is seed-deterministic: the per-drone channels and endpoints
//! draw from streams derived from `(fleet seed, drone index)`, and the
//! whole campaign is a pure function of its inputs.

use crate::map::OrchardMap;
use hdc_geometry::Vec2;
use hdc_link::{Duplex, EndpointConfig, EndpointStats, LeaseConfig, LinkQuality};
use hdc_runtime::{derive_seed, ScheduleMode};
use std::collections::VecDeque;
use std::fmt;

/// A supervisor → drone command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetCommand {
    /// Work this trap next.
    Assign {
        /// Trap id.
        trap: u32,
    },
}

/// A drone → supervisor report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetTelemetry {
    /// The trap has been read.
    TrapRead {
        /// Trap id.
        trap: u32,
    },
}

/// One scheduled radio death: the drone's link partitions permanently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioFailure {
    /// Drone index.
    pub drone: u32,
    /// Simulation time the radio dies, seconds.
    pub at_s: f64,
}

/// Linked-fleet parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedFleetConfig {
    /// Number of drones.
    pub drone_count: u32,
    /// Cruise speed between traps, m/s.
    pub cruise_speed_mps: f64,
    /// Time to read one trap, seconds.
    pub read_time_s: f64,
    /// Impairment model applied to every drone's link, both directions.
    pub quality: LinkQuality,
    /// Transport tuning, all endpoints.
    pub endpoint: EndpointConfig,
    /// Lease tuning, all endpoints.
    pub lease: LeaseConfig,
    /// Scheduled permanent radio failures.
    pub failures: Vec<RadioFailure>,
    /// Hard cap on the campaign, seconds.
    pub max_duration_s: f64,
}

impl Default for LinkedFleetConfig {
    fn default() -> Self {
        LinkedFleetConfig {
            drone_count: 3,
            cruise_speed_mps: 4.0,
            read_time_s: 3.0,
            quality: LinkQuality::clean(),
            endpoint: EndpointConfig::default(),
            lease: LeaseConfig::default(),
            failures: Vec::new(),
            max_duration_s: 1800.0,
        }
    }
}

/// Per-drone campaign statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkedDroneStats {
    /// Traps this drone physically read.
    pub reads: u32,
    /// Commands delivered to this drone (exactly once each).
    pub commands_received: u32,
    /// Whether the drone's own lease expired (autonomous return home).
    pub failsafed: bool,
    /// Whether the supervisor declared this drone lost.
    pub declared_lost: bool,
    /// The drone endpoint's transport statistics.
    pub endpoint: EndpointStats,
}

/// Aggregated linked-fleet results.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedFleetStats {
    /// Traps whose read was confirmed at the supervisor.
    pub traps_confirmed: u32,
    /// Traps in the campaign.
    pub traps_total: u32,
    /// Campaign duration, seconds.
    pub duration_s: f64,
    /// Drones the supervisor declared lost.
    pub drones_lost: u32,
    /// Traps re-dispatched after a loss.
    pub reassigned: u32,
    /// Physical re-reads caused by re-dispatching traps whose report was
    /// lost with the drone.
    pub duplicate_reads: u32,
    /// Per-drone statistics, in drone order.
    pub per_drone: Vec<LinkedDroneStats>,
}

/// Prints the text the golden linked-fleet digests hash: what the derived
/// `Debug` printed when they were made, written out so that a field added,
/// renamed or reordered cannot move a golden.
impl fmt::Display for LinkedFleetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LinkedFleetStats {{ traps_confirmed: {}, traps_total: {}, duration_s: {:?}, \
             drones_lost: {}, reassigned: {}, duplicate_reads: {}, per_drone: [",
            self.traps_confirmed,
            self.traps_total,
            self.duration_s,
            self.drones_lost,
            self.reassigned,
            self.duplicate_reads
        )?;
        for (i, d) in self.per_drone.iter().enumerate() {
            let e = &d.endpoint;
            write!(
                f,
                "{}LinkedDroneStats {{ reads: {}, commands_received: {}, failsafed: {}, \
                 declared_lost: {}, endpoint: EndpointStats {{ data_sent: {}, retransmits: {}, \
                 acks_sent: {}, heartbeats_sent: {}, delivered: {}, duplicates_discarded: {}, \
                 out_of_window_discarded: {} }} }}",
                if i == 0 { "" } else { ", " },
                d.reads,
                d.commands_received,
                d.failsafed,
                d.declared_lost,
                e.data_sent,
                e.retransmits,
                e.acks_sent,
                e.heartbeats_sent,
                e.delivered,
                e.duplicates_discarded,
                e.out_of_window_discarded
            )?;
        }
        f.write_str("] }")
    }
}

/// Simulation step, seconds.
const DT: f64 = 0.1;

/// What a drone is doing right now.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DroneTask {
    /// Flying to a trap.
    Transit { trap: u32, arrive_at: f64 },
    /// Reading a trap.
    Reading { trap: u32, done_at: f64 },
}

/// One simulated fleet drone and its link to the supervisor.
#[derive(Debug)]
struct FleetDrone {
    position: Vec2,
    task: Option<DroneTask>,
    backlog: VecDeque<u32>,
    failsafed: bool,
    reads: u32,
    commands_received: u32,
    /// Side `a` is the drone (sends telemetry), side `b` the supervisor
    /// (sends commands).
    link: Duplex<FleetTelemetry, FleetCommand>,
}

/// The supervisor's book-keeping for one drone.
#[derive(Debug)]
struct DroneLedger {
    /// This drone's remaining chunk of the tour (not yet assigned).
    chunk: VecDeque<u32>,
    /// The trap currently assigned and unconfirmed, if any.
    outstanding: Option<u32>,
    lost: bool,
}

/// The earliest simulation time at which any fleet component has work: a
/// transit arrival, a read completion, a retransmit / heartbeat / ack slot
/// on either end of a link, a queued channel delivery, or a lease edge
/// about to expire. May return times at or before `now` ("work is due
/// immediately") or `f64::INFINITY` (nothing pending); the caller bumps
/// both to one tick.
fn fleet_next_due(now: f64, drones: &[FleetDrone], ledgers: &[DroneLedger]) -> f64 {
    let mut due = f64::INFINITY;
    for (drone, ledger) in drones.iter().zip(ledgers) {
        if !drone.failsafed {
            match drone.task {
                Some(DroneTask::Transit { arrive_at, .. }) => due = due.min(arrive_at),
                Some(DroneTask::Reading { done_at, .. }) => due = due.min(done_at),
                None if !drone.backlog.is_empty() => due = due.min(now + DT),
                None => {}
            }
            due = due.min(drone.link.a.lease_edge(now));
        }
        if !ledger.lost {
            due = due.min(drone.link.b.lease_edge(now));
        }
        due = due.min(drone.link.next_due(now));
    }
    due
}

/// Runs the supervised campaign under the given scheduler mode.
///
/// The fleet wakes at one due time after another, each kept as an exact
/// `f64`. [`ScheduleMode::Lockstep`] wakes at `now + DT` every iteration —
/// the same float accumulation as the pre-scheduler fixed-rate loop, so the
/// golden fleet digests are bit-identical. [`ScheduleMode::EventDriven`]
/// wakes at the fleet's earliest due time (a transit arrival, read
/// completion, link slot or lease edge), so an idle fleet (drones in long
/// transits, quiet links) costs O(events) instead of O(ticks).
///
/// # Panics
/// Panics if `config.drone_count` is zero.
pub fn run_linked_fleet_mode(
    config: &LinkedFleetConfig,
    map: &OrchardMap,
    seed: u64,
    mode: ScheduleMode,
) -> LinkedFleetStats {
    assert!(config.drone_count > 0, "a fleet needs at least one drone");
    let tour = map.plan_tour(Vec2::ZERO);
    let traps_total = tour.len() as u32;
    let k = config.drone_count as usize;
    let chunk_len = tour.len().div_ceil(k).max(1);

    let mut drones: Vec<FleetDrone> = Vec::with_capacity(k);
    let mut ledgers: Vec<DroneLedger> = Vec::with_capacity(k);
    for i in 0..k {
        let mut quality = config.quality;
        if let Some(failure) = config.failures.iter().find(|f| f.drone as usize == i) {
            // a dead radio is a partition that never heals
            quality = quality.with_partition(failure.at_s, f64::INFINITY);
        }
        let salt = i as u64;
        // drone endpoint, supervisor endpoint, uplink, downlink
        let seeds = [1, 4, 2, 3].map(|k| derive_seed(seed, salt * 4 + k));
        drones.push(FleetDrone {
            position: Vec2::ZERO,
            task: None,
            backlog: VecDeque::new(),
            failsafed: false,
            reads: 0,
            commands_received: 0,
            link: Duplex::new(config.endpoint, config.lease, quality, quality, seeds, 0.0),
        });
        ledgers.push(DroneLedger {
            chunk: tour
                .iter()
                .copied()
                .skip(i * chunk_len)
                .take(chunk_len)
                .collect(),
            outstanding: None,
            lost: false,
        });
    }

    let mut confirmed = vec![false; tour.len().max(map.traps().len())];
    let trap_position = |trap: u32| map.traps()[trap as usize].position;
    let mut now = 0.0;
    let mut drones_lost = 0u32;
    let mut reassigned = 0u32;

    let wake_after = |now: f64, drones: &[FleetDrone], ledgers: &[_]| match mode {
        ScheduleMode::Lockstep => now + DT,
        ScheduleMode::EventDriven => {
            let due = fleet_next_due(now, drones, ledgers);
            // anything due now — or an empty horizon — waits one tick
            if due > now {
                due
            } else {
                now + DT
            }
        }
    };
    let mut wake = wake_after(now, &drones, &ledgers);

    while now < config.max_duration_s {
        now = wake.min(config.max_duration_s + DT);

        // --- drone work ---
        for drone in drones.iter_mut() {
            if drone.failsafed {
                continue;
            }
            if drone.task.is_none() {
                if let Some(trap) = drone.backlog.pop_front() {
                    let distance = drone.position.distance(trap_position(trap));
                    drone.task = Some(DroneTask::Transit {
                        trap,
                        arrive_at: now + distance / config.cruise_speed_mps,
                    });
                }
            }
            match drone.task {
                Some(DroneTask::Transit { trap, arrive_at }) if now >= arrive_at => {
                    drone.position = trap_position(trap);
                    drone.task = Some(DroneTask::Reading {
                        trap,
                        done_at: now + config.read_time_s,
                    });
                }
                Some(DroneTask::Reading { trap, done_at }) if now >= done_at => {
                    drone.task = None;
                    drone.reads += 1;
                    drone.link.a.send(now, FleetTelemetry::TrapRead { trap });
                }
                _ => {}
            }
            // autonomous failsafe: a silent supervisor means the drone must
            // not keep operating unsupervised
            if drone.link.a.lease_expired(now) {
                drone.failsafed = true;
                drone.task = None;
                drone.backlog.clear();
            }
        }

        // --- link pump, per drone ---
        for (drone, ledger) in drones.iter_mut().zip(ledgers.iter_mut()) {
            let delivered = drone.link.pump(now);
            for FleetTelemetry::TrapRead { trap } in delivered.to_b {
                confirmed[trap as usize] = true;
                if ledger.outstanding == Some(trap) {
                    ledger.outstanding = None;
                }
            }
            for FleetCommand::Assign { trap } in delivered.to_a {
                drone.commands_received += 1;
                drone.backlog.push_back(trap);
            }
        }

        // --- supervisor: losses and re-dispatch ---
        for i in 0..ledgers.len() {
            if !ledgers[i].lost && drones[i].link.b.lease_expired(now) {
                ledgers[i].lost = true;
                drones_lost += 1;
                // the lost drone's remaining chunk — outstanding first —
                // goes round-robin to the survivors
                let mut orphaned: Vec<u32> = ledgers[i].outstanding.take().into_iter().collect();
                orphaned.extend(ledgers[i].chunk.drain(..));
                orphaned.retain(|trap| !confirmed[*trap as usize]);
                reassigned += orphaned.len() as u32;
                let survivors: Vec<usize> =
                    (0..ledgers.len()).filter(|j| !ledgers[*j].lost).collect();
                if survivors.is_empty() {
                    continue;
                }
                for (n, trap) in orphaned.into_iter().enumerate() {
                    ledgers[survivors[n % survivors.len()]]
                        .chunk
                        .push_back(trap);
                }
            }
        }

        // --- supervisor: dispatch ---
        for (drone, ledger) in drones.iter_mut().zip(ledgers.iter_mut()) {
            if ledger.lost || ledger.outstanding.is_some() {
                continue;
            }
            // skip anything another drone confirmed since it was queued
            while let Some(trap) = ledger.chunk.pop_front() {
                if confirmed[trap as usize] {
                    continue;
                }
                drone.link.b.send(now, FleetCommand::Assign { trap });
                ledger.outstanding = Some(trap);
                break;
            }
        }

        // --- termination ---
        let all_confirmed = tour.iter().all(|trap| confirmed[*trap as usize]);
        let anyone_live = ledgers.iter().any(|l| !l.lost);
        let work_pending = ledgers
            .iter()
            .any(|l| !l.lost && (l.outstanding.is_some() || !l.chunk.is_empty()));
        if all_confirmed || !anyone_live || !work_pending {
            break;
        }
        wake = wake_after(now, &drones, &ledgers);
    }

    LinkedFleetStats {
        traps_confirmed: tour
            .iter()
            .filter(|trap| confirmed[**trap as usize])
            .count() as u32,
        traps_total,
        duration_s: now,
        drones_lost,
        reassigned,
        duplicate_reads: drones
            .iter()
            .map(|d| d.reads)
            .sum::<u32>()
            .saturating_sub(confirmed.iter().filter(|c| **c).count() as u32),
        per_drone: drones
            .iter()
            .zip(ledgers.iter())
            .map(|(drone, ledger)| LinkedDroneStats {
                reads: drone.reads,
                commands_received: drone.commands_received,
                failsafed: drone.failsafed,
                declared_lost: ledger.lost,
                endpoint: drone.link.a.stats(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> OrchardMap {
        OrchardMap::grid(3, 4, 4.0, 3.0)
    }

    #[test]
    fn display_is_the_text_the_goldens_hash() {
        let drone = |reads, lost| LinkedDroneStats {
            reads,
            commands_received: reads + 1,
            failsafed: lost,
            declared_lost: lost,
            endpoint: EndpointStats {
                data_sent: 9,
                retransmits: 2,
                acks_sent: 8,
                heartbeats_sent: 40,
                delivered: 6,
                duplicates_discarded: 1,
                out_of_window_discarded: 0,
            },
        };
        let stats = LinkedFleetStats {
            traps_confirmed: 11,
            traps_total: 12,
            duration_s: 64.0,
            drones_lost: 1,
            reassigned: 2,
            duplicate_reads: 1,
            per_drone: vec![drone(7, false), drone(5, true)],
        };
        let endpoint = "endpoint: EndpointStats { data_sent: 9, retransmits: 2, acks_sent: 8, \
                        heartbeats_sent: 40, delivered: 6, duplicates_discarded: 1, \
                        out_of_window_discarded: 0 }";
        assert_eq!(
            stats.to_string(),
            format!(
                "LinkedFleetStats {{ traps_confirmed: 11, traps_total: 12, duration_s: 64.0, \
                 drones_lost: 1, reassigned: 2, duplicate_reads: 1, per_drone: [\
                 LinkedDroneStats {{ reads: 7, commands_received: 8, failsafed: false, \
                 declared_lost: false, {endpoint} }}, \
                 LinkedDroneStats {{ reads: 5, commands_received: 6, failsafed: true, \
                 declared_lost: true, {endpoint} }}] }}"
            )
        );
        let empty = LinkedFleetStats {
            per_drone: Vec::new(),
            ..stats
        };
        assert!(empty.to_string().ends_with("per_drone: [] }"));
    }

    #[test]
    fn clean_link_confirms_every_trap() {
        let config = LinkedFleetConfig::default();
        let stats = run_linked_fleet_mode(&config, &grid(), 7, ScheduleMode::Lockstep);
        assert_eq!(stats.traps_confirmed, 12);
        assert_eq!(stats.drones_lost, 0);
        assert_eq!(stats.reassigned, 0);
        assert_eq!(stats.duplicate_reads, 0);
        assert!(stats.per_drone.iter().all(|d| !d.failsafed));
    }

    #[test]
    fn lossy_link_still_confirms_every_trap() {
        let config = LinkedFleetConfig {
            quality: LinkQuality::clean().with_drop(0.3).with_jitter(0.4),
            ..Default::default()
        };
        let stats = run_linked_fleet_mode(&config, &grid(), 7, ScheduleMode::Lockstep);
        assert_eq!(stats.traps_confirmed, 12, "{stats:?}");
        assert!(
            stats
                .per_drone
                .iter()
                .map(|d| d.endpoint.retransmits)
                .sum::<u64>()
                > 0,
            "recovery must come from retransmission"
        );
        assert_eq!(stats.drones_lost, 0);
    }

    #[test]
    fn radio_death_reassigns_the_chunk_and_finishes() {
        let config = LinkedFleetConfig {
            failures: vec![RadioFailure {
                drone: 1,
                at_s: 15.0,
            }],
            ..Default::default()
        };
        let stats = run_linked_fleet_mode(&config, &grid(), 7, ScheduleMode::Lockstep);
        assert_eq!(stats.drones_lost, 1, "{stats:?}");
        assert!(stats.reassigned > 0, "the chunk must be re-dispatched");
        assert_eq!(stats.traps_confirmed, 12, "survivors must cover the loss");
        assert!(
            stats.per_drone[1].failsafed,
            "the dead-radio drone failsafes"
        );
        assert!(stats.per_drone[1].declared_lost);
    }

    #[test]
    fn losing_every_drone_terminates_promptly_with_partial_coverage() {
        let config = LinkedFleetConfig {
            drone_count: 2,
            failures: vec![
                RadioFailure {
                    drone: 0,
                    at_s: 10.0,
                },
                RadioFailure {
                    drone: 1,
                    at_s: 10.0,
                },
            ],
            ..Default::default()
        };
        let stats = run_linked_fleet_mode(&config, &grid(), 7, ScheduleMode::Lockstep);
        assert_eq!(stats.drones_lost, 2);
        assert!(stats.traps_confirmed < 12);
        assert!(
            stats.duration_s < 60.0,
            "an all-lost fleet must not ride the cap: {}",
            stats.duration_s
        );
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let config = LinkedFleetConfig {
            quality: LinkQuality::clean().with_drop(0.25).with_dup(0.2),
            failures: vec![RadioFailure {
                drone: 2,
                at_s: 20.0,
            }],
            ..Default::default()
        };
        let a = run_linked_fleet_mode(&config, &grid(), 11, ScheduleMode::Lockstep);
        let b = run_linked_fleet_mode(&config, &grid(), 11, ScheduleMode::Lockstep);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_reads_only_appear_after_a_loss() {
        // the drone dies mid-campaign with reports possibly unflushed; any
        // double-read must be attributable to the re-dispatch
        let config = LinkedFleetConfig {
            failures: vec![RadioFailure {
                drone: 0,
                at_s: 12.0,
            }],
            ..Default::default()
        };
        let stats = run_linked_fleet_mode(&config, &grid(), 3, ScheduleMode::Lockstep);
        assert_eq!(stats.traps_confirmed, 12, "{stats:?}");
        assert!(
            stats.duplicate_reads <= stats.reassigned,
            "every duplicate read stems from a re-dispatched trap"
        );
    }

    #[test]
    fn event_driven_mode_confirms_every_trap_on_a_clean_link() {
        let config = LinkedFleetConfig::default();
        let stats = run_linked_fleet_mode(&config, &grid(), 7, ScheduleMode::EventDriven);
        assert_eq!(stats.traps_confirmed, 12, "{stats:?}");
        assert_eq!(stats.drones_lost, 0);
        assert!(stats.per_drone.iter().all(|d| !d.failsafed));
    }

    #[test]
    fn event_driven_mode_recovers_from_a_radio_death() {
        let config = LinkedFleetConfig {
            quality: LinkQuality::clean().with_drop(0.2),
            failures: vec![RadioFailure {
                drone: 1,
                at_s: 15.0,
            }],
            ..Default::default()
        };
        let stats = run_linked_fleet_mode(&config, &grid(), 7, ScheduleMode::EventDriven);
        assert_eq!(stats.drones_lost, 1, "{stats:?}");
        assert!(stats.reassigned > 0);
        assert_eq!(stats.traps_confirmed, 12, "survivors must cover the loss");
        assert!(stats.per_drone[1].failsafed);
    }

    #[test]
    fn event_driven_mode_is_seed_deterministic() {
        let config = LinkedFleetConfig {
            quality: LinkQuality::clean().with_drop(0.25).with_dup(0.2),
            ..Default::default()
        };
        let a = run_linked_fleet_mode(&config, &grid(), 11, ScheduleMode::EventDriven);
        let b = run_linked_fleet_mode(&config, &grid(), 11, ScheduleMode::EventDriven);
        assert_eq!(a, b);
    }

    #[test]
    fn lockstep_mode_is_the_default_entry_point() {
        let config = LinkedFleetConfig::default();
        let a = run_linked_fleet_mode(&config, &grid(), 9, ScheduleMode::Lockstep);
        let b = run_linked_fleet_mode(&config, &grid(), 9, ScheduleMode::Lockstep);
        assert_eq!(a, b, "the wrapper must be exactly lockstep mode");
    }

    #[test]
    #[should_panic(expected = "at least one drone")]
    fn zero_drones_rejected() {
        let config = LinkedFleetConfig {
            drone_count: 0,
            ..Default::default()
        };
        run_linked_fleet_mode(&config, &grid(), 1, ScheduleMode::Lockstep);
    }
}
