//! Multi-drone fleets.
//!
//! The paper's introduction frames the future as drones working
//! "collaboratively and cooperatively", and its efficiency argument —
//! "cost-efficient drones need only understand the bare minimum of signs" —
//! is about fleets of cheap machines. This module splits a trap-collection
//! mission across a fleet and aggregates the results (experiment E17).

use crate::map::OrchardMap;
use crate::metrics::MissionStats;
use crate::mission::{Mission, MissionConfig};
use hdc_geometry::Vec2;
use hdc_runtime::WorkPool;

/// Fleet parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of drones.
    pub drone_count: u32,
    /// Per-drone mission parameters.
    pub mission: MissionConfig,
}

/// Aggregated fleet results.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Per-drone statistics, in drone order.
    pub per_drone: Vec<MissionStats>,
    /// Wall-clock mission time: the slowest drone, seconds.
    pub makespan_s: f64,
    /// Total traps read across the fleet.
    pub traps_read: u32,
    /// Total energy consumed, Wh.
    pub energy_wh: f64,
}

impl FleetStats {
    /// Total distance flown by the fleet, metres.
    pub fn distance_flown_m(&self) -> f64 {
        self.per_drone.iter().map(|s| s.distance_flown_m).sum()
    }

    /// Total negotiations across the fleet.
    pub fn negotiations(&self) -> u32 {
        self.per_drone.iter().map(|s| s.negotiations.total()).sum()
    }
}

/// Runs a fleet over the orchard: the nearest-neighbour tour is split into
/// `drone_count` contiguous chunks (each drone sweeps one region), and each
/// drone flies its own [`Mission`]. Drones operate in disjoint regions, so
/// the missions are independent and the fleet's wall-clock time is the
/// slowest drone's (the makespan).
///
/// Serial shorthand for [`run_fleet_with`] on a machine-sized pool.
///
/// # Panics
/// Panics if `config.drone_count` is zero.
pub fn run_fleet(config: FleetConfig, map: &OrchardMap, seed: u64) -> FleetStats {
    run_fleet_with(&WorkPool::auto(), config, map, seed)
}

/// [`run_fleet`] with the drones simulated concurrently across a work pool.
///
/// Each drone's mission is a pure function of `(map chunk, seed + index)`,
/// so the per-drone statistics — and every aggregate — are identical at
/// every worker count, including the serial path.
///
/// # Panics
/// Panics if `config.drone_count` is zero.
pub fn run_fleet_with(
    pool: &WorkPool,
    config: FleetConfig,
    map: &OrchardMap,
    seed: u64,
) -> FleetStats {
    assert!(config.drone_count > 0, "a fleet needs at least one drone");
    let tour = map.plan_tour(Vec2::ZERO);
    let k = config.drone_count as usize;
    let chunk = tour.len().div_ceil(k);
    let chunks: Vec<&[u32]> = tour.chunks(chunk.max(1)).collect();

    let per_drone = pool.map_indexed(
        &chunks,
        |_| (),
        |_, i, ids| {
            // this drone's map: everything outside its chunk pre-marked read
            let mut sub_map = map.clone();
            for trap in sub_map.traps_mut() {
                if !ids.contains(&trap.id) {
                    trap.read = true;
                }
            }
            Mission::new(config.mission, sub_map, seed.wrapping_add(i as u64)).run()
        },
    );
    FleetStats {
        makespan_s: per_drone
            .iter()
            .map(|s| s.mission_time_s)
            .fold(0.0, f64::max),
        traps_read: per_drone.iter().map(|s| s.traps_read).sum(),
        energy_wh: per_drone.iter().map(|s| s.energy_wh).sum(),
        per_drone,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_of(n: u32, people: u32) -> FleetStats {
        let map = OrchardMap::grid(4, 6, 4.0, 3.0);
        let mission = MissionConfig {
            human_count: people,
            ..Default::default()
        };
        run_fleet(
            FleetConfig {
                drone_count: n,
                mission,
            },
            &map,
            5,
        )
    }

    #[test]
    fn single_drone_fleet_equals_solo_mission() {
        let stats = fleet_of(1, 0);
        assert_eq!(stats.per_drone.len(), 1);
        assert_eq!(stats.traps_read, 24);
        assert_eq!(stats.makespan_s, stats.per_drone[0].mission_time_s);
    }

    #[test]
    fn fleet_covers_every_trap_exactly_once() {
        for n in [2u32, 3, 4] {
            let stats = fleet_of(n, 0);
            assert_eq!(stats.traps_read, 24, "fleet of {n}");
        }
    }

    #[test]
    fn more_drones_shrink_the_makespan() {
        let solo = fleet_of(1, 0);
        let quad = fleet_of(4, 0);
        assert!(
            quad.makespan_s < solo.makespan_s * 0.7,
            "4 drones: {:.0}s vs solo {:.0}s",
            quad.makespan_s,
            solo.makespan_s
        );
    }

    #[test]
    fn fleet_pays_more_total_energy() {
        // each drone pays take-off/landing/return overhead
        let solo = fleet_of(1, 0);
        let quad = fleet_of(4, 0);
        assert!(quad.energy_wh > 0.0 && solo.energy_wh > 0.0);
        assert!(quad.distance_flown_m() > 0.0);
    }

    #[test]
    fn oversized_fleet_is_fine() {
        // more drones than traps: extra chunks are just empty
        let map = OrchardMap::grid(1, 2, 4.0, 3.0);
        let stats = run_fleet(
            FleetConfig {
                drone_count: 8,
                mission: MissionConfig {
                    human_count: 0,
                    ..Default::default()
                },
            },
            &map,
            1,
        );
        assert_eq!(stats.traps_read, 2);
    }

    #[test]
    fn fleet_is_identical_at_every_worker_count() {
        let map = OrchardMap::grid(4, 6, 4.0, 3.0);
        let config = FleetConfig {
            drone_count: 4,
            mission: MissionConfig {
                human_count: 2,
                ..Default::default()
            },
        };
        let serial = run_fleet_with(&WorkPool::new(1), config, &map, 5);
        for workers in [2usize, 4] {
            let parallel = run_fleet_with(&WorkPool::new(workers), config, &map, 5);
            assert_eq!(parallel, serial, "fleet stats drifted at {workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "at least one drone")]
    fn zero_drones_rejected() {
        let map = OrchardMap::grid(1, 1, 1.0, 1.0);
        run_fleet(
            FleetConfig {
                drone_count: 0,
                mission: MissionConfig::default(),
            },
            &map,
            1,
        );
    }
}
