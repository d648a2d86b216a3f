//! Orchard simulation: the paper's use case, end to end.
//!
//! "We pick as our use case a known issue namely drones sharing workspace
//! with humans in cherry plantations where the drones collect data from fly
//! traps \[9\] which indicate whether further action, for instance spraying,
//! needs to take place. Given that this data collection will occur in the
//! presence of humans who may be blocking access to the fly traps, a
//! negotiated access to the traps must take place."
//!
//! This crate builds that world:
//!
//! * an [`OrchardMap`] of tree rows with [`FlyTrap`]s,
//! * [`HumanActor`]s patrolling between work sites, each with a
//!   [`hdc_core::Role`],
//! * an event-queue scheduler ([`EventQueue`]) driving trap-visit missions,
//! * a [`Mission`] runner in which the drone tours the traps, negotiates
//!   access with whoever blocks one (statistically or through the full
//!   closed vision loop), and collects [`MissionStats`].
//!
//! # Example
//! ```
//! use hdc_orchard::{Mission, MissionConfig, OrchardMap};
//! let map = OrchardMap::grid(3, 4, 4.0, 3.0);
//! let mut mission = Mission::new(MissionConfig::default(), map, 11);
//! let stats = mission.run();
//! assert_eq!(stats.traps_read + stats.traps_skipped, 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agents;
mod events;
mod fleet;
mod linked;
mod map;
mod metrics;
mod mission;
mod sessions;

pub use agents::HumanActor;
pub use events::{EventQueue, ScheduledEvent};
pub use fleet::{run_fleet, run_fleet_with, FleetConfig, FleetStats};
pub use linked::{
    run_linked_fleet_mode, FleetCommand, FleetTelemetry, LinkedDroneStats, LinkedFleetConfig,
    LinkedFleetStats, RadioFailure,
};
pub use map::{FlyTrap, OrchardMap, Tree};
pub use metrics::{MissionStats, NegotiationTally};
pub use mission::{
    FullLoopNegotiation, Mission, MissionConfig, NegotiationBackend, StatisticalNegotiation,
};
pub use sessions::{run_session_farm, FarmStats};
