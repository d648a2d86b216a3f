//! `hdc-sim` — deterministic fault injection and scenario conformance.
//!
//! The paper's evaluation (Section IV) probes recognition under clean
//! conditions only; this crate is the degraded-conditions counterpart. It
//! drives the whole stack — figure rendering → vision recognition →
//! session/protocol → drone dynamics → orchard missions — through seeded
//! fault schedules and checks three things per named scenario:
//!
//! 1. the **outcome class** matches the scenario's expectation,
//! 2. the **safety invariants** hold (entry only after a recognised Yes,
//!    wave-off always honoured, the all-red danger posture is terminal), and
//! 3. the **canonical event trace** matches a committed golden digest, so
//!    any behavioural drift in protocol, patterns or recognition surfaces as
//!    a named-scenario diff instead of a silent change.
//!
//! Faults compose: a [`fault::FaultPlan`] is a list of seed-deterministic
//! injectors ([`fault::FaultKind`]) applied partly through `SessionConfig`
//! (wind, battery) and partly through the `SessionFaults` hook layer
//! (frame drops/duplication, noise bursts, occlusion, azimuth drift, facing
//! bias, delayed responses, role changes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod scenario;
pub mod sweep;
pub mod trace;

pub use fault::{FaultKind, FaultPlan, PlanFaults};
pub use hdc_runtime::ScheduleMode;
pub use scenario::{
    build_matrix, linked_fleet_cases_mode, mission_cases, run_matrix_mode, run_scenario_with,
    Grade, Scenario, ScenarioResult,
};
pub use sweep::{
    cohort_fusion_sweep, cohort_fusion_sweep_with, cohort_loss_sweep_with, dead_angle_sweep,
    dead_angle_sweep_with, link_loss_sweep_with, FusionPoint, LossPoint,
};
pub use trace::{canonical_trace, CanonicalTrace};
