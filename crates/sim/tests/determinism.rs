//! Seed-determinism audit: every stochastic element of the stack — human
//! behaviour, wind, frame-loss coin flips, noise bursts, mission event
//! schedules — must be a pure function of the explicit seeds, so two
//! same-seed runs produce byte-identical canonical traces.

use hdc_core::{CollaborationSession, Role, SessionConfig};
use hdc_drone::WindModel;
use hdc_geometry::Vec3;
use hdc_sim::{build_matrix, mission_cases, run_scenario_with, ScheduleMode};

#[test]
fn same_seed_scenarios_replay_byte_identically() {
    // RNG-heavy picks: stochastic human + wind + frame drops + noise bursts
    let interesting = [
        "baseline-worker-consenting",
        "frame-drop-heavy",
        "wind-breeze",
        "gauntlet-lossy-noisy-slow",
    ];
    let matrix = build_matrix();
    for name in interesting {
        let scenario = matrix
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("scenario {name} must exist"));
        let a = run_scenario_with(scenario, ScheduleMode::Lockstep);
        let b = run_scenario_with(scenario, ScheduleMode::Lockstep);
        assert_eq!(a.digest, b.digest, "{name}: same seed must replay exactly");
        assert_eq!(a.outcome, b.outcome, "{name}");
        assert_eq!(a.frames, b.frames, "{name}");
    }
}

#[test]
fn session_seed_pins_wind_and_human_together() {
    // one explicit u64 drives both the human RNG and the drone's wind
    // process; no ambient/default seed path remains
    let run = |seed: u64| {
        let mut cfg = SessionConfig::for_role(Role::Worker, true, seed);
        cfg.wind = WindModel::breeze(Vec3::new(1.0, 0.0, 0.0), 2.0, 1.0);
        let report = CollaborationSession::new(cfg).run_report();
        format!("{}", report.log)
    };
    assert_eq!(run(5), run(5), "same seed, same trace bytes");
    assert_ne!(
        run(5),
        run(6),
        "different seeds must steer the gusty session differently"
    );
}

#[test]
fn mission_cases_are_deterministic() {
    assert_eq!(mission_cases(), mission_cases());
}
