//! Golden-trace conformance: the committed scenario matrix must reproduce
//! the committed digests exactly, grade Pass on every scenario, and satisfy
//! the coverage floor the harness promises (all roles, all three signs,
//! every fault injector at two intensities).

use hdc_sim::scenario::{golden_event_path, golden_path, parse_manifest};
use hdc_sim::{
    build_matrix, linked_fleet_cases_mode, mission_cases, run_scenario_with, FaultKind, Grade,
    ScheduleMode,
};

#[test]
fn matrix_covers_roles_signs_and_all_injectors_twice() {
    let matrix = build_matrix();
    assert!(matrix.len() >= 30, "only {} scenarios", matrix.len());

    let names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
    for role in ["supervisor", "worker", "visitor"] {
        assert!(
            names.iter().any(|n| n.contains(role)),
            "no scenario names role {role}"
        );
    }

    // every injector kind appears in at least two scenarios (two intensities)
    type KindPred<'a> = &'a dyn Fn(&FaultKind) -> bool;
    let count_kind = |pred: KindPred| {
        matrix
            .iter()
            .filter(|s| s.plan.faults.iter().any(pred))
            .count()
    };
    let kinds: [(&str, KindPred); 11] = [
        ("drop", &|f| matches!(f, FaultKind::DroppedFrames { .. })),
        ("dup", &|f| matches!(f, FaultKind::DuplicatedFrames { .. })),
        ("noise", &|f| matches!(f, FaultKind::NoiseBurst { .. })),
        ("occlusion", &|f| matches!(f, FaultKind::Occlusion { .. })),
        ("drift", &|f| matches!(f, FaultKind::AzimuthDrift { .. })),
        ("facing", &|f| matches!(f, FaultKind::FacingBias { .. })),
        ("led", &|f| matches!(f, FaultKind::LedFailure { .. })),
        ("wind", &|f| matches!(f, FaultKind::WindGust { .. })),
        ("battery", &|f| matches!(f, FaultKind::BatterySag { .. })),
        ("delay", &|f| matches!(f, FaultKind::DelayedResponse { .. })),
        ("role", &|f| matches!(f, FaultKind::RoleChange { .. })),
    ];
    for (label, pred) in kinds {
        assert!(
            count_kind(pred) >= 2,
            "injector {label} must appear at two intensities"
        );
    }
}

#[test]
fn every_scenario_passes_and_matches_its_golden_digest() {
    let committed = std::fs::read_to_string(golden_path())
        .expect("committed golden manifest (bless with run_scenarios --bless)");
    let golden = parse_manifest(&committed);

    for scenario in build_matrix() {
        let result = run_scenario_with(&scenario, ScheduleMode::Lockstep);
        assert_eq!(
            result.grade,
            Grade::Pass,
            "{}: outcome {}, violations {:?}",
            result.name,
            result.outcome,
            result.violations
        );
        let (_, want_digest, want_outcome) = golden
            .iter()
            .find(|(name, _, _)| *name == result.name)
            .unwrap_or_else(|| panic!("{} missing from the golden manifest", result.name));
        assert_eq!(
            &result.digest, want_digest,
            "{}: trace drifted from the committed golden",
            result.name
        );
        assert_eq!(
            &result.outcome.to_string().to_lowercase(),
            want_outcome,
            "{}: outcome class drifted",
            result.name
        );
    }
}

#[test]
fn event_driven_scenarios_stay_safe_and_match_their_golden_digests() {
    let committed = std::fs::read_to_string(golden_event_path())
        .expect("committed event golden manifest (bless with run_scenarios --bless)");
    let golden = parse_manifest(&committed);

    for scenario in build_matrix() {
        let result = run_scenario_with(&scenario, ScheduleMode::EventDriven);
        // Only `!= Fail` is asserted: the safety invariants are
        // mode-independent, but event mode does not yet reach lockstep's
        // outcome everywhere — 5 scenarios grade Degrade here where lockstep
        // passes (ROADMAP open item 1). Their outcomes are pinned by the
        // event golden manifest below, not endorsed as expected.
        assert_ne!(
            result.grade,
            Grade::Fail,
            "{}: outcome {}, violations {:?}",
            result.name,
            result.outcome,
            result.violations
        );
        let (_, want_digest, want_outcome) = golden
            .iter()
            .find(|(name, _, _)| *name == result.name)
            .unwrap_or_else(|| panic!("{} missing from the event golden manifest", result.name));
        assert_eq!(
            &result.digest, want_digest,
            "{}: event-driven trace drifted from the committed golden",
            result.name
        );
        assert_eq!(
            &result.outcome.to_string().to_lowercase(),
            want_outcome,
            "{}: event-driven outcome class drifted",
            result.name
        );
    }
}

#[test]
fn event_driven_fleet_cases_match_their_golden_digests() {
    let committed = std::fs::read_to_string(golden_event_path())
        .expect("committed event golden manifest (bless with run_scenarios --bless)");
    let golden = parse_manifest(&committed);
    for (name, digest, _) in linked_fleet_cases_mode(ScheduleMode::EventDriven) {
        let (_, want, _) = golden
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing from the event golden manifest"));
        assert_eq!(&digest, want, "{name}: event-driven fleet stats drifted");
    }
}

#[test]
fn mission_cases_match_their_golden_digests() {
    let committed = std::fs::read_to_string(golden_path())
        .expect("committed golden manifest (bless with run_scenarios --bless)");
    let golden = parse_manifest(&committed);
    for (name, digest, _) in mission_cases() {
        let (_, want, _) = golden
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing from the golden manifest"));
        assert_eq!(&digest, want, "{name}: mission stats drifted");
    }
}
