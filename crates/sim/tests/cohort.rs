//! Cohort-consensus integration: the multi-drone scenarios terminate safely
//! in both schedule modes, the dead-angle fusion actually carries a
//! negotiation the owner is blind to, and relay/drone loss degrades to
//! single-view behaviour without ever failing unsafe.

use hdc_core::{CohortConfig, HumanScript, Role, ScriptedResponse, SessionConfig};
use hdc_figure::MarshallingSign;
use hdc_geometry::azimuth::DEAD_ANGLE_CENTER_RAD;
use hdc_link::LinkQuality;
use hdc_runtime::{ScheduleMode, WorkPool};
use hdc_sim::{build_matrix, run_matrix_mode, run_scenario_with, FaultPlan, Grade, Scenario};
use proptest::prelude::*;

/// The cohort sub-matrix (everything this layer appended to the golden set).
fn cohort_matrix() -> Vec<hdc_sim::Scenario> {
    let m: Vec<_> = build_matrix()
        .into_iter()
        .filter(|s| s.name.starts_with("cohort-"))
        .collect();
    assert!(m.len() >= 10, "cohort matrix shrank: {} rows", m.len());
    m
}

#[test]
fn every_cohort_scenario_terminates_safely_in_both_modes() {
    for scenario in cohort_matrix() {
        for mode in [ScheduleMode::Lockstep, ScheduleMode::EventDriven] {
            let r = run_scenario_with(&scenario, mode);
            assert_ne!(
                r.grade,
                Grade::Fail,
                "{} ({mode:?}): outcome {}, violations {:?}",
                r.name,
                r.outcome,
                r.violations
            );
            assert!(
                r.violations.is_empty(),
                "{} ({mode:?}): safety invariants violated: {:?}",
                r.name,
                r.violations
            );
        }
    }
}

#[test]
fn dead_angle_fusion_grants_on_relayed_votes_alone() {
    let scenario = cohort_matrix()
        .into_iter()
        .find(|s| s.name == "cohort-dead-angle-recovered")
        .expect("tentpole scenario present");
    let r = run_scenario_with(&scenario, ScheduleMode::Lockstep);
    assert_eq!(
        r.outcome.to_string(),
        "granted",
        "violations {:?}",
        r.violations
    );
    // the owner recognised nothing from inside the dead angle: the grant is
    // carried entirely by the observer's relayed quorum votes
    assert_eq!(
        r.frames.1, 0,
        "owner must be blind for this case to prove fusion"
    );
}

#[test]
fn observer_loss_degrades_to_single_view_never_unsafe() {
    let scenario = cohort_matrix()
        .into_iter()
        .find(|s| s.name == "cohort-observer-loss-degrades")
        .expect("drone-loss scenario present");
    for mode in [ScheduleMode::Lockstep, ScheduleMode::EventDriven] {
        let r = run_scenario_with(&scenario, mode);
        assert_eq!(
            r.outcome.to_string(),
            "abandoned",
            "{mode:?}: losing the only sighted relay must abandon, not grant"
        );
        assert!(r.violations.is_empty(), "{mode:?}: {:?}", r.violations);
    }
}

// No interleaving of relay loss, duplicated votes and jitter can make the
// quorum grant area access twice — the exactly-once EnterArea invariant
// holds cohort-wide under arbitrary relay impairment, and the whole run is
// a pure function of its inputs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn no_relay_interleaving_grants_twice(
            seed in 0u64..1000,
            drop_p in 0.0f64..0.5,
            dup_p in 0.0f64..0.5,
            jitter in 0.0f64..1.0,
            dual in any::<bool>()) {
        let relay = LinkQuality::clean()
            .with_drop(drop_p)
            .with_dup(dup_p)
            .with_jitter(jitter);
        let cohort = if dual {
            CohortConfig::dual_observer(0.35, DEAD_ANGLE_CENTER_RAD)
        } else {
            CohortConfig::single_observer(DEAD_ANGLE_CENTER_RAD)
        }
        .with_relay(relay);
        let config = SessionConfig::for_role(Role::Supervisor, true, seed)
            .with_script(HumanScript::answering(ScriptedResponse::Sign(
                MarshallingSign::Yes,
            )))
            .with_cohort(cohort);
        let scenario = Scenario {
            name: format!("prop-cohort-{seed}"),
            config,
            plan: FaultPlan::none(),
            inject_safety_at: None,
            expect: vec![],
        };
        for mode in [ScheduleMode::Lockstep, ScheduleMode::EventDriven] {
            let r = run_scenario_with(&scenario, mode);
            // check_invariants covers exactly-once EnterArea/DangerLand and
            // the cohort-wide quorum-before-entry gate
            prop_assert!(
                r.violations.is_empty(),
                "{mode:?} drop {drop_p:.2} dup {dup_p:.2} jitter {jitter:.2}: {:?}",
                r.violations
            );
            prop_assert!(r.grade != Grade::Fail, "{mode:?}: outcome {}", r.outcome);
            let again = run_scenario_with(&scenario, mode);
            prop_assert_eq!(&r.digest, &again.digest, "{mode:?}: rerun must be byte-identical");
        }
    }
}

#[test]
fn cohort_scenarios_are_worker_count_invariant() {
    let matrix = cohort_matrix();
    let serial: Vec<_> = matrix
        .iter()
        .map(|s| run_scenario_with(s, ScheduleMode::Lockstep))
        .collect();
    for workers in [1usize, 2, 4] {
        let parallel = run_matrix_mode(&WorkPool::new(workers), &matrix, ScheduleMode::Lockstep);
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(
                (p.name.as_str(), &p.digest, p.outcome, p.grade),
                (s.name.as_str(), &s.digest, s.outcome, s.grade),
                "cohort consensus drifted at {workers} workers"
            );
        }
    }
}
