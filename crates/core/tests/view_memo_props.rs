//! The view memo never changes what a session does.
//!
//! A session with a fault layer installed takes the full render-and-recognise
//! path on every camera frame, so a pass-through fault layer — one that
//! delivers every frame untouched and perturbs nothing — turns any session
//! into the oracle for the memoised fast path. Across random roles, consent,
//! scripted and stochastic humans, seeds, headings, datalinks, cohorts and
//! both scheduler modes, the unfaulted session must report exactly what its
//! oracle reports: outcome, every frame count, link and cohort traffic, and
//! the full event log (and so every digest taken from it).

use hdc_core::{
    CohortConfig, CollaborationSession, DatalinkConfig, HumanScript, Role, ScriptedResponse,
    SessionConfig, SessionFaults, SessionReport,
};
use hdc_figure::MarshallingSign;
use hdc_link::LinkQuality;
use proptest::prelude::*;

/// Delivers every frame untouched; every other hook keeps its no-fault
/// default.
#[derive(Debug)]
struct PassThrough;

impl SessionFaults for PassThrough {}

fn run(config: SessionConfig, event_driven: bool, oracle: bool) -> SessionReport {
    let mut s = CollaborationSession::new(config);
    if oracle {
        s.set_faults(Box::new(PassThrough));
    }
    if event_driven {
        s.run_events();
    } else {
        s.run();
    }
    s.into_report()
}

fn response(pick: usize) -> ScriptedResponse {
    match pick {
        0 => ScriptedResponse::Sign(MarshallingSign::Yes),
        1 => ScriptedResponse::Sign(MarshallingSign::No),
        2 => ScriptedResponse::WaveOff,
        _ => ScriptedResponse::Ignore,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn memoised_session_matches_its_full_path_oracle(
        seed in 0u64..10_000,
        role_pick in 0usize..3,
        consent in any::<bool>(),
        scripted in any::<bool>(),
        answer_pick in 0usize..4,
        latency_s in 0.5f64..4.0,
        heading in -3.1f64..3.1,
        link_pick in 0usize..3,
        cohort_pick in 0usize..3,
        dead_offset in 1.2f64..2.0,
        event_driven in any::<bool>(),
    ) {
        let role = [Role::Supervisor, Role::Worker, Role::Visitor][role_pick];
        let mut config = SessionConfig::for_role(role, consent, seed);
        config.human_heading = heading;
        config.max_duration_s = 90.0;
        if scripted {
            config = config.with_script(HumanScript {
                on_poke: ScriptedResponse::Sign(MarshallingSign::AttentionGained),
                on_request: response(answer_pick),
                latency_s,
            });
        }
        match link_pick {
            0 => {}
            1 => config = config.with_datalink(DatalinkConfig::clean()),
            _ => {
                let lossy = LinkQuality::clean().with_drop(0.2).with_jitter(0.2);
                config = config.with_datalink(DatalinkConfig::symmetric(lossy));
            }
        }
        match cohort_pick {
            0 => {}
            1 => config = config.with_cohort(CohortConfig::single_observer(dead_offset)),
            _ => {
                let relay = LinkQuality::clean().with_drop(0.15);
                config = config.with_cohort(
                    CohortConfig::dual_observer(0.35, dead_offset).with_relay(relay),
                );
            }
        }

        let fast = run(config, event_driven, false);
        let oracle = run(config, event_driven, true);
        prop_assert_eq!(fast.outcome, oracle.outcome);
        prop_assert_eq!(fast.duration_s.to_bits(), oracle.duration_s.to_bits());
        prop_assert_eq!(fast.frames_processed, oracle.frames_processed);
        prop_assert_eq!(fast.frames_recognized, oracle.frames_recognized);
        prop_assert_eq!(fast.frames_dropped, oracle.frames_dropped);
        prop_assert_eq!(fast.frames_duplicated, oracle.frames_duplicated);
        prop_assert_eq!(fast.ring_mode, oracle.ring_mode);
        prop_assert_eq!(fast.safety_engaged, oracle.safety_engaged);
        prop_assert_eq!(fast.grounded, oracle.grounded);
        prop_assert_eq!(fast.link, oracle.link);
        prop_assert_eq!(fast.cohort, oracle.cohort);
        prop_assert_eq!(&fast.log, &oracle.log);
        // the oracle renders every owner frame
        prop_assert_eq!(oracle.views_reused, 0);
    }
}

#[test]
fn a_held_sign_is_served_from_the_memo() {
    // a scripted supervisor holds each sign for seconds in front of a
    // hovering drone: most owner frames repeat the previous view
    let config = SessionConfig::for_role(Role::Supervisor, true, 3).with_script(
        HumanScript::answering(ScriptedResponse::Sign(MarshallingSign::Yes)),
    );
    let fast = run(config, true, false);
    let oracle = run(config, true, true);
    assert_eq!(fast.log, oracle.log);
    assert!(
        fast.views_reused * 2 >= fast.frames_processed,
        "held signs must repeat: {} of {} owner frames reused",
        fast.views_reused,
        fast.frames_processed
    );
}
