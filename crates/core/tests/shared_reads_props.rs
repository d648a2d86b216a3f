//! A read served from a view worker's table is the read the camera would
//! have made itself.
//!
//! A camera whose own memo misses asks its `ViewWorker`'s table of view
//! reads before it reads the view. Every session here runs twice in lock
//! step, pass by pass: once on a worker that has served the sessions
//! before it, and once on a fresh worker per pass (`step_to`), whose table
//! holds nothing from an earlier pass. After every pass the two sessions'
//! whole state must print the same (`Debug`), and that state holds each
//! camera's last read — the owner's and every cohort observer's, blind or
//! sighted — so every read served from the table equals the fresh one, and
//! a blind read never stands in for a sighted one. The sessions vary in
//! role, consent, scripted and stochastic humans, heading, datalink, cohort
//! and calibration spec (two negotiation altitudes), and each case runs one
//! of them twice, so its second run takes its reads from the table.

use hdc_core::{
    CohortConfig, CollaborationSession, DatalinkConfig, HumanScript, Role, ScriptedResponse,
    SessionConfig, ViewWorker,
};
use hdc_figure::MarshallingSign;
use hdc_link::LinkQuality;
use proptest::prelude::*;

/// Runs `config` on `used` and on a fresh worker per pass, comparing the
/// two sessions after every pass; the views `used` served from its table.
fn run_twins(config: SessionConfig, used: &mut ViewWorker) -> Result<u64, TestCaseError> {
    let hits = used.hits();
    let mut shared = CollaborationSession::new(config);
    let mut fresh = CollaborationSession::new(config);
    while !shared.is_done() && shared.time() < config.max_duration_s {
        let now = shared.time();
        let mut target = shared.next_due_after(now);
        prop_assert_eq!(target.to_bits(), fresh.next_due_after(now).to_bits());
        if target <= now || target.is_nan() {
            target = now + CollaborationSession::TICK_S;
        }
        let target = target.min(config.max_duration_s);
        shared.step_to_with(target, used);
        fresh.step_to(target);
        prop_assert_eq!(
            format!("{shared:?}"),
            format!("{fresh:?}"),
            "at t = {}",
            target
        );
    }
    Ok(used.hits() - hits)
}

#[derive(Debug, Clone, Copy)]
struct Pick {
    seed: u64,
    role: usize,
    consent: bool,
    script: Option<usize>,
    heading: f64,
    link: usize,
    cohort: usize,
    dead_offset: f64,
    high: bool,
}

fn config(p: Pick) -> SessionConfig {
    let role = [Role::Supervisor, Role::Worker, Role::Visitor][p.role];
    let mut c = SessionConfig::for_role(role, p.consent, p.seed);
    c.human_heading = p.heading;
    c.max_duration_s = 60.0;
    if p.high {
        // a second calibration spec
        c.negotiation_altitude_m = 5.0;
    }
    if let Some(answer) = p.script {
        c = c.with_script(HumanScript {
            on_poke: ScriptedResponse::Sign(MarshallingSign::AttentionGained),
            on_request: [
                ScriptedResponse::Sign(MarshallingSign::Yes),
                ScriptedResponse::Sign(MarshallingSign::No),
                ScriptedResponse::WaveOff,
            ][answer],
            latency_s: 1.5,
        });
    }
    match p.link {
        0 => {}
        1 => c = c.with_datalink(DatalinkConfig::clean()),
        _ => {
            let lossy = LinkQuality::clean().with_drop(0.2).with_jitter(0.2);
            c = c.with_datalink(DatalinkConfig::symmetric(lossy));
        }
    }
    match p.cohort {
        0 => {}
        1 => c = c.with_cohort(CohortConfig::single_observer(p.dead_offset)),
        _ => {
            let relay = LinkQuality::clean().with_drop(0.15);
            c = c.with_cohort(CohortConfig::dual_observer(0.35, p.dead_offset).with_relay(relay));
        }
    }
    c
}

fn pick() -> impl Strategy<Value = Pick> {
    (
        (0u64..10_000, 0usize..3, any::<bool>(), 0usize..4),
        (
            -3.1f64..3.1,
            0usize..3,
            0usize..3,
            1.2f64..2.0,
            any::<bool>(),
        ),
    )
        .prop_map(
            |((seed, role, consent, script), (heading, link, cohort, dead_offset, high))| Pick {
                seed,
                role,
                consent,
                script: (script < 3).then_some(script),
                heading,
                link,
                cohort,
                dead_offset,
                high,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn shared_reads_equal_fresh_reads(first in pick(), second in pick()) {
        let mut used = ViewWorker::new();
        let mut hits = 0;
        for p in [first, second, first] {
            hits += run_twins(config(p), &mut used)?;
        }
        // the repeated session misses its memos on the views it missed
        // before, and the table holds them all
        prop_assert!(hits > 0, "no read was served from the table");
    }
}
