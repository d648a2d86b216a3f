//! Named scenarios, the matrix runner, and the safety-invariant checks.
//!
//! A [`Scenario`] is a session configuration plus a [`FaultPlan`] and an
//! expected outcome class. [`build_matrix`] expands
//! {role × sign × consent × fault plan} into the committed scenario set;
//! [`run_scenario_with`] executes one scenario through the full closed loop and
//! grades it:
//!
//! * **Pass** — expected outcome class and every safety invariant held,
//! * **Degrade** — the session terminated and the invariants held, but the
//!   fault load pushed it into a different (still safe) outcome,
//! * **Fail** — an invariant was violated or the session did not terminate.
//!
//! The invariants are the paper's dependability claims: area entry only
//! after a recognised Yes (R4), a wave-off is always honoured, the danger
//! posture is terminal (no actions after `DangerLand`, ring latched all-red
//! whenever the safety function engaged), and negotiation time is bounded.

use crate::fault::{FaultKind, FaultPlan};
use crate::trace::canonical_trace;
use hdc_core::{
    CohortConfig, CollaborationSession, HumanScript, LogEntry, ProtocolAction, Role,
    ScriptedResponse, SessionConfig, SessionOutcome, SessionReport, ViewWorker,
};
use hdc_drone::LedMode;
use hdc_figure::MarshallingSign;
use hdc_link::LinkQuality;
use hdc_orchard::{
    run_linked_fleet_mode, LinkedFleetConfig, Mission, MissionConfig, OrchardMap, RadioFailure,
};
use hdc_raster::digest::digest_hex;
use hdc_runtime::{micros_to_secs, secs_to_micros, ScheduleMode};

/// A named, fully specified scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique scenario name (the golden-manifest key).
    pub name: String,
    /// Session configuration (faults in the plan may still adjust it).
    pub config: SessionConfig,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Fire an external safety fault at this simulated time.
    pub inject_safety_at: Option<f64>,
    /// Accepted outcome classes; empty accepts any terminal outcome.
    pub expect: Vec<SessionOutcome>,
}

/// How a scenario fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grade {
    /// Expected outcome, invariants held.
    Pass,
    /// Unexpected (but safe and terminal) outcome under fault load.
    Degrade,
    /// Invariant violation or non-termination.
    Fail,
}

impl Grade {
    /// Lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Grade::Pass => "pass",
            Grade::Degrade => "degrade",
            Grade::Fail => "fail",
        }
    }
}

/// The outcome of running one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Final protocol outcome.
    pub outcome: SessionOutcome,
    /// Grade against expectation and invariants.
    pub grade: Grade,
    /// Canonical trace digest (what the golden manifest pins).
    pub digest: String,
    /// Invariant violations, empty when safe.
    pub violations: Vec<String>,
    /// Simulated session duration, seconds.
    pub duration_s: f64,
    /// Frames processed / recognised / dropped / duplicated.
    pub frames: (usize, usize, usize, usize),
}

/// Runs one scenario through the full closed loop under the given scheduler
/// mode.
///
/// * [`ScheduleMode::Lockstep`] steps the session one `DT` tick at a time
///   and checks the external safety injection at each tick boundary, exactly
///   as the pre-scheduler fixed-rate loop did — traces are bit-identical to
///   it at every worker count;
/// * [`ScheduleMode::EventDriven`] treats the injection as one more due
///   time, at whole microseconds, and otherwise jumps the session straight
///   between its due times, so the long idle stretches cost zero drone
///   ticks. Deterministic, but pinned by its own blessed manifest
///   (`tests/golden/scenario_digests_event.txt`).
pub fn run_scenario_with(scenario: &Scenario, mode: ScheduleMode) -> ScenarioResult {
    const TICK: f64 = CollaborationSession::TICK_S;
    let mut config = scenario.config;
    scenario.plan.apply_config(&mut config);
    let mut session = CollaborationSession::new(config);
    if let Some(brightness) = scenario.plan.led_brightness() {
        session.drone_mut().ring_mut().brightness = brightness;
    }
    session.set_faults(Box::new(scenario.plan.build()));

    let mut worker = ViewWorker::new();
    let running = |s: &CollaborationSession| !s.is_done() && s.time() < config.max_duration_s;
    match mode {
        ScheduleMode::Lockstep => {
            let mut inject_at = scenario.inject_safety_at;
            while running(&session) {
                if inject_at.is_some_and(|at| session.time() >= at) {
                    session.inject_safety("scenario fault injection");
                    inject_at = None;
                }
                session.step_with(&mut worker);
            }
        }
        ScheduleMode::EventDriven => {
            let mut inject_at = scenario
                .inject_safety_at
                .map(|at| micros_to_secs(secs_to_micros(at)));
            while running(&session) {
                let now = session.time();
                if inject_at.is_some_and(|at| at <= now) {
                    session.inject_safety("scenario fault injection");
                    inject_at = None;
                }
                let mut target = session.next_due_after(now);
                if let Some(at) = inject_at {
                    target = target.min(at);
                }
                if target <= now || target.is_nan() {
                    target = now + TICK;
                }
                session.step_to_with(target.min(config.max_duration_s), &mut worker);
            }
        }
    }
    let report = session.into_report();
    grade_report(scenario, &report)
}

/// Runs a scenario set across a work pool under `mode`, results in matrix
/// order.
///
/// Scenarios are independent and seed-deterministic, so this is a pure
/// fan-out: the result vector — digests included — is byte-identical to the
/// serial `run_scenario_with` of each scenario at every worker count.
pub fn run_matrix_mode(
    pool: &hdc_runtime::WorkPool,
    scenarios: &[Scenario],
    mode: ScheduleMode,
) -> Vec<ScenarioResult> {
    pool.map(scenarios, |s| run_scenario_with(s, mode))
}

/// Grades a finished session report against a scenario's expectations.
pub fn grade_report(scenario: &Scenario, report: &SessionReport) -> ScenarioResult {
    let violations = check_invariants(report);
    let terminal = report.outcome != SessionOutcome::StillRunning;
    let expected = scenario.expect.is_empty() || scenario.expect.contains(&report.outcome);
    let grade = if !violations.is_empty() || !terminal {
        Grade::Fail
    } else if expected {
        Grade::Pass
    } else {
        Grade::Degrade
    };
    ScenarioResult {
        name: scenario.name.clone(),
        outcome: report.outcome,
        grade,
        digest: digest_hex(canonical_trace(&report.log)),
        violations,
        duration_s: report.duration_s,
        frames: (
            report.frames_processed,
            report.frames_recognized,
            report.frames_dropped,
            report.frames_duplicated,
        ),
    }
}

/// Checks the safety invariants on a finished session report.
pub fn check_invariants(report: &SessionReport) -> Vec<String> {
    let mut violations = Vec::new();
    let log = &report.log;

    // R4: the drone enters the area only after a recognised Yes.
    let first_yes = log.first_time(|e| *e == LogEntry::Recognized(Some(MarshallingSign::Yes)));
    for (t, _) in log.filter(|e| *e == LogEntry::Action(ProtocolAction::EnterArea)) {
        match first_yes {
            Some(yes_t) if yes_t <= *t => {}
            _ => violations.push(format!(
                "EnterArea at {t:.1}s without a prior recognised Yes"
            )),
        }
    }

    // cohort-wide R4: when a consensus cohort is installed, every area
    // entry additionally requires a prior quorum acceptance of Yes — a
    // single member (owner included) must never grant alone past the
    // configured quorum, whatever the relay interleaving did
    if report.cohort.is_some() {
        let first_quorum_yes = log.first_time(
            |e| matches!(e, LogEntry::QuorumAccepted { sign, .. } if *sign == MarshallingSign::Yes),
        );
        for (t, _) in log.filter(|e| *e == LogEntry::Action(ProtocolAction::EnterArea)) {
            match first_quorum_yes {
                Some(q_t) if q_t <= *t => {}
                _ => violations.push(format!(
                    "EnterArea at {t:.1}s without a prior cohort quorum acceptance of Yes"
                )),
            }
        }
    }

    // the danger posture is terminal: no protocol actions after DangerLand
    if let Some(danger_t) = log.first_time(|e| *e == LogEntry::Action(ProtocolAction::DangerLand)) {
        for (t, e) in log.filter(|e| matches!(e, LogEntry::Action(_))) {
            if *t > danger_t {
                violations.push(format!("action after DangerLand at {t:.1}s: {e}"));
            }
        }
    }

    // command effects are exactly-once: the one-shot protocol actions must
    // not apply twice even when a duplicating/reordering datalink redelivers
    // them (the endpoint dedup window is what this pins)
    for action in [ProtocolAction::EnterArea, ProtocolAction::DangerLand] {
        let count = log
            .filter(|e| *e == LogEntry::Action(action.clone()))
            .count();
        if count > 1 {
            violations.push(format!("one-shot action applied {count} times: {action}"));
        }
    }

    // a wave-off is always honoured: no area entry at or after detection
    if let Some(wave_t) = log.first_time(|e| *e == LogEntry::WaveOffDetected) {
        for (t, _) in log.filter(|e| *e == LogEntry::Action(ProtocolAction::EnterArea)) {
            if *t >= wave_t {
                violations.push(format!(
                    "EnterArea at {t:.1}s after wave-off at {wave_t:.1}s"
                ));
            }
        }
    }

    // the log records state changes, not handler calls: a StateChanged
    // entry never repeats the state logged before it
    let mut logged = None;
    for (t, entry) in log.entries() {
        if let LogEntry::StateChanged { to } = entry {
            if logged == Some(*to) {
                violations.push(format!("state {to} logged again at {t:.1}s"));
            }
            logged = Some(*to);
        }
    }

    // an aborted negotiation must leave the fail-safe hardware posture
    if report.outcome == SessionOutcome::Aborted {
        if !report.safety_engaged {
            violations.push("Aborted without the drone safety function engaging".into());
        }
        if !report.grounded {
            violations.push("Aborted but the drone is still airborne".into());
        }
    }

    // the all-red ring latches whenever the safety function engaged
    if report.safety_engaged && report.ring_mode != LedMode::Danger {
        violations.push(format!(
            "safety engaged but the ring shows {:?} instead of Danger",
            report.ring_mode
        ));
    }

    violations
}

/// The scripted consenting supervisor used as the common substrate for the
/// per-injector scenarios: deterministic human behaviour isolates the fault
/// channel under test.
fn scripted_base(seed: u64) -> SessionConfig {
    SessionConfig::for_role(Role::Supervisor, true, seed).with_script(HumanScript::answering(
        ScriptedResponse::Sign(MarshallingSign::Yes),
    ))
}

fn scenario(
    name: &str,
    config: SessionConfig,
    plan: FaultPlan,
    expect: Vec<SessionOutcome>,
) -> Scenario {
    Scenario {
        name: name.to_owned(),
        config,
        plan,
        inject_safety_at: None,
        expect,
    }
}

fn fault_scenario(name: &str, fault: FaultKind, expect: Vec<SessionOutcome>) -> Scenario {
    scenario(
        name,
        scripted_base(42),
        FaultPlan::single(42, fault),
        expect,
    )
}

/// Builds the committed scenario matrix: baselines for every role and
/// consent intention, scripted coverage of all three marshalling signs plus
/// the wave-off, every fault injector at two intensities, combined fault
/// gauntlets, and external safety injection.
pub fn build_matrix() -> Vec<Scenario> {
    use SessionOutcome::{Abandoned, Aborted, Denied, Granted};
    let mut m = Vec::new();

    // --- stochastic baselines: {role} × {consent} ---
    for (role, consent, seed, expect) in [
        (Role::Supervisor, true, 3, vec![Granted]),
        (Role::Supervisor, false, 4, vec![Denied]),
        // seed 1 commits a training error: the worker answers No by mistake
        (Role::Worker, true, 1, vec![Granted, Denied, Abandoned]),
        (Role::Worker, false, 0, vec![Denied, Abandoned]),
        (Role::Visitor, true, 2, vec![Granted, Abandoned]),
        (Role::Visitor, false, 5, vec![Denied, Abandoned]),
    ] {
        let consent_label = if consent { "consenting" } else { "refusing" };
        let name = format!("baseline-{role}-{consent_label}").to_lowercase();
        m.push(scenario(
            &name,
            SessionConfig::for_role(role, consent, seed),
            FaultPlan::none(),
            expect,
        ));
    }

    // --- scripted sign coverage: AttentionGained + {Yes, No}, wave-off,
    //     and a silent human ---
    m.push(scenario(
        "scripted-attention-yes-grants",
        scripted_base(7),
        FaultPlan::none(),
        vec![Granted],
    ));
    m.push(scenario(
        "scripted-attention-no-denies",
        SessionConfig::for_role(Role::Supervisor, false, 7).with_script(HumanScript::answering(
            ScriptedResponse::Sign(MarshallingSign::No),
        )),
        FaultPlan::none(),
        vec![Denied],
    ));
    m.push(scenario(
        "scripted-wave-off-denies",
        SessionConfig::for_role(Role::Worker, false, 7).with_script(HumanScript::wave_off()),
        FaultPlan::none(),
        vec![Denied],
    ));
    m.push(scenario(
        "scripted-ignore-abandons",
        SessionConfig::for_role(Role::Visitor, true, 7).with_script(HumanScript {
            on_poke: ScriptedResponse::Ignore,
            on_request: ScriptedResponse::Ignore,
            latency_s: 1.0,
        }),
        FaultPlan::none(),
        vec![Abandoned],
    ));

    // --- every fault injector at two intensities, on the scripted
    //     consenting supervisor ---
    m.push(fault_scenario(
        "frame-drop-light",
        FaultKind::DroppedFrames { probability: 0.15 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "frame-drop-heavy",
        FaultKind::DroppedFrames { probability: 0.7 },
        vec![Granted, Abandoned],
    ));
    m.push(fault_scenario(
        "frame-dup-light",
        FaultKind::DuplicatedFrames { probability: 0.25 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "frame-dup-heavy",
        FaultKind::DuplicatedFrames { probability: 0.6 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "noise-burst-light",
        FaultKind::NoiseBurst {
            sigma: 12.0,
            period_s: 4.0,
            burst_s: 1.0,
        },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "noise-burst-heavy",
        FaultKind::NoiseBurst {
            sigma: 60.0,
            period_s: 2.0,
            burst_s: 1.5,
        },
        vec![Granted, Abandoned, Denied],
    ));
    m.push(fault_scenario(
        "occlusion-light",
        FaultKind::Occlusion { fraction: 0.12 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "occlusion-heavy",
        FaultKind::Occlusion { fraction: 0.45 },
        vec![Granted, Abandoned, Denied],
    ));
    m.push(fault_scenario(
        "azimuth-drift-slow",
        FaultKind::AzimuthDrift { rate_rad_s: 0.05 },
        vec![Granted],
    ));
    // fast drift rotates the held Yes through aliasing views: the static
    // channel can misread it as a No before the sign becomes unreadable
    m.push(fault_scenario(
        "azimuth-drift-fast",
        FaultKind::AzimuthDrift { rate_rad_s: 0.5 },
        vec![Granted, Abandoned, Denied],
    ));
    m.push(fault_scenario(
        "facing-bias-mild",
        FaultKind::FacingBias { rad: 0.35 },
        vec![Granted],
    ));
    // ~100°: squarely in the recogniser's dead angle (Figure 4)
    m.push(fault_scenario(
        "facing-bias-dead-angle",
        FaultKind::FacingBias {
            rad: hdc_geometry::azimuth::DEAD_ANGLE_CENTER_RAD,
        },
        vec![Abandoned],
    ));
    m.push(fault_scenario(
        "led-failure-dim",
        FaultKind::LedFailure { brightness: 0.5 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "led-failure-dead",
        FaultKind::LedFailure { brightness: 0.0 },
        vec![Granted],
    ));
    // even a breeze can gust the drone across the 2 m separation floor
    // during the close-in poke — the safety monitor aborts, which is the
    // correct (conservative) behaviour
    m.push(fault_scenario(
        "wind-breeze",
        FaultKind::WindGust {
            speed: 3.0,
            gust: 1.5,
        },
        vec![Granted, Aborted],
    ));
    m.push(fault_scenario(
        "wind-gale",
        FaultKind::WindGust {
            speed: 8.0,
            gust: 4.0,
        },
        vec![Granted, Abandoned, Aborted],
    ));
    m.push(fault_scenario(
        "battery-sag-mild",
        FaultKind::BatterySag { capacity_wh: 25.0 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "battery-sag-critical",
        FaultKind::BatterySag { capacity_wh: 1.0 },
        vec![Abandoned, Aborted],
    ));
    m.push(fault_scenario(
        "delayed-response-mild",
        FaultKind::DelayedResponse { delay_s: 2.0 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "delayed-response-severe",
        FaultKind::DelayedResponse { delay_s: 9.0 },
        vec![Granted, Abandoned],
    ));
    m.push(scenario(
        "role-change-worker-to-visitor",
        SessionConfig::for_role(Role::Worker, true, 8),
        FaultPlan::single(
            8,
            FaultKind::RoleChange {
                at_s: 10.0,
                to: Role::Visitor,
            },
        ),
        vec![],
    ));
    m.push(scenario(
        "role-change-visitor-to-supervisor",
        SessionConfig::for_role(Role::Visitor, true, 9),
        FaultPlan::single(
            9,
            FaultKind::RoleChange {
                at_s: 25.0,
                to: Role::Supervisor,
            },
        ),
        vec![],
    ));

    // --- combined gauntlets ---
    m.push(scenario(
        "gauntlet-lossy-noisy-slow",
        scripted_base(42),
        FaultPlan {
            seed: 17,
            faults: vec![
                FaultKind::DroppedFrames { probability: 0.3 },
                FaultKind::NoiseBurst {
                    sigma: 25.0,
                    period_s: 5.0,
                    burst_s: 1.0,
                },
                FaultKind::DelayedResponse { delay_s: 3.0 },
            ],
        },
        vec![Granted, Abandoned, Denied],
    ));
    m.push(scenario(
        "wave-off-through-drops",
        SessionConfig::for_role(Role::Worker, false, 11).with_script(HumanScript::wave_off()),
        FaultPlan::single(11, FaultKind::DroppedFrames { probability: 0.35 }),
        vec![Denied, Abandoned],
    ));
    m.push(scenario(
        "wave-off-through-noise",
        SessionConfig::for_role(Role::Worker, false, 12).with_script(HumanScript::wave_off()),
        FaultPlan::single(
            12,
            FaultKind::NoiseBurst {
                sigma: 20.0,
                period_s: 6.0,
                burst_s: 1.0,
            },
        ),
        vec![Denied, Abandoned],
    ));

    // --- datalink faults: the negotiation over a lossy radio ---
    m.push(fault_scenario(
        "link-clean-baseline",
        // probability zero still routes everything over the (perfect) link
        FaultKind::LinkDrop { probability: 0.0 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "link-drop-light",
        FaultKind::LinkDrop { probability: 0.1 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "link-drop-heavy",
        FaultKind::LinkDrop { probability: 0.45 },
        vec![Granted, Abandoned],
    ));
    m.push(fault_scenario(
        "link-dup-storm",
        FaultKind::LinkDup { probability: 0.8 },
        vec![Granted],
    ));
    m.push(fault_scenario(
        "link-reorder-deep",
        FaultKind::LinkJitter { seconds: 0.8 },
        vec![Granted],
    ));
    // a 2 s outage is shorter than the 3 s lease: the link heals and the
    // negotiation completes (retransmission bridges the gap)
    m.push(fault_scenario(
        "link-partition-transient",
        FaultKind::LinkPartition {
            at_s: 10.0,
            for_s: 2.0,
        },
        vec![Granted, Abandoned],
    ));
    // a 30 s outage expires both leases: the drone failsafes autonomously
    // and the supervisor aborts — the committed lease-expiry posture
    m.push(fault_scenario(
        "link-partition-lease-expiry",
        FaultKind::LinkPartition {
            at_s: 10.0,
            for_s: 30.0,
        },
        vec![Aborted],
    ));
    m.push(fault_scenario(
        "link-partition-early",
        FaultKind::LinkPartition {
            at_s: 1.0,
            for_s: 1.0e6,
        },
        vec![Aborted],
    ));
    m.push(scenario(
        "link-gauntlet-drop-dup-reorder",
        scripted_base(42),
        FaultPlan {
            seed: 23,
            faults: vec![
                FaultKind::LinkDrop { probability: 0.25 },
                FaultKind::LinkDup { probability: 0.3 },
                FaultKind::LinkJitter { seconds: 0.5 },
            ],
        },
        vec![Granted, Abandoned, Denied],
    ));
    m.push(scenario(
        "wave-off-over-lossy-link",
        SessionConfig::for_role(Role::Worker, false, 13).with_script(HumanScript::wave_off()),
        FaultPlan::single(13, FaultKind::LinkDrop { probability: 0.3 }),
        vec![Denied, Abandoned],
    ));

    // --- external safety injection ---
    let mut early = scenario(
        "injected-safety-early",
        scripted_base(21),
        FaultPlan::none(),
        vec![Aborted],
    );
    early.inject_safety_at = Some(5.0);
    m.push(early);
    let mut mid = scenario(
        "injected-safety-mid-negotiation",
        scripted_base(21),
        FaultPlan::none(),
        vec![Aborted],
    );
    mid.inject_safety_at = Some(15.0);
    m.push(mid);

    // --- cohort consensus: multi-drone × dead-angle × link-fault × loss ---
    // (appended after every single-view row so the pre-cohort manifest
    // prefix stays byte-identical)
    let dead = hdc_geometry::azimuth::DEAD_ANGLE_CENTER_RAD;
    m.push(scenario(
        "cohort-clean-single-observer",
        scripted_base(42).with_cohort(CohortConfig::single_observer(dead)),
        FaultPlan::none(),
        vec![Granted],
    ));
    // the tentpole case: the owner is blind (facing bias parks the human's
    // heading in the dead angle) but the observer offset by the same angle
    // sees the human frontally and its relayed votes carry the negotiation
    m.push(scenario(
        "cohort-dead-angle-recovered",
        scripted_base(42).with_cohort(CohortConfig::single_observer(dead)),
        FaultPlan::single(42, FaultKind::FacingBias { rad: dead }),
        vec![Granted, Denied],
    ));
    m.push(scenario(
        "cohort-dead-angle-relay-lossy",
        scripted_base(42).with_cohort(CohortConfig::single_observer(dead)),
        FaultPlan {
            seed: 42,
            faults: vec![
                FaultKind::FacingBias { rad: dead },
                FaultKind::RelayDrop { probability: 0.3 },
            ],
        },
        vec![Abandoned, Denied],
    ));
    // a different session seed from the 30% row, so the two lossy cases
    // exercise distinct drop patterns (same-seed channels drop supersets)
    m.push(scenario(
        "cohort-relay-drop-heavy",
        scripted_base(77).with_cohort(CohortConfig::single_observer(dead)),
        FaultPlan {
            seed: 77,
            faults: vec![
                FaultKind::FacingBias { rad: dead },
                FaultKind::RelayDrop { probability: 0.45 },
            ],
        },
        vec![Granted, Denied],
    ));
    // drone loss mid-negotiation: the relay lease expires, the quorum
    // re-anchors on the owner alone, and the blind single view abandons
    // safely instead of failing unsafe
    m.push(scenario(
        "cohort-observer-loss-degrades",
        scripted_base(42).with_cohort(CohortConfig::single_observer(dead)),
        FaultPlan {
            seed: 42,
            faults: vec![
                FaultKind::FacingBias { rad: dead },
                FaultKind::ObserverLoss {
                    observer: 0,
                    at_s: 6.0,
                },
            ],
        },
        vec![Abandoned],
    ));
    m.push(scenario(
        "cohort-dual-quorum2-clean",
        scripted_base(42).with_cohort(CohortConfig::dual_observer(0.35, dead)),
        FaultPlan::none(),
        vec![Granted, Denied],
    ));
    m.push(scenario(
        "cohort-dual-quorum2-dead-angle",
        scripted_base(42).with_cohort(CohortConfig::dual_observer(0.35, dead)),
        FaultPlan::single(42, FaultKind::FacingBias { rad: dead }),
        vec![Denied],
    ));
    m.push(scenario(
        "cohort-quorum2-observer-loss-reanchors",
        scripted_base(42).with_cohort(CohortConfig::dual_observer(0.35, dead)),
        FaultPlan::single(
            42,
            FaultKind::ObserverLoss {
                observer: 1,
                at_s: 6.0,
            },
        ),
        vec![Granted, Denied],
    ));
    m.push(scenario(
        "cohort-wave-off-relayed",
        SessionConfig::for_role(Role::Worker, false, 11)
            .with_script(HumanScript::wave_off())
            .with_cohort(CohortConfig::single_observer(dead)),
        FaultPlan::single(11, FaultKind::FacingBias { rad: dead }),
        vec![Denied],
    ));
    m.push(scenario(
        "cohort-link-and-relay-gauntlet",
        scripted_base(42).with_cohort(CohortConfig::single_observer(dead)),
        FaultPlan {
            seed: 42,
            faults: vec![
                FaultKind::FacingBias { rad: dead },
                FaultKind::LinkDrop { probability: 0.25 },
                FaultKind::RelayDrop { probability: 0.3 },
            ],
        },
        vec![Granted, Abandoned],
    ));

    m
}

/// Orchard-mission conformance cases: `(name, digest, summary)` rows for the
/// golden manifest, pinning the mission layer on top of the session layer.
pub fn mission_cases() -> Vec<(String, String, String)> {
    [
        ("mission-grid-3x3", 7u64, 3u32),
        ("mission-grid-4x4", 99, 4),
    ]
    .into_iter()
    .map(|(name, seed, side)| {
        let map = OrchardMap::grid(side, side, 4.0, 3.0);
        let cfg = MissionConfig {
            human_count: 3,
            ..Default::default()
        };
        let stats = Mission::new(cfg, map, seed).run();
        let digest = digest_hex(stats.canonical());
        let summary = format!(
            "traps_read={} skipped={} negotiations={}",
            stats.traps_read,
            stats.traps_skipped,
            stats.negotiations.total()
        );
        (name.to_owned(), digest, summary)
    })
    .collect()
}

/// Linked-fleet conformance cases: `(name, digest, summary)` rows pinning
/// the datalink-supervised fleet (reliable dispatch, lease supervision,
/// re-dispatch after radio death) on top of the link layer, under `mode`.
/// Lockstep rows land in the lockstep manifest, event-driven rows in the
/// event manifest: same campaigns, clock jumping between due times instead
/// of ticking.
pub fn linked_fleet_cases_mode(mode: ScheduleMode) -> Vec<(String, String, String)> {
    let cases: [(&str, u64, LinkQuality, Vec<RadioFailure>); 3] = [
        ("fleet-link-clean", 5, LinkQuality::clean(), vec![]),
        (
            "fleet-link-lossy",
            5,
            LinkQuality::clean().with_drop(0.3).with_jitter(0.3),
            vec![],
        ),
        (
            "fleet-link-radio-death",
            5,
            LinkQuality::clean().with_drop(0.1),
            vec![RadioFailure {
                drone: 1,
                at_s: 15.0,
            }],
        ),
    ];
    cases
        .into_iter()
        .map(|(name, seed, quality, failures)| {
            let map = OrchardMap::grid(3, 4, 4.0, 3.0);
            let cfg = LinkedFleetConfig {
                quality,
                failures,
                ..Default::default()
            };
            let stats = run_linked_fleet_mode(&cfg, &map, seed, mode);
            let digest = digest_hex(&stats);
            let summary = format!(
                "confirmed={}/{} lost={} reassigned={} dup_reads={}",
                stats.traps_confirmed,
                stats.traps_total,
                stats.drones_lost,
                stats.reassigned,
                stats.duplicate_reads
            );
            (name.to_owned(), digest, summary)
        })
        .collect()
}

/// Where the golden digest manifest lives (repo root, committed).
pub fn golden_path() -> &'static str {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/scenario_digests.txt"
    )
}

/// Where the event-driven golden manifest lives (repo root, committed).
/// Pins [`ScheduleMode::EventDriven`] separately: event mode is allowed to
/// differ behaviourally from lockstep, but must be deterministic and
/// worker-invariant.
pub fn golden_event_path() -> &'static str {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/scenario_digests_event.txt"
    )
}

/// Formats manifest rows (`name digest outcome`) into the committed text.
pub fn format_manifest(rows: &[(String, String, String)]) -> String {
    let mut out = String::from(
        "# Golden trace digests: one row per scenario, `name digest outcome`.\n\
         # Regenerate with `cargo run --release -p hdc-sim --bin run_scenarios -- --bless`\n\
         # after reviewing the behavioural diff.\n",
    );
    for (name, digest, outcome) in rows {
        out.push_str(&format!("{name} {digest} {outcome}\n"));
    }
    out
}

/// Parses a golden manifest back into `(name, digest, outcome)` rows.
pub fn parse_manifest(text: &str) -> Vec<(String, String, String)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next()?.to_owned();
            let digest = parts.next()?.to_owned();
            let outcome = parts.collect::<Vec<_>>().join(" ");
            Some((name, digest, outcome))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::{CohortReport, EventLog, NegotiationState};

    fn empty_report(outcome: SessionOutcome) -> SessionReport {
        SessionReport {
            outcome,
            duration_s: 10.0,
            frames_processed: 0,
            frames_recognized: 0,
            frames_dropped: 0,
            frames_duplicated: 0,
            views_reused: 0,
            ring_mode: LedMode::Navigation,
            safety_engaged: false,
            grounded: false,
            link: None,
            cohort: None,
            log: EventLog::new(),
        }
    }

    #[test]
    fn matrix_is_large_named_and_unique() {
        let matrix = build_matrix();
        assert!(matrix.len() >= 30, "only {} scenarios", matrix.len());
        let mut names: Vec<_> = matrix.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), matrix.len(), "scenario names must be unique");
    }

    #[test]
    fn invariant_checker_catches_entry_without_yes() {
        let mut report = empty_report(SessionOutcome::Granted);
        report
            .log
            .push(5.0, LogEntry::Action(ProtocolAction::EnterArea));
        let violations = check_invariants(&report);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("without a prior recognised Yes"));
    }

    #[test]
    fn invariant_checker_catches_action_after_danger_land() {
        let mut report = empty_report(SessionOutcome::Aborted);
        report.safety_engaged = true;
        report.grounded = true;
        report.ring_mode = LedMode::Danger;
        report
            .log
            .push(3.0, LogEntry::Action(ProtocolAction::DangerLand));
        report
            .log
            .push(4.0, LogEntry::Action(ProtocolAction::ExecuteNod));
        let violations = check_invariants(&report);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("after DangerLand"));
    }

    #[test]
    fn cohort_entry_needs_a_quorum_acceptance_of_yes() {
        let log = |accepted: MarshallingSign| {
            let mut log = EventLog::new();
            log.push(1.0, LogEntry::Recognized(Some(MarshallingSign::Yes)));
            log.push(
                1.0,
                LogEntry::QuorumAccepted {
                    sign: accepted,
                    count: 2,
                    need: 2,
                    live: 2,
                },
            );
            log.push(2.0, LogEntry::Action(ProtocolAction::EnterArea));
            log
        };
        let mut report = empty_report(SessionOutcome::Granted);
        report.cohort = Some(CohortReport::default());
        report.log = log(MarshallingSign::No);
        let violations = check_invariants(&report);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("without a prior cohort quorum acceptance of Yes"));
        report.log = log(MarshallingSign::Yes);
        assert_eq!(check_invariants(&report), Vec::<String>::new());
    }

    #[test]
    fn only_a_detected_wave_off_forbids_entry() {
        let log = |detection: LogEntry| {
            let mut log = EventLog::new();
            log.push(1.0, LogEntry::Recognized(Some(MarshallingSign::Yes)));
            log.push(2.0, detection);
            log.push(3.0, LogEntry::Action(ProtocolAction::EnterArea));
            log
        };
        let mut report = empty_report(SessionOutcome::Granted);
        // prose that mentions a wave-off is not a detection
        report.log = log(LogEntry::Note("dynamic gesture: wave-off detected".into()));
        assert_eq!(check_invariants(&report), Vec::<String>::new());
        report.log = log(LogEntry::WaveOffDetected);
        let violations = check_invariants(&report);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("after wave-off at 2.0s"));
    }

    #[test]
    fn invariant_checker_catches_a_repeated_state_change() {
        let mut report = empty_report(SessionOutcome::Granted);
        report.log.push(
            1.0,
            LogEntry::StateChanged {
                to: NegotiationState::Granted,
            },
        );
        assert_eq!(check_invariants(&report), Vec::<String>::new());
        report.log.push(
            2.0,
            LogEntry::StateChanged {
                to: NegotiationState::Granted,
            },
        );
        let violations = check_invariants(&report);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("state granted logged again at 2.0s"));
    }

    #[test]
    fn invariant_checker_catches_unlatched_danger_ring() {
        let mut report = empty_report(SessionOutcome::Aborted);
        report.safety_engaged = true;
        report.grounded = true;
        report.ring_mode = LedMode::Navigation;
        let violations = check_invariants(&report);
        assert!(violations.iter().any(|v| v.contains("instead of Danger")));
    }

    #[test]
    fn grading_distinguishes_pass_degrade_fail() {
        let sc = scenario(
            "t",
            scripted_base(1),
            FaultPlan::none(),
            vec![SessionOutcome::Granted],
        );
        let mut ok = empty_report(SessionOutcome::Granted);
        ok.log
            .push(1.0, LogEntry::Recognized(Some(MarshallingSign::Yes)));
        assert_eq!(grade_report(&sc, &ok).grade, Grade::Pass);
        let degraded = empty_report(SessionOutcome::Abandoned);
        assert_eq!(grade_report(&sc, &degraded).grade, Grade::Degrade);
        let hung = empty_report(SessionOutcome::StillRunning);
        assert_eq!(grade_report(&sc, &hung).grade, Grade::Fail);
    }

    #[test]
    fn manifest_round_trips() {
        let rows = vec![
            ("a".to_owned(), "00ff".to_owned(), "granted".to_owned()),
            ("b".to_owned(), "11aa".to_owned(), "denied".to_owned()),
        ];
        assert_eq!(parse_manifest(&format_manifest(&rows)), rows);
    }
}
