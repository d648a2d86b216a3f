//! Many-session orchestration: a whole orchard day of negotiations
//! multiplexed on one shared deterministic event heap.
//!
//! The mission and fleet layers run one session at a time; an orchard day
//! runs hundreds to thousands — most of them idle at any instant (drones
//! hovering, humans deciding, links quiet). Stepping every session every
//! `DT` costs O(sessions × ticks); this orchestrator keeps exactly one
//! armed wake per live session on a shared [`EventHeap`] and advances only
//! the session whose due time is next, so the whole farm costs O(events).
//!
//! Sessions are independent, so multiplexing must not — and provably does
//! not — change any per-session result: the farm's outcomes are identical
//! to running each session alone (the tests pin this, including across
//! heap salts, which only permute same-instant dispatch order).

use hdc_core::{CollaborationSession, SessionConfig, SessionOutcome};
use hdc_runtime::{EventHeap, ScheduleMode};

/// Aggregate results of a session-farm run.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmStats {
    /// Per-session outcomes, in config order.
    pub outcomes: Vec<SessionOutcome>,
    /// True drone ticks executed across the farm (coasts excluded) — the
    /// work metric the event-driven scheduler is judged on.
    pub total_drone_ticks: u64,
    /// Scheduler dispatches: heap pops in event mode, per-session steps in
    /// lockstep mode.
    pub events_dispatched: u64,
    /// Owner camera frames processed across the farm.
    pub frames_processed: u64,
    /// Owner camera frames served from the sessions' view memos (neither
    /// rendered nor recognised again) — a host-independent work counter.
    pub views_reused: u64,
}

impl FarmStats {
    /// Number of sessions that ended in `outcome`.
    pub fn count(&self, outcome: SessionOutcome) -> usize {
        self.outcomes.iter().filter(|o| **o == outcome).count()
    }
}

/// Runs every configured session to completion under the given scheduler
/// mode and aggregates the results.
///
/// * [`ScheduleMode::Lockstep`] interleaves one `DT` tick per live session
///   per round — the O(sessions × ticks) baseline, per-session identical to
///   [`CollaborationSession::run_report`].
/// * [`ScheduleMode::EventDriven`] multiplexes all sessions on one shared
///   [`EventHeap`] (session id in the event key, `salt` seeding the
///   same-instant tie-break) and advances each straight between its due
///   times — per-session identical to [`CollaborationSession::run_events`].
pub fn run_session_farm(configs: &[SessionConfig], mode: ScheduleMode, salt: u64) -> FarmStats {
    const TICK: f64 = CollaborationSession::TICK_S;
    let mut sessions: Vec<CollaborationSession> = configs
        .iter()
        .map(|c| CollaborationSession::new(*c))
        .collect();
    let mut events_dispatched = 0u64;

    match mode {
        ScheduleMode::Lockstep => loop {
            let mut live = false;
            for (session, config) in sessions.iter_mut().zip(configs) {
                if session.is_done() || session.time() >= config.max_duration_s {
                    continue;
                }
                session.step();
                events_dispatched += 1;
                live = true;
            }
            if !live {
                break;
            }
        },
        ScheduleMode::EventDriven => {
            let mut heap: EventHeap<f64> = EventHeap::new(salt);
            // the exact f64 target rides in the payload; the heap key is
            // integer microseconds and only orders the dispatch
            // arm computes exactly the target `run_events` would pick, so a
            // farmed session replays its solo event-driven run bit-for-bit
            let arm = |heap: &mut EventHeap<f64>, i: usize, s: &mut CollaborationSession| {
                let now = s.time();
                let mut due = s.next_due_after(now);
                if due <= now || due.is_nan() {
                    due = now + TICK;
                }
                let due = due.min(configs[i].max_duration_s);
                heap.schedule_at_s(due, i as u64, 0, due);
            };
            for (i, session) in sessions.iter_mut().enumerate() {
                arm(&mut heap, i, session);
            }
            while let Some(wake) = heap.pop() {
                let i = wake.session as usize;
                let session = &mut sessions[i];
                if session.is_done() || session.time() >= configs[i].max_duration_s {
                    continue;
                }
                events_dispatched += 1;
                // the armed target is strictly ahead of the session clock
                // (nothing moves a session between arming and dispatch)
                session.step_to(wake.event);
                if !session.is_done() && session.time() < configs[i].max_duration_s {
                    arm(&mut heap, i, session);
                }
            }
        }
    }

    let total_drone_ticks = sessions.iter().map(|s| s.drone_ticks()).sum();
    let (mut frames_processed, mut views_reused) = (0u64, 0u64);
    let outcomes = sessions
        .into_iter()
        .map(|s| {
            let report = s.into_report();
            frames_processed += report.frames_processed as u64;
            views_reused += report.views_reused as u64;
            report.outcome
        })
        .collect();
    FarmStats {
        outcomes,
        total_drone_ticks,
        events_dispatched,
        frames_processed,
        views_reused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::{HumanScript, Role, ScriptedResponse};
    use hdc_figure::MarshallingSign;

    fn mixed_configs(n: usize) -> Vec<SessionConfig> {
        (0..n)
            .map(|i| {
                let role = [Role::Supervisor, Role::Worker, Role::Visitor][i % 3];
                let mut c = SessionConfig::for_role(role, i % 2 == 0, i as u64 + 1);
                if i % 4 == 0 {
                    c = c.with_script(HumanScript {
                        on_poke: ScriptedResponse::Sign(MarshallingSign::AttentionGained),
                        on_request: ScriptedResponse::Sign(MarshallingSign::Yes),
                        latency_s: 4.0 + (i % 5) as f64,
                    });
                }
                c
            })
            .collect()
    }

    #[test]
    fn event_farm_reproduces_each_session_run_alone() {
        let configs = mixed_configs(9);
        let farm = run_session_farm(&configs, ScheduleMode::EventDriven, 7);
        let mut solo_ticks = 0u64;
        for (i, config) in configs.iter().enumerate() {
            let mut solo = CollaborationSession::new(*config);
            let outcome = solo.run_events();
            assert_eq!(
                farm.outcomes[i], outcome,
                "session {i}: multiplexing changed the outcome"
            );
            solo_ticks += solo.drone_ticks();
        }
        assert_eq!(
            farm.total_drone_ticks, solo_ticks,
            "multiplexing changed the work done"
        );
    }

    #[test]
    fn lockstep_farm_reproduces_each_session_run_alone() {
        let configs = mixed_configs(6);
        let farm = run_session_farm(&configs, ScheduleMode::Lockstep, 0);
        for (i, config) in configs.iter().enumerate() {
            let report = CollaborationSession::new(*config).run_report();
            assert_eq!(farm.outcomes[i], report.outcome, "session {i}");
        }
    }

    #[test]
    fn heap_salt_never_leaks_into_outcomes() {
        // the salt permutes same-instant dispatch order only; sessions are
        // independent, so every salt must produce identical results
        let configs = mixed_configs(8);
        let a = run_session_farm(&configs, ScheduleMode::EventDriven, 1);
        let b = run_session_farm(&configs, ScheduleMode::EventDriven, 99);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.total_drone_ticks, b.total_drone_ticks);
    }

    #[test]
    fn event_farm_does_far_less_drone_work_than_lockstep() {
        let configs = mixed_configs(8);
        let lock = run_session_farm(&configs, ScheduleMode::Lockstep, 0);
        let ev = run_session_farm(&configs, ScheduleMode::EventDriven, 0);
        assert!(
            ev.total_drone_ticks < lock.total_drone_ticks,
            "event {} vs lockstep {}",
            ev.total_drone_ticks,
            lock.total_drone_ticks
        );
        assert!(
            ev.events_dispatched < lock.events_dispatched,
            "dispatches: event {} vs lockstep {}",
            ev.events_dispatched,
            lock.events_dispatched
        );
    }
}
