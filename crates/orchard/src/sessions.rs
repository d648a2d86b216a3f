//! Many-session orchestration: a whole orchard day of negotiations, one
//! pool item per session.
//!
//! The mission and fleet layers run one session at a time; an orchard day
//! runs hundreds to thousands. Sessions are independent: no session reads
//! another's state, and each one's event-driven run already coasts its own
//! idle spans. So the farm shares no scheduler between them. It maps the
//! configs over a [`WorkPool`], and each item builds its session on the
//! worker and runs it to completion alone — [`CollaborationSession::run_events`]
//! or, in lockstep, [`CollaborationSession::run`]. The caller's thread is
//! worker 0, and the process-wide calibration cache means a worker never
//! recalibrates.
//!
//! Because an item is exactly the solo run, every per-session result,
//! including its dispatch count ([`CollaborationSession::advances`]), is
//! what that session does alone, and the farm's totals are sums in config
//! order: identical at every worker count (the tests pin this).

use hdc_core::{CollaborationSession, SessionConfig, SessionOutcome};
use hdc_runtime::{ScheduleMode, WorkPool};

/// Aggregate results of a session-farm run.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmStats {
    /// Per-session outcomes, in config order.
    pub outcomes: Vec<SessionOutcome>,
    /// True drone ticks executed across the farm (coasts excluded) — the
    /// work metric the event-driven scheduler is judged on.
    pub total_drone_ticks: u64,
    /// Scheduler dispatches: passes of the session loop, one per
    /// event-driven advance or lockstep step, summed over the sessions.
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
/// mode, one [`WorkPool::auto`] item per session, and aggregates the
/// results.
///
/// * [`ScheduleMode::Lockstep`]: each session runs its fixed-`DT` loop,
///   per-session identical to [`CollaborationSession::run_report`].
/// * [`ScheduleMode::EventDriven`]: each session advances straight between
///   its due times, per-session identical to
///   [`CollaborationSession::run_events`].
///
/// The salt argument is inert: it seeded the same-instant tie-break of a
/// heap the sessions once shared, and no heap is shared now. It stays in
/// the signature for existing callers.
pub fn run_session_farm(configs: &[SessionConfig], mode: ScheduleMode, _salt: u64) -> FarmStats {
    farm_on(&WorkPool::auto(), configs, mode)
}

/// [`run_session_farm`] on a given pool.
pub(crate) fn farm_on(pool: &WorkPool, configs: &[SessionConfig], mode: ScheduleMode) -> FarmStats {
    let runs = pool.map(configs, |config| {
        let mut session = CollaborationSession::new(*config);
        match mode {
            ScheduleMode::Lockstep => session.run(),
            ScheduleMode::EventDriven => session.run_events(),
        };
        let (ticks, dispatches) = (session.drone_ticks(), session.advances());
        let report = session.into_report();
        (
            report.outcome,
            ticks,
            dispatches,
            report.frames_processed as u64,
            report.views_reused as u64,
        )
    });
    let mut stats = FarmStats {
        outcomes: Vec::with_capacity(runs.len()),
        total_drone_ticks: 0,
        events_dispatched: 0,
        frames_processed: 0,
        views_reused: 0,
    };
    for (outcome, ticks, dispatches, frames, reused) in runs {
        stats.outcomes.push(outcome);
        stats.total_drone_ticks += ticks;
        stats.events_dispatched += dispatches;
        stats.frames_processed += frames;
        stats.views_reused += reused;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::{CohortConfig, DatalinkConfig, HumanScript, Role, ScriptedResponse};
    use hdc_figure::MarshallingSign;
    use hdc_link::LinkQuality;

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

    /// Mixed roles and scripts, plus sessions with a cohort or a lossy
    /// datalink, so every layer a session can carry runs on the pool.
    fn varied_configs() -> Vec<SessionConfig> {
        let relay = LinkQuality::clean().with_drop(0.2);
        let mut configs = mixed_configs(8);
        for (i, c) in mixed_configs(8).into_iter().enumerate() {
            configs.push(match i % 4 {
                0 => c.with_cohort(CohortConfig::single_observer(1.2)),
                1 => c.with_cohort(CohortConfig::dual_observer(0.6, -0.6).with_relay(relay)),
                2 => c.with_datalink(DatalinkConfig::clean()),
                _ => c.with_datalink(DatalinkConfig::symmetric(relay)),
            });
        }
        configs
    }

    #[test]
    fn farm_stats_do_not_depend_on_the_worker_count() {
        let configs = varied_configs();
        for mode in [ScheduleMode::EventDriven, ScheduleMode::Lockstep] {
            let serial = farm_on(&WorkPool::new(1), &configs, mode);
            assert!(serial.frames_processed > 0 && serial.events_dispatched > 0);
            for workers in [2, 3, 8] {
                assert_eq!(
                    farm_on(&WorkPool::new(workers), &configs, mode),
                    serial,
                    "{mode:?} at {workers} workers"
                );
            }
        }
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
