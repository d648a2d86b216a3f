//! Session-scheduler benchmark: O(events) sessions versus O(ticks) lockstep.
//!
//! Two measurements over the dual-mode session scheduler:
//!
//! 1. **Idle-heavy day-length mission** — one negotiation stretched to
//!    orchard-day timescales (a silent human, hour-scale attention
//!    timeouts): the drone hovers idle almost the whole time. Lockstep pays
//!    one drone tick per `DT` regardless; event-driven mode coasts the idle
//!    spans and pays drone ticks only while flying or signalling. The
//!    committed floor is a ≥5× drone-tick reduction; the measured ratio on
//!    the day-length mission is far higher.
//!    Its silent human stands still in front of a hovering drone, so the
//!    owner's view memo serves nearly every camera frame: the smoke floor is
//!    ≥90% of owner frames reused (a count, not a wall-time floor).
//! 2. **Capacity ladder** — session farms of growing size (to ≥1000
//!    concurrent sessions) multiplexed on the shared event heap, recording
//!    wall time, scheduler dispatches, drone ticks, owner frames, views
//!    reused and outcomes. The farm is serial by design (one heap);
//!    `--threads` is recorded as metadata for report comparability.
//!
//! Usage: `cargo run --release -p hdc-bench --bin bench_sessions
//! [--threads N] [--smoke] [out.json]`

use hdc_bench::report::{num, Table};
use hdc_core::{
    CollaborationSession, HumanScript, Role, ScriptedResponse, SessionConfig, SessionOutcome,
};
use hdc_figure::MarshallingSign;
use hdc_orchard::{run_session_farm, FarmStats};
use hdc_runtime::{available_workers, threads_from_args, ScheduleMode};
use std::time::Instant;

/// The idle-heavy day-length negotiation: a human who never responds and
/// hour-scale (minute-scale in smoke) attention timeouts, so nearly the
/// whole session is an idle hover between a handful of poke patterns.
fn idle_heavy_config(seed: u64, smoke: bool) -> SessionConfig {
    let timeout_s = if smoke { 120.0 } else { 3600.0 };
    let mut c = SessionConfig::for_role(Role::Worker, true, seed).with_script(HumanScript {
        on_poke: ScriptedResponse::Ignore,
        on_request: ScriptedResponse::Ignore,
        latency_s: 5.0,
    });
    c.negotiation.attention_timeout_s = timeout_s;
    c.negotiation.max_poke_attempts = 2;
    c.max_duration_s = 4.0 * timeout_s;
    // an orchard-day pack: the negotiation window, not the battery, should
    // be the limiting factor of the day-length mission
    c.battery_wh = 2000.0;
    c
}

/// One ladder session: scripted consenting humans with staggered response
/// latencies across all three roles.
fn ladder_config(i: usize) -> SessionConfig {
    let role = [Role::Supervisor, Role::Worker, Role::Visitor][i % 3];
    SessionConfig::for_role(role, true, i as u64 + 1).with_script(HumanScript {
        on_poke: ScriptedResponse::Sign(MarshallingSign::AttentionGained),
        on_request: ScriptedResponse::Sign(MarshallingSign::Yes),
        latency_s: 2.0 + (i % 7) as f64,
    })
}

struct ModeRun {
    drone_ticks: u64,
    dispatches: u64,
    sim_s: f64,
    wall_ms: f64,
    outcome: SessionOutcome,
    frames: usize,
    views_reused: usize,
}

/// Runs the idle-heavy mission alone in one scheduler mode.
fn run_idle_mission(config: SessionConfig, mode: ScheduleMode) -> ModeRun {
    const TICK: f64 = CollaborationSession::TICK_S;
    let mut session = CollaborationSession::new(config);
    let started = Instant::now();
    let mut dispatches = 0u64;
    match mode {
        ScheduleMode::Lockstep => {
            while !session.is_done() && session.time() < config.max_duration_s {
                session.step();
                dispatches += 1;
            }
        }
        ScheduleMode::EventDriven => {
            // run_events, unrolled so the dispatch count is observable
            while !session.is_done() && session.time() < config.max_duration_s {
                let now = session.time();
                let mut target = session.next_due_after(now);
                if target <= now || target.is_nan() {
                    target = now + TICK;
                }
                session.step_to(target.min(config.max_duration_s));
                dispatches += 1;
            }
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let drone_ticks = session.drone_ticks();
    let report = session.into_report();
    ModeRun {
        drone_ticks,
        dispatches,
        sim_s: report.duration_s,
        wall_ms,
        outcome: report.outcome,
        frames: report.frames_processed,
        views_reused: report.views_reused,
    }
}

struct Rung {
    sessions: usize,
    stats: FarmStats,
    wall_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads = threads_from_args(&args);
    let mut out_path = "BENCH_sessions.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => i += 1, // skip the flag's value
            "--smoke" => {}
            a if !a.starts_with("--") => out_path = a.to_owned(),
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    let workers = threads.unwrap_or_else(available_workers);

    // --- idle-heavy day-length mission: lockstep vs event-driven ---
    let idle_cfg = idle_heavy_config(11, smoke);
    println!(
        "idle-heavy mission: silent human, {:.0}s attention timeout{}",
        idle_cfg.negotiation.attention_timeout_s,
        if smoke { " [smoke]" } else { "" }
    );
    let lock = run_idle_mission(idle_cfg, ScheduleMode::Lockstep);
    let event = run_idle_mission(idle_cfg, ScheduleMode::EventDriven);
    assert_eq!(
        lock.outcome, event.outcome,
        "the schedulers must agree on the idle mission's outcome"
    );
    let tick_ratio = lock.drone_ticks as f64 / event.drone_ticks.max(1) as f64;

    let mut table = Table::new([
        "scheduler",
        "sim s",
        "drone ticks",
        "dispatches",
        "frames",
        "views reused",
        "wall ms",
        "outcome",
    ]);
    for (label, r) in [("lockstep", &lock), ("event-driven", &event)] {
        table.row([
            label.to_string(),
            num(r.sim_s, 1),
            r.drone_ticks.to_string(),
            r.dispatches.to_string(),
            r.frames.to_string(),
            r.views_reused.to_string(),
            num(r.wall_ms, 1),
            format!("{:?}", r.outcome),
        ]);
    }
    println!("{}", table.render());
    println!("drone-tick ratio (lockstep / event): {tick_ratio:.1}x");
    assert!(
        tick_ratio >= 5.0,
        "event-driven scheduling must cut idle-mission drone ticks >=5x, got {tick_ratio:.1}x"
    );
    for (label, r) in [("lockstep", &lock), ("event-driven", &event)] {
        assert!(
            r.frames > 0 && r.views_reused * 10 >= r.frames * 9,
            "the idle mission's owner must reuse >=90% of its frames ({label}): {} of {}",
            r.views_reused,
            r.frames
        );
    }

    // --- capacity ladder on the shared heap ---
    let rungs: &[usize] = if smoke { &[10, 50] } else { &[100, 300, 1000] };
    let mut ladder = Vec::new();
    for &n in rungs {
        let configs: Vec<SessionConfig> = (0..n).map(ladder_config).collect();
        let started = Instant::now();
        let stats = run_session_farm(&configs, ScheduleMode::EventDriven, 0xFA);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            stats.count(SessionOutcome::StillRunning),
            0,
            "every farmed session must terminate"
        );
        println!(
            "ladder {n:>5} sessions: {:.0} ms wall, {} dispatches, {} drone ticks, \
             {} of {} frames reused, {} granted / {} denied / {} abandoned / {} aborted",
            wall_ms,
            stats.events_dispatched,
            stats.total_drone_ticks,
            stats.views_reused,
            stats.frames_processed,
            stats.count(SessionOutcome::Granted),
            stats.count(SessionOutcome::Denied),
            stats.count(SessionOutcome::Abandoned),
            stats.count(SessionOutcome::Aborted),
        );
        ladder.push(Rung {
            sessions: n,
            stats,
            wall_ms,
        });
    }
    let top = ladder.last().expect("ladder has rungs");
    assert!(
        top.sessions >= if smoke { 50 } else { 1000 },
        "the ladder must reach the committed capacity"
    );

    // --- JSON report ---
    use std::fmt::Write as _;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"execution\": {{\"threads\": {}, \"threads_requested\": {}, \
         \"available_parallelism\": {}}},",
        workers,
        threads.map_or("null".to_owned(), |t| t.to_string()),
        available_workers()
    );
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"idle_mission\": {{");
    let _ = writeln!(
        json,
        "    \"attention_timeout_s\": {:.0}, \"sim_duration_s\": {:.1}, \
         \"outcome\": \"{:?}\",",
        idle_cfg.negotiation.attention_timeout_s, lock.sim_s, lock.outcome
    );
    for (label, r) in [("lockstep", &lock), ("event_driven", &event)] {
        let _ = writeln!(
            json,
            "    \"{label}\": {{\"drone_ticks\": {}, \"dispatches\": {}, \"frames\": {}, \
             \"views_reused\": {}, \"wall_ms\": {:.2}}},",
            r.drone_ticks, r.dispatches, r.frames, r.views_reused, r.wall_ms
        );
    }
    let _ = writeln!(json, "    \"drone_tick_ratio\": {tick_ratio:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"capacity_ladder\": [");
    for (i, rung) in ladder.iter().enumerate() {
        let comma = if i + 1 < ladder.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"sessions\": {}, \"wall_ms\": {:.1}, \"dispatches\": {}, \
             \"drone_ticks\": {}, \"frames\": {}, \"views_reused\": {}, \
             \"sessions_per_s\": {:.1}, \"granted\": {}, \"denied\": {}, \
             \"abandoned\": {}, \"aborted\": {}}}{comma}",
            rung.sessions,
            rung.wall_ms,
            rung.stats.events_dispatched,
            rung.stats.total_drone_ticks,
            rung.stats.frames_processed,
            rung.stats.views_reused,
            rung.sessions as f64 / (rung.wall_ms / 1e3).max(1e-9),
            rung.stats.count(SessionOutcome::Granted),
            rung.stats.count(SessionOutcome::Denied),
            rung.stats.count(SessionOutcome::Abandoned),
            rung.stats.count(SessionOutcome::Aborted),
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
