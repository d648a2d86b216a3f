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
//!    sessions), one pool item per session on the machine's
//!    `WorkPool::auto()`, recording wall time, scheduler dispatches, drone
//!    ticks, owner frames, views reused and outcomes. The report's
//!    `execution` records the farm's worker count as `threads`, and as
//!    `threads_requested` too, since `WorkPool::auto()` is what the farm
//!    asks for; there is no flag to ask for another.
//! 3. **Miss-path split** — the owner frames a view memo cannot serve (the
//!    view's render inputs changed, as when a sign changes) of a small
//!    mixed farm: all three roles, consenting and refusing, scripted and
//!    stochastic humans. A pass-through fault layer captures each frame's
//!    render inputs; each changed view is then timed, in ns/frame, on the
//!    loop's mask path — the rasterisation straight into a packed mask
//!    (`paint_view_mask`) and the read of both recognition channels from
//!    it (`ViewRead::mask`) — and on the grey oracle: the render into a
//!    reused frame (`paint_view`), the one-pass read of that frame
//!    (`ViewRead::frame`), and the two-pass formula it replaced (the
//!    wave-off detector's own labelling of `binarize(frame, 128)`, then
//!    `RecognitionPipeline::recognize`). On every timed view the mask must
//!    equal the packed binarised frame and all three reads must agree, and
//!    the captured changes must equal the unfaulted farm's
//!    `frames - views_reused` (counts, not wall-time floors).
//!
//! Usage: `cargo run --release -p hdc-bench --bin bench_sessions
//! [--smoke] [out.json]`

use hdc_bench::report::{num, Table};
use hdc_core::{
    paint_view, paint_view_mask, CollaborationSession, HumanScript, Role, ScriptedResponse,
    SessionConfig, SessionFaults, SessionOutcome, ViewRead,
};
use hdc_figure::{MarshallingSign, Signaller, ViewSpec};
use hdc_geometry::Vec3;
use hdc_orchard::{run_session_farm, FarmStats};
use hdc_raster::threshold::binarize;
use hdc_raster::{BitMask, GrayImage};
use hdc_runtime::{available_workers, ScheduleMode, SplitMix64, WorkPool};
use hdc_vision::dynamic::{DynamicConfig, DynamicRecognizer};
use hdc_vision::{PipelineConfig, RecognitionPipeline};
use std::cell::RefCell;
use std::f64::consts::TAU;
use std::rc::Rc;
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
    let mut session = CollaborationSession::new(config);
    let started = Instant::now();
    match mode {
        ScheduleMode::Lockstep => session.run(),
        ScheduleMode::EventDriven => session.run_events(),
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (drone_ticks, dispatches) = (session.drone_ticks(), session.advances());
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

/// One session of the mixed farm: every role, consenting and refusing,
/// half scripted (refusers alternate No and the wave-off) and half
/// stochastic humans, at a random heading.
fn mixed_config(i: usize, rng: &mut SplitMix64) -> SessionConfig {
    let role = [Role::Supervisor, Role::Worker, Role::Visitor][i % 3];
    let consent = (i / 3).is_multiple_of(2);
    let mut c = SessionConfig::for_role(role, consent, rng.next_u64());
    c.human_heading = TAU * rng.next_unit_f64();
    let latency_s = 1.0 + 4.0 * rng.next_unit_f64();
    if (i / 6).is_multiple_of(2) {
        let answer = match (consent, (i / 12) % 2) {
            (true, _) => ScriptedResponse::Sign(MarshallingSign::Yes),
            (false, 0) => ScriptedResponse::Sign(MarshallingSign::No),
            (false, _) => ScriptedResponse::WaveOff,
        };
        c = c.with_script(HumanScript {
            on_poke: ScriptedResponse::Sign(MarshallingSign::AttentionGained),
            on_request: answer,
            latency_s,
        });
    }
    c
}

/// A pass-through fault layer that records the render inputs of every
/// camera frame and delivers the frame untouched.
#[derive(Debug)]
struct ViewTap(Rc<RefCell<Vec<(Signaller, Vec3)>>>);

impl SessionFaults for ViewTap {
    fn on_view(&mut self, _t: f64, signaller: &Signaller, eye: Vec3) {
        self.0.borrow_mut().push((signaller.clone(), eye));
    }
}

/// The number of owner camera views of `configs`, and those whose render
/// inputs differ from the same session's previous view — the views a memo
/// must render and read. A pass-through fault layer changes nothing a
/// session does, so each session runs alone with the tap.
fn changed_views(configs: &[SessionConfig]) -> (usize, Vec<(Signaller, Vec3)>) {
    let mut total = 0;
    let mut out = Vec::new();
    for c in configs {
        let tap = Rc::new(RefCell::new(Vec::new()));
        let mut session = CollaborationSession::new(*c);
        session.set_faults(Box::new(ViewTap(Rc::clone(&tap))));
        session.run_events();
        let views = tap.take();
        total += views.len();
        let mut previous: Option<&(Signaller, Vec3)> = None;
        for view in &views {
            if previous != Some(view) {
                out.push(view.clone());
            }
            previous = Some(view);
        }
    }
    (total, out)
}

/// Per-frame cost of one stage across the repeats, ns.
struct StageNs {
    median: f64,
    min: f64,
    max: f64,
}

impl StageNs {
    fn of(mut per_frame: Vec<f64>) -> StageNs {
        per_frame.sort_by(f64::total_cmp);
        StageNs {
            median: per_frame[per_frame.len() / 2],
            min: per_frame[0],
            max: per_frame[per_frame.len() - 1],
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {:.0}, \"min\": {:.0}, \"max\": {:.0}}}",
            self.median, self.min, self.max
        )
    }
}

struct MissSplit {
    sessions: usize,
    frames: u64,
    views: usize,
    views_reused: u64,
    misses: usize,
    repeats: usize,
    render_mask: StageNs,
    read_mask: StageNs,
    render: StageNs,
    one_pass: StageNs,
    two_pass: StageNs,
}

/// Captures the changed views of a small mixed farm and times the
/// miss-path stages on them.
fn miss_path_split(sessions: usize, repeats: usize) -> MissSplit {
    let mut rng = SplitMix64::stream(0x5E55, 1);
    let configs: Vec<SessionConfig> = (0..sessions).map(|i| mixed_config(i, &mut rng)).collect();
    let stats = run_session_farm(&configs, ScheduleMode::EventDriven, rng.next_u64());
    let (total_views, views) = changed_views(&configs);
    assert_eq!(
        views.len() as u64,
        total_views as u64 - stats.views_reused,
        "every changed view, and only those, misses the view memo"
    );

    // the pipeline every session calibrates (default negotiation geometry)
    let d = configs[0];
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&ViewSpec::paper_default(
        0.0,
        d.negotiation_altitude_m,
        d.contact_distance_m,
    ));
    // the parent loop's wave-off detector kept its labelling buffers warm
    let mut dynamic = DynamicRecognizer::new(DynamicConfig::default());
    let mut frame = GrayImage::new(1, 1);
    let mut mask = BitMask::new(1, 1);

    let mut per_stage: [Vec<f64>; 5] = Default::default();
    for _ in 0..repeats {
        let mut ns = [0u128; 5];
        for (signaller, eye) in &views {
            // the loop's miss path: rasterise into the mask, read it
            let t0 = Instant::now();
            paint_view_mask(signaller, *eye, &mut mask);
            let t1 = Instant::now();
            let from_mask = ViewRead::mask(&mask, &pipeline, true);
            let t2 = Instant::now();
            // the grey oracle
            paint_view(signaller, *eye, &mut frame);
            let t3 = Instant::now();
            let one = ViewRead::frame(&frame, &pipeline, true);
            let t4 = Instant::now();
            // each read follows a fresh render, as on the loop's miss path
            paint_view(signaller, *eye, &mut frame);
            let t5 = Instant::now();
            let two = ViewRead {
                features: dynamic.features(&binarize(&frame, 128)),
                decision: Some(pipeline.recognize(&frame).decision),
            };
            let t6 = Instant::now();
            assert_eq!(
                mask,
                BitMask::from_bitmap(&binarize(&frame, 128)),
                "the rasterised mask must be the grey frame's segmentation"
            );
            assert_eq!(from_mask, one, "the mask path must read as the grey frame");
            assert_eq!(one, two, "one labelling must serve both channels");
            for (total, (from, to)) in
                ns.iter_mut()
                    .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t5, t6)])
            {
                *total += (to - from).as_nanos();
            }
        }
        for (stage, total) in per_stage.iter_mut().zip(ns) {
            stage.push(total as f64 / views.len().max(1) as f64);
        }
    }
    let [render_mask, read_mask, render, one_pass, two_pass] = per_stage.map(StageNs::of);
    MissSplit {
        sessions,
        frames: stats.frames_processed,
        views: total_views,
        views_reused: stats.views_reused,
        misses: views.len(),
        repeats,
        render_mask,
        read_mask,
        render,
        one_pass,
        two_pass,
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
    let mut out_path = "BENCH_sessions.json".to_string();
    for a in &args {
        match a.as_str() {
            "--smoke" => {}
            a if !a.starts_with("--") => out_path = a.to_owned(),
            other => panic!("unknown flag {other}"),
        }
    }

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

    // --- capacity ladder on the farm's pool ---
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

    // --- miss-path split over the changed views of a mixed farm ---
    let split = if smoke {
        miss_path_split(12, 3)
    } else {
        miss_path_split(96, 7)
    };
    println!(
        "miss path: {} sessions, {} owner frames processed, {} views, {} reused, {} changed",
        split.sessions, split.frames, split.views, split.views_reused, split.misses
    );
    let mut stages = Table::new(["miss-path stage", "median ns/frame", "min", "max"]);
    for (label, st) in [
        ("rasterise into the mask", &split.render_mask),
        ("read the mask (both channels)", &split.read_mask),
        ("render into the reused frame", &split.render),
        ("one-pass read (both channels)", &split.one_pass),
        ("two-pass formula (replaced)", &split.two_pass),
    ] {
        stages.row([
            label.to_string(),
            num(st.median, 0),
            num(st.min, 0),
            num(st.max, 0),
        ]);
    }
    println!("{}", stages.render());
    let read_speedup = split.two_pass.median / split.one_pass.median.max(1.0);
    println!("read speed-up (two-pass / one-pass): {read_speedup:.1}x");
    let mask_miss = split.render_mask.median + split.read_mask.median;
    let grey_miss = split.render.median + split.one_pass.median;
    println!(
        "changed view: {:.1} us on the mask path, {:.1} us rendered grey and read ({:.1}x)",
        mask_miss / 1e3,
        grey_miss / 1e3,
        grey_miss / mask_miss.max(1.0)
    );

    // --- JSON report ---
    use std::fmt::Write as _;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let farm_workers = WorkPool::auto().workers();
    let _ = writeln!(
        json,
        "  \"execution\": {{\"threads\": {farm_workers}, \"threads_requested\": \
         {farm_workers}, \"available_parallelism\": {}}},",
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
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"miss_path\": {{\"sessions\": {}, \"frames\": {}, \"views\": {}, \
         \"views_reused\": {}, \"changed_views\": {}, \"repeats\": {},",
        split.sessions, split.frames, split.views, split.views_reused, split.misses, split.repeats
    );
    let _ = writeln!(
        json,
        "    \"render_mask_ns\": {},",
        split.render_mask.json()
    );
    let _ = writeln!(json, "    \"read_mask_ns\": {},", split.read_mask.json());
    let _ = writeln!(json, "    \"render_ns\": {},", split.render.json());
    let _ = writeln!(json, "    \"one_pass_read_ns\": {},", split.one_pass.json());
    let _ = writeln!(json, "    \"two_pass_read_ns\": {},", split.two_pass.json());
    let _ = writeln!(json, "    \"read_speedup\": {read_speedup:.2}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
