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
//!    ≥90% of owner frames reused (a count, not a wall-time floor). Each
//!    mode runs 7 times (3 in smoke) on one `ViewWorker` whose table of
//!    reads is emptied before each run, the modes interleaved; every repeat
//!    must give identical counts, and each mode commits its `wall_ms` as
//!    median/min/max over the repeats.
//! 2. **Capacity ladder** — session farms of growing size (to ≥1000
//!    sessions), one pool item per session on the machine's
//!    `WorkPool::auto()`, recording wall time, scheduler dispatches, drone
//!    ticks, owner frames, views reused and outcomes. The whole ladder runs
//!    7 times (3 in smoke), rungs interleaved; every repeat of a rung must
//!    give identical counts, and each rung commits its `wall_ms` and
//!    `sessions_per_s` as median/min/max over the repeats. The report's
//!    `execution` block records the farm's worker count as `threads`;
//!    the farm always runs on `WorkPool::auto()`, so the bench takes no
//!    `--threads`.
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
//!    `frames - views_reused` (counts, not wall-time floors). The ns rows
//!    drift with the host's speed, so each repeat also records two ratios
//!    to the grey oracle timed in that same repeat — `(render_mask +
//!    read_mask) / (render + one_pass_read)` and `read_mask /
//!    one_pass_read` — which compare the paths independently of the
//!    host's spell; they are reported, never asserted. The mask read is
//!    also split into the static channel's stages, each timed through its
//!    public call in a pass of its own over the same changed views:
//!    labelling (`largest_component_packed_lazy`), contour
//!    (`trace_contour_packed_with`), signature (`signature_from_contour`)
//!    and SAX match (`SaxIndex::best_two_with`). Where the mask read
//!    decided, the split's best match must carry that label. The split
//!    also counts the changed views whose mask holds more than one
//!    component, the only ones whose labelling resolves components and
//!    rebuilds the largest (a count, not a floor). Last, it counts the
//!    memo misses the farm's shared table of view reads serves
//!    (`ViewWorker::hits`), split into scripted and stochastic humans, with
//!    the sessions run in config order on one `ViewWorker`, as a
//!    one-worker farm runs them: on more workers the count depends on which
//!    worker ran which session. Those sessions must do exactly what the farm
//!    did, and at least one view must come from the table (a count floor, so
//!    a change that defeats the table's key fails on any host).
//!
//! Usage: `cargo run --release -p hdc-bench --bin bench_sessions --
//! [--smoke] [out.json]` (default `BENCH_sessions.json`).

use hdc_bench::report::{num, BenchArgs, Json, Spread, Table};
use hdc_core::{
    paint_view, paint_view_mask, CollaborationSession, HumanScript, Role, ScriptedResponse,
    SessionConfig, SessionFaults, SessionOutcome, ViewRead, ViewWorker,
};
use hdc_figure::{MarshallingSign, Signaller, ViewSpec};
use hdc_geometry::Vec3;
use hdc_orchard::{run_session_farm, FarmStats};
use hdc_raster::threshold::binarize;
use hdc_raster::{largest_component_packed_lazy, BitMask, Connectivity, GrayImage, LabelScratch};
use hdc_runtime::{ScheduleMode, SplitMix64, WorkPool};
use hdc_sax::QueryScratch;
use hdc_vision::dynamic::{DynamicConfig, DynamicRecognizer};
use hdc_vision::{
    signature_from_contour, trace_contour_packed_with, PipelineConfig, RecognitionPipeline,
    SignatureScratch,
};
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

/// What one run of the idle mission did: identical in every repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ModeCounts {
    drone_ticks: u64,
    dispatches: u64,
    sim_s: f64,
    outcome: SessionOutcome,
    frames: usize,
    views_reused: usize,
}

struct ModeRun {
    counts: ModeCounts,
    wall_ms: Spread,
}

/// Runs the idle-heavy mission alone in one scheduler mode on `worker`,
/// its table of reads emptied first, so every run reads its own views
/// through warm buffers: its counts and wall milliseconds.
fn run_idle_mission(
    config: SessionConfig,
    mode: ScheduleMode,
    worker: &mut ViewWorker,
) -> (ModeCounts, f64) {
    worker.forget_reads();
    let mut session = CollaborationSession::new(config);
    let started = Instant::now();
    match mode {
        ScheduleMode::Lockstep => session.run_with(worker),
        ScheduleMode::EventDriven => session.run_events_with(worker),
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (drone_ticks, dispatches) = (session.drone_ticks(), session.advances());
    let report = session.into_report();
    let counts = ModeCounts {
        drone_ticks,
        dispatches,
        sim_s: report.duration_s,
        outcome: report.outcome,
        frames: report.frames_processed,
        views_reused: report.views_reused,
    };
    (counts, wall_ms)
}

/// The idle mission in both scheduler modes, `repeats` times on `worker`,
/// the modes interleaved so a host spell lands on both; `[lockstep,
/// event-driven]`.
fn idle_missions(config: SessionConfig, repeats: usize, worker: &mut ViewWorker) -> [ModeRun; 2] {
    let modes = [ScheduleMode::Lockstep, ScheduleMode::EventDriven];
    let mut counts: [Option<ModeCounts>; 2] = [None, None];
    let mut walls: [Vec<f64>; 2] = Default::default();
    for _ in 0..repeats {
        for (i, mode) in modes.into_iter().enumerate() {
            let (run, wall_ms) = run_idle_mission(config, mode, worker);
            let first = *counts[i].get_or_insert(run);
            assert_eq!(
                run, first,
                "the idle mission's counts must not change between repeats ({mode:?})"
            );
            walls[i].push(wall_ms);
        }
    }
    [0, 1].map(|i| ModeRun {
        counts: counts[i].expect("at least one repeat"),
        wall_ms: Spread::of(std::mem::take(&mut walls[i])),
    })
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

/// The views `configs` take from the table of reads of `worker`, emptied
/// first, when run in config order on it — as a one-worker farm runs them
/// — as `[scripted, stochastic]` humans, and the frames and views reused
/// they report.
fn shared_hits(configs: &[SessionConfig], worker: &mut ViewWorker) -> ([u64; 2], u64, u64) {
    worker.forget_reads();
    let (mut hits, mut frames, mut reused) = ([0; 2], 0, 0);
    for c in configs {
        let before = worker.hits();
        let mut session = CollaborationSession::new(*c);
        session.run_events_with(worker);
        let report = session.into_report();
        hits[usize::from(c.script.is_none())] += worker.hits() - before;
        frames += report.frames_processed as u64;
        reused += report.views_reused as u64;
    }
    (hits, frames, reused)
}

struct MissSplit {
    sessions: usize,
    frames: u64,
    views: usize,
    views_reused: u64,
    misses: usize,
    /// Changed views whose mask holds more than one component.
    multi_component: usize,
    /// Misses served from the shared table: [scripted, stochastic].
    shared_hits: [u64; 2],
    repeats: usize,
    render_mask: Spread,
    read_mask: Spread,
    render: Spread,
    one_pass: Spread,
    two_pass: Spread,
    /// The mask read's static-channel stages, each through its public call.
    label: Spread,
    contour: Spread,
    signature: Spread,
    sax_match: Spread,
    /// Per repeat: (render_mask + read_mask) / (render + one_pass).
    miss_ratio: Spread,
    /// Per repeat: read_mask / one_pass.
    read_ratio: Spread,
}

/// Captures the changed views of a small mixed farm and times the
/// miss-path stages on them, reading through `worker`.
fn miss_path_split(sessions: usize, repeats: usize, worker: &mut ViewWorker) -> MissSplit {
    let mut rng = SplitMix64::stream(0x5E55, 1);
    let configs: Vec<SessionConfig> = (0..sessions).map(|i| mixed_config(i, &mut rng)).collect();
    let stats = run_session_farm(&configs, ScheduleMode::EventDriven, rng.next_u64());
    let (total_views, views) = changed_views(&configs);
    assert_eq!(
        views.len() as u64,
        total_views as u64 - stats.views_reused,
        "every changed view, and only those, misses the view memo"
    );
    let (shared_hits, frames, reused) = shared_hits(&configs, worker);
    assert_eq!(
        (frames, reused),
        (stats.frames_processed, stats.views_reused),
        "shared reads must not change what a session does"
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
    // the stage split's own buffers, as a reader's scratch holds them
    let (mut blob, mut label) = (BitMask::new(1, 1), LabelScratch::new());
    let (mut sig, mut query) = (SignatureScratch::new(), QueryScratch::new());

    let mut per_stage: [Vec<f64>; 9] = Default::default();
    let (mut miss_ratios, mut read_ratios) = (Vec::new(), Vec::new());
    let mut multi_component = 0;
    for _ in 0..repeats {
        multi_component = 0;
        let mut ns = [0u128; 9];
        let mut decisions = Vec::with_capacity(views.len());
        for (signaller, eye) in &views {
            // the loop's miss path: rasterise into the mask, read it
            let t0 = Instant::now();
            paint_view_mask(signaller, *eye, &mut mask);
            let t1 = Instant::now();
            let from_mask = ViewRead::mask(worker, &mask, &pipeline, true);
            let t2 = Instant::now();
            // the grey oracle
            paint_view(signaller, *eye, &mut frame);
            let t3 = Instant::now();
            let one = ViewRead::frame(worker, &frame, &pipeline, true);
            let t4 = Instant::now();
            // each read follows a fresh render, as on the loop's miss path
            paint_view(signaller, *eye, &mut frame);
            let t5 = Instant::now();
            let two_features = dynamic.features(&binarize(&frame, 128));
            let two_decision = pipeline.recognize(&frame).decision;
            let t6 = Instant::now();
            assert_eq!(
                mask,
                BitMask::from_bitmap(&binarize(&frame, 128)),
                "the rasterised mask must be the grey frame's segmentation"
            );
            assert_eq!(from_mask, one, "the mask path must read as the grey frame");
            assert_eq!(
                (one.features, one.decision.map(|d| d.map(|s| s.label()))),
                (two_features, Some(two_decision.as_deref())),
                "one labelling must serve both channels"
            );
            for (total, (from, to)) in
                ns.iter_mut()
                    .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t5, t6)])
            {
                *total += (to - from).as_nanos();
            }
            decisions.push(from_mask.decision);
        }
        // The stage split runs in a pass of its own, so each mask is
        // rasterised afresh (untimed) and read once, as on the loop's miss
        // path, and never straight after another read of the same mask.
        for ((signaller, eye), decision) in views.iter().zip(&decisions) {
            paint_view_mask(signaller, *eye, &mut mask);
            let (split, best, copied) = static_stages(
                &pipeline, &mask, &mut blob, &mut label, &mut sig, &mut query,
            );
            multi_component += usize::from(copied);
            if let Some(Some(decision)) = decision {
                assert_eq!(
                    best,
                    Some(decision.label()),
                    "the stage split must match the mask read's decision"
                );
            }
            for (total, stage) in ns[5..].iter_mut().zip(split) {
                *total += stage;
            }
        }
        for (stage, total) in per_stage.iter_mut().zip(ns) {
            stage.push(total as f64 / views.len().max(1) as f64);
        }
        // both paths of this repeat ran interleaved, view by view, so the
        // host's speed cancels out of their ratios
        let [mask_paint, mask_read, grey_paint, grey_read, ..] = ns.map(|n| n as f64);
        miss_ratios.push((mask_paint + mask_read) / (grey_paint + grey_read).max(1.0));
        read_ratios.push(mask_read / grey_read.max(1.0));
    }
    let [render_mask, read_mask, render, one_pass, two_pass, label, contour, signature, sax_match] =
        per_stage.map(Spread::of);
    MissSplit {
        sessions,
        frames: stats.frames_processed,
        views: total_views,
        views_reused: stats.views_reused,
        misses: views.len(),
        multi_component,
        shared_hits,
        repeats,
        render_mask,
        read_mask,
        render,
        one_pass,
        two_pass,
        label,
        contour,
        signature,
        sax_match,
        miss_ratio: Spread::of(miss_ratios),
        read_ratio: Spread::of(read_ratios),
    }
}

/// The static channel's read of a silhouette `mask`, stage by stage
/// through the public calls the pipeline makes: ns spent labelling,
/// tracing the contour, computing the signature and matching it, the best
/// match's label, and whether the mask held more than one component. A
/// stage that a rejected view never reaches costs 0.
fn static_stages<'a>(
    pipeline: &'a RecognitionPipeline,
    mask: &BitMask,
    blob: &mut BitMask,
    label: &mut LabelScratch,
    sig: &mut SignatureScratch,
    query: &mut QueryScratch,
) -> ([u128; 4], Option<&'a str>, bool) {
    let config = pipeline.config();
    let mut ns = [0u128; 4];
    let t0 = Instant::now();
    let largest = largest_component_packed_lazy(mask, Connectivity::Eight, blob, label);
    ns[0] = t0.elapsed().as_nanos();
    let Some((component, copied)) = largest else {
        return (ns, None, false);
    };
    if component.area < config.min_blob_area {
        return (ns, None, copied);
    }
    let t1 = Instant::now();
    let traced = trace_contour_packed_with(if copied { blob } else { mask }, sig);
    let t2 = Instant::now();
    ns[1] = (t2 - t1).as_nanos();
    if traced.is_err() {
        return (ns, None, copied);
    }
    signature_from_contour(sig, config.signature_len);
    let t3 = Instant::now();
    let matched = pipeline.index().best_two_with(sig.series(), query);
    let t4 = Instant::now();
    ns[2] = (t3 - t2).as_nanos();
    ns[3] = (t4 - t3).as_nanos();
    (ns, matched.map(|(best, _)| best.label), copied)
}

struct Rung {
    sessions: usize,
    /// The farm's counts, identical in every repeat.
    stats: FarmStats,
    wall_ms: Spread,
    sessions_per_s: Spread,
}

fn main() {
    let args = BenchArgs::from_env("BENCH_sessions.json", false);
    let smoke = args.smoke;

    // Every timed measurement repeats, so a change is judged against the
    // spread, not one wall time.
    let repeats = if smoke { 3 } else { 7 };

    // --- idle-heavy day-length mission: lockstep vs event-driven ---
    let idle_cfg = idle_heavy_config(11, smoke);
    println!(
        "idle-heavy mission: silent human, {:.0}s attention timeout{}, {repeats} repeats",
        idle_cfg.negotiation.attention_timeout_s,
        if smoke { " [smoke]" } else { "" }
    );
    // one view worker for every session this bench runs itself, as one
    // farm worker would serve them
    let mut worker = ViewWorker::new();
    let [lock, event] = idle_missions(idle_cfg, repeats, &mut worker);
    assert_eq!(
        lock.counts.outcome, event.counts.outcome,
        "the schedulers must agree on the idle mission's outcome"
    );
    let tick_ratio = lock.counts.drone_ticks as f64 / event.counts.drone_ticks.max(1) as f64;

    let mut table = Table::new([
        "scheduler",
        "sim s",
        "drone ticks",
        "dispatches",
        "frames",
        "views reused",
        "wall ms median [min, max]",
        "outcome",
    ]);
    for (label, r) in [("lockstep", &lock), ("event-driven", &event)] {
        let c = &r.counts;
        table.row([
            label.to_string(),
            num(c.sim_s, 1),
            c.drone_ticks.to_string(),
            c.dispatches.to_string(),
            c.frames.to_string(),
            c.views_reused.to_string(),
            r.wall_ms.cell(2),
            format!("{:?}", c.outcome),
        ]);
    }
    println!("{}", table.render());
    println!("drone-tick ratio (lockstep / event): {tick_ratio:.1}x");
    assert!(
        tick_ratio >= 5.0,
        "event-driven scheduling must cut idle-mission drone ticks >=5x, got {tick_ratio:.1}x"
    );
    for (label, r) in [("lockstep", &lock.counts), ("event-driven", &event.counts)] {
        assert!(
            r.frames > 0 && r.views_reused * 10 >= r.frames * 9,
            "the idle mission's owner must reuse >=90% of its frames ({label}): {} of {}",
            r.views_reused,
            r.frames
        );
    }

    // --- capacity ladder on the farm's pool ---
    // The whole ladder runs `repeats` times, rungs interleaved, so a host
    // spell spreads over every rung rather than landing on one.
    let rungs: &[usize] = if smoke { &[10, 50] } else { &[100, 300, 1000] };
    let rung_configs: Vec<Vec<SessionConfig>> = rungs
        .iter()
        .map(|&n| (0..n).map(ladder_config).collect())
        .collect();
    let mut stats: Vec<FarmStats> = Vec::with_capacity(rungs.len());
    let mut walls: Vec<Vec<f64>> = vec![Vec::with_capacity(repeats); rungs.len()];
    for repeat in 0..repeats {
        for (i, configs) in rung_configs.iter().enumerate() {
            let started = Instant::now();
            let run = run_session_farm(configs, ScheduleMode::EventDriven, 0xFA);
            walls[i].push(started.elapsed().as_secs_f64() * 1e3);
            if repeat == 0 {
                stats.push(run);
            } else {
                assert_eq!(
                    run, stats[i],
                    "a rung's counts must not change between repeats"
                );
            }
        }
    }
    let ladder: Vec<Rung> = rungs
        .iter()
        .zip(stats)
        .zip(walls)
        .map(|((&n, stats), walls)| Rung {
            sessions: n,
            stats,
            sessions_per_s: Spread::of(walls.iter().map(|ms| n as f64 / (ms / 1e3)).collect()),
            wall_ms: Spread::of(walls),
        })
        .collect();
    for rung in &ladder {
        let stats = &rung.stats;
        assert_eq!(
            stats.count(SessionOutcome::StillRunning),
            0,
            "every farmed session must terminate"
        );
        println!(
            "ladder {:>5} sessions: {:.1} ms wall [{:.1}, {:.1}] over {repeats} repeats, \
             {} dispatches, {} drone ticks, {} of {} frames reused, \
             {} granted / {} denied / {} abandoned / {} aborted",
            rung.sessions,
            rung.wall_ms.median,
            rung.wall_ms.min,
            rung.wall_ms.max,
            stats.events_dispatched,
            stats.total_drone_ticks,
            stats.views_reused,
            stats.frames_processed,
            stats.count(SessionOutcome::Granted),
            stats.count(SessionOutcome::Denied),
            stats.count(SessionOutcome::Abandoned),
            stats.count(SessionOutcome::Aborted),
        );
    }
    let top = ladder.last().expect("ladder has rungs");
    assert!(
        top.sessions >= if smoke { 50 } else { 1000 },
        "the ladder must reach the committed capacity"
    );

    // --- miss-path split over the changed views of a mixed farm ---
    let split = miss_path_split(if smoke { 12 } else { 96 }, repeats, &mut worker);
    println!(
        "miss path: {} sessions, {} owner frames processed, {} views, {} reused, {} changed, \
         {} of them holding more than one component",
        split.sessions,
        split.frames,
        split.views,
        split.views_reused,
        split.misses,
        split.multi_component
    );
    let [scripted, stochastic] = split.shared_hits;
    println!(
        "shared reads (one worker): {} of {} changed views served from the farm's table, \
         {scripted} for scripted and {stochastic} for stochastic humans",
        scripted + stochastic,
        split.misses
    );
    assert!(
        scripted + stochastic >= 1,
        "the mixed farm's sessions must share at least one view read"
    );
    let mut stages = Table::new(["miss-path stage", "median ns/frame", "min", "max"]);
    for (label, st) in [
        ("rasterise into the mask", &split.render_mask),
        ("read the mask (both channels)", &split.read_mask),
        ("render into the reused frame", &split.render),
        ("one-pass read (both channels)", &split.one_pass),
        ("two-pass formula (replaced)", &split.two_pass),
        ("  of the mask read: label", &split.label),
        ("  of the mask read: contour", &split.contour),
        ("  of the mask read: signature", &split.signature),
        ("  of the mask read: SAX match", &split.sax_match),
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
    for (label, r) in [
        (
            "(render_mask + read_mask) / (render + one_pass)",
            &split.miss_ratio,
        ),
        ("read_mask / one_pass", &split.read_ratio),
    ] {
        println!("per repeat, {label}: median {}", r.cell(3));
    }

    let modes = [("lockstep", &lock), ("event_driven", &event)].map(|(label, r)| {
        let c = &r.counts;
        let row = Json::Object(vec![
            ("drone_ticks", c.drone_ticks.into()),
            ("dispatches", c.dispatches.into()),
            ("frames", c.frames.into()),
            ("views_reused", c.views_reused.into()),
            ("repeats", repeats.into()),
            ("wall_ms", Json::spread(&r.wall_ms, 2)),
        ]);
        (label, row)
    });
    let mut idle_mission = vec![
        (
            "attention_timeout_s",
            Json::Num(idle_cfg.negotiation.attention_timeout_s, 0),
        ),
        ("sim_duration_s", Json::Num(lock.counts.sim_s, 1)),
        ("outcome", Json::Str(format!("{:?}", lock.counts.outcome))),
    ];
    idle_mission.extend(modes);
    idle_mission.push(("drone_tick_ratio", Json::Num(tick_ratio, 1)));
    let capacity_ladder = ladder.iter().map(|rung| {
        let stats = &rung.stats;
        Json::Object(vec![
            ("sessions", rung.sessions.into()),
            ("repeats", repeats.into()),
            ("wall_ms", Json::spread(&rung.wall_ms, 1)),
            ("sessions_per_s", Json::spread(&rung.sessions_per_s, 1)),
            ("dispatches", stats.events_dispatched.into()),
            ("drone_ticks", stats.total_drone_ticks.into()),
            ("frames", stats.frames_processed.into()),
            ("views_reused", stats.views_reused.into()),
            ("granted", stats.count(SessionOutcome::Granted).into()),
            ("denied", stats.count(SessionOutcome::Denied).into()),
            ("abandoned", stats.count(SessionOutcome::Abandoned).into()),
            ("aborted", stats.count(SessionOutcome::Aborted).into()),
        ])
    });
    let ns = |spread: &Spread| Json::spread(spread, 0);
    let miss_path = Json::Object(vec![
        ("sessions", split.sessions.into()),
        ("frames", split.frames.into()),
        ("views", split.views.into()),
        ("views_reused", split.views_reused.into()),
        ("changed_views", split.misses.into()),
        ("multi_component_views", split.multi_component.into()),
        ("repeats", split.repeats.into()),
        (
            "shared_hits",
            Json::Object(vec![
                ("workers", 1usize.into()),
                ("scripted", scripted.into()),
                ("stochastic", stochastic.into()),
            ]),
        ),
        ("render_mask_ns", ns(&split.render_mask)),
        ("read_mask_ns", ns(&split.read_mask)),
        ("render_ns", ns(&split.render)),
        ("one_pass_read_ns", ns(&split.one_pass)),
        ("two_pass_read_ns", ns(&split.two_pass)),
        ("label_ns", ns(&split.label)),
        ("contour_ns", ns(&split.contour)),
        ("signature_ns", ns(&split.signature)),
        ("sax_match_ns", ns(&split.sax_match)),
        (
            "mask_miss_over_grey_miss",
            Json::spread(&split.miss_ratio, 3),
        ),
        (
            "read_mask_over_one_pass_read",
            Json::spread(&split.read_ratio, 3),
        ),
        ("read_speedup", Json::Num(read_speedup, 2)),
    ]);
    args.write_report(
        WorkPool::auto().workers(),
        repeats,
        vec![
            ("smoke", Json::Bool(smoke)),
            ("idle_mission", Json::Object(idle_mission)),
            ("capacity_ladder", Json::Array(capacity_ladder.collect())),
            ("miss_path", miss_path),
        ],
    );
}
