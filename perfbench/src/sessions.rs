//! The session workloads: untraced farm passes through
//! `hdc_orchard::run_session_farm`, and the same event-driven loop replayed
//! through the public calls that function makes, optionally traced.

use crate::stats::{mean, percentile};
use crate::workloads::SessionInputs;
use hdc_core::{
    CollaborationSession, FrameFate, SessionConfig, SessionFaults, SessionOutcome, SessionReport,
};
use hdc_figure::ViewSpec;
use hdc_orchard::{run_session_farm, FarmStats};
use hdc_raster::threshold::binarize;
use hdc_raster::GrayImage;
use hdc_runtime::{EventHeap, ScheduleMode};
use hdc_vision::dynamic::{DynamicConfig, DynamicDecision, DynamicRecognizer};
use hdc_vision::{PipelineConfig, RecognitionPipeline, StageTimings};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Exact, host-independent outputs of one pass over a session workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCounts {
    pub dispatches: u64,
    pub drone_ticks: u64,
    pub granted: u64,
    pub denied: u64,
    pub abandoned: u64,
    pub aborted: u64,
    pub unterminated: u64,
}

impl SessionCounts {
    fn tally(outcomes: &[SessionOutcome], dispatches: u64, drone_ticks: u64) -> SessionCounts {
        let count = |o: SessionOutcome| outcomes.iter().filter(|x| **x == o).count() as u64;
        SessionCounts {
            dispatches,
            drone_ticks,
            granted: count(SessionOutcome::Granted),
            denied: count(SessionOutcome::Denied),
            abandoned: count(SessionOutcome::Abandoned),
            aborted: count(SessionOutcome::Aborted),
            unterminated: count(SessionOutcome::StillRunning),
        }
    }

    /// The counts of two disjoint sets of sessions together.
    pub fn plus(&self, o: &SessionCounts) -> SessionCounts {
        SessionCounts {
            dispatches: self.dispatches + o.dispatches,
            drone_ticks: self.drone_ticks + o.drone_ticks,
            granted: self.granted + o.granted,
            denied: self.denied + o.denied,
            abandoned: self.abandoned + o.abandoned,
            aborted: self.aborted + o.aborted,
            unterminated: self.unterminated + o.unterminated,
        }
    }

    pub fn from_farm(stats: &FarmStats) -> SessionCounts {
        SessionCounts::tally(
            &stats.outcomes,
            stats.events_dispatched,
            stats.total_drone_ticks,
        )
    }

    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("dispatches", self.dispatches),
            ("drone_ticks", self.drone_ticks),
            ("granted", self.granted),
            ("denied", self.denied),
            ("abandoned", self.abandoned),
            ("aborted", self.aborted),
            ("unterminated", self.unterminated),
        ]
    }
}

/// Counts only the per-session reports carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportCounts {
    pub frames: u64,
    pub votes_received: u64,
    pub accepts: u64,
    pub disagreements: u64,
    pub frames_on_wire: u64,
    pub retransmits: u64,
}

impl ReportCounts {
    fn add(&mut self, r: &SessionReport) {
        self.frames += r.frames_processed as u64;
        if let Some(c) = &r.cohort {
            self.votes_received += c.votes_received;
            self.accepts += c.accepts;
            self.disagreements += c.disagreements;
            self.frames_on_wire += c.relay_up.offered;
        }
        if let Some(l) = &r.link {
            self.frames_on_wire += l.up.offered + l.down.offered;
            self.retransmits += l.drone_endpoint.retransmits + l.supervisor_endpoint.retransmits;
        }
    }

    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("frames", self.frames),
            ("votes_received", self.votes_received),
            ("accepts", self.accepts),
            ("disagreements", self.disagreements),
            ("frames_on_wire", self.frames_on_wire),
            ("retransmits", self.retransmits),
        ]
    }
}

/// One untraced farm pass: the call users make.
pub fn farm_pass(inputs: &SessionInputs, configs: &[SessionConfig]) -> SessionCounts {
    SessionCounts::from_farm(&run_session_farm(
        configs,
        ScheduleMode::EventDriven,
        inputs.salt,
    ))
}

/// The pipeline every session calibrates for itself in
/// `CollaborationSession::new` (all workloads keep the default negotiation
/// geometry), built once for replaying captured frames.
pub fn shared_pipeline() -> RecognitionPipeline {
    let d = SessionConfig::for_role(hdc_core::Role::Worker, true, 0);
    let mut p = RecognitionPipeline::new(PipelineConfig::default());
    p.calibrate_from_views(&ViewSpec::paper_default(
        0.0,
        d.negotiation_altitude_m,
        d.contact_distance_m,
    ));
    p
}

/// The wave-off detector tuning every session runs (mirrors the session
/// engine's own).
fn session_dynamic() -> DynamicRecognizer {
    DynamicRecognizer::new(DynamicConfig {
        window_s: 6.0,
        min_cycles: 2,
        min_amplitude: 0.12,
        static_max_sd: 0.03,
        min_frames: 6,
    })
}

/// Sessions whose owner frames the traced run keeps for replay, and how
/// many frames of each.
const CAPTURED_SESSIONS: usize = 16;
const FRAMES_PER_CAPTURED_SESSION: usize = 12;

/// A pass-through fault layer for the traced pass: timestamps each camera
/// frame at the hook (after render and cohort sensing, before ingest) and
/// delivers it untouched.
#[derive(Debug)]
struct FrameClock(Rc<Cell<Option<Instant>>>);

impl SessionFaults for FrameClock {
    fn on_frame(&mut self, _t: f64, _frame: &mut GrayImage) -> FrameFate {
        self.0.set(Some(Instant::now()));
        FrameFate::Deliver
    }
}

/// A pass-through fault layer that keeps a copy of every frame.
#[derive(Debug)]
struct FrameTap(Rc<RefCell<Vec<(f64, GrayImage)>>>);

impl SessionFaults for FrameTap {
    fn on_frame(&mut self, t: f64, frame: &mut GrayImage) -> FrameFate {
        self.0.borrow_mut().push((t, frame.clone()));
        FrameFate::Deliver
    }
}

/// The first owner frames of every few sessions, for the ingest replay.
/// Sessions are independent (the farm reproduces each one run alone), so
/// each runs alone here, outside every timed pass: copying frames inside a
/// timed pass disturbs the allocator enough to page-fault on later frames.
pub fn capture_frames(inputs: &SessionInputs) -> Vec<(usize, f64, GrayImage)> {
    let stride = inputs.configs.len().div_ceil(CAPTURED_SESSIONS);
    let mut out = Vec::new();
    for (i, c) in inputs.configs.iter().enumerate().step_by(stride) {
        let tap = Rc::new(RefCell::new(Vec::new()));
        let mut s = CollaborationSession::new(*c);
        s.set_faults(Box::new(FrameTap(Rc::clone(&tap))));
        // `run_events`, stopped once enough frames are in
        while !s.is_done()
            && s.time() < c.max_duration_s
            && tap.borrow().len() < FRAMES_PER_CAPTURED_SESSION
        {
            let now = s.time();
            let mut due = s.next_due_after(now);
            if due <= now || due.is_nan() {
                due = now + CollaborationSession::TICK_S;
            }
            s.step_to(due.min(c.max_duration_s));
        }
        out.extend(tap.take().into_iter().map(|(t, frame)| (i, t, frame)));
    }
    out
}

/// Wall-clock samples from a traced pass, microseconds.
#[derive(Debug, Default)]
pub struct LoopTrace {
    pub session_new_us: Vec<f64>,
    pub heap_us: f64,
    pub step_us: Vec<f64>,
    pub tick_only_us: Vec<f64>,
    pub frame_pre_us: Vec<f64>,
    pub frame_ingest_us: Vec<f64>,
    pub wall: Duration,
}

/// The outputs of one replayed pass.
pub struct LoopRun {
    pub counts: SessionCounts,
    pub reports: ReportCounts,
    pub trace: Option<LoopTrace>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replays `run_session_farm`'s event-driven loop through the same public
/// calls (`CollaborationSession::new`, `next_due_after`, `step_to`,
/// `EventHeap`), keeping each session's report. With `traced`, a
/// [`FrameClock`] is installed in every session and every call is timed.
pub fn replay_farm(inputs: &SessionInputs, traced: bool) -> LoopRun {
    const TICK: f64 = CollaborationSession::TICK_S;
    let configs = &inputs.configs;
    let started = Instant::now();
    let mut trace = LoopTrace::default();
    let mut clocks = Vec::new();
    let mut sessions: Vec<CollaborationSession> = Vec::with_capacity(configs.len());
    for c in configs {
        let t = Instant::now();
        let mut s = CollaborationSession::new(*c);
        if traced {
            trace.session_new_us.push(us(t.elapsed()));
            let clock = Rc::new(Cell::new(None));
            s.set_faults(Box::new(FrameClock(Rc::clone(&clock))));
            clocks.push(clock);
        }
        sessions.push(s);
    }

    let mut heap: EventHeap<f64> = EventHeap::new(inputs.salt);
    let arm = |heap: &mut EventHeap<f64>, i: usize, s: &mut CollaborationSession| {
        let now = s.time();
        let mut due = s.next_due_after(now);
        if due <= now || due.is_nan() {
            due = now + TICK;
        }
        let due = due.min(configs[i].max_duration_s);
        heap.schedule_at_s(due, i as u64, 0, due);
    };
    let mut heap_time = Duration::ZERO;
    for (i, session) in sessions.iter_mut().enumerate() {
        let t = Instant::now();
        arm(&mut heap, i, session);
        heap_time += t.elapsed();
    }
    let mut dispatches = 0u64;
    loop {
        let t = Instant::now();
        let Some(wake) = heap.pop() else { break };
        heap_time += t.elapsed();
        let i = wake.session as usize;
        let session = &mut sessions[i];
        if session.is_done() || session.time() >= configs[i].max_duration_s {
            continue;
        }
        dispatches += 1;
        let step_start = Instant::now();
        session.step_to(wake.event);
        let step_end = Instant::now();
        if traced {
            trace.step_us.push(us(step_end - step_start));
            match clocks[i].take() {
                Some(hook) => {
                    trace.frame_pre_us.push(us(hook - step_start));
                    trace.frame_ingest_us.push(us(step_end - hook));
                }
                None => trace.tick_only_us.push(us(step_end - step_start)),
            }
        }
        if !session.is_done() && session.time() < configs[i].max_duration_s {
            let t = Instant::now();
            arm(&mut heap, i, session);
            heap_time += t.elapsed();
        }
    }
    trace.wall = started.elapsed();
    trace.heap_us = us(heap_time);

    let drone_ticks = sessions.iter().map(|s| s.drone_ticks()).sum();
    let mut reports = ReportCounts::default();
    let mut outcomes = Vec::with_capacity(sessions.len());
    for s in sessions {
        let r = s.into_report();
        reports.add(&r);
        outcomes.push(r.outcome);
    }
    LoopRun {
        counts: SessionCounts::tally(&outcomes, dispatches, drone_ticks),
        reports,
        trace: traced.then_some(trace),
    }
}

/// Per-call costs of the layers a camera frame passes through on ingest,
/// from replaying captured owner frames, microseconds per frame.
#[derive(Debug, Default)]
pub struct IngestReplay {
    pub frames: usize,
    pub binarize_us: f64,
    pub dynamic_push_us: f64,
    pub recognize_us: f64,
    pub stages: [f64; 5],
}

/// Frames replayed for the per-layer split: `StageTimings` truncates each
/// stage to whole µs, so the mean needs thousands of frames.
const REPLAY_FRAMES: usize = 2400;

/// Replays captured owner frames through the calls ingest makes:
/// `binarize` for the wave-off channel, `DynamicRecognizer::push`, and
/// `RecognitionPipeline::recognize`.
pub fn replay_ingest(
    pipeline: &RecognitionPipeline,
    captured: &[(usize, f64, GrayImage)],
) -> IngestReplay {
    let mut out = IngestReplay::default();
    if captured.is_empty() {
        return out;
    }
    let mut stage_sum = StageTimings::default();
    let (mut bin, mut dynamic_t, mut rec) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    while out.frames < REPLAY_FRAMES {
        let mut dynamic = session_dynamic();
        let mut current = usize::MAX;
        for (session, t, frame) in captured {
            if *session != current {
                current = *session;
                dynamic.reset();
            }
            let t0 = Instant::now();
            let mask = binarize(frame, 128);
            let t1 = Instant::now();
            dynamic.push(*t, &mask);
            if dynamic.decision() == DynamicDecision::WaveOff {
                dynamic.reset();
            }
            let t2 = Instant::now();
            let result = pipeline.recognize(std::hint::black_box(frame));
            let t3 = Instant::now();
            std::hint::black_box(&result.decision);
            bin += t1 - t0;
            dynamic_t += t2 - t1;
            rec += t3 - t2;
            let s = result.timings;
            stage_sum.segment_us += s.segment_us;
            stage_sum.component_us += s.component_us;
            stage_sum.contour_us += s.contour_us;
            stage_sum.signature_us += s.signature_us;
            stage_sum.classify_us += s.classify_us;
            out.frames += 1;
        }
    }
    let n = out.frames as f64;
    out.binarize_us = us(bin) / n;
    out.dynamic_push_us = us(dynamic_t) / n;
    out.recognize_us = us(rec) / n;
    out.stages = [
        stage_sum.segment_us as f64 / n,
        stage_sum.component_us as f64 / n,
        stage_sum.contour_us as f64 / n,
        stage_sum.signature_us as f64 / n,
        stage_sum.classify_us as f64 / n,
    ];
    out
}

/// Summary statistics of a traced pass, microseconds.
pub struct LoopSummary {
    pub session_new_us: f64,
    pub heap_us_per_dispatch: f64,
    pub step_p50_us: f64,
    pub step_p99_us: f64,
    pub tick_only_us: f64,
    pub frame_pre_us: f64,
    pub frame_ingest_us: f64,
    pub frames_hooked: usize,
}

pub fn summarise(trace: &LoopTrace, dispatches: u64) -> LoopSummary {
    LoopSummary {
        session_new_us: mean(&trace.session_new_us),
        heap_us_per_dispatch: trace.heap_us / dispatches.max(1) as f64,
        step_p50_us: percentile(&trace.step_us, 50.0),
        step_p99_us: percentile(&trace.step_us, 99.0),
        tick_only_us: mean(&trace.tick_only_us),
        frame_pre_us: mean(&trace.frame_pre_us),
        frame_ingest_us: mean(&trace.frame_ingest_us),
        frames_hooked: trace.frame_pre_us.len(),
    }
}
