//! One benchmark run of one workload, in a fresh process.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `--trace 0` alternates timed set-ups with timed untraced passes for
//! `--seconds`. A pass runs the workload's units one after another and times
//! each one, between calls of a fixed reference workload that gauge the
//! host's speed at that moment. The run reports, at one fixed reference
//! speed, the median set-up time and the throughput of a pass made of each
//! unit's lower-quartile time, plus the process's peak RSS.
//! `--trace 1` runs untraced and traced passes and reports the per-layer
//! split. Either way the last stdout line is one JSON object holding the
//! metrics and the exact outputs, which `run.py` checks against the recorded
//! ones.

mod fleet;
mod procfs;
mod reference;
mod sessions;
mod stats;
mod workloads;

use hdc_runtime::{available_workers, WorkPool};
use procfs::{peak_rss_mb, ProcSample};
use sessions::SessionCounts;
use stats::{median, percentile};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{FleetInputs, SessionInputs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .ok_or(format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Untraced/traced pass pairs in a traced session run.
const OVERHEAD_PAIRS: usize = 3;

/// Every per-layer metric with its unit, in print order; `BENCHMARK.json`
/// lists the same names.
const PER_LAYER: [(&str, &str); 39] = [
    ("orchard.dispatches", "count"),
    ("drone.ticks", "count"),
    ("runtime.heap_us_per_dispatch", "us"),
    ("core.session_new_us", "us"),
    ("core.frames", "count"),
    ("core.step_to_p50_us", "us"),
    ("core.step_to_p99_us", "us"),
    ("core.tick_only_us", "us"),
    ("core.frame_pre_us", "us"),
    ("core.frame_ingest_us", "us"),
    ("raster.binarize_us", "us"),
    ("vision.dynamic_push_us", "us"),
    ("vision.recognize_us", "us"),
    ("vision.segment_us", "us"),
    ("vision.component_us", "us"),
    ("vision.contour_us", "us"),
    ("vision.signature_us", "us"),
    ("vision.classify_us", "us"),
    ("proc.minflt_per_frame", "count"),
    ("proc.sys_share", "ratio"),
    ("cohort.votes_received", "count"),
    ("cohort.accepts", "count"),
    ("cohort.disagreements", "count"),
    ("link.frames_on_wire", "count"),
    ("link.retransmits", "count"),
    ("gate.strict_hits", "count"),
    ("gate.incremental_hits", "count"),
    ("gate.full_runs", "count"),
    ("gate.hit_rate", "ratio"),
    ("serve.evictions", "count"),
    ("serve.restores", "count"),
    ("serve.p99_us_virtual", "us"),
    ("vision.full_run_us", "us"),
    ("vision.gate_hit_us", "us"),
    ("serve.sched_share", "ratio"),
    ("trace.untraced_sessions_per_s", "1/s"),
    ("trace.traced_sessions_per_s", "1/s"),
    ("host.available_parallelism", "count"),
    ("serve.workers", "count"),
];

/// The result line: metrics with units, exact outputs, attempted/failed.
#[derive(Default)]
struct Output {
    metrics: Vec<(&'static str, f64, &'static str)>,
    outputs: Vec<(&'static str, String)>,
    attempted: u64,
    failed: u64,
}

impl Output {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} is not finite");
        self.metrics.push((name, value, unit));
    }

    /// Records a per-layer metric, with its unit from [`PER_LAYER`].
    fn layer(&mut self, name: &'static str, value: f64) {
        let (_, unit) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .expect("listed in PER_LAYER");
        self.metric(name, value, unit);
    }

    /// Adds every per-layer metric not recorded as 0 (a layer the workload
    /// never passes through) and puts them in [`PER_LAYER`] order.
    fn complete_layers(&mut self) {
        for (name, unit) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.0 == name) {
                self.metrics.push((name, 0.0, unit));
            }
        }
        self.metrics
            .sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.0));
    }

    fn counts(&mut self, fields: &[(&'static str, u64)]) {
        for (name, v) in fields {
            self.outputs.push((name, v.to_string()));
        }
    }

    fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"attempted\": {}, \"failed\": {}, \"outputs\": {{",
            self.attempted, self.failed
        );
        for (i, (k, v)) in self.outputs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let quoted = v.parse::<u64>().is_err();
            let q = if quoted { "\"" } else { "" };
            let _ = write!(s, "{sep}\"{k}\": {q}{v}{q}");
        }
        s.push_str("}, \"metrics\": {");
        for (i, (k, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{k}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// What one [`reference::reference_work`] call takes on a quiet host, in
/// seconds: on 2 vCPUs of a 2.0 GHz Xeon VM, 756 calls took 17.4 ms at the
/// fastest and 18.4 ms at the 5th percentile (24.2 ms median). It turns
/// times counted in reference calls back into seconds.
const REFERENCE_S: f64 = 0.018;

/// The percentile of a unit's runs that stands for its time. The reference
/// calls catch the host's slow spells only in part, and a slow spell only
/// ever adds time, so a low percentile stays steadier than the median; it
/// does not rest on one run as the minimum would.
const UNIT_PERCENTILE: f64 = 25.0;

/// An untraced measurement: the set-up state the passes ran on, each pass's
/// timed set-up, each unit's timed runs with their results
/// (`runs[unit][pass]`), and each pass's reference calls (`refs[pass]`: one
/// before the set-up and one after it and after every unit), all in seconds.
struct Measured<S, R> {
    state: S,
    setups: Vec<f64>,
    runs: Vec<Vec<(f64, R)>>,
    refs: Vec<Vec<f64>>,
}

/// `secs` at the reference host speed: divided by the mean of the reference
/// calls just before and just after it, times [`REFERENCE_S`].
fn at_reference(secs: f64, before: f64, after: f64) -> f64 {
    secs / (0.5 * (before + after)) * REFERENCE_S
}

impl<S, R> Measured<S, R> {
    /// The median set-up time at the reference speed.
    fn setup_s(&self) -> f64 {
        let xs: Vec<f64> = self
            .setups
            .iter()
            .zip(&self.refs)
            .map(|(s, r)| at_reference(*s, r[0], r[1]))
            .collect();
        median(&xs)
    }

    /// `work`, which every pass does once, per second of a pass in which
    /// each unit takes its [`UNIT_PERCENTILE`] time at the reference speed.
    fn rate(&self, work: u64) -> f64 {
        let pass_s: f64 = self
            .runs
            .iter()
            .enumerate()
            .map(|(u, runs)| {
                let xs: Vec<f64> = runs
                    .iter()
                    .zip(&self.refs)
                    .map(|((t, _), r)| at_reference(*t, r[u + 1], r[u + 2]))
                    .collect();
                percentile(&xs, UNIT_PERCENTILE)
            })
            .sum();
        work as f64 / pass_s
    }

    /// Each pass's results, in unit order.
    fn passes(&self) -> impl Iterator<Item = Vec<&R>> + '_ {
        (0..self.runs[0].len()).map(move |p| self.runs.iter().map(|runs| &runs[p].1).collect())
    }
}

/// Seconds one call of `f` takes.
fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Sets up once, untimed: first-touch page faults and lazy initialisation
/// land here. Then, until `seconds` have gone (at least once), times a fresh
/// set-up followed by a pass over the first state that runs and times each
/// of `units` in turn, with a reference call before the set-up and after it
/// and after every unit.
///
/// The host is a shared VM whose speed drifts by tens of percent over
/// seconds to minutes, with no stolen time to show for it: other tenants
/// slow the cores down. A run can sit wholly inside a slow spell, so no
/// statistic over one run's wall times removes the drift. The reference
/// calls, which use none of the program, measure the host's speed right
/// around each timed piece, and the times are reported at one fixed
/// reference speed.
fn measure<S, R>(
    seconds: f64,
    units: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&S, usize) -> R,
) -> Measured<S, R> {
    let state = setup();
    reference::reference_work();
    let started = Instant::now();
    let (mut setups, mut refs) = (Vec::new(), Vec::new());
    let mut runs: Vec<Vec<(f64, R)>> = (0..units).map(|_| Vec::new()).collect();
    while setups.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut pass_refs = vec![time(|| {
            reference::reference_work();
        })];
        setups.push(time(|| drop(std::hint::black_box(setup()))));
        pass_refs.push(time(|| {
            reference::reference_work();
        }));
        for (u, unit_runs) in runs.iter_mut().enumerate() {
            let t = Instant::now();
            let r = run(&state, u);
            unit_runs.push((t.elapsed().as_secs_f64(), r));
            pass_refs.push(time(|| {
                reference::reference_work();
            }));
        }
        refs.push(pass_refs);
    }
    let ms = |xs: &mut dyn Iterator<Item = f64>| {
        xs.map(|x| format!("{:.3}", x * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    };
    eprintln!("set-ups, ms: [{}]", ms(&mut setups.iter().copied()));
    for (u, unit_runs) in runs.iter().enumerate() {
        eprintln!("unit {u}, ms: [{}]", ms(&mut unit_runs.iter().map(|r| r.0)));
    }
    eprintln!("refs, ms: [{}]", ms(&mut refs.iter().flatten().copied()));
    Measured {
        state,
        setups,
        runs,
        refs,
    }
}

fn per_s(n: u64, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64()
}

fn session_inputs(w: Workload, seed: u64) -> SessionInputs {
    match w {
        Workload::FarmMixed => workloads::farm_mixed(seed),
        Workload::IdleDay => workloads::idle_day(seed),
        Workload::CohortRelay => workloads::cohort_relay(seed),
        Workload::ServeFleet => unreachable!("serve_fleet is not a session workload"),
    }
}

/// Set-up: input generation, the shared calibration, and an untimed-by-the
/// -passes warm-up slice of the workload.
fn session_setup(w: Workload, seed: u64) -> (SessionInputs, hdc_vision::RecognitionPipeline) {
    let inputs = session_inputs(w, seed);
    let pipeline = sessions::shared_pipeline();
    let warm = sessions::farm_pass(&inputs, &inputs.configs[..inputs.warmup]);
    assert_eq!(warm.unterminated, 0, "warm-up sessions must terminate");
    (inputs, pipeline)
}

/// Counts the fields of `got` that differ from `want`.
fn mismatches(got: &[(&str, u64)], want: &[(&str, u64)]) -> u64 {
    got.iter().zip(want).filter(|(g, w)| g.1 != w.1).count() as u64
}

fn run_sessions(args: &Args, out: &mut Output) {
    let shape = session_inputs(args.workload, args.seed);
    let n = shape.configs.len() as u64;
    if !args.trace {
        let m = measure(
            args.seconds,
            shape.units,
            || session_setup(args.workload, args.seed),
            |(inputs, _), u| sessions::farm_pass(inputs, inputs.unit(u)),
        );
        // one more pass through the public loop, untimed: the per-session
        // reports (frames, cohort and link counts) and an independent check
        // of the farm's dispatches, drone ticks and outcomes
        let audit = sessions::replay_farm(&m.state.0, false);
        for pass in m.passes() {
            let counts = pass
                .into_iter()
                .fold(SessionCounts::default(), |sum, c| sum.plus(c));
            out.attempted += n;
            out.failed +=
                counts.unterminated + mismatches(&counts.fields(), &audit.counts.fields());
        }
        out.metric("setup_s", m.setup_s(), "s");
        out.metric("sessions_per_s", m.rate(n), "1/s");
        out.metric("frames_per_s", m.rate(audit.reports.frames), "1/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.counts(&audit.counts.fields());
        out.counts(&audit.reports.fields());
        return;
    }

    let (inputs, pipeline) = session_setup(args.workload, args.seed);
    sessions::farm_pass(&inputs, &inputs.configs); // warm-up
                                                   // untraced and traced passes alternate, so the overhead reading compares
                                                   // medians taken over the same stretch of host time
    let (mut untraced, mut traced_walls, mut proc) =
        (Vec::new(), Vec::new(), ProcSample::default());
    let mut farm = None;
    let mut traced = None;
    for _ in 0..OVERHEAD_PAIRS {
        let before = ProcSample::now();
        let t = Instant::now();
        let counts = sessions::farm_pass(&inputs, &inputs.configs);
        untraced.push(per_s(n, t.elapsed()));
        proc = proc.plus(&ProcSample::now().since(&before));
        farm = Some(counts);
        let run = sessions::replay_farm(&inputs, true);
        traced_walls.push(per_s(n, run.trace.as_ref().expect("traced").wall));
        traced = Some(run);
    }
    let (farm, traced) = (farm.expect("one pair"), traced.expect("one pair"));
    let trace = traced.trace.as_ref().expect("traced pass keeps its trace");
    // the self-check: tracing must not change what the farm does
    out.attempted = n;
    out.failed = farm.unterminated + mismatches(&traced.counts.fields(), &farm.fields());
    let s = sessions::summarise(trace, traced.counts.dispatches);
    let ingest = sessions::replay_ingest(&pipeline, &sessions::capture_frames(&inputs));
    let frames = s.frames_hooked as f64;

    out.layer("orchard.dispatches", farm.dispatches as f64);
    out.layer("drone.ticks", farm.drone_ticks as f64);
    out.layer("runtime.heap_us_per_dispatch", s.heap_us_per_dispatch);
    out.layer("core.session_new_us", s.session_new_us);
    out.layer("core.frames", frames);
    out.layer("core.step_to_p50_us", s.step_p50_us);
    out.layer("core.step_to_p99_us", s.step_p99_us);
    out.layer("core.tick_only_us", s.tick_only_us);
    out.layer("core.frame_pre_us", s.frame_pre_us);
    out.layer("core.frame_ingest_us", s.frame_ingest_us);
    out.layer("raster.binarize_us", ingest.binarize_us);
    out.layer("vision.dynamic_push_us", ingest.dynamic_push_us);
    out.layer("vision.recognize_us", ingest.recognize_us);
    let stages = [
        "vision.segment_us",
        "vision.component_us",
        "vision.contour_us",
        "vision.signature_us",
        "vision.classify_us",
    ];
    for (name, v) in stages.into_iter().zip(ingest.stages) {
        out.layer(name, v);
    }
    out.layer(
        "proc.minflt_per_frame",
        proc.minflt as f64 / frames.max(1.0),
    );
    out.layer("proc.sys_share", proc.sys_share());
    let r = &traced.reports;
    out.layer("cohort.votes_received", r.votes_received as f64);
    out.layer("cohort.accepts", r.accepts as f64);
    out.layer("cohort.disagreements", r.disagreements as f64);
    out.layer("link.frames_on_wire", r.frames_on_wire as f64);
    out.layer("link.retransmits", r.retransmits as f64);
    out.layer("trace.untraced_sessions_per_s", median(&untraced));
    out.layer("trace.traced_sessions_per_s", median(&traced_walls));
    out.layer("host.available_parallelism", available_workers() as f64);
    out.counts(&traced.counts.fields());
    out.counts(&traced.reports.fields());
}

fn fleet_setup(seed: u64, pool: &WorkPool) -> (FleetInputs, hdc_vision::RecognitionPipeline) {
    let inputs = workloads::serve_fleet(seed);
    let pipeline = hdc_serve::workload::golden_pipeline();
    let warm = fleet::serve_pass(&pipeline, &inputs, true, pool);
    assert_eq!(
        warm.decided(),
        warm.offered(),
        "warm-up frames must be decided"
    );
    (inputs, pipeline)
}

fn run_fleet(args: &Args, out: &mut Output) {
    // shards fan out over one worker per hardware thread
    let pool = WorkPool::new(available_workers());
    let streams = workloads::serve_fleet(args.seed).arrivals.streams as u64;
    if !args.trace {
        // one serve() call is the unit: it is short, and splitting the fleet
        // would change its sharding and LRU pressure
        let m = measure(
            args.seconds,
            1,
            || fleet_setup(args.seed, &pool),
            |(inputs, pipeline), _| {
                fleet::FleetCounts::of(&fleet::serve_pass(pipeline, inputs, false, &pool))
            },
        );
        let first = &m.runs[0][0].1;
        for pass in m.passes() {
            let c = pass[0];
            out.attempted += c.offered;
            out.failed += c.undecided()
                + mismatches(&c.fields(), &first.fields())
                + u64::from(c.digest != first.digest);
        }
        out.metric("setup_s", m.setup_s(), "s");
        out.metric("sessions_per_s", m.rate(streams), "1/s");
        out.metric("frames_per_s", m.rate(first.decided), "1/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.outputs.push(("digest", first.digest.clone()));
        out.counts(&first.fields());
        return;
    }

    let (inputs, pipeline) = fleet_setup(args.seed, &pool);
    fleet::serve_pass(&pipeline, &inputs, false, &pool); // warm-up
    let before = ProcSample::now();
    let t = Instant::now();
    let report = fleet::serve_pass(&pipeline, &inputs, false, &pool);
    let wall = t.elapsed();
    let proc = ProcSample::now().since(&before);
    let counts = fleet::FleetCounts::of(&report);
    // one worker, so replayed recognition and serve() wall time compare
    let t = Instant::now();
    let serial = fleet::FleetCounts::of(&fleet::serve_pass(
        &pipeline,
        &inputs,
        false,
        &WorkPool::new(1),
    ));
    let serial_wall = t.elapsed();
    let replay = fleet::replay_gate(&pipeline, &inputs, &report);
    out.attempted = counts.offered;
    out.failed = counts.undecided() + replay.diverged + u64::from(serial != counts);
    let frames = counts.decided as f64;
    let sched_share = 1.0 - replay.recognition.as_secs_f64() / serial_wall.as_secs_f64();

    out.layer(
        "proc.minflt_per_frame",
        proc.minflt as f64 / frames.max(1.0),
    );
    out.layer("proc.sys_share", proc.sys_share());
    out.layer("gate.strict_hits", counts.strict_hits as f64);
    out.layer("gate.incremental_hits", counts.incremental_hits as f64);
    out.layer("gate.full_runs", counts.full_runs as f64);
    let hits = counts.strict_hits + counts.incremental_hits;
    out.layer("gate.hit_rate", hits as f64 / frames.max(1.0));
    out.layer("serve.evictions", counts.evictions as f64);
    out.layer("serve.restores", counts.restores as f64);
    out.layer("serve.p99_us_virtual", counts.p99_us_virtual as f64);
    out.layer("vision.full_run_us", replay.full_run_us);
    out.layer("vision.gate_hit_us", replay.gate_hit_us);
    out.layer("serve.sched_share", sched_share);
    // serve() carries no probe (the traced run times it from outside), so
    // its traced and untraced rates are the same reading
    out.layer("trace.untraced_sessions_per_s", per_s(streams, wall));
    out.layer("trace.traced_sessions_per_s", per_s(streams, wall));
    out.layer("host.available_parallelism", available_workers() as f64);
    out.layer("serve.workers", pool.workers() as f64);
    out.outputs.push(("digest", counts.digest.clone()));
    out.counts(&counts.fields());
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Output::default();
    match args.workload {
        Workload::ServeFleet => run_fleet(&args, &mut out),
        _ => run_sessions(&args, &mut out),
    }
    if args.trace {
        out.complete_layers();
    }
    println!("{}", out.json());
}
