//! The serving workload: `hdc_serve::serve` over a fleet of VGA streams, and
//! a replay of every decided frame through the temporal gate for the
//! per-layer split.

use crate::workloads::FleetInputs;
use hdc_runtime::WorkPool;
use hdc_serve::{serve, EventKind, ServeInput, ServeReport};
use hdc_vision::temporal::StreamRecognizer;
use hdc_vision::{FrameScratch, RecognitionPipeline};
use std::time::{Duration, Instant};

/// Exact outputs of one serve pass; the latencies are virtual µs from the
/// cost model, so they are outputs to check, not performance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCounts {
    pub digest: String,
    pub offered: u64,
    pub decided: u64,
    pub shed: u64,
    pub rejected: u64,
    pub strict_hits: u64,
    pub incremental_hits: u64,
    pub full_runs: u64,
    pub evictions: u64,
    pub restores: u64,
    pub p50_us_virtual: u64,
    pub p99_us_virtual: u64,
}

impl FleetCounts {
    pub fn of(report: &ServeReport) -> FleetCounts {
        let gate = report.per_stream.iter().fold(
            Default::default(),
            |acc: hdc_vision::temporal::GateCounters, s| acc.plus(&s.gate),
        );
        FleetCounts {
            digest: report.digest(),
            offered: report.offered() as u64,
            decided: report.decided() as u64,
            shed: report.shed() as u64,
            rejected: (report.rejected_budget() + report.rejected_queue()) as u64,
            strict_hits: gate.strict_hits as u64,
            incremental_hits: gate.incremental_hits as u64,
            full_runs: gate.full_runs as u64,
            evictions: report.evictions() as u64,
            restores: report.restores() as u64,
            p50_us_virtual: report.p50_us(),
            p99_us_virtual: report.p99_us(),
        }
    }

    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("offered", self.offered),
            ("decided", self.decided),
            ("shed", self.shed),
            ("rejected", self.rejected),
            ("strict_hits", self.strict_hits),
            ("incremental_hits", self.incremental_hits),
            ("full_runs", self.full_runs),
            ("evictions", self.evictions),
            ("restores", self.restores),
            ("p50_us_virtual", self.p50_us_virtual),
            ("p99_us_virtual", self.p99_us_virtual),
        ]
    }

    /// Offered frames the fleet failed to decide (it runs under capacity,
    /// so every frame must be decided).
    pub fn undecided(&self) -> u64 {
        self.offered - self.decided
    }
}

pub fn serve_pass(
    pipeline: &RecognitionPipeline,
    inputs: &FleetInputs,
    warmup: bool,
    pool: &WorkPool,
) -> ServeReport {
    let arrivals = if warmup {
        &inputs.warmup_arrivals
    } else {
        &inputs.arrivals
    };
    let input = ServeInput {
        frame_sets: &inputs.frame_sets,
        arrivals,
    };
    serve(pipeline, &input, &inputs.config, pool)
}

/// Per-call gate costs from replaying every decided frame.
#[derive(Debug, Default)]
pub struct GateReplay {
    pub recognition: Duration,
    pub full_run_us: f64,
    pub gate_hit_us: f64,
    /// Replayed decisions that differ from the served trace.
    pub diverged: u64,
}

/// Replays each stream's decided frames, in order, through a fresh
/// `StreamRecognizer` — with spill on, eviction and restore are
/// decision-equivalent to an uninterrupted stream, so every replayed
/// decision must equal the served one.
pub fn replay_gate(
    pipeline: &RecognitionPipeline,
    inputs: &FleetInputs,
    report: &ServeReport,
) -> GateReplay {
    let input = ServeInput {
        frame_sets: &inputs.frame_sets,
        arrivals: &inputs.arrivals,
    };
    let mut decided: Vec<Vec<(usize, Option<String>)>> = vec![Vec::new(); inputs.arrivals.streams];
    for e in &report.events {
        if let EventKind::Decide { label, .. } = &e.kind {
            decided[e.stream as usize].push((e.frame as usize, label.clone()));
        }
    }
    let mut out = GateReplay::default();
    let (mut full, mut full_n, mut hit, mut hit_n) = (Duration::ZERO, 0u32, Duration::ZERO, 0u32);
    let mut scratch = FrameScratch::new();
    for (stream, frames) in decided.iter().enumerate() {
        let mut rec = StreamRecognizer::new(inputs.config.gate);
        for (frame, served) in frames {
            let before = rec.counters();
            let t = Instant::now();
            let decision = &rec
                .recognize(pipeline, &mut scratch, input.frame_for(stream, *frame))
                .decision;
            let took = t.elapsed();
            if decision != served {
                out.diverged += 1;
            }
            if rec.counters().since(&before).full_runs == 1 {
                full += took;
                full_n += 1;
            } else {
                hit += took;
                hit_n += 1;
            }
        }
    }
    out.recognition = full + hit;
    out.full_run_us = full.as_secs_f64() * 1e6 / full_n.max(1) as f64;
    out.gate_hit_us = hit.as_secs_f64() * 1e6 / hit_n.max(1) as f64;
    out
}
