//! Golden serving-trace conformance and the canonical-workload behaviour
//! tests.
//!
//! The three canonical workloads must reproduce their blessed digests —
//! at worker counts 1, 2 and 4, from one in-process run each — and the
//! regimes must keep the *shape* the goldens were blessed with: steady
//! serves everything while churning the LRU, bursty regulates by budget,
//! overload degrades by shedding with bounded decided-frame latency.
//! Eviction plus re-admission must also be decision-equivalent to an
//! uninterrupted stream, spilled or not.

use hdc_runtime::WorkPool;
use hdc_serve::workload::{
    canonical_workloads, golden_frame_sets, golden_path, golden_pipeline, parse_manifest, steady,
};
use hdc_serve::{serve, EventKind, ServeInput, ServeReport};
use hdc_vision::temporal::{StreamRecognizer, TemporalConfig};
use hdc_vision::FrameScratch;

fn run(w: &hdc_serve::workload::NamedWorkload, threads: usize) -> ServeReport {
    let pipeline = golden_pipeline();
    let frame_sets = golden_frame_sets();
    let input = ServeInput {
        frame_sets: &frame_sets,
        arrivals: &w.arrivals,
    };
    serve(
        &pipeline,
        &input,
        &w.config,
        &WorkPool::with_threads(Some(threads)),
    )
}

#[test]
fn canonical_digests_match_the_blessed_manifest_at_1_2_and_4_workers() {
    let manifest = std::fs::read_to_string(golden_path())
        .expect("blessed manifest missing - run serve_goldens --bless");
    let committed = parse_manifest(&manifest);
    assert_eq!(committed.len(), 3, "three canonical workloads are blessed");
    for w in canonical_workloads() {
        let row = committed
            .iter()
            .find(|c| c.0 == w.name)
            .unwrap_or_else(|| panic!("workload {} not in the blessed manifest", w.name));
        for threads in [1usize, 2, 4] {
            let report = run(&w, threads);
            assert_eq!(
                report.digest(),
                row.1,
                "{} digest drifted at {threads} worker(s)",
                w.name
            );
            assert_eq!(report.decided(), row.2, "{} decided count", w.name);
            assert_eq!(report.shed(), row.3, "{} shed count", w.name);
            assert_eq!(
                report.rejected_budget() + report.rejected_queue(),
                row.4,
                "{} rejected count",
                w.name
            );
        }
    }
}

#[test]
fn steady_serves_everything_while_churning_the_lru() {
    let report = run(&steady(), 2);
    assert_eq!(report.decided(), report.offered(), "nothing lost");
    assert_eq!(
        report.shed() + report.rejected_budget() + report.rejected_queue(),
        0
    );
    assert!(report.evictions() > 0, "resident bound below fleet size");
    assert!(report.restores() > 0, "spilled state comes back warm");
    // restored gate state keeps eating the oversampled duplicates: the
    // strict gate must hit despite constant eviction churn
    let hits: usize = report.per_stream.iter().map(|s| s.gate.strict_hits).sum();
    assert!(
        hits * 2 > report.decided(),
        "strict hits {hits} should dominate {} decided frames",
        report.decided()
    );
    assert!(report.p99_us() <= steady().config.deadline_us);
}

#[test]
fn bursty_is_regulated_by_the_token_bucket_not_the_queue() {
    let report = run(&hdc_serve::workload::bursty(), 2);
    assert!(report.rejected_budget() > 0, "bursts outrun the budget");
    assert_eq!(report.shed(), 0, "admitted frames are never late");
    assert_eq!(report.rejected_queue(), 0, "backpressure precedes queueing");
    assert_eq!(
        report.decided() + report.rejected_budget(),
        report.offered()
    );
}

#[test]
fn overload_degrades_by_shedding_with_bounded_decided_latency() {
    let w = hdc_serve::workload::overload();
    let report = run(&w, 2);
    assert!(report.shed() > 0, "2x load must shed");
    assert!(
        report.rejected_queue() > 0,
        "2x load must overflow the queue"
    );
    assert!(
        report.shed_rate() > 0.05,
        "shedding is substantial, not incidental"
    );
    assert!(report.queue_peak <= w.config.queue_cap);
    // the whole point of shedding: decided frames stay bounded even at 2x
    let bound = w.config.deadline_us + w.config.costs.full_run_us + w.config.costs.fault_in_us;
    assert!(
        report.p99_us() <= bound,
        "p99 {} exceeds the structural bound {bound}",
        report.p99_us()
    );
    assert!(*report.latencies_us.last().unwrap() <= bound);
}

/// Eviction + re-admission must be decision-equivalent to an uninterrupted
/// stream: replaying exactly the frames a stream had *served* (shed frames
/// never touch the recogniser) through a fresh recogniser must reproduce
/// the decisions in the trace — under the strict gate whether evicted state
/// was spilled and restored or discarded and cold-started, and under the
/// incremental gate (the one the serving fleet runs) when its cached masks
/// are spilled and restored. A cold start under a tolerance gate need not
/// reproduce a reused decision, so incremental without spill is left out.
///
/// With spill on, the spilled recogniser must also take the uninterrupted
/// stream's gate path counter for counter: each stream's served
/// `GateCounters` equal the replay's. `resident_cap = 1` makes every
/// interleaved frame a residency fault.
#[test]
fn eviction_and_readmission_are_decision_equivalent_to_an_uninterrupted_stream() {
    for (gate, spill, resident_cap) in [
        (TemporalConfig::strict(), true, 3),
        (TemporalConfig::strict(), false, 3),
        (TemporalConfig::incremental(), true, 3),
        (TemporalConfig::strict(), true, 1),
        (TemporalConfig::incremental(), true, 1),
    ] {
        let mut w = steady();
        w.config.gate = gate;
        w.config.spill = spill;
        // shrink so the replay stays cheap but eviction still churns
        w.arrivals.streams = 8;
        w.arrivals.frames_per_stream = 24;
        w.config.resident_cap = resident_cap;
        let report = run(&w, 2);
        assert!(report.evictions() > 0, "the property needs real churn");
        if spill {
            assert!(report.restores() > 0, "spilled state must come back");
        }

        let pipeline = golden_pipeline();
        let frame_sets = golden_frame_sets();
        let input = ServeInput {
            frame_sets: &frame_sets,
            arrivals: &w.arrivals,
        };
        let mut scratch = FrameScratch::new();
        for stream in 0..w.arrivals.streams {
            let mut decided = Vec::new();
            for e in &report.events {
                if e.stream as usize == stream {
                    if let EventKind::Decide { label, .. } = &e.kind {
                        decided.push((e.frame as usize, label.clone()));
                    }
                }
            }
            let mut rec = StreamRecognizer::new(w.config.gate);
            for (frame, served_label) in &decided {
                let fresh = rec
                    .recognize(&pipeline, &mut scratch, input.frame_for(stream, *frame))
                    .decision
                    .clone();
                assert_eq!(
                    &fresh, served_label,
                    "stream {stream} frame {frame} diverged \
                     ({:?}, spill={spill}, resident_cap={resident_cap})",
                    gate.mode
                );
            }
            if spill {
                assert_eq!(
                    report.per_stream[stream].gate,
                    rec.counters(),
                    "stream {stream} took a different gate path \
                     ({:?}, resident_cap={resident_cap})",
                    gate.mode
                );
            }
        }
    }
}
