//! Datalink benchmark: endpoint throughput and retransmit overhead.
//!
//! Two measurements over one `hdc-link` [`Duplex`] — the same link every
//! session datalink, cohort relay and fleet drone runs:
//!
//! 1. **Processing throughput** — how many payloads per wall-clock second
//!    one sender/receiver pair pushes through the full tick → channel →
//!    handle → ack cycle (the CPU cost of the protocol machinery, not the
//!    simulated airtime), over `REPEATS` timed runs of each transfer,
//!    reported as median/min/max;
//! 2. **Retransmit overhead** — at 0%, 5% and 20% per-frame drop (applied
//!    to both directions), the wire cost of reliable delivery: retransmits
//!    per payload, total frames per delivered payload, and the simulated
//!    completion time of a fixed transfer.
//!
//! Every repeat of a transfer must reproduce its counts and simulated time
//! exactly; only the wall time may differ.
//!
//! The link layer is single-threaded by design (one endpoint pair per
//! drone), so the report's `execution` block records one thread.
//!
//! Usage: `cargo run --release -p hdc-bench --bin bench_link -- [--smoke]
//! [out.json]` (default `BENCH_link.json`; `--smoke` sends 500 payloads per
//! transfer instead of 50 000).

use hdc_bench::report::{num, BenchArgs, Json, Spread, Table};
use hdc_link::{Duplex, EndpointConfig, LeaseConfig, LinkQuality};
use std::time::Instant;

/// Simulation step: 50 Hz, matching the session loop's frame cadence.
const DT: f64 = 0.02;

/// Timed runs of each transfer.
const REPEATS: usize = 5;

/// What one transfer put on the wire: a pure function of its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TransferRun {
    label: &'static str,
    drop_pct: f64,
    payloads: u64,
    retransmits: u64,
    acks: u64,
    heartbeats: u64,
    sim_seconds: f64,
}

impl TransferRun {
    fn frames_on_wire(&self) -> u64 {
        self.payloads + self.retransmits + self.acks + self.heartbeats
    }

    fn overhead(&self) -> f64 {
        self.frames_on_wire() as f64 / self.payloads as f64
    }

    fn retransmit_rate(&self) -> f64 {
        self.retransmits as f64 / self.payloads as f64
    }
}

/// Drives `count` payloads from side `a` to side `b` of a symmetric lossy
/// link until every payload is delivered and acknowledged.
fn transfer(label: &'static str, drop_p: f64, count: u64, seed: u64) -> TransferRun {
    let quality = LinkQuality::clean().with_drop(drop_p);
    let seeds = [seed, seed ^ 0xacc, seed, seed ^ 0x5ee5];
    let (endpoint, lease) = (EndpointConfig::default(), LeaseConfig::default());
    let mut link: Duplex<u64, u64> = Duplex::new(endpoint, lease, quality, quality, seeds, 0.0);

    let mut now = 0.0;
    let mut queued = 0u64;
    let mut delivered = 0u64;
    // cap well past any plausible completion so a regression fails loudly
    let deadline = (count as f64 * DT) * 50.0 + 600.0;
    while (delivered < count || !link.is_quiet()) && now < deadline {
        // one fresh payload per step until the whole transfer is queued,
        // flow-controlled to stay inside the peer's receive window
        if queued < count && link.a.in_flight() < endpoint.window as usize / 2 {
            link.a.send(now, queued);
            queued += 1;
        }
        delivered += link.pump(now).to_b.len() as u64;
        now += DT;
    }
    assert_eq!(
        delivered, count,
        "{label}: transfer did not complete within the simulated deadline"
    );

    let (t, r) = (link.a.stats(), link.b.stats());
    TransferRun {
        label,
        drop_pct: drop_p * 100.0,
        payloads: count,
        retransmits: t.retransmits,
        acks: r.acks_sent,
        heartbeats: t.heartbeats_sent + r.heartbeats_sent,
        sim_seconds: now,
    }
}

/// Times `REPEATS` runs of one transfer, asserting that every repeat puts
/// the same frames on the wire; returns the run and its payloads per
/// wall-clock second.
fn run_transfer(label: &'static str, drop_p: f64, count: u64, seed: u64) -> (TransferRun, Spread) {
    let mut first = None;
    let mut throughput = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let started = Instant::now();
        let run = transfer(label, drop_p, count, seed);
        throughput.push(count as f64 / started.elapsed().as_secs_f64().max(1e-9));
        assert_eq!(
            *first.get_or_insert(run),
            run,
            "{label}: a repeat changed the transfer"
        );
    }
    (first.expect("at least one repeat"), Spread::of(throughput))
}

fn main() {
    let args = BenchArgs::from_env("BENCH_link.json", false);
    let count: u64 = if args.smoke { 500 } else { 50_000 };
    println!(
        "datalink: {count} payloads per transfer at {:.0} Hz, loss sweep 0/5/20%, \
         {REPEATS} repeats{}",
        1.0 / DT,
        if args.smoke { " [smoke]" } else { "" }
    );

    let runs = [
        run_transfer("clean", 0.0, count, 0x42),
        run_transfer("drop-5", 0.05, count, 0x42),
        run_transfer("drop-20", 0.20, count, 0x42),
    ];

    let mut table = Table::new([
        "link",
        "drop %",
        "payloads",
        "retransmits",
        "frames/payload",
        "sim s",
        "payloads/s (wall) median [min, max]",
    ]);
    for (r, throughput) in &runs {
        table.row([
            r.label.to_string(),
            num(r.drop_pct, 0),
            r.payloads.to_string(),
            r.retransmits.to_string(),
            num(r.overhead(), 3),
            num(r.sim_seconds, 1),
            throughput.cell(0),
        ]);
    }
    println!("{}", table.render());

    // sanity: reliability must not cost retransmits on a clean link, and
    // overhead must grow monotonically with loss
    let [(clean, _), (drop5, _), (drop20, _)] = &runs;
    assert_eq!(clean.retransmits, 0, "clean link must not retransmit");
    assert!(
        clean.overhead() <= drop5.overhead() && drop5.overhead() <= drop20.overhead(),
        "wire overhead must grow with loss"
    );

    let transfers = runs.iter().map(|(r, throughput)| {
        Json::Object(vec![
            ("label", r.label.into()),
            ("drop_pct", Json::Num(r.drop_pct, 0)),
            ("payloads", r.payloads.into()),
            ("retransmits", r.retransmits.into()),
            ("acks", r.acks.into()),
            ("heartbeats", r.heartbeats.into()),
            ("frames_on_wire", r.frames_on_wire().into()),
            ("overhead_frames_per_payload", Json::Num(r.overhead(), 3)),
            ("retransmit_rate", Json::Num(r.retransmit_rate(), 4)),
            ("sim_seconds", Json::Num(r.sim_seconds, 1)),
            ("throughput_payloads_per_s", Json::spread(throughput, 0)),
        ])
    });
    args.write_report(
        1,
        REPEATS,
        vec![
            ("dt_s", Json::Num(DT, 2)),
            ("repeats", REPEATS.into()),
            ("transfers", Json::Array(transfers.collect())),
        ],
    );
}
