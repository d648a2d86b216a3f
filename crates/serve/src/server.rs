//! The sharded deterministic serving scheduler.
//!
//! **Model.** Streams hash to `shards` independent schedulers
//! (`stream % shards` — the serving analogue of consistent hashing). Each
//! shard owns one virtual service unit (a core of the modeled station), a
//! bounded FIFO admission queue, per-stream token buckets, and a
//! capacity-bounded LRU set of resident [`StreamRecognizer`] gate states.
//! The shard replays its streams' seeded arrivals in virtual-time order:
//!
//! ```text
//!            ┌ budget empty ──────────► reject-budget (backpressure)
//! arrival ───┤ queue full ────────────► reject-queue
//!            └ else ──────────────────► admit → FIFO queue
//!
//!            ┌ start > arrival+deadline ► shed (never touches the pipeline)
//! dequeue ───┤ gate state not resident ─► [evict LRU idle → spill?]
//!            │                            cold-start | restore
//!            └ serve ───────────────────► start … decide (virtual cost by
//!                                          gate outcome) → latency sample
//! ```
//!
//! **Why this is deterministic at any `--threads N`.** The shard count is a
//! *config* property; worker threads only decide which shards run
//! concurrently. Each shard's outcome is a pure function of its own streams
//! (arrival times from per-stream `SplitMix64`, service costs from the
//! virtual [`CostModel`], recognition from the deterministic pipeline), the
//! [`hdc_runtime::WorkPool`] reassembles shard outcomes by index, and the
//! merged event trace is sorted by a unique total-order key — so the bytes
//! of the trace, and hence its golden digest, cannot depend on scheduling.
//!
//! **What is real and what is virtual.** Recognition is real: every served
//! frame runs through the exact [`RecognitionPipeline`] gate ladder, and
//! decide events carry real decisions. Time is virtual: queueing/service
//! delays come from the cost model, so latency percentiles measure the
//! *scheduling* behaviour (they are reproducible), while `bench_serve`
//! separately reports the real wall-clock cost of driving the whole thing.

use crate::arrivals::ArrivalSpec;
use crate::trace::{sort_canonical, EventKind, ServeEvent};
use hdc_raster::GrayImage;
use hdc_runtime::{Micros, VirtualClock, WorkPool};
use hdc_vision::temporal::{GateCheckpoint, GateCounters, StreamRecognizer, TemporalConfig};
use hdc_vision::{FrameScratch, RecognitionPipeline};
use std::collections::{HashMap, VecDeque};

/// Virtual service cost (microseconds) per gate outcome, plus the fixed
/// overheads of shedding and residency fault-in. Defaults approximate the
/// measured shape of the VGA pipeline (BENCH_stream.json): a full run costs
/// ~25× a strict identity hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Full pipeline run (every gate missed, or gating off).
    pub full_run_us: Micros,
    /// Byte-identical reuse (strict gate / identity pre-check).
    pub strict_hit_us: Micros,
    /// Mask-tolerance reuse (incremental gate: packed binarise + mask
    /// diff, no geometric stages).
    pub incremental_hit_us: Micros,
    /// Signature recomputed, SAX search skipped.
    pub sig_shortcut_us: Micros,
    /// Dropping an already-late frame at dequeue.
    pub shed_us: Micros,
    /// Residency miss: installing (cold or restored) gate state.
    pub fault_in_us: Micros,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            full_run_us: 420,
            strict_hit_us: 18,
            incremental_hit_us: 60,
            sig_shortcut_us: 210,
            shed_us: 2,
            fault_in_us: 30,
        }
    }
}

/// Per-stream admission budget: a token bucket holding up to `burst`
/// frames, refilling at `fps` frames per virtual second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamBudget {
    /// Sustained admission rate in frames per second (must be ≥ 1).
    pub fps: u64,
    /// Burst allowance in frames (bucket capacity, must be ≥ 1).
    pub burst: u64,
}

/// Serving-layer configuration. Every field participates in the golden
/// digest (changing any of them is a behavioural change).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Scheduler shard count (fixed by config — NOT the worker count).
    pub shards: usize,
    /// Admission queue bound per shard.
    pub queue_cap: usize,
    /// Resident gate-state bound per shard (LRU beyond it).
    pub resident_cap: usize,
    /// Frame deadline: service starting later than `arrival + deadline_us`
    /// sheds the frame.
    pub deadline_us: Micros,
    /// Per-stream admission budget.
    pub budget: StreamBudget,
    /// Virtual service costs.
    pub costs: CostModel,
    /// Temporal gate mode for the resident recognisers.
    pub gate: TemporalConfig,
    /// Spill evicted gate state to a [`GateCheckpoint`] and restore on
    /// re-admission (`false` = eviction discards state; re-admission
    /// cold-starts).
    pub spill: bool,
}

impl ServeConfig {
    fn validate(&self) {
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.queue_cap >= 1, "need a positive queue bound");
        assert!(self.resident_cap >= 1, "need a positive resident bound");
        assert!(self.budget.fps >= 1, "budget fps must be positive");
        assert!(self.budget.burst >= 1, "budget burst must be positive");
    }
}

/// The frames behind a workload: `stream` serves frame `f` from
/// `frame_sets[stream % frame_sets.len()][f % set.len()]`. Distinct streams
/// may share pixel content (many cameras, one scene class) without sharing
/// any scheduler or gate state — which is what lets capacity searches scale
/// to thousands of streams without rendering thousands of distinct sets.
#[derive(Debug, Clone, Copy)]
pub struct ServeInput<'a> {
    /// The distinct frame sequences streams cycle through.
    pub frame_sets: &'a [Vec<GrayImage>],
    /// When each stream's frames arrive.
    pub arrivals: &'a ArrivalSpec,
}

impl ServeInput<'_> {
    fn validate(&self) {
        assert!(!self.frame_sets.is_empty(), "need at least one frame set");
        assert!(
            self.frame_sets.iter().all(|s| !s.is_empty()),
            "every frame set needs at least one frame"
        );
    }

    /// The frame stream `stream` offers as its `frame`-th arrival.
    pub fn frame_for(&self, stream: usize, frame: usize) -> &GrayImage {
        let set = &self.frame_sets[stream % self.frame_sets.len()];
        &set[frame % set.len()]
    }
}

/// Per-stream serving outcome counters. Conservation invariants (pinned by
/// the property suite):
/// `offered = admitted + rejected_budget + rejected_queue` and
/// `admitted = decided + shed` (the queue fully drains before the report
/// exists, so nothing is left in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamServeStats {
    /// Frames the arrival process offered.
    pub offered: usize,
    /// Frames past admission (budget + queue bound).
    pub admitted: usize,
    /// Frames rejected: stream outran its token-bucket budget.
    pub rejected_budget: usize,
    /// Frames rejected: shard queue full.
    pub rejected_queue: usize,
    /// Admitted frames dropped at dequeue for missing their deadline.
    pub shed: usize,
    /// Admitted frames that completed recognition (decision produced,
    /// accepted or not).
    pub decided: usize,
    /// Decided frames whose decision accepted a sign label.
    pub accepted: usize,
    /// Times this stream's resident gate state was evicted.
    pub evicted: usize,
    /// Residency faults that installed fresh (cold) gate state.
    pub cold_starts: usize,
    /// Residency faults that restored a spilled checkpoint.
    pub restores: usize,
    /// How the temporal gate resolved this stream's served frames.
    pub gate: GateCounters,
    /// Worst decision latency of this stream's decided frames.
    pub max_latency_us: Micros,
}

/// The serving outcome: per-stream counters, the canonical event trace,
/// and the decision-latency distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-stream counters, indexed by global stream id.
    pub per_stream: Vec<StreamServeStats>,
    /// The canonical (totally ordered) event trace.
    pub events: Vec<ServeEvent>,
    /// Decision latencies of all decided frames, sorted ascending.
    pub latencies_us: Vec<Micros>,
    /// Deepest any shard queue got.
    pub queue_peak: usize,
    /// Shard count that produced the report.
    pub shards: usize,
    /// Worker count that drove the shards (does not affect the trace).
    pub workers: usize,
}

macro_rules! stat_total {
    ($(#[$doc:meta])* $name:ident, $field:ident) => {
        $(#[$doc])*
        pub fn $name(&self) -> usize {
            self.per_stream.iter().map(|s| s.$field).sum()
        }
    };
}

impl ServeReport {
    stat_total!(
        /// Total frames offered by the arrival process.
        offered, offered
    );
    stat_total!(
        /// Total frames past admission.
        admitted, admitted
    );
    stat_total!(
        /// Total budget rejections (backpressure).
        rejected_budget, rejected_budget
    );
    stat_total!(
        /// Total queue-full rejections.
        rejected_queue, rejected_queue
    );
    stat_total!(
        /// Total deadline sheds.
        shed, shed
    );
    stat_total!(
        /// Total decided frames.
        decided, decided
    );
    stat_total!(
        /// Total decided frames with an accepted sign label.
        accepted, accepted
    );
    stat_total!(
        /// Total gate-state evictions.
        evictions, evicted
    );
    stat_total!(
        /// Total cold residency faults.
        cold_starts, cold_starts
    );
    stat_total!(
        /// Total checkpoint restores.
        restores, restores
    );

    /// Shed fraction of admitted frames (0 when nothing was admitted).
    pub fn shed_rate(&self) -> f64 {
        let admitted = self.admitted();
        if admitted == 0 {
            0.0
        } else {
            self.shed() as f64 / admitted as f64
        }
    }

    /// Nearest-rank percentile of the decision-latency distribution
    /// (`q` in (0, 100]; 0 when nothing was decided).
    pub fn latency_percentile_us(&self, q: f64) -> Micros {
        assert!(q > 0.0 && q <= 100.0, "percentile out of range: {q}");
        if self.latencies_us.is_empty() {
            return 0;
        }
        let n = self.latencies_us.len();
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        self.latencies_us[rank.clamp(1, n) - 1]
    }

    /// Median decision latency.
    pub fn p50_us(&self) -> Micros {
        self.latency_percentile_us(50.0)
    }

    /// 95th-percentile decision latency.
    pub fn p95_us(&self) -> Micros {
        self.latency_percentile_us(95.0)
    }

    /// 99th-percentile decision latency.
    pub fn p99_us(&self) -> Micros {
        self.latency_percentile_us(99.0)
    }

    /// The canonical trace text (one line per event).
    pub fn canonical_trace(&self) -> String {
        crate::trace::canonical_trace(&self.events)
    }

    /// The FNV-1a/64 golden digest of the canonical trace.
    pub fn digest(&self) -> String {
        crate::trace::digest_hex(&self.canonical_trace())
    }
}

/// A frame waiting in a shard's admission queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    stream: usize,
    frame: u32,
    arrival_us: Micros,
}

/// One resident gate state.
struct Resident {
    stream: usize,
    last_used_us: Micros,
    rec: StreamRecognizer,
}

/// Everything one shard accumulates while replaying its arrivals.
struct ShardState<'a> {
    config: &'a ServeConfig,
    clock: VirtualClock,
    /// When the shard's service unit frees up.
    free_at: Micros,
    queue: VecDeque<Queued>,
    /// µtokens (1 frame = 1_000_000) and last-refill time per stream.
    buckets: HashMap<usize, (u64, Micros)>,
    resident: Vec<Resident>,
    spilled: HashMap<usize, GateCheckpoint>,
    stats: HashMap<usize, StreamServeStats>,
    events: Vec<ServeEvent>,
    latencies: Vec<Micros>,
    queue_peak: usize,
}

/// One µtoken-scaled frame.
const TOKEN: u64 = 1_000_000;

impl<'a> ShardState<'a> {
    fn new(config: &'a ServeConfig) -> Self {
        ShardState {
            config,
            clock: VirtualClock::new(),
            free_at: 0,
            queue: VecDeque::new(),
            buckets: HashMap::new(),
            resident: Vec::new(),
            spilled: HashMap::new(),
            stats: HashMap::new(),
            events: Vec::new(),
            latencies: Vec::new(),
            queue_peak: 0,
        }
    }

    fn push_event(&mut self, t_us: Micros, stream: usize, frame: u32, kind: EventKind) {
        self.events.push(ServeEvent {
            t_us,
            stream: stream as u32,
            frame,
            kind,
        });
    }

    /// Token-bucket admission check for one frame of `stream` at `now`.
    fn budget_admits(&mut self, stream: usize, now: Micros) -> bool {
        let budget = self.config.budget;
        let (tokens, last) = self
            .buckets
            .entry(stream)
            .or_insert((budget.burst * TOKEN, 0));
        *tokens = (*tokens + (now - *last) * budget.fps).min(budget.burst * TOKEN);
        *last = now;
        if *tokens >= TOKEN {
            *tokens -= TOKEN;
            true
        } else {
            false
        }
    }

    /// One arrival: budget check, queue-bound check, admit.
    fn offer(&mut self, t_us: Micros, stream: usize, frame: u32) {
        self.clock.advance_to(t_us);
        self.stats.entry(stream).or_default().offered += 1;
        if !self.budget_admits(stream, t_us) {
            self.stats.entry(stream).or_default().rejected_budget += 1;
            self.push_event(t_us, stream, frame, EventKind::RejectBudget);
            return;
        }
        if self.queue.len() >= self.config.queue_cap {
            self.stats.entry(stream).or_default().rejected_queue += 1;
            self.push_event(t_us, stream, frame, EventKind::RejectQueue);
            return;
        }
        self.stats.entry(stream).or_default().admitted += 1;
        self.push_event(t_us, stream, frame, EventKind::Admit);
        self.queue.push_back(Queued {
            stream,
            frame,
            arrival_us: t_us,
        });
        self.queue_peak = self.queue_peak.max(self.queue.len());
    }

    /// Ensures `stream`'s gate state is resident at `now`, evicting the LRU
    /// idle stream if the set is full. Returns the slot index.
    ///
    /// The eviction invariant — never evict a stream with an in-flight
    /// frame — is structural here: a shard serves one frame at a time and
    /// faults residency in only at service start, when the sole in-flight
    /// stream is the one faulting in (which is not resident, so it cannot
    /// be its own victim).
    fn fault_in(&mut self, stream: usize, frame: u32, now: Micros) -> (usize, bool) {
        if let Some(i) = self.resident.iter().position(|r| r.stream == stream) {
            self.resident[i].last_used_us = now;
            return (i, false);
        }
        let slot = if self.resident.len() < self.config.resident_cap {
            self.resident.push(Resident {
                stream,
                last_used_us: now,
                rec: StreamRecognizer::new(self.config.gate),
            });
            self.resident.len() - 1
        } else {
            // LRU victim, smallest stream id on ties — deterministic.
            let victim_slot = self
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| (r.last_used_us, r.stream))
                .map(|(i, _)| i)
                .expect("resident_cap >= 1");
            let victim = self.resident[victim_slot].stream;
            debug_assert_ne!(victim, stream, "a stream cannot evict itself");
            if self.config.spill {
                let ck = self.resident[victim_slot].rec.checkpoint();
                self.spilled.insert(victim, ck);
            }
            self.stats.entry(victim).or_default().evicted += 1;
            self.push_event(
                now,
                stream,
                frame,
                EventKind::Evict {
                    victim: victim as u32,
                },
            );
            self.resident[victim_slot].stream = stream;
            self.resident[victim_slot].last_used_us = now;
            self.resident[victim_slot].rec.reset();
            victim_slot
        };
        if let Some(ck) = self.spilled.remove(&stream) {
            self.resident[slot].rec.restore(&ck);
            self.stats.entry(stream).or_default().restores += 1;
            self.push_event(now, stream, frame, EventKind::Restore);
        } else {
            self.stats.entry(stream).or_default().cold_starts += 1;
            self.push_event(now, stream, frame, EventKind::ColdStart);
        }
        (slot, true)
    }

    /// Serves queued frames whose service would start at or before `limit`
    /// (shedding the ones already past their deadline).
    fn drain_until(
        &mut self,
        limit: Micros,
        pipeline: &RecognitionPipeline,
        scratch: &mut FrameScratch,
        input: &ServeInput<'_>,
    ) {
        while let Some(&head) = self.queue.front() {
            let start = self.free_at.max(head.arrival_us);
            if start > limit {
                break;
            }
            self.queue.pop_front();
            let deadline = head.arrival_us + self.config.deadline_us;
            if start > deadline {
                // late: drop before it touches the pipeline
                self.stats.entry(head.stream).or_default().shed += 1;
                self.push_event(
                    start,
                    head.stream,
                    head.frame,
                    EventKind::Shed {
                        late_us: start - deadline,
                    },
                );
                self.free_at = start + self.config.costs.shed_us;
                continue;
            }
            let (slot, faulted) = self.fault_in(head.stream, head.frame, start);
            self.push_event(start, head.stream, head.frame, EventKind::Start);

            let frame_px = input.frame_for(head.stream, head.frame as usize);
            let rec = &mut self.resident[slot].rec;
            let before = rec.counters();
            let decision = rec.recognize(pipeline, scratch, frame_px).decision.clone();
            let outcome = rec.counters().since(&before);
            debug_assert_eq!(outcome.frames(), 1);

            let costs = self.config.costs;
            let mut cost = if outcome.full_runs == 1 {
                costs.full_run_us
            } else if outcome.strict_hits == 1 {
                costs.strict_hit_us
            } else if outcome.incremental_hits == 1 {
                costs.incremental_hit_us
            } else {
                costs.sig_shortcut_us
            };
            if faulted {
                cost += costs.fault_in_us;
            }
            let done = start + cost;
            let latency = done - head.arrival_us;
            self.free_at = done;
            self.resident[slot].last_used_us = done;

            let stats = self.stats.entry(head.stream).or_default();
            stats.decided += 1;
            stats.gate = stats.gate.plus(&outcome);
            stats.max_latency_us = stats.max_latency_us.max(latency);
            if decision.is_some() {
                stats.accepted += 1;
            }
            self.latencies.push(latency);
            self.push_event(
                done,
                head.stream,
                head.frame,
                EventKind::Decide {
                    label: decision,
                    latency_us: latency,
                },
            );
        }
    }
}

/// What one shard hands back to the merger.
struct ShardOutcome {
    per_stream: Vec<(usize, StreamServeStats)>,
    events: Vec<ServeEvent>,
    latencies: Vec<Micros>,
    queue_peak: usize,
}

/// Replays one shard's arrivals through its scheduler.
fn run_shard(
    pipeline: &RecognitionPipeline,
    input: &ServeInput<'_>,
    config: &ServeConfig,
    shard: usize,
    scratch: &mut FrameScratch,
) -> ShardOutcome {
    let locals: Vec<usize> = (shard..input.arrivals.streams)
        .step_by(config.shards)
        .collect();
    let mut arrivals: Vec<(Micros, usize, u32)> = Vec::new();
    for &s in &locals {
        for (f, &t) in input.arrivals.stream_arrivals(s).iter().enumerate() {
            arrivals.push((t, s, f as u32));
        }
    }
    arrivals.sort_unstable();

    let mut st = ShardState::new(config);
    for &(t, s, f) in &arrivals {
        st.drain_until(t, pipeline, scratch, input);
        st.offer(t, s, f);
    }
    st.drain_until(Micros::MAX, pipeline, scratch, input);

    let per_stream = locals
        .iter()
        .map(|&s| (s, st.stats.get(&s).copied().unwrap_or_default()))
        .collect();
    ShardOutcome {
        per_stream,
        events: st.events,
        latencies: st.latencies,
        queue_peak: st.queue_peak,
    }
}

/// Serves the workload: replays every shard's seeded arrivals through its
/// deterministic scheduler (shards fan out over `pool`) and merges the
/// outcomes into one canonical report. The report — counters, latencies,
/// trace, digest — is byte-identical at every worker count.
///
/// # Panics
/// Panics on an invalid config (zero shards/bounds/budget) or empty frame
/// sets.
pub fn serve(
    pipeline: &RecognitionPipeline,
    input: &ServeInput<'_>,
    config: &ServeConfig,
    pool: &WorkPool,
) -> ServeReport {
    config.validate();
    input.validate();
    let shard_ids: Vec<usize> = (0..config.shards).collect();
    let outcomes = pool.map_indexed(
        &shard_ids,
        |_| FrameScratch::new(),
        |scratch, _, &shard| run_shard(pipeline, input, config, shard, scratch),
    );

    let mut per_stream = vec![StreamServeStats::default(); input.arrivals.streams];
    let mut events = Vec::new();
    let mut latencies = Vec::new();
    let mut queue_peak = 0;
    for outcome in outcomes {
        for (stream, stats) in outcome.per_stream {
            per_stream[stream] = stats;
        }
        events.extend(outcome.events);
        latencies.extend(outcome.latencies);
        queue_peak = queue_peak.max(outcome.queue_peak);
    }
    sort_canonical(&mut events);
    latencies.sort_unstable();
    ServeReport {
        per_stream,
        events,
        latencies_us: latencies,
        queue_peak,
        shards: config.shards,
        workers: pool.workers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn config() -> ServeConfig {
        ServeConfig {
            shards: 2,
            queue_cap: 8,
            resident_cap: 2,
            deadline_us: 50_000,
            budget: StreamBudget { fps: 30, burst: 2 },
            costs: CostModel::default(),
            gate: TemporalConfig::strict(),
            spill: true,
        }
    }

    #[test]
    fn token_bucket_admits_bursts_and_refills_exactly() {
        let cfg = config();
        let mut st = ShardState::new(&cfg);
        // burst allowance: exactly `burst` back-to-back frames
        assert!(st.budget_admits(0, 0));
        assert!(st.budget_admits(0, 0));
        assert!(!st.budget_admits(0, 0), "burst of 2 exhausted");
        // at 30 fps one token takes ceil(1e6/30) = 33_334 us to accrue
        assert!(!st.budget_admits(0, 33_333));
        assert!(st.budget_admits(0, 33_334));
        // streams do not share buckets
        assert!(st.budget_admits(1, 0));
    }

    #[test]
    fn bucket_never_exceeds_its_burst_cap() {
        let cfg = config();
        let mut st = ShardState::new(&cfg);
        st.budget_admits(0, 0);
        // a very long idle refills to the cap, not beyond it
        for i in 0..2 {
            assert!(
                st.budget_admits(0, 10_000_000 + i),
                "capped burst frame {i}"
            );
        }
        assert!(
            !st.budget_admits(0, 10_000_001),
            "cap is burst, not burst+idle"
        );
    }

    fn report_with_latencies(latencies: Vec<Micros>) -> ServeReport {
        ServeReport {
            per_stream: Vec::new(),
            events: Vec::new(),
            latencies_us: latencies,
            queue_peak: 0,
            shards: 1,
            workers: 1,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let r = report_with_latencies((1..=100).collect());
        assert_eq!(r.p50_us(), 50);
        assert_eq!(r.p95_us(), 95);
        assert_eq!(r.p99_us(), 99);
        assert_eq!(r.latency_percentile_us(100.0), 100);
        assert_eq!(r.latency_percentile_us(0.5), 1);
        let one = report_with_latencies(vec![7]);
        assert_eq!(one.p50_us(), 7);
        assert_eq!(one.p99_us(), 7);
        assert_eq!(report_with_latencies(Vec::new()).p99_us(), 0);
    }

    #[test]
    fn frame_mapping_cycles_sets_and_frames() {
        let sets = vec![
            vec![GrayImage::new(2, 2), GrayImage::new(3, 3)],
            vec![GrayImage::new(4, 4)],
        ];
        let arrivals = ArrivalSpec {
            streams: 3,
            frames_per_stream: 4,
            period_us: 1000,
            jitter_us: 0,
            burst: None,
            seed: 1,
        };
        let input = ServeInput {
            frame_sets: &sets,
            arrivals: &arrivals,
        };
        assert_eq!(input.frame_for(0, 0).width(), 2);
        assert_eq!(input.frame_for(0, 1).width(), 3);
        assert_eq!(input.frame_for(0, 2).width(), 2, "frames cycle");
        assert_eq!(input.frame_for(1, 5).width(), 4, "stream 1 -> set 1");
        assert_eq!(input.frame_for(2, 1).width(), 3, "sets cycle");
    }

    #[test]
    fn a_tiny_serve_run_conserves_every_frame() {
        let pipeline = workload::golden_pipeline();
        let frame_sets = workload::golden_frame_sets();
        let arrivals = ArrivalSpec {
            streams: 6,
            frames_per_stream: 12,
            period_us: 33_333,
            jitter_us: 1_000,
            burst: None,
            seed: 42,
        };
        let input = ServeInput {
            frame_sets: &frame_sets,
            arrivals: &arrivals,
        };
        let pool = WorkPool::with_threads(Some(2));
        let report = serve(&pipeline, &input, &config(), &pool);
        assert_eq!(report.offered(), arrivals.offered());
        assert_eq!(
            report.offered(),
            report.admitted() + report.rejected_budget() + report.rejected_queue()
        );
        assert_eq!(report.admitted(), report.decided() + report.shed());
        assert_eq!(report.decided(), report.latencies_us.len());
        assert!(report.accepted() > 0, "held signs should be recognised");
        // every decided frame resolved through the gate exactly once
        let gate_frames: usize = report.per_stream.iter().map(|s| s.gate.frames()).sum();
        assert_eq!(gate_frames, report.decided());
        assert_eq!(report.digest().len(), 16);
    }
}
