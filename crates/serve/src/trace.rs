//! The canonical serving event trace and its golden digest.
//!
//! Every scheduling decision the server takes — admit, reject, shed, evict,
//! cold-start, restore, start, decide — is recorded as one [`ServeEvent`]
//! with its virtual timestamp. The trace is reduced to a canonical
//! one-line-per-event text form and hashed with the workspace's shared
//! FNV-1a/64 ([`hdc_raster::digest`]); the hex digest is what gets
//! committed under `tests/golden/serve_digests.txt` and compared in CI at
//! several worker counts (the same discipline as the scenario matrix).
//!
//! **Total order.** Shards emit events concurrently and service completions
//! are recorded out of arrival order, so the canonical form sorts by
//! `(time, stream, frame, kind rank)`. Each frame receives at most one
//! event of each kind and streams are globally numbered, so this key is
//! unique — the sort is a total order and the merged trace is independent
//! of shard interleaving and worker count by construction.

use hdc_runtime::Micros;
use std::fmt;
use std::fmt::Write as _;

/// What happened to a frame (or a resident stream) at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Frame passed admission and entered the shard queue.
    Admit,
    /// Frame rejected at admission: its stream outran its token-bucket
    /// budget (backpressure to the producer).
    RejectBudget,
    /// Frame rejected at admission: the shard queue was full.
    RejectQueue,
    /// Frame dropped at dequeue: service would have started `late_us` past
    /// its deadline — it never touched the pipeline.
    Shed {
        /// How far past the deadline service would have started.
        late_us: Micros,
    },
    /// The serving stream faulted in and the resident set was full: the
    /// least-recently-used idle stream `victim` lost its gate state.
    Evict {
        /// The stream whose resident gate state was discarded/spilled.
        victim: u32,
    },
    /// The serving stream faulted in with no spilled recogniser: fresh gate
    /// state (its next frame pays a full pipeline run).
    ColdStart,
    /// The serving stream faulted in and its spilled recogniser was moved
    /// back into a slot: warm gate state survives eviction.
    Restore,
    /// Service of the frame began.
    Start,
    /// Recognition completed: the decision (accepted sign label or `-`) and
    /// the arrival-to-completion latency.
    Decide {
        /// Accepted sign label, if any.
        label: Option<String>,
        /// Decision latency (queueing + service) in virtual microseconds.
        latency_us: Micros,
    },
}

impl EventKind {
    /// Rank used as the final sort-key component; also fixes the order of
    /// same-instant events of one frame (admit < … < start < decide).
    pub fn rank(&self) -> u8 {
        match self {
            EventKind::Admit => 0,
            EventKind::RejectBudget => 1,
            EventKind::RejectQueue => 2,
            EventKind::Shed { .. } => 3,
            EventKind::Evict { .. } => 4,
            EventKind::ColdStart => 5,
            EventKind::Restore => 6,
            EventKind::Start => 7,
            EventKind::Decide { .. } => 8,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Admit => write!(f, "admit"),
            EventKind::RejectBudget => write!(f, "reject-budget"),
            EventKind::RejectQueue => write!(f, "reject-queue"),
            EventKind::Shed { late_us } => write!(f, "shed late={late_us}"),
            EventKind::Evict { victim } => write!(f, "evict victim=s{victim:04}"),
            EventKind::ColdStart => write!(f, "cold-start"),
            EventKind::Restore => write!(f, "restore"),
            EventKind::Start => write!(f, "start"),
            EventKind::Decide { label, latency_us } => write!(
                f,
                "decide latency={latency_us} label={}",
                label.as_deref().unwrap_or("-")
            ),
        }
    }
}

/// One scheduling decision: time, stream, frame, what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeEvent {
    /// Virtual timestamp in microseconds.
    pub t_us: Micros,
    /// Global stream index.
    pub stream: u32,
    /// Frame index within the stream's arrival sequence.
    pub frame: u32,
    /// What happened.
    pub kind: EventKind,
}

impl ServeEvent {
    /// The unique total-order key (see the module docs).
    pub fn sort_key(&self) -> (Micros, u32, u32, u8) {
        (self.t_us, self.stream, self.frame, self.kind.rank())
    }

    /// The event's canonical one-line text form.
    pub fn canonical_line(&self) -> String {
        format!(
            "{:>12} s{:04} f{:04} {}",
            self.t_us, self.stream, self.frame, self.kind
        )
    }
}

/// Sorts `events` into the canonical total order in place.
pub fn sort_canonical(events: &mut [ServeEvent]) {
    events.sort_unstable_by_key(|e| e.sort_key());
}

/// Reduces a canonically sorted event list to the text the digest is
/// computed over (one line per event).
pub fn canonical_trace(events: &[ServeEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(out, "{}", e.canonical_line());
    }
    out
}

/// The 16-hex-character FNV-1a/64 digest of a canonical trace.
pub fn digest_hex(trace: &str) -> String {
    format!("{:016x}", hdc_raster::digest::fnv1a64(trace.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Micros, stream: u32, frame: u32, kind: EventKind) -> ServeEvent {
        ServeEvent {
            t_us: t,
            stream,
            frame,
            kind,
        }
    }

    #[test]
    fn sort_is_total_and_rank_breaks_same_instant_ties() {
        let mut events = vec![
            ev(
                5,
                0,
                0,
                EventKind::Decide {
                    label: None,
                    latency_us: 5,
                },
            ),
            ev(5, 0, 1, EventKind::Admit),
            ev(5, 0, 0, EventKind::Start),
            ev(3, 1, 0, EventKind::Admit),
        ];
        sort_canonical(&mut events);
        let kinds: Vec<u8> = events.iter().map(|e| e.kind.rank()).collect();
        assert_eq!(events[0].t_us, 3);
        // same (t, stream): frame 0's start+decide precede frame 1's admit
        assert_eq!(kinds[1..], [EventKind::Start.rank(), 8, 0]);
    }

    #[test]
    fn canonical_lines_are_fixed_width_and_stable() {
        let e = ev(
            123,
            7,
            2,
            EventKind::Decide {
                label: Some("Yes".into()),
                latency_us: 456,
            },
        );
        assert_eq!(
            e.canonical_line(),
            "         123 s0007 f0002 decide latency=456 label=Yes"
        );
        assert_eq!(
            ev(1, 2, 3, EventKind::Evict { victim: 9 }).canonical_line(),
            "           1 s0002 f0003 evict victim=s0009"
        );
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = canonical_trace(&[ev(1, 0, 0, EventKind::Admit)]);
        let b = canonical_trace(&[ev(2, 0, 0, EventKind::Admit)]);
        assert_eq!(digest_hex(&a), digest_hex(&a));
        assert_ne!(digest_hex(&a), digest_hex(&b));
        // empty-string FNV-1a/64 offset basis
        assert_eq!(digest_hex(""), "cbf29ce484222325");
    }
}
