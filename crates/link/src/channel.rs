//! The seeded deterministic lossy channel.
//!
//! A [`LossyChannel`] carries opaque messages from a sender to a receiver
//! through a configurable impairment model ([`LinkQuality`]): per-message
//! drop and duplication, a fixed base latency, uniform latency jitter (which
//! bounds how far a message can be reordered past its successors), and one
//! scheduled partition window during which every transmission is lost.
//!
//! **Determinism discipline.** Every per-message decision — drop, latency
//! jitter, duplication, the duplicate's jitter — is drawn from a SplitMix64
//! stream derived from `(channel seed, message index)`. The schedule is
//! therefore a pure function of the sequence of `send` calls: no global RNG,
//! no dependence on how many other channels exist or in what order the
//! simulation pumps them. Two runs that offer the same messages at the same
//! times observe byte-identical delivery schedules at any worker count.

use hdc_runtime::{SplitMix64, GOLDEN_GAMMA};

/// The impairment model of one directed channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Per-message loss probability in `[0, 1]`.
    pub drop_p: f64,
    /// Per-message duplication probability in `[0, 1]` (the copy takes an
    /// independently jittered path).
    pub dup_p: f64,
    /// Base one-way latency, seconds.
    pub latency_s: f64,
    /// Uniform extra latency in `[0, jitter_s)` per delivered copy. Non-zero
    /// jitter reorders messages; its magnitude bounds the reordering depth
    /// (a message can arrive at most `jitter_s` later than an ideal path).
    pub jitter_s: f64,
    /// Start of the scheduled partition window, seconds.
    pub partition_at_s: f64,
    /// Length of the partition window, seconds (`0` disables it). Every
    /// transmission offered while the window is open is lost.
    pub partition_for_s: f64,
}

impl LinkQuality {
    /// A clean short-haul link: 50 ms latency, no impairments.
    pub fn clean() -> Self {
        LinkQuality {
            drop_p: 0.0,
            dup_p: 0.0,
            latency_s: 0.05,
            jitter_s: 0.0,
            partition_at_s: 0.0,
            partition_for_s: 0.0,
        }
    }

    /// This quality with per-message loss probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// This quality with per-message duplication probability `p`.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// This quality with uniform latency jitter (reordering) up to `s`.
    pub fn with_jitter(mut self, s: f64) -> Self {
        self.jitter_s = s;
        self
    }

    /// This quality with a partition window `[at, at + for_s)`.
    pub fn with_partition(mut self, at: f64, for_s: f64) -> Self {
        self.partition_at_s = at;
        self.partition_for_s = for_s;
        self
    }

    /// Whether the scheduled partition is open at time `t`.
    pub fn in_partition(&self, t: f64) -> bool {
        self.partition_for_s > 0.0
            && t >= self.partition_at_s
            && t < self.partition_at_s + self.partition_for_s
    }
}

/// What a channel did with the traffic offered to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Messages offered by the sender.
    pub offered: u64,
    /// Messages lost (random drop or partition).
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Copies handed to the receiver.
    pub delivered: u64,
}

/// One in-flight copy: `(deliver_at, enqueue tiebreak, payload)`.
#[derive(Debug, Clone)]
struct InFlight<T> {
    deliver_at: f64,
    tie: u64,
    payload: T,
}

/// A directed, seeded, deterministic lossy channel. See the module docs for
/// the impairment and determinism model.
#[derive(Debug, Clone)]
pub struct LossyChannel<T> {
    quality: LinkQuality,
    seed: u64,
    /// Messages offered so far — the per-message stream index.
    offered: u64,
    /// Enqueue counter breaking delivery ties deterministically.
    tie: u64,
    in_flight: Vec<InFlight<T>>,
    stats: ChannelStats,
}

impl<T: Clone> LossyChannel<T> {
    /// A channel with the given impairment model and decision seed.
    pub fn new(quality: LinkQuality, seed: u64) -> Self {
        LossyChannel {
            quality,
            seed,
            offered: 0,
            tie: 0,
            in_flight: Vec::new(),
            stats: ChannelStats::default(),
        }
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Whether nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Earliest time any in-flight copy becomes deliverable — the channel's
    /// contribution to an event-driven scheduler's next-due computation.
    /// `None` when nothing is in flight.
    pub fn next_due(&self) -> Option<f64> {
        self.in_flight
            .iter()
            .map(|m| m.deliver_at)
            .min_by(|a, b| a.partial_cmp(b).expect("finite delivery times"))
    }

    /// Offers one message at time `now`. All impairment decisions for this
    /// message (and its duplicate, if any) are made here, from the stream
    /// derived from `(seed, message index)`.
    pub fn send(&mut self, now: f64, msg: T) {
        let index = self.offered;
        self.offered += 1;
        self.stats.offered += 1;

        // the message's own decision stream
        let mut stream = SplitMix64::new(self.seed ^ index.wrapping_mul(GOLDEN_GAMMA));
        let drop_u = stream.next_unit_f64();
        let jitter_u = stream.next_unit_f64();
        let dup_u = stream.next_unit_f64();
        let dup_jitter_u = stream.next_unit_f64();

        if self.quality.in_partition(now) || drop_u < self.quality.drop_p {
            self.stats.dropped += 1;
            return;
        }
        let base = now + self.quality.latency_s;
        self.enqueue(base + jitter_u * self.quality.jitter_s, msg.clone());
        if dup_u < self.quality.dup_p {
            self.stats.duplicated += 1;
            self.enqueue(base + dup_jitter_u * self.quality.jitter_s, msg);
        }
    }

    fn enqueue(&mut self, deliver_at: f64, payload: T) {
        let tie = self.tie;
        self.tie += 1;
        self.in_flight.push(InFlight {
            deliver_at,
            tie,
            payload,
        });
    }

    /// Drains every copy due by `now`, in `(deliver_at, enqueue order)`
    /// order — the receiver's observed order.
    ///
    /// The due copies are moved out of the in-flight buffer in place, so a
    /// poll with nothing due allocates nothing. Moving them reorders the
    /// copies left behind, which nothing observes: `(deliver_at, tie)` is
    /// unique per copy, so the sort alone fixes the delivery order.
    pub fn poll(&mut self, now: f64) -> Vec<T> {
        let mut due: Vec<InFlight<T>> = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].deliver_at <= now {
                due.push(self.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by(|a, b| {
            a.deliver_at
                .partial_cmp(&b.deliver_at)
                .expect("finite delivery times")
                .then(a.tie.cmp(&b.tie))
        });
        self.stats.delivered += due.len() as u64;
        due.into_iter().map(|m| m.payload).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_channel_delivers_everything_in_order() {
        let mut ch = LossyChannel::new(LinkQuality::clean(), 1);
        for i in 0..10u32 {
            ch.send(i as f64 * 0.1, i);
        }
        let got = ch.poll(10.0);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(ch.is_idle());
        assert_eq!(ch.stats().delivered, 10);
        assert_eq!(ch.stats().dropped, 0);
    }

    #[test]
    fn nothing_delivers_before_the_latency() {
        let mut ch = LossyChannel::new(LinkQuality::clean(), 1);
        ch.send(0.0, 7u32);
        assert!(ch.poll(0.04).is_empty());
        assert_eq!(ch.poll(0.06), vec![7]);
    }

    #[test]
    fn next_due_tracks_the_earliest_in_flight_copy() {
        let mut ch = LossyChannel::new(LinkQuality::clean(), 1);
        assert_eq!(ch.next_due(), None);
        ch.send(1.0, 1u32);
        ch.send(0.0, 0u32);
        let due = ch.next_due().expect("two copies in flight");
        assert!(
            (due - 0.05).abs() < 1e-12,
            "earliest copy at 0.05, got {due}"
        );
        // polling at the due time drains it and advances next_due
        assert_eq!(ch.poll(due), vec![0]);
        let due = ch.next_due().expect("one copy left");
        assert!((due - 1.05).abs() < 1e-12);
        ch.poll(10.0);
        assert_eq!(ch.next_due(), None);
    }

    #[test]
    fn drop_probability_one_loses_everything() {
        let mut ch = LossyChannel::new(LinkQuality::clean().with_drop(1.0), 3);
        for i in 0..50u32 {
            ch.send(i as f64, i);
        }
        assert!(ch.poll(1000.0).is_empty());
        assert_eq!(ch.stats().dropped, 50);
    }

    #[test]
    fn duplication_injects_extra_copies() {
        let mut ch = LossyChannel::new(LinkQuality::clean().with_dup(1.0), 5);
        for i in 0..20u32 {
            ch.send(i as f64, i);
        }
        let got = ch.poll(1000.0);
        assert_eq!(got.len(), 40);
        assert_eq!(ch.stats().duplicated, 20);
    }

    #[test]
    fn partition_window_loses_exactly_its_span() {
        let q = LinkQuality::clean().with_partition(5.0, 2.0);
        let mut ch = LossyChannel::new(q, 9);
        for i in 0..10u32 {
            ch.send(i as f64, i); // sends at t = 0..9; t=5,6 are partitioned
        }
        let got = ch.poll(100.0);
        assert_eq!(got, vec![0, 1, 2, 3, 4, 7, 8, 9]);
        assert_eq!(ch.stats().dropped, 2);
    }

    #[test]
    fn jitter_reorders_but_poll_order_is_deterministic() {
        let q = LinkQuality::clean().with_jitter(1.0);
        let run = || {
            let mut ch = LossyChannel::new(q, 77);
            for i in 0..30u32 {
                ch.send(i as f64 * 0.01, i);
            }
            ch.poll(100.0)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, (0..30).collect::<Vec<_>>(), "jitter must reorder");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>(), "nothing lost");
    }

    #[test]
    fn reordering_depth_is_bounded_by_jitter() {
        // with jitter_s = 0.5 and sends 0.1 s apart, a message can arrive at
        // most 5 positions late
        let q = LinkQuality::clean().with_jitter(0.5);
        let mut ch = LossyChannel::new(q, 123);
        for i in 0..100u32 {
            ch.send(i as f64 * 0.1, i);
        }
        let got = ch.poll(1000.0);
        for (pos, &m) in got.iter().enumerate() {
            let displacement = (pos as i64 - i64::from(m)).abs();
            assert!(displacement <= 5, "message {m} displaced by {displacement}");
        }
    }
}
