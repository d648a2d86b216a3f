//! Property tests for the datalink's determinism and reliability contracts.
//!
//! * **Channel determinism** — a [`LossyChannel`]'s full delivery schedule
//!   is a pure function of `(seed, quality, send times)`: replaying the same
//!   sends yields a byte-identical schedule, and driving *other* channels in
//!   any interleaving (the multi-worker case) never changes a single
//!   channel's observed order.
//! * **Endpoint reliability** — under any drop/dup/jitter pattern with
//!   loss < 1, every payload sent across a [`Duplex`] is delivered exactly
//!   once, in order, and the retransmit queue eventually drains.

use hdc_link::{Duplex, EndpointConfig, LeaseConfig, LinkQuality, LossyChannel};
use proptest::prelude::*;

/// A quality model drawn from safe (recoverable) ranges.
fn quality(drop_p: f64, dup_p: f64, jitter_s: f64) -> LinkQuality {
    LinkQuality::clean()
        .with_drop(drop_p)
        .with_dup(dup_p)
        .with_jitter(jitter_s)
}

/// A link with the same quality both ways, every stream derived from `seed`.
fn duplex(q: LinkQuality, seed: u64) -> Duplex<u32, u32> {
    let seeds = [seed, seed ^ 1, seed.wrapping_add(2), seed.wrapping_add(3)];
    Duplex::new(
        EndpointConfig::default(),
        LeaseConfig::default(),
        q,
        q,
        seeds,
        0.0,
    )
}

/// Runs one channel over a fixed send schedule, polling every 0.1 s, and
/// returns the full delivery schedule (poll step, payload).
fn schedule(q: LinkQuality, seed: u64, sends: &[u32]) -> Vec<(usize, u32)> {
    let mut ch = LossyChannel::new(q, seed);
    let mut out = Vec::new();
    let steps = sends.len() + 50;
    for k in 0..steps {
        let now = k as f64 * 0.1;
        if let Some(&m) = sends.get(k) {
            ch.send(now, m);
        }
        for m in ch.poll(now) {
            out.push((k, m));
        }
    }
    out
}

proptest! {
    #[test]
    fn same_seed_same_schedule(seed in any::<u64>(),
                               drop_p in 0.0f64..0.9,
                               dup_p in 0.0f64..0.9,
                               jitter in 0.0f64..2.0,
                               sends in prop::collection::vec(0u32..10_000, 1..120)) {
        let q = quality(drop_p, dup_p, jitter);
        prop_assert_eq!(schedule(q, seed, &sends), schedule(q, seed, &sends));
    }

    #[test]
    fn interleaving_across_channels_changes_nothing(
            seed in any::<u64>(),
            drop_p in 0.0f64..0.9,
            jitter in 0.0f64..2.0,
            sends in prop::collection::vec(0u32..10_000, 1..100),
            channels in 2usize..5) {
        // Reference: each channel driven alone, sequentially.
        let q = quality(drop_p, 0.3, jitter);
        let alone: Vec<_> = (0..channels)
            .map(|c| schedule(q, seed.wrapping_add(c as u64), &sends))
            .collect();

        // Interleaved: all channels pumped round-robin in the same loop —
        // the schedule each receiver observes must be identical, because
        // every decision depends only on (that channel's seed, msg index).
        let mut chs: Vec<LossyChannel<u32>> = (0..channels)
            .map(|c| LossyChannel::new(q, seed.wrapping_add(c as u64)))
            .collect();
        let mut outs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); channels];
        let steps = sends.len() + 50;
        for k in 0..steps {
            let now = k as f64 * 0.1;
            // permute the pump order per step (worst-case scheduling skew)
            for c in 0..channels {
                let c = (c + k) % channels;
                if let Some(&m) = sends.get(k) {
                    chs[c].send(now, m);
                }
            }
            for c in 0..channels {
                let c = (channels - 1) - ((c + k) % channels);
                for m in chs[c].poll(now) {
                    outs[c].push((k, m));
                }
            }
        }
        for (c, got) in outs.iter().enumerate() {
            prop_assert_eq!(got, &alone[c], "channel {} drifted under interleaving", c);
        }
    }

    #[test]
    fn endpoint_delivers_exactly_once_in_order(
            seed in any::<u64>(),
            drop_p in 0.0f64..0.6,
            dup_p in 0.0f64..0.6,
            jitter in 0.0f64..1.0,
            n in 1u32..60) {
        let mut link = duplex(quality(drop_p, dup_p, jitter), seed);
        for i in 0..n {
            link.a.send(0.0, i);
        }
        let mut got = Vec::new();
        // generous horizon: worst-case loss at 60% still recovers well inside
        for k in 0..4000 {
            got.extend(link.pump(k as f64 * 0.1).to_b);
            if link.a.in_flight() == 0 && got.len() == n as usize {
                break;
            }
        }
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(link.a.in_flight(), 0, "retransmit queue must drain");
        prop_assert_eq!(link.b.stats().delivered, u64::from(n));
    }

    #[test]
    fn partition_heals_with_exactly_once_delivery_and_lease_reestablishment(
            seed in any::<u64>(),
            drop_p in 0.0f64..0.3,
            part_at in 0.5f64..5.0,
            part_for in 1.0f64..8.0,
            n in 2u32..40) {
        // a lossy link that additionally goes fully dark for [part_at,
        // part_at + part_for): messages are sent both before and during the
        // outage, and after it ends every unacked message must still arrive
        // exactly once, in order, with the heartbeat lease re-established
        let q = quality(drop_p, 0.2, 0.3).with_partition(part_at, part_for);
        let mut link = duplex(q, seed);

        let part_end = part_at + part_for;
        let mid = part_at + part_for / 2.0;
        for i in 0..n / 2 {
            link.a.send(0.0, i); // the pre-partition batch
        }
        let mut sent_mid = false;
        let mut expired_mid = false;
        let mut got = Vec::new();
        let mut settle = 0u32;
        for k in 0..6000 {
            let now = k as f64 * 0.1;
            if !sent_mid && now >= mid {
                sent_mid = true;
                for i in n / 2..n {
                    link.a.send(now, i); // the in-partition batch: all lost live
                }
            }
            if now < part_end {
                // the receiver may (long outage) or may not (short one)
                // watch the lease lapse while the link is dark
                expired_mid |= link.b.lease_expired(now);
            }
            got.extend(link.pump(now).to_b);
            // run a while past full delivery so heartbeats refresh the lease
            if link.a.in_flight() == 0 && got.len() == n as usize && now > part_end {
                settle += 1;
                if settle > 20 {
                    prop_assert!(
                        !link.a.lease_expired(now) && !link.b.lease_expired(now),
                        "the lease must re-establish after the partition heals"
                    );
                    break;
                }
            }
        }
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>(),
                        "every unacked message must arrive exactly once, in order");
        prop_assert_eq!(link.a.in_flight(), 0, "retransmit queue must drain after the heal");
        if part_for > 3.5 {
            // an outage longer than the lease timeout must actually trip it,
            // so the re-establishment above is a real recovery, not a no-op
            prop_assert!(expired_mid, "a {part_for:.1}s partition must lapse the 3s lease");
        }
    }
}
