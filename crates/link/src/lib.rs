//! `hdc-link` — a deterministic fault-tolerant datalink for the fleet.
//!
//! Every drone↔supervisor interaction in the workspace used to be an
//! in-process call; the one thing that fails first in the field — the radio
//! link — could not fail at all. This crate supplies the missing transport
//! layer in four pieces, all dependency-free and seed-deterministic:
//!
//! * [`LossyChannel`] — a simulated radio path. Per-message drop,
//!   duplication, bounded reordering (latency jitter), base latency and a
//!   scheduled partition window, with every decision derived from a
//!   SplitMix64 mix of `(channel seed, message index)` — the same discipline
//!   `hdc-runtime` uses for worker-count-independent sweeps, so a trace is
//!   byte-identical no matter how the simulation is scheduled.
//! * [`Endpoint`] — reliable delivery on top of a lossy channel: sequence
//!   numbers, cumulative acks, bounded retransmission with exponential
//!   backoff and seeded jitter, and a receive-side dedup/reorder window that
//!   delivers each message **exactly once, in order** — redelivered commands
//!   are effect-idempotent by construction.
//! * heartbeat **leases** ([`LeaseConfig`]) — both sides emit periodic
//!   heartbeats; a side that hears nothing for the lease timeout declares
//!   the link lost. The drone side reacts with an autonomous safe-hold and
//!   retreat; the supervisor side marks the drone lost and re-dispatches its
//!   remaining work (see `hdc-core::session` and
//!   `hdc-orchard::run_linked_fleet_mode`).
//! * [`Duplex`] — one whole link: two endpoints and the two channels
//!   between them, pumped in one fixed round. Every link in the workspace
//!   (the session datalink, the cohort relays, the supervised fleet and the
//!   datalink benchmark) is a `Duplex`.
//!
//! Time is the caller's simulation clock (seconds); nothing here reads a
//! wall clock or a global RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod duplex;
pub mod endpoint;

pub use channel::{ChannelStats, LinkQuality, LossyChannel};
pub use duplex::{Delivered, Duplex};
pub use endpoint::{Endpoint, EndpointConfig, EndpointStats, LeaseConfig};

// All derived randomness (channel decision streams, retransmission jitter)
// routes through `hdc_runtime::SplitMix64` — this crate carried a private
// copy before the shared implementation existed. The state evolution is
// identical, so channel schedules are byte-for-byte what they always were
// (the 62+62 golden scenario digests pin this).

#[cfg(test)]
mod tests {
    use hdc_runtime::{unit_f64, SplitMix64, GOLDEN_GAMMA};

    #[test]
    fn shared_splitmix_matches_the_old_private_stream() {
        // The retired private helper advanced `state += GAMMA` then applied
        // the finaliser — exactly `SplitMix64::new(state).next_u64()`. Pin
        // the equivalence so channel streams can never silently shift.
        let legacy = |state: &mut u64| -> u64 {
            *state = state.wrapping_add(GOLDEN_GAMMA);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut state = 42u64;
        let mut shared = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(legacy(&mut state), shared.next_u64());
        }
    }

    #[test]
    fn unit_f64_is_in_range() {
        let mut s = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = unit_f64(s.next_u64());
            assert!((0.0..1.0).contains(&u));
        }
    }
}
