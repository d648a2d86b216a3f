//! SplitMix64: the workspace's deterministic substream generator.
//!
//! Seed-deterministic layers (the scenario sweep, the lossy channel, the
//! serving layer's arrival processes) all need the same primitive: many
//! *decorrelated* random streams derived from one root seed, where stream
//! `i`'s values are a pure function of `(seed, i)` — never of how many other
//! streams exist or in what order they are drawn. SplitMix64 is the standard
//! tool for that job: a 64-bit counter RNG whose output function is a strong
//! finaliser (Steele, Lea & Flood, *Fast splittable pseudorandom number
//! generators*, OOPSLA 2014), cheap enough to construct per stream.
//!
//! This module hosts the one shared implementation (the datalink and sweep
//! layers grew private copies before it existed; everything now routes
//! through this one). The generator itself is exact integer arithmetic, so
//! schedules built from it are bit-stable across platforms; callers that
//! need a probability get it through the one explicit bridge,
//! [`unit_f64`] / [`SplitMix64::next_unit_f64`], which maps the top 53 bits
//! of a draw to `[0, 1)` — the same word therefore yields the same `f64` on
//! every platform.

/// A SplitMix64 generator: 64 bits of state, one finaliser per draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The golden-ratio increment of the SplitMix64 reference implementation —
/// public because seed-derivation sites across the workspace (channel
/// streams, link endpoint salts) multiply indices by it before mixing.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// A generator seeded directly with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The `index`-th decorrelated substream of `seed`: mixes the index
    /// through the output finaliser before seeding, so adjacent indices
    /// (stream 0, 1, 2, …) produce unrelated sequences — the property the
    /// serving layer's per-stream arrival processes rely on.
    pub fn stream(seed: u64, index: u64) -> Self {
        let mut root = SplitMix64::new(seed ^ mix(index.wrapping_mul(GOLDEN_GAMMA)));
        // burn one draw so `stream(s, 0)` differs from `new(s)`
        root.next_u64();
        root
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// A value uniform in `[0, bound)` via the 128-bit multiply-shift
    /// reduction (no modulo bias worth correcting at these bound sizes, and
    /// — unlike rejection sampling — a *fixed* number of draws per call,
    /// which keeps downstream schedules easy to reason about).
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) has no valid output");
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// The next value as a uniform `f64` in `[0, 1)` — see [`unit_f64`].
    pub fn next_unit_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// Maps a random word to a uniform `f64` in `[0, 1)` with 53-bit precision:
/// the workspace-standard integer→unit-interval bridge (top 53 bits scaled
/// by 2⁻⁵³), shared so every layer that turns draws into probabilities does
/// it identically.
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The SplitMix64 output finaliser (a bijection on `u64`).
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent stream seed, `mix(seed ^ salt·GOLDEN_GAMMA)`: every link
/// endpoint and channel, and every sweep point, seeds its stream this way.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    mix(seed ^ salt.wrapping_mul(GOLDEN_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Reference sequence for seed 1234567 from the canonical Java
        // implementation (SplittableRandom's mix64 chain).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn streams_are_decorrelated_and_index_pure() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::stream(42, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::stream(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b, "adjacent substreams must differ");
        // re-deriving stream 0 reproduces it exactly (purity in the index)
        let mut again = SplitMix64::stream(42, 0);
        let a2: Vec<u64> = (0..8).map(|_| again.next_u64()).collect();
        assert_eq!(a, a2);
        // and differs from the undemuxed root generator
        let mut root = SplitMix64::new(42);
        assert_ne!(a[0], root.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers_small_bounds() {
        let mut rng = SplitMix64::new(9);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
        assert_eq!(SplitMix64::new(1).below(1), 0);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_rejected() {
        SplitMix64::new(1).below(0);
    }

    #[test]
    fn unit_f64_stays_in_range_and_is_word_pure() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = rng.next_unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(unit_f64(0), 0.0);
        assert_eq!(
            unit_f64(u64::MAX),
            (((1u64 << 53) - 1) as f64) * (1.0 / (1u64 << 53) as f64)
        );
        // the struct method is exactly the free-function bridge on the draw
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        assert_eq!(a.next_unit_f64(), unit_f64(b.next_u64()));
    }
}
