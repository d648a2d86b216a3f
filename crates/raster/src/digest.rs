//! FNV-1a/64 hashing of raw byte slices.
//!
//! Its consumers hash canonical traces into committed digests: `hdc-sim`
//! for the golden scenario digests under `tests/golden/`, and `hdc-serve`
//! for the serve goldens. FNV-1a is the right tool for that:
//! dependency-free, byte-order stable, and deterministic. It is not a
//! frame-identity check: its multiply-per-byte dependency chain runs at
//! roughly 1 GB/s, slower than comparing two frames byte for byte, so the
//! temporal gate proves identity with a plain slice compare.

/// Streaming FNV-1a/64: feed any number of byte slices, then
/// [`Fnv1a64::finish`]. Hashing the concatenation of the fed slices through
/// [`fnv1a64`] yields the same digest.
///
/// # Example
/// ```
/// use hdc_raster::digest::{fnv1a64, Fnv1a64};
/// let mut h = Fnv1a64::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), fnv1a64(b"foobar"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in the initial (offset-basis) state.
    pub fn new() -> Self {
        Fnv1a64 {
            state: Self::OFFSET,
        }
    }

    /// Absorbs `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for byte in bytes {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.state = h;
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit hash of a byte slice.
///
/// # Example
/// ```
/// use hdc_raster::digest::fnv1a64;
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // standard FNV-1a/64 test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sensitive_to_every_byte() {
        let a = fnv1a64(&[0, 1, 2, 3]);
        let b = fnv1a64(&[0, 1, 2, 4]);
        let c = fnv1a64(&[1, 1, 2, 3]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn streaming_matches_one_shot_at_any_split() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let want = fnv1a64(data);
        for split in 0..=data.len() {
            let mut h = Fnv1a64::new();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }
}
