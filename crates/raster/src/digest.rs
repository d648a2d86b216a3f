//! FNV-1a/64 hashing of raw byte slices and of formatted text.
//!
//! Its consumers hash canonical traces into committed digests: `hdc-sim`
//! for the golden scenario digests under `tests/golden/`, and `hdc-serve`
//! for the serve goldens. [`digest_hex`] hashes a trace's `Display` text
//! as it is formatted, so no trace is held in memory whole. FNV-1a is the
//! right tool for that: dependency-free, byte-order stable, and
//! deterministic. It is not a frame-identity check: its multiply-per-byte
//! dependency chain runs at roughly 1 GB/s, slower than comparing two
//! frames byte for byte, so the temporal gate proves identity with a
//! plain slice compare.

use std::fmt::{self, Write as _};

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

/// Formatted text is absorbed as its UTF-8 bytes.
impl fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The 16-hex-character FNV-1a/64 digest of `text`'s formatted form,
/// hashed as it is formatted.
///
/// # Example
/// ```
/// use hdc_raster::digest::digest_hex;
/// assert_eq!(digest_hex(""), "cbf29ce484222325");
/// assert_eq!(digest_hex(format_args!("foo{}", "bar")), digest_hex("foobar"));
/// ```
pub fn digest_hex(text: impl fmt::Display) -> String {
    let mut h = Fnv1a64::new();
    write!(h, "{text}").expect("hashing formatted text cannot fail");
    format!("{:016x}", h.finish())
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
        // standard FNV-1a/64 test vectors, hashed as bytes and as text
        for (text, want) in [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x85944171f73967e8),
        ] {
            assert_eq!(fnv1a64(text.as_bytes()), want, "{text:?}");
            assert_eq!(digest_hex(text), format!("{want:016x}"), "{text:?}");
        }
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
        let data = "the quick brown fox jumps over the lazy dog";
        let want = fnv1a64(data.as_bytes());
        for split in 0..=data.len() {
            let (head, tail) = data.split_at(split);
            let mut h = Fnv1a64::new();
            h.write(head.as_bytes());
            h.write(tail.as_bytes());
            assert_eq!(h.finish(), want, "split at {split}");
            // formatted pieces hash as their text
            let mut h = Fnv1a64::new();
            write!(h, "{head}{tail}").unwrap();
            assert_eq!(h.finish(), want, "formatted split at {split}");
            assert_eq!(
                digest_hex(format_args!("{head}{tail}")),
                format!("{want:016x}")
            );
        }
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }
}
