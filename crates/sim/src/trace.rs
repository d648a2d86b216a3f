//! Canonical traces and trace digests.
//!
//! A scenario's behaviour is witnessed by its [`EventLog`]. The log is
//! reduced to a canonical text form (one line per entry, time rounded to the
//! 0.1 s simulation step) and hashed with FNV-1a/64; the hex digest is what
//! gets committed under `tests/golden/` and compared in CI. Rounding to the
//! step size keeps the text stable against formatting churn while still
//! pinning the exact event order and timing.

use hdc_core::EventLog;
use std::fmt::Write as _;

/// Reduces an event log to its canonical one-line-per-entry text form.
pub fn canonical_trace(log: &EventLog) -> String {
    let mut out = String::new();
    for (t, e) in log.entries() {
        let _ = writeln!(out, "{t:.1} {e}");
    }
    out
}

/// FNV-1a 64-bit hash of a string.
///
/// Thin string-typed wrapper over the shared byte-slice digest in
/// [`hdc_raster::digest`] (the same digest the serving layer's golden
/// traces use), kept here so golden-digest callers keep their historical
/// signature.
pub fn fnv1a64(text: &str) -> u64 {
    hdc_raster::digest::fnv1a64(text.as_bytes())
}

/// The 16-hex-character digest of a canonical trace.
pub fn digest_hex(trace: &str) -> String {
    format!("{:016x}", fnv1a64(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::LogEntry;

    #[test]
    fn fnv_matches_reference_vectors() {
        // standard FNV-1a/64 test vectors
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn trace_is_one_line_per_entry_with_rounded_times() {
        let mut log = EventLog::new();
        log.push(0.30000000000000004, LogEntry::HumanIdle);
        log.push(1.25, LogEntry::Note("x".into()));
        let text = canonical_trace(&log);
        assert_eq!(text, "0.3 human lowers arms\n1.2 note: x\n");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut log = EventLog::new();
        log.push(1.0, LogEntry::HumanIdle);
        let a = digest_hex(&canonical_trace(&log));
        assert_eq!(a, digest_hex(&canonical_trace(&log)));
        log.push(2.0, LogEntry::HumanIdle);
        assert_ne!(a, digest_hex(&canonical_trace(&log)));
    }
}
