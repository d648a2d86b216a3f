//! Canonical traces and trace digests.
//!
//! A scenario's behaviour is witnessed by its [`EventLog`]. The log is
//! reduced to a canonical text form (one line per entry, time rounded to the
//! 0.1 s simulation step) and hashed with FNV-1a/64
//! ([`hdc_raster::digest::digest_hex`], as the text is formatted); the hex
//! digest is what gets committed under `tests/golden/` and compared in CI.
//! Rounding to the step size keeps the text stable against formatting
//! churn while still pinning the exact event order and timing.

use hdc_core::EventLog;
use std::fmt;

/// An event log's canonical one-line-per-entry text form, formatted on
/// demand.
#[derive(Debug, Clone, Copy)]
pub struct CanonicalTrace<'a>(&'a EventLog);

impl fmt::Display for CanonicalTrace<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, e) in self.0.entries() {
            writeln!(f, "{t:.1} {e}")?;
        }
        Ok(())
    }
}

/// Reduces an event log to its canonical one-line-per-entry text form.
pub fn canonical_trace(log: &EventLog) -> CanonicalTrace<'_> {
    CanonicalTrace(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::LogEntry;
    use hdc_raster::digest::digest_hex;

    #[test]
    fn trace_is_one_line_per_entry_with_rounded_times() {
        let mut log = EventLog::new();
        log.push(0.30000000000000004, LogEntry::HumanIdle);
        log.push(1.25, LogEntry::Note("x".into()));
        let text = canonical_trace(&log).to_string();
        assert_eq!(text, "0.3 human lowers arms\n1.2 note: x\n");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // the committed golden digests are FNV-1a/64 of the trace text
        assert_eq!(digest_hex(""), "cbf29ce484222325");
        assert_eq!(digest_hex("a"), "af63dc4c8601ec8c");
        assert_eq!(digest_hex("foobar"), "85944171f73967e8");
        assert_eq!(
            digest_hex(canonical_trace(&EventLog::new())),
            "cbf29ce484222325"
        );
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut log = EventLog::new();
        log.push(1.0, LogEntry::HumanIdle);
        let a = digest_hex(canonical_trace(&log));
        assert_eq!(a, digest_hex(canonical_trace(&log).to_string()));
        log.push(2.0, LogEntry::HumanIdle);
        assert_ne!(a, digest_hex(canonical_trace(&log)));
    }
}
