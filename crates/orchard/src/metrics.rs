//! Mission metrics.

use hdc_core::SessionOutcome;
use std::fmt;

/// Negotiation outcome counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NegotiationTally {
    /// Access granted.
    pub granted: u32,
    /// Access denied.
    pub denied: u32,
    /// No usable response.
    pub abandoned: u32,
    /// Safety abort.
    pub aborted: u32,
}

impl NegotiationTally {
    /// Records an outcome.
    pub fn record(&mut self, outcome: SessionOutcome) {
        match outcome {
            SessionOutcome::Granted => self.granted += 1,
            SessionOutcome::Denied => self.denied += 1,
            SessionOutcome::Abandoned => self.abandoned += 1,
            SessionOutcome::Aborted => self.aborted += 1,
            SessionOutcome::StillRunning => {}
        }
    }

    /// Total negotiations recorded.
    pub fn total(&self) -> u32 {
        self.granted + self.denied + self.abandoned + self.aborted
    }

    /// Fraction granted (0 when none recorded).
    pub fn grant_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.granted as f64 / self.total() as f64
        }
    }
}

impl fmt::Display for NegotiationTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "granted {} / denied {} / abandoned {} / aborted {}",
            self.granted, self.denied, self.abandoned, self.aborted
        )
    }
}

/// Aggregate statistics of one mission.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MissionStats {
    /// Traps successfully read.
    pub traps_read: u32,
    /// Traps skipped (negotiation failed or battery abort).
    pub traps_skipped: u32,
    /// Negotiation outcomes.
    pub negotiations: NegotiationTally,
    /// Total simulated mission time, seconds.
    pub mission_time_s: f64,
    /// Total distance flown, metres.
    pub distance_flown_m: f64,
    /// Energy consumed, Wh.
    pub energy_wh: f64,
    /// Safety events observed.
    pub safety_events: u32,
}

impl MissionStats {
    /// The text the golden mission digests hash: what the derived `Debug`
    /// printed when they were made, written out so that a field added,
    /// renamed or reordered cannot move a golden. `Display` is the human
    /// summary.
    pub fn canonical(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            let n = &self.negotiations;
            write!(
                f,
                "MissionStats {{ traps_read: {}, traps_skipped: {}, negotiations: \
                 NegotiationTally {{ granted: {}, denied: {}, abandoned: {}, aborted: {} }}, \
                 mission_time_s: {:?}, distance_flown_m: {:?}, energy_wh: {:?}, \
                 safety_events: {} }}",
                self.traps_read,
                self.traps_skipped,
                n.granted,
                n.denied,
                n.abandoned,
                n.aborted,
                self.mission_time_s,
                self.distance_flown_m,
                self.energy_wh,
                self.safety_events
            )
        })
    }
}

impl fmt::Display for MissionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "traps read      : {}", self.traps_read)?;
        writeln!(f, "traps skipped   : {}", self.traps_skipped)?;
        writeln!(f, "negotiations    : {}", self.negotiations)?;
        writeln!(f, "mission time    : {:.1} s", self.mission_time_s)?;
        writeln!(f, "distance flown  : {:.1} m", self.distance_flown_m)?;
        writeln!(f, "energy used     : {:.2} Wh", self.energy_wh)?;
        write!(f, "safety events   : {}", self.safety_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_text_is_the_text_the_goldens_hash() {
        let stats = MissionStats {
            traps_read: 7,
            traps_skipped: 1,
            negotiations: NegotiationTally {
                granted: 5,
                denied: 1,
                abandoned: 2,
                aborted: 0,
            },
            mission_time_s: 312.0,
            distance_flown_m: 140.25,
            energy_wh: 1e-7,
            safety_events: 3,
        };
        assert_eq!(
            stats.canonical().to_string(),
            "MissionStats { traps_read: 7, traps_skipped: 1, negotiations: \
             NegotiationTally { granted: 5, denied: 1, abandoned: 2, aborted: 0 }, \
             mission_time_s: 312.0, distance_flown_m: 140.25, energy_wh: 1e-7, \
             safety_events: 3 }"
        );
    }

    #[test]
    fn tally_records() {
        let mut t = NegotiationTally::default();
        t.record(SessionOutcome::Granted);
        t.record(SessionOutcome::Granted);
        t.record(SessionOutcome::Denied);
        t.record(SessionOutcome::StillRunning); // ignored
        assert_eq!(t.total(), 3);
        assert!((t.grant_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tally_rate() {
        assert_eq!(NegotiationTally::default().grant_rate(), 0.0);
    }

    #[test]
    fn stats_display() {
        let s = MissionStats {
            traps_read: 10,
            ..Default::default()
        };
        assert!(s.to_string().contains("traps read      : 10"));
    }
}
