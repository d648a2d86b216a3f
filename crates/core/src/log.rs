//! Timestamped event logging for negotiation sessions.

use crate::protocol::{NegotiationState, ProtocolAction};
use hdc_drone::{DroneEvent, PatternKind};
use hdc_figure::MarshallingSign;
use std::fmt;

/// One entry in a session log.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry {
    /// The protocol state machine changed state.
    StateChanged {
        /// The state entered.
        to: NegotiationState,
    },
    /// The protocol issued an action.
    Action(ProtocolAction),
    /// The drone emitted an event.
    Drone(DroneEvent),
    /// The drone finished a flight pattern.
    PatternDone(PatternKind),
    /// The human started holding a sign.
    HumanSigned(MarshallingSign),
    /// The human stopped signing.
    HumanIdle,
    /// The human started waving the drone off.
    HumanWavesOff,
    /// The vision pipeline produced a decision: a sign, or none.
    Recognized(Option<MarshallingSign>),
    /// The dynamic channel detected a wave-off.
    WaveOffDetected,
    /// The cohort's quorum vote accepted a sign.
    QuorumAccepted {
        /// The accepted sign.
        sign: MarshallingSign,
        /// Agreeing in-window votes.
        count: usize,
        /// Votes required: the quorum, clamped to the live members.
        need: usize,
        /// Live members, the owner included.
        live: usize,
    },
    /// The owner declared a cohort observer lost: its relay lease expired.
    ObserverLost {
        /// The observer's index.
        observer: usize,
        /// Live members left, the owner included.
        live: usize,
    },
    /// Prose only: a fact that code looks for gets a variant of its own.
    Note(String),
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogEntry::StateChanged { to } => write!(f, "state → {to}"),
            LogEntry::Action(a) => write!(f, "action: {a}"),
            LogEntry::Drone(e) => write!(f, "drone: {e}"),
            LogEntry::PatternDone(k) => write!(f, "pattern complete: {k}"),
            LogEntry::HumanSigned(s) => write!(f, "human signs {s}"),
            LogEntry::HumanIdle => write!(f, "human lowers arms"),
            LogEntry::HumanWavesOff => write!(f, "note: human waves the drone off"),
            LogEntry::Recognized(Some(s)) => write!(f, "vision: recognised {s}"),
            LogEntry::Recognized(None) => write!(f, "vision: no sign"),
            LogEntry::WaveOffDetected => write!(f, "note: dynamic gesture: wave-off detected"),
            LogEntry::QuorumAccepted {
                sign,
                count,
                need,
                live,
            } => write!(
                f,
                "note: cohort: quorum accepted {sign} ({count}/{need} of {live} live)"
            ),
            LogEntry::ObserverLost { observer, live } => write!(
                f,
                "note: cohort: relay lease expired — observer {observer} declared lost; \
                 re-anchoring consensus on {live} live member(s)"
            ),
            LogEntry::Note(s) => write!(f, "note: {s}"),
        }
    }
}

/// A timestamped sequence of [`LogEntry`] values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    entries: Vec<(f64, LogEntry)>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends an entry at time `t`.
    pub fn push(&mut self, t: f64, entry: LogEntry) {
        self.entries.push((t, entry));
    }

    /// The entries in order.
    pub fn entries(&self) -> &[(f64, LogEntry)] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries matching a predicate.
    pub fn filter<'a, F>(&'a self, mut pred: F) -> impl Iterator<Item = &'a (f64, LogEntry)> + 'a
    where
        F: FnMut(&LogEntry) -> bool + 'a,
    {
        self.entries.iter().filter(move |(_, e)| pred(e))
    }

    /// First time an entry satisfying `pred` occurs.
    pub fn first_time<F>(&self, mut pred: F) -> Option<f64>
    where
        F: FnMut(&LogEntry) -> bool,
    {
        self.entries.iter().find(|(_, e)| pred(e)).map(|(t, _)| *t)
    }
}

impl fmt::Display for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, e) in &self.entries {
            writeln!(f, "[{t:7.2}s] {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.push(1.0, LogEntry::Note("a".into()));
        log.push(2.0, LogEntry::HumanIdle);
        log.push(3.0, LogEntry::Note("b".into()));
        assert_eq!(log.len(), 3);
        let notes: Vec<_> = log.filter(|e| matches!(e, LogEntry::Note(_))).collect();
        assert_eq!(notes.len(), 2);
        assert_eq!(log.first_time(|e| *e == LogEntry::HumanIdle), Some(2.0));
        assert_eq!(
            log.first_time(|e| matches!(e, LogEntry::Recognized(_))),
            None
        );
    }

    #[test]
    fn display_renders_lines() {
        let mut log = EventLog::new();
        log.push(0.5, LogEntry::HumanSigned(MarshallingSign::Yes));
        log.push(1.0, LogEntry::Recognized(Some(MarshallingSign::Yes)));
        let text = log.to_string();
        assert!(text.contains("human signs Yes"));
        assert!(text.contains("vision: recognised Yes"));
        assert!(text.contains("[   0.50s]"));
    }

    #[test]
    fn every_variant_prints_the_text_the_goldens_hash() {
        // The golden digests hash these lines, so each entry prints
        // exactly the text the committed goldens were made from.
        let cases = [
            (
                LogEntry::StateChanged {
                    to: NegotiationState::AwaitingAnswer,
                },
                "state → awaiting answer",
            ),
            (
                LogEntry::Action(ProtocolAction::EnterArea),
                "action: enter area",
            ),
            (
                LogEntry::Drone(DroneEvent::RotorsStarted),
                "drone: RotorsStarted",
            ),
            (
                LogEntry::Drone(DroneEvent::RotorsStopped),
                "drone: RotorsStopped",
            ),
            (
                LogEntry::Drone(DroneEvent::LightsNavigation),
                "drone: LightsNavigation",
            ),
            (LogEntry::Drone(DroneEvent::LightsOut), "drone: LightsOut"),
            (
                LogEntry::Drone(DroneEvent::LightsDanger),
                "drone: LightsDanger",
            ),
            (
                LogEntry::Drone(DroneEvent::PatternStarted(PatternKind::Poke)),
                "drone: PatternStarted(Poke)",
            ),
            (
                LogEntry::Drone(DroneEvent::PatternComplete(PatternKind::RectangleRequest)),
                "drone: PatternComplete(RectangleRequest)",
            ),
            (
                LogEntry::Drone(DroneEvent::SafetyTriggered("low battery".into())),
                "drone: SafetyTriggered(\"low battery\")",
            ),
            (
                LogEntry::Drone(DroneEvent::BatteryReserve),
                "drone: BatteryReserve",
            ),
            (
                LogEntry::PatternDone(PatternKind::Poke),
                "pattern complete: poke",
            ),
            (
                LogEntry::HumanSigned(MarshallingSign::AttentionGained),
                "human signs AttentionGained",
            ),
            (LogEntry::HumanIdle, "human lowers arms"),
            (LogEntry::HumanWavesOff, "note: human waves the drone off"),
            (
                LogEntry::Recognized(Some(MarshallingSign::No)),
                "vision: recognised No",
            ),
            (LogEntry::Recognized(None), "vision: no sign"),
            (
                LogEntry::WaveOffDetected,
                "note: dynamic gesture: wave-off detected",
            ),
            (
                LogEntry::QuorumAccepted {
                    sign: MarshallingSign::Yes,
                    count: 2,
                    need: 2,
                    live: 3,
                },
                "note: cohort: quorum accepted Yes (2/2 of 3 live)",
            ),
            (
                LogEntry::ObserverLost {
                    observer: 1,
                    live: 2,
                },
                "note: cohort: relay lease expired — observer 1 declared lost; \
                 re-anchoring consensus on 2 live member(s)",
            ),
            (
                LogEntry::Note("human ignores the poke".into()),
                "note: human ignores the poke",
            ),
        ];
        for (entry, text) in cases {
            assert_eq!(entry.to_string(), text, "{entry:?}");
        }
        // every pattern kind, in both pattern events
        for (kind, text) in [
            (PatternKind::TakeOff, "TakeOff"),
            (PatternKind::Landing, "Landing"),
            (PatternKind::Cruise, "Cruise"),
            (PatternKind::Poke, "Poke"),
            (PatternKind::Nod, "Nod"),
            (PatternKind::Turn, "Turn"),
            (PatternKind::RectangleRequest, "RectangleRequest"),
        ] {
            for (event, name) in [
                (DroneEvent::PatternStarted(kind), "PatternStarted"),
                (DroneEvent::PatternComplete(kind), "PatternComplete"),
            ] {
                let entry = LogEntry::Drone(event);
                assert_eq!(entry.to_string(), format!("drone: {name}({text})"));
            }
        }
    }
}
