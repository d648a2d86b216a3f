//! The vocabulary: what the drone's flight patterns *mean*.
//!
//! Section III defines the meaning of each motion. A human sign needs no
//! table here: the negotiation protocol acts on the recognised
//! `MarshallingSign` itself. Keeping the drone's side as data (rather
//! than scattering the semantics through the protocol code) is what makes
//! the language extensible — the paper's future work asks for "flexibility
//! of the system with respect to other static and ... dynamic marshalling
//! signals".

use hdc_drone::PatternKind;
use std::fmt;

/// What the drone means by a communicative motion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DroneIntent {
    /// "I want your attention" (poke).
    RequestAttention,
    /// "I want the space you occupy" (rectangle).
    RequestArea,
    /// "Understood, yes" (nod).
    AcknowledgeYes,
    /// "Understood, no" (turn).
    AcknowledgeNo,
    /// "I am leaving the ground" (take-off).
    AnnounceTakeOff,
    /// "I am coming down" (landing).
    AnnounceLanding,
    /// "I am in transit" (cruise).
    AnnounceTransit,
}

impl fmt::Display for DroneIntent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DroneIntent::RequestAttention => "request attention",
            DroneIntent::RequestArea => "request area",
            DroneIntent::AcknowledgeYes => "acknowledge yes",
            DroneIntent::AcknowledgeNo => "acknowledge no",
            DroneIntent::AnnounceTakeOff => "announce take-off",
            DroneIntent::AnnounceLanding => "announce landing",
            DroneIntent::AnnounceTransit => "announce transit",
        };
        f.write_str(s)
    }
}

/// The bidirectional vocabulary table.
///
/// # Example
/// ```
/// use hdc_core::{Vocabulary, DroneIntent};
/// use hdc_drone::PatternKind;
/// assert_eq!(Vocabulary::drone_intent(PatternKind::Poke), Some(DroneIntent::RequestAttention));
/// assert_eq!(Vocabulary::pattern_for(DroneIntent::RequestArea), Some(PatternKind::RectangleRequest));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Vocabulary;

impl Vocabulary {
    /// The intent a flight pattern communicates, or `None` for patterns with
    /// no communicative meaning beyond their standard announcement.
    pub fn drone_intent(pattern: PatternKind) -> Option<DroneIntent> {
        Some(match pattern {
            PatternKind::Poke => DroneIntent::RequestAttention,
            PatternKind::RectangleRequest => DroneIntent::RequestArea,
            PatternKind::Nod => DroneIntent::AcknowledgeYes,
            PatternKind::Turn => DroneIntent::AcknowledgeNo,
            PatternKind::TakeOff => DroneIntent::AnnounceTakeOff,
            PatternKind::Landing => DroneIntent::AnnounceLanding,
            PatternKind::Cruise => DroneIntent::AnnounceTransit,
        })
    }

    /// The flight pattern expressing an intent.
    pub fn pattern_for(intent: DroneIntent) -> Option<PatternKind> {
        Some(match intent {
            DroneIntent::RequestAttention => PatternKind::Poke,
            DroneIntent::RequestArea => PatternKind::RectangleRequest,
            DroneIntent::AcknowledgeYes => PatternKind::Nod,
            DroneIntent::AcknowledgeNo => PatternKind::Turn,
            DroneIntent::AnnounceTakeOff => PatternKind::TakeOff,
            DroneIntent::AnnounceLanding => PatternKind::Landing,
            DroneIntent::AnnounceTransit => PatternKind::Cruise,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drone_mapping_is_a_bijection() {
        for p in [
            PatternKind::TakeOff,
            PatternKind::Landing,
            PatternKind::Cruise,
            PatternKind::Poke,
            PatternKind::Nod,
            PatternKind::Turn,
            PatternKind::RectangleRequest,
        ] {
            let intent = Vocabulary::drone_intent(p).expect("every pattern has an intent");
            assert_eq!(Vocabulary::pattern_for(intent), Some(p), "{p}");
        }
    }

    #[test]
    fn communicative_meanings_match_the_paper() {
        assert_eq!(
            Vocabulary::drone_intent(PatternKind::Nod),
            Some(DroneIntent::AcknowledgeYes)
        );
        assert_eq!(
            Vocabulary::drone_intent(PatternKind::Turn),
            Some(DroneIntent::AcknowledgeNo)
        );
    }

    #[test]
    fn display_strings() {
        assert_eq!(DroneIntent::RequestArea.to_string(), "request area");
    }
}
