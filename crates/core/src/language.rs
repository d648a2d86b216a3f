//! The vocabulary: what motions, lights and signs *mean*.
//!
//! Section III defines the mapping both ways. Keeping it as data (rather
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

/// What the human means by a marshalling sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HumanIntent {
    /// "You have my attention" (both hands before the face).
    GrantAttention,
    /// "Yes, you may" (both arms up).
    Consent,
    /// "No, you may not" (one arm up, one down).
    Refuse,
}

impl fmt::Display for HumanIntent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HumanIntent::GrantAttention => "grant attention",
            HumanIntent::Consent => "consent",
            HumanIntent::Refuse => "refuse",
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
    use hdc_figure::MarshallingSign;

    /// The intent a marshalling sign communicates.
    fn human_intent(sign: MarshallingSign) -> HumanIntent {
        match sign {
            MarshallingSign::AttentionGained => HumanIntent::GrantAttention,
            MarshallingSign::Yes => HumanIntent::Consent,
            MarshallingSign::No => HumanIntent::Refuse,
        }
    }

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
    fn human_mapping_is_a_bijection() {
        // three signs onto three intents: a bijection iff no two collide
        let intents = MarshallingSign::ALL.map(human_intent);
        for (i, a) in intents.iter().enumerate() {
            assert!(!intents[i + 1..].contains(a), "{a} is expressed twice");
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
        assert_eq!(
            human_intent(MarshallingSign::AttentionGained),
            HumanIntent::GrantAttention
        );
    }

    #[test]
    fn display_strings() {
        assert_eq!(DroneIntent::RequestArea.to_string(), "request area");
        assert_eq!(HumanIntent::Refuse.to_string(), "refuse");
    }
}
