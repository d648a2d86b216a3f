//! The requirements registry derived from the paper's user stories.
//!
//! Section II derives "a set of minimum communication requirements between
//! both drones and collaborators and vice versa" from supervisor / worker /
//! visitor user stories. The registry keeps each requirement as data with a
//! stable id, its narrative source, and a pointer to what in this workspace
//! verifies it — so the test suite and the documentation can cross-reference
//! the same table.

use std::fmt;

/// Stable identifier of a requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequirementId(pub u8);

impl fmt::Display for RequirementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// One derived requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requirement {
    /// Stable id.
    pub id: RequirementId,
    /// Which user story motivates it.
    pub story: &'static str,
    /// The requirement text.
    pub description: &'static str,
    /// Where in this workspace it is implemented / verified.
    pub verified_by: &'static str,
}

/// The full registry.
pub const REQUIREMENTS: &[Requirement] = &[
    Requirement {
        id: RequirementId(1),
        story: "worker sees a drone transiting overhead",
        description: "the drone indicates its horizontal flight direction with an \
                      all-round ring of red/green/white navigation lights (FAA-style)",
        verified_by: "hdc-drone::led navigation layout tests; experiment E6",
    },
    Requirement {
        id: RequirementId(2),
        story: "any person near a malfunctioning drone",
        description: "a triggered safety function turns the whole ring red; all-red is \
                      the fail-safe default state",
        verified_by: "hdc-drone::Drone::trigger_safety tests; LedRing::default; experiment E12",
    },
    Requirement {
        id: RequirementId(3),
        story: "worker blocking a fly trap the drone must read",
        description: "the drone gains attention (poke) before requesting anything; no \
                      request is made without an attention-gained acknowledgement",
        verified_by: "hdc-core::protocol state machine tests; experiment E8",
    },
    Requirement {
        id: RequirementId(4),
        story: "worker blocking a fly trap the drone must read",
        description: "access to occupied space is negotiated: the drone flies a rectangle \
                      to signify the area and enters only on an explicit Yes",
        verified_by: "hdc-core::protocol never_enters_without_yes property test",
    },
    Requirement {
        id: RequirementId(5),
        story: "supervisor watching a landing",
        description: "navigation lights are extinguished only after the rotors stop",
        verified_by: "hdc-drone landing_extinguishes_lights_after_rotors test; experiment E7",
    },
    Requirement {
        id: RequirementId(6),
        story: "visitor with minimal instruction",
        description: "the human sign set is minimal (three static signs) and learnable: \
                      attention-gained, yes, no",
        verified_by: "hdc-figure::MarshallingSign; uniqueness experiment E5",
    },
    Requirement {
        id: RequirementId(7),
        story: "worker approached by a drone",
        description: "the drone keeps a safe distance during negotiation and retreats on \
                      refusal or timeout",
        verified_by: "hdc-core::session safe-distance monitor; SafetyMonitor tests",
    },
    Requirement {
        id: RequirementId(8),
        story: "cost-conscious orchard operator",
        description: "sign recognition runs on low-cost hardware: computationally cheap \
                      (SAX) and within real-time budgets (≥30 fps)",
        verified_by:
            "hdc-vision timing instrumentation; bench_recognize (Figure 4 rows, resolution sweep)",
    },
    Requirement {
        id: RequirementId(9),
        story: "worker whose sign is not understood",
        description: "recognition must be rotation invariant and reject unknown/ambiguous \
                      poses rather than guessing",
        verified_by: "hdc-sax rotation invariance; pipeline ambiguity-ratio tests; experiment E3",
    },
    Requirement {
        id: RequirementId(10),
        story: "visitor confused by leg lights",
        description: "the vertical take-off/landing LED array is confusing and must not \
                      be relied upon (discarded)",
        verified_by: "hdc-drone VerticalArray confusion test; experiment E9",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_unique_and_sequential() {
        let ids: HashSet<_> = REQUIREMENTS.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), REQUIREMENTS.len());
        for (i, r) in REQUIREMENTS.iter().enumerate() {
            assert_eq!(r.id.0 as usize, i + 1, "ids are R1..Rn in order");
        }
    }

    #[test]
    fn every_requirement_is_verified_somewhere() {
        for r in REQUIREMENTS {
            assert!(!r.verified_by.is_empty(), "{} lacks verification", r.id);
            assert!(!r.story.is_empty());
            assert!(!r.description.is_empty());
        }
    }

    #[test]
    fn lookup() {
        let requirement = |id| REQUIREMENTS.iter().find(|r| r.id == id);
        assert_eq!(requirement(RequirementId(4)).unwrap().id, RequirementId(4));
        assert!(requirement(RequirementId(99)).is_none());
        assert_eq!(RequirementId(4).to_string(), "R4");
    }
}
