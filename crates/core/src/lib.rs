//! `hdc-core` — the human-drone communication language of the paper.
//!
//! This crate is the reproduction's primary contribution layer: it encodes
//! the *language* (what drone motions and lights mean, what human signs
//! mean), the *negotiation protocol* built from the paper's user stories
//! (poke → attention → area request → yes/no), the *roles* with their
//! training levels (orchard supervisor / worker / visitor), the derived
//! *requirements* registry, the *safety* posture (all-red danger default,
//! land on violation), and a closed-loop [`CollaborationSession`] that wires
//! the simulated drone, a stochastic human agent and the real vision
//! pipeline together — camera frames included.
//!
//! # Example
//! ```
//! use hdc_core::{CollaborationSession, SessionConfig, SessionOutcome};
//!
//! let mut session = CollaborationSession::new(SessionConfig::worker_example(42));
//! let outcome = session.run();
//! // a trained worker almost always resolves the negotiation one way or the other
//! assert!(outcome != SessionOutcome::StillRunning);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cohort;
mod datalink;
mod language;
mod log;
mod protocol;
mod requirements;
mod roles;
mod safety;
mod session;
mod view;

pub use cohort::{CohortConfig, CohortReport, ObserverSpec, RelayMsg};
pub use datalink::{DatalinkConfig, LinkEvent, LinkReport};
pub use language::{DroneIntent, Vocabulary};
pub use log::{EventLog, LogEntry};
pub use protocol::{
    NegotiationConfig, NegotiationMachine, NegotiationState, ProtocolAction, SessionOutcome,
};
pub use requirements::{Requirement, RequirementId, REQUIREMENTS};
pub use roles::{Role, RoleProfile, TrainingLevel};
pub use safety::{SafetyMonitor, SafetyViolation};
pub use session::{
    CollaborationSession, FrameFate, HumanScript, ScriptedResponse, SessionConfig, SessionFaults,
    SessionReport,
};
pub use view::{paint_view, paint_view_mask, ViewRead, ViewWorker};
