//! The negotiation protocol state machine (drone side).
//!
//! Section III's narrative, as a machine: the drone approaches, *pokes* to
//! attract attention, waits for the *attention-gained* sign, flies the
//! *rectangle* to request the collaborator's area, waits for *yes* / *no*,
//! acknowledges with a *nod* / *turn*, and enters or retreats. Timeouts
//! retry a bounded number of times and then abort with a retreat; a safety
//! trigger aborts immediately with the all-red ring and a landing.

use hdc_figure::MarshallingSign;
use std::fmt;

/// Tunable protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegotiationConfig {
    /// Seconds to wait for the attention-gained sign after a poke.
    pub attention_timeout_s: f64,
    /// Seconds to wait for a yes/no after the rectangle.
    pub answer_timeout_s: f64,
    /// How many pokes before giving up.
    pub max_poke_attempts: u32,
    /// How many rectangle requests before giving up.
    pub max_request_attempts: u32,
    /// Seconds allowed for the transit to the contact point before the
    /// negotiation is abandoned (wind or a degraded platform can make the
    /// approach unachievable; the protocol must stay time-bounded anyway).
    pub approach_timeout_s: f64,
}

impl Default for NegotiationConfig {
    fn default() -> Self {
        NegotiationConfig {
            attention_timeout_s: 8.0,
            answer_timeout_s: 10.0,
            max_poke_attempts: 3,
            max_request_attempts: 2,
            approach_timeout_s: 60.0,
        }
    }
}

/// States of the negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NegotiationState {
    /// Not yet started.
    Idle,
    /// Flying to the contact point at safe distance.
    Approaching,
    /// Executing the poke pattern.
    Poking,
    /// Waiting for the attention-gained sign.
    AwaitingAttention,
    /// Executing the rectangle pattern.
    RequestingArea,
    /// Waiting for yes/no.
    AwaitingAnswer,
    /// Affirmative received; entering the area.
    Granted,
    /// Negative received; retreating.
    Denied,
    /// Gave up (no attention or no answer); retreating.
    Abandoned,
    /// Safety abort.
    Aborted,
}

impl fmt::Display for NegotiationState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NegotiationState::Idle => "idle",
            NegotiationState::Approaching => "approaching",
            NegotiationState::Poking => "poking",
            NegotiationState::AwaitingAttention => "awaiting attention",
            NegotiationState::RequestingArea => "requesting area",
            NegotiationState::AwaitingAnswer => "awaiting answer",
            NegotiationState::Granted => "granted",
            NegotiationState::Denied => "denied",
            NegotiationState::Abandoned => "abandoned",
            NegotiationState::Aborted => "aborted (safety)",
        };
        f.write_str(s)
    }
}

impl NegotiationState {
    /// Whether the negotiation has finished (successfully or not).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            NegotiationState::Granted
                | NegotiationState::Denied
                | NegotiationState::Abandoned
                | NegotiationState::Aborted
        )
    }
}

/// Final outcome classification (for experiment statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionOutcome {
    /// Access granted (Yes).
    Granted,
    /// Access denied (No).
    Denied,
    /// No usable response; gave up.
    Abandoned,
    /// Safety abort.
    Aborted,
    /// Negotiation still in progress.
    StillRunning,
}

impl fmt::Display for SessionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SessionOutcome::Granted => "granted",
            SessionOutcome::Denied => "denied",
            SessionOutcome::Abandoned => "abandoned",
            SessionOutcome::Aborted => "aborted",
            SessionOutcome::StillRunning => "still running",
        };
        f.write_str(s)
    }
}

/// Actions the machine asks its host (the drone) to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolAction {
    /// Fly to the contact point at safe distance from the collaborator.
    FlyToContact,
    /// Execute the poke pattern.
    ExecutePoke,
    /// Execute the rectangle (area request) pattern.
    ExecuteRectangle,
    /// Execute the nod (acknowledge yes).
    ExecuteNod,
    /// Execute the turn (acknowledge no).
    ExecuteTurn,
    /// Enter the requested area and do the work.
    EnterArea,
    /// Retreat to a respectful distance.
    Retreat,
    /// Switch the ring to danger and land (safety).
    DangerLand,
}

impl fmt::Display for ProtocolAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolAction::FlyToContact => "fly to contact point",
            ProtocolAction::ExecutePoke => "poke",
            ProtocolAction::ExecuteRectangle => "fly rectangle (request area)",
            ProtocolAction::ExecuteNod => "nod (acknowledge yes)",
            ProtocolAction::ExecuteTurn => "turn (acknowledge no)",
            ProtocolAction::EnterArea => "enter area",
            ProtocolAction::Retreat => "retreat",
            ProtocolAction::DangerLand => "danger lights + land",
        };
        f.write_str(s)
    }
}

/// The drone-side negotiation state machine.
///
/// Drive it with [`NegotiationMachine::start`], feed it pattern completions
/// ([`NegotiationMachine::on_pattern_complete`]), recognised signs
/// ([`NegotiationMachine::on_sign`]) and the clock
/// ([`NegotiationMachine::poll`]); each call returns the actions the host
/// must execute.
///
/// # Example
/// ```
/// use hdc_core::{NegotiationMachine, NegotiationConfig, NegotiationState, ProtocolAction};
/// use hdc_figure::MarshallingSign;
///
/// let mut m = NegotiationMachine::new(NegotiationConfig::default());
/// assert_eq!(m.start(0.0), vec![ProtocolAction::FlyToContact]);
/// assert_eq!(m.on_arrived(2.0), vec![ProtocolAction::ExecutePoke]);
/// m.on_pattern_complete(4.0);
/// let actions = m.on_sign(Some(MarshallingSign::AttentionGained), 5.0);
/// assert_eq!(actions, vec![ProtocolAction::ExecuteRectangle]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NegotiationMachine {
    config: NegotiationConfig,
    state: NegotiationState,
    deadline: Option<f64>,
    pokes_used: u32,
    requests_used: u32,
}

impl NegotiationMachine {
    /// Creates an idle machine.
    pub fn new(config: NegotiationConfig) -> Self {
        NegotiationMachine {
            config,
            state: NegotiationState::Idle,
            deadline: None,
            pokes_used: 0,
            requests_used: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> NegotiationState {
        self.state
    }

    /// The configuration.
    pub fn config(&self) -> &NegotiationConfig {
        &self.config
    }

    /// The absolute time of the next timeout [`NegotiationMachine::poll`]
    /// would fire, if one is armed — what an event-driven scheduler sleeps
    /// until instead of polling every tick.
    pub fn next_deadline(&self) -> Option<f64> {
        self.deadline
    }

    /// The outcome, if terminal.
    pub fn outcome(&self) -> SessionOutcome {
        match self.state {
            NegotiationState::Granted => SessionOutcome::Granted,
            NegotiationState::Denied => SessionOutcome::Denied,
            NegotiationState::Abandoned => SessionOutcome::Abandoned,
            NegotiationState::Aborted => SessionOutcome::Aborted,
            _ => SessionOutcome::StillRunning,
        }
    }

    fn enter_state(&mut self, s: NegotiationState) {
        self.state = s;
    }

    /// Begins the negotiation.
    ///
    /// Returns the initial actions. Does nothing if already started.
    pub fn start(&mut self, now: f64) -> Vec<ProtocolAction> {
        if self.state != NegotiationState::Idle {
            return Vec::new();
        }
        self.enter_state(NegotiationState::Approaching);
        self.deadline = Some(now + self.config.approach_timeout_s);
        vec![ProtocolAction::FlyToContact]
    }

    /// The drone reached the contact point.
    pub fn on_arrived(&mut self, _now: f64) -> Vec<ProtocolAction> {
        if self.state != NegotiationState::Approaching {
            return Vec::new();
        }
        self.deadline = None;
        self.pokes_used += 1;
        self.enter_state(NegotiationState::Poking);
        vec![ProtocolAction::ExecutePoke]
    }

    /// A commanded communicative pattern finished.
    pub fn on_pattern_complete(&mut self, now: f64) -> Vec<ProtocolAction> {
        match self.state {
            NegotiationState::Poking => {
                self.enter_state(NegotiationState::AwaitingAttention);
                self.deadline = Some(now + self.config.attention_timeout_s);
                Vec::new()
            }
            NegotiationState::RequestingArea => {
                self.enter_state(NegotiationState::AwaitingAnswer);
                self.deadline = Some(now + self.config.answer_timeout_s);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// A recognised sign (or a frame with none) arrived from the vision
    /// pipeline.
    pub fn on_sign(&mut self, sign: Option<MarshallingSign>, _now: f64) -> Vec<ProtocolAction> {
        match (self.state, sign) {
            (NegotiationState::AwaitingAttention, Some(MarshallingSign::AttentionGained)) => {
                self.deadline = None;
                self.requests_used += 1;
                self.enter_state(NegotiationState::RequestingArea);
                vec![ProtocolAction::ExecuteRectangle]
            }
            (NegotiationState::AwaitingAnswer, Some(MarshallingSign::Yes)) => {
                self.deadline = None;
                self.enter_state(NegotiationState::Granted);
                vec![ProtocolAction::ExecuteNod, ProtocolAction::EnterArea]
            }
            (NegotiationState::AwaitingAnswer, Some(MarshallingSign::No)) => {
                self.deadline = None;
                self.enter_state(NegotiationState::Denied);
                vec![ProtocolAction::ExecuteTurn, ProtocolAction::Retreat]
            }
            // an attention sign while awaiting the answer just means the
            // person is still engaged; keep waiting
            _ => Vec::new(),
        }
    }

    /// Clock tick: fires timeouts.
    pub fn poll(&mut self, now: f64) -> Vec<ProtocolAction> {
        let Some(deadline) = self.deadline else {
            return Vec::new();
        };
        if now < deadline {
            return Vec::new();
        }
        self.deadline = None;
        match self.state {
            NegotiationState::Approaching => {
                // the contact point proved unreachable in time: give up
                self.enter_state(NegotiationState::Abandoned);
                vec![ProtocolAction::Retreat]
            }
            NegotiationState::AwaitingAttention => {
                if self.pokes_used < self.config.max_poke_attempts {
                    self.pokes_used += 1;
                    self.enter_state(NegotiationState::Poking);
                    vec![ProtocolAction::ExecutePoke]
                } else {
                    self.enter_state(NegotiationState::Abandoned);
                    vec![ProtocolAction::Retreat]
                }
            }
            NegotiationState::AwaitingAnswer => {
                if self.requests_used < self.config.max_request_attempts {
                    self.requests_used += 1;
                    self.enter_state(NegotiationState::RequestingArea);
                    vec![ProtocolAction::ExecuteRectangle]
                } else {
                    self.enter_state(NegotiationState::Abandoned);
                    vec![ProtocolAction::Retreat]
                }
            }
            _ => Vec::new(),
        }
    }

    /// The human waved the drone off (dynamic gesture — an emphatic "no,
    /// go away" available in any live state, unlike the static No which is
    /// only read while awaiting the answer).
    ///
    /// The drone acknowledges with the turn pattern and retreats; the
    /// negotiation terminates as denied.
    pub fn on_wave_off(&mut self, _now: f64) -> Vec<ProtocolAction> {
        if self.state.is_terminal() || self.state == NegotiationState::Idle {
            return Vec::new();
        }
        self.deadline = None;
        self.enter_state(NegotiationState::Denied);
        vec![ProtocolAction::ExecuteTurn, ProtocolAction::Retreat]
    }

    /// A safety function fired: abort everything.
    pub fn on_safety(&mut self, _now: f64) -> Vec<ProtocolAction> {
        if self.state.is_terminal() {
            return Vec::new();
        }
        self.deadline = None;
        self.enter_state(NegotiationState::Aborted);
        vec![ProtocolAction::DangerLand]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> NegotiationMachine {
        NegotiationMachine::new(NegotiationConfig::default())
    }

    /// Drives the happy path up to awaiting-answer.
    fn to_awaiting_answer(m: &mut NegotiationMachine) {
        m.start(0.0);
        m.on_arrived(1.0);
        m.on_pattern_complete(2.0);
        assert_eq!(m.state(), NegotiationState::AwaitingAttention);
        m.on_sign(Some(MarshallingSign::AttentionGained), 3.0);
        assert_eq!(m.state(), NegotiationState::RequestingArea);
        m.on_pattern_complete(4.0);
        assert_eq!(m.state(), NegotiationState::AwaitingAnswer);
    }

    #[test]
    fn happy_path_yes() {
        let mut m = machine();
        to_awaiting_answer(&mut m);
        let actions = m.on_sign(Some(MarshallingSign::Yes), 5.0);
        assert_eq!(
            actions,
            vec![ProtocolAction::ExecuteNod, ProtocolAction::EnterArea]
        );
        assert_eq!(m.state(), NegotiationState::Granted);
        assert_eq!(m.outcome(), SessionOutcome::Granted);
        assert!(m.state().is_terminal());
    }

    #[test]
    fn happy_path_no() {
        let mut m = machine();
        to_awaiting_answer(&mut m);
        let actions = m.on_sign(Some(MarshallingSign::No), 5.0);
        assert_eq!(
            actions,
            vec![ProtocolAction::ExecuteTurn, ProtocolAction::Retreat]
        );
        assert_eq!(m.outcome(), SessionOutcome::Denied);
    }

    #[test]
    fn attention_timeout_retries_then_abandons() {
        let mut m = machine();
        m.start(0.0);
        m.on_arrived(1.0);
        m.on_pattern_complete(2.0); // poke 1 done, deadline 10.0
        assert!(
            m.poll(9.9).is_empty(),
            "before the deadline nothing happens"
        );
        let a = m.poll(10.1);
        assert_eq!(a, vec![ProtocolAction::ExecutePoke], "retry poke 2");
        m.on_pattern_complete(11.0);
        let a = m.poll(20.0);
        assert_eq!(a, vec![ProtocolAction::ExecutePoke], "retry poke 3");
        m.on_pattern_complete(21.0);
        let a = m.poll(30.0);
        assert_eq!(a, vec![ProtocolAction::Retreat], "out of retries");
        assert_eq!(m.outcome(), SessionOutcome::Abandoned);
    }

    #[test]
    fn answer_timeout_retries_rectangle() {
        let mut m = machine();
        to_awaiting_answer(&mut m);
        let a = m.poll(100.0);
        assert_eq!(
            a,
            vec![ProtocolAction::ExecuteRectangle],
            "repeat the request"
        );
        m.on_pattern_complete(101.0);
        let a = m.poll(200.0);
        assert_eq!(a, vec![ProtocolAction::Retreat]);
        assert_eq!(m.outcome(), SessionOutcome::Abandoned);
    }

    #[test]
    fn unreachable_contact_point_abandons_in_bounded_time() {
        let mut m = machine();
        m.start(0.0);
        assert!(m.poll(59.9).is_empty(), "still approaching");
        let a = m.poll(60.1);
        assert_eq!(a, vec![ProtocolAction::Retreat]);
        assert_eq!(m.outcome(), SessionOutcome::Abandoned);
    }

    #[test]
    fn arrival_clears_the_approach_deadline() {
        let mut m = machine();
        m.start(0.0);
        m.on_arrived(1.0);
        m.on_pattern_complete(2.0); // attention deadline now governs
        assert!(m.poll(9.9).is_empty());
        assert_eq!(m.poll(10.1), vec![ProtocolAction::ExecutePoke]);
    }

    #[test]
    fn wrong_sign_is_ignored_while_awaiting_attention() {
        let mut m = machine();
        m.start(0.0);
        m.on_arrived(1.0);
        m.on_pattern_complete(2.0);
        assert!(m.on_sign(Some(MarshallingSign::Yes), 3.0).is_empty());
        assert!(m.on_sign(None, 3.5).is_empty());
        assert_eq!(m.state(), NegotiationState::AwaitingAttention);
    }

    #[test]
    fn no_entry_without_yes() {
        // R4: EnterArea is emitted only by the Yes transition
        let mut m = machine();
        to_awaiting_answer(&mut m);
        let mut all_actions = Vec::new();
        all_actions.extend(m.on_sign(Some(MarshallingSign::AttentionGained), 5.0));
        all_actions.extend(m.on_sign(None, 6.0));
        all_actions.extend(m.poll(7.0));
        assert!(
            !all_actions.contains(&ProtocolAction::EnterArea),
            "no entry before an explicit Yes"
        );
    }

    #[test]
    fn safety_aborts_from_any_state() {
        for drive in 0..4 {
            let mut m = machine();
            m.start(0.0);
            if drive >= 1 {
                m.on_arrived(1.0);
            }
            if drive >= 2 {
                m.on_pattern_complete(2.0);
            }
            if drive >= 3 {
                m.on_sign(Some(MarshallingSign::AttentionGained), 3.0);
            }
            let a = m.on_safety(4.0);
            assert_eq!(a, vec![ProtocolAction::DangerLand]);
            assert_eq!(m.outcome(), SessionOutcome::Aborted);
            // terminal: further events do nothing
            assert!(m.on_sign(Some(MarshallingSign::Yes), 5.0).is_empty());
            assert!(m.poll(100.0).is_empty());
            assert!(m.on_safety(6.0).is_empty());
        }
    }

    #[test]
    fn wave_off_denies_from_any_live_state() {
        for drive in 1..4 {
            let mut m = machine();
            m.start(0.0);
            if drive >= 2 {
                m.on_arrived(1.0);
                m.on_pattern_complete(2.0);
            }
            if drive >= 3 {
                m.on_sign(Some(MarshallingSign::AttentionGained), 3.0);
                m.on_pattern_complete(4.0);
            }
            let actions = m.on_wave_off(5.0);
            assert_eq!(
                actions,
                vec![ProtocolAction::ExecuteTurn, ProtocolAction::Retreat],
                "drive {drive}"
            );
            assert_eq!(m.outcome(), SessionOutcome::Denied);
            assert!(!actions.contains(&ProtocolAction::EnterArea));
        }
        // but not before starting, and not after terminal
        let mut m = machine();
        assert!(m.on_wave_off(0.0).is_empty());
        to_awaiting_answer(&mut m);
        m.on_sign(Some(MarshallingSign::Yes), 9.0);
        assert!(m.on_wave_off(10.0).is_empty(), "granted is final");
    }

    #[test]
    fn start_is_idempotent() {
        let mut m = machine();
        assert_eq!(m.start(0.0), vec![ProtocolAction::FlyToContact]);
        assert!(m.start(1.0).is_empty());
    }

    #[test]
    fn arrival_only_valid_when_approaching() {
        let mut m = machine();
        assert!(m.on_arrived(0.0).is_empty(), "not started yet");
        m.start(0.0);
        assert_eq!(m.on_arrived(1.0), vec![ProtocolAction::ExecutePoke]);
        assert!(m.on_arrived(2.0).is_empty(), "already poking");
    }

    #[test]
    fn outcome_before_terminal_is_running() {
        let mut m = machine();
        assert_eq!(m.outcome(), SessionOutcome::StillRunning);
        m.start(0.0);
        assert_eq!(m.outcome(), SessionOutcome::StillRunning);
    }

    #[test]
    fn display_strings() {
        assert_eq!(
            NegotiationState::AwaitingAnswer.to_string(),
            "awaiting answer"
        );
        assert_eq!(
            ProtocolAction::ExecuteRectangle.to_string(),
            "fly rectangle (request area)"
        );
        assert_eq!(SessionOutcome::Granted.to_string(), "granted");
    }
}
