//! The closed-loop collaboration session.
//!
//! Everything the paper sketches, running end-to-end in one loop: the drone
//! approaches and pokes (motion), the human perceives the pattern (the
//! trajectory classifier — a person watching), decides per their role
//! profile, turns toward the drone and holds a sign (articulated figure),
//! the drone's camera renders a frame (pinhole projection), the vision
//! pipeline recognises the sign (SAX), and the protocol machine advances.
//! No channel is faked: misread patterns, bad facing angles, dead-angle
//! rejections and timeouts all happen for geometric reasons.

use crate::cohort::{Cohort, CohortConfig, CohortPump, CohortReport};
use crate::datalink::{DatalinkConfig, LinkEvent, LinkReport, SessionLink};
use crate::log::{EventLog, LogEntry};
use crate::protocol::{
    NegotiationConfig, NegotiationMachine, NegotiationState, ProtocolAction, SessionOutcome,
};
use crate::roles::Role;
use crate::safety::SafetyMonitor;
use crate::view::{calibrated_pipeline, Calibrated, ViewMemo, ViewRead, ViewWorker};
use hdc_drone::{
    Drone, DroneConfig, DroneEvent, FlightPattern, LedMode, PatternClassifier, PatternKind,
    WindModel,
};
use hdc_figure::{MarshallingSign, Pose, Signaller, ViewSpec};
use hdc_geometry::{Vec2, Vec3};
use hdc_raster::GrayImage;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a scripted human does when they read a drone pattern — the
/// deterministic (RNG-free) alternative to the stochastic role profiles,
/// used by failure-mode tests and the scenario harness so that behavioural
/// assertions cannot silently depend on a hand-tuned seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScriptedResponse {
    /// Hold this static sign.
    Sign(MarshallingSign),
    /// Wave the drone off (emphatic refusal).
    WaveOff,
    /// Do nothing (let the drone time out).
    Ignore,
}

/// A fully deterministic human-response script. When installed in
/// [`SessionConfig::script`] the human answers the poke and the area request
/// exactly as specified, after exactly `latency_s` seconds, facing the drone
/// exactly (no facing error, no pose jitter) — the session RNG is never
/// consulted for human behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HumanScript {
    /// Response to a perceived poke.
    pub on_poke: ScriptedResponse,
    /// Response to a perceived area request (rectangle).
    pub on_request: ScriptedResponse,
    /// Fixed response latency, seconds.
    pub latency_s: f64,
}

impl HumanScript {
    /// A cooperative script: attention, then the given answer.
    pub fn answering(answer: ScriptedResponse) -> Self {
        HumanScript {
            on_poke: ScriptedResponse::Sign(MarshallingSign::AttentionGained),
            on_request: answer,
            latency_s: 1.0,
        }
    }

    /// An emphatic refuser who waves the drone off at the first poke.
    pub fn wave_off() -> Self {
        HumanScript {
            on_poke: ScriptedResponse::WaveOff,
            on_request: ScriptedResponse::WaveOff,
            latency_s: 1.0,
        }
    }
}

/// What a fault layer decides to do with a rendered camera frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Process the frame normally.
    Deliver,
    /// Discard the frame (transport loss / sensor dropout).
    Drop,
    /// Process the frame twice (stuck frame buffer).
    Duplicate,
}

/// Deterministic fault-injection hooks the session consults at its
/// disturbance points. Implementations live outside this crate (see the
/// `hdc-sim` scenario harness); every method has a no-fault default so
/// implementors override only the channels they perturb. Implementations
/// must be deterministic given their own construction seed — the session
/// guarantees it calls the hooks in a fixed order.
pub trait SessionFaults: std::fmt::Debug {
    /// Observes the render inputs of a camera frame — the signaller as
    /// posed and the owner camera's eye — just before the frame is
    /// rendered. Called once per camera frame, before
    /// [`SessionFaults::on_frame`]; a frame is a pure function of these
    /// inputs ([`crate::paint_view`]).
    fn on_view(&mut self, _t: f64, _signaller: &Signaller, _eye: Vec3) {}

    /// Inspects/mutates a rendered camera frame before recognition and
    /// decides its fate. Called once per camera frame.
    fn on_frame(&mut self, _t: f64, _frame: &mut GrayImage) -> FrameFate {
        FrameFate::Deliver
    }

    /// Extra human response latency added on top of the profile/script
    /// latency, seconds. Called once per scheduled response.
    fn response_delay(&mut self, _t: f64) -> f64 {
        0.0
    }

    /// Additional facing error applied when the human turns toward the
    /// drone, radians. Called once per response.
    fn facing_bias(&mut self, _t: f64) -> f64 {
        0.0
    }

    /// Heading drift rate while the human is signalling, radians/second
    /// (models a signaller slowly rotating into the dead angle). Called once
    /// per simulation step while the human holds a sign or waves.
    fn heading_drift(&mut self, _t: f64) -> f64 {
        0.0
    }

    /// A role change taking effect now (mid-negotiation shift change).
    /// Called once per simulation step; the first `Some` sticks.
    fn role_change(&mut self, _t: f64) -> Option<Role> {
        None
    }

    /// The next absolute time at which this layer needs the session to take
    /// a step it would not otherwise take (e.g. a scheduled role change), or
    /// `None` when the layer rides the session's own events. Consulted by
    /// the event-driven scheduler only; lockstep mode steps every `DT`
    /// regardless. Per-step hooks that are linear in the step span (a
    /// constant heading-drift rate) coalesce exactly and need no deadline;
    /// layers with genuinely time-varying per-step behaviour should override
    /// this to cap the coalescing window.
    fn next_due(&mut self, _now: f64) -> Option<f64> {
        None
    }
}

/// Session parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// The human collaborator's role (drives response behaviour).
    pub role: Role,
    /// Whether the human intends to consent when asked.
    pub will_consent: bool,
    /// Human ground position.
    pub human_position: Vec2,
    /// Human initial facing, radians.
    pub human_heading: f64,
    /// Drone start (ground) position.
    pub drone_home: Vec2,
    /// Horizontal contact distance for the negotiation, metres.
    pub contact_distance_m: f64,
    /// Negotiation altitude, metres.
    pub negotiation_altitude_m: f64,
    /// Camera frame cadence while listening for signs, seconds.
    pub frame_interval_s: f64,
    /// Hard wall-clock cap on the session, seconds.
    pub max_duration_s: f64,
    /// Protocol timeouts/retries.
    pub negotiation: NegotiationConfig,
    /// RNG seed (human behaviour; the drone's wind process derives its own
    /// stream from this seed, so one value pins the whole session).
    pub seed: u64,
    /// Optional behavioural-profile override (sensitivity studies). When
    /// `None` the role's standard profile applies.
    pub profile_override: Option<crate::roles::RoleProfile>,
    /// Wind environment the drone flies in.
    pub wind: WindModel,
    /// Battery pack capacity, watt-hours (fault injection: battery sag).
    pub battery_wh: f64,
    /// Optional deterministic human-response script; replaces the stochastic
    /// role-profile behaviour entirely when set.
    pub script: Option<HumanScript>,
    /// Optional simulated drone↔supervisor datalink. When set, negotiation
    /// events and protocol actions travel as reliable link messages over
    /// seeded lossy channels (drop, duplication, reordering, partitions,
    /// heartbeat leases); when `None` they are direct in-process calls —
    /// the zero-fault special case, byte-identical to the pre-link engine.
    pub datalink: Option<DatalinkConfig>,
    /// Optional observation cohort: extra drones watching the same human
    /// from offset azimuths, relaying their recognitions to this session
    /// over per-pair reliable endpoints, with a deterministic quorum vote
    /// gating what reaches the negotiation machine. `None` is the
    /// single-view engine, byte-identical to the pre-cohort behaviour.
    pub cohort: Option<CohortConfig>,
}

impl SessionConfig {
    /// A worker at 12 m who will consent — the paper's Figure 3 scenario.
    pub fn worker_example(seed: u64) -> Self {
        SessionConfig::for_role(Role::Worker, true, seed)
    }

    /// A session with the given role and consent intention.
    pub fn for_role(role: Role, will_consent: bool, seed: u64) -> Self {
        SessionConfig {
            role,
            will_consent,
            human_position: Vec2::new(12.0, 8.0),
            human_heading: 0.3,
            drone_home: Vec2::ZERO,
            contact_distance_m: 3.0,
            negotiation_altitude_m: 4.0,
            frame_interval_s: 0.5,
            max_duration_s: 180.0,
            negotiation: NegotiationConfig::default(),
            seed,
            profile_override: None,
            wind: WindModel::calm(),
            battery_wh: 71.0,
            script: None,
            datalink: None,
            cohort: None,
        }
    }

    /// The same session with a deterministic human-response script installed.
    pub fn with_script(mut self, script: HumanScript) -> Self {
        self.script = Some(script);
        self
    }

    /// The same session with a simulated datalink between drone and
    /// supervisor.
    pub fn with_datalink(mut self, datalink: DatalinkConfig) -> Self {
        self.datalink = Some(datalink);
        self
    }

    /// The same session with an observation cohort on station.
    pub fn with_cohort(mut self, cohort: CohortConfig) -> Self {
        self.cohort = Some(cohort);
        self
    }
}

/// What a finished session reports.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Final outcome.
    pub outcome: SessionOutcome,
    /// Total simulated time, seconds.
    pub duration_s: f64,
    /// Camera frames processed.
    pub frames_processed: usize,
    /// Frames on which the pipeline produced a decision.
    pub frames_recognized: usize,
    /// Frames discarded by an installed fault layer.
    pub frames_dropped: usize,
    /// Frames processed twice by an installed fault layer.
    pub frames_duplicated: usize,
    /// Owner camera frames served from the view memo (a repeat of the
    /// previous view, neither rendered nor recognised again) — a
    /// host-independent work counter outside every digest.
    pub views_reused: usize,
    /// LED ring mode at session end (safety audits check the all-red latch).
    pub ring_mode: LedMode,
    /// Whether the drone's safety function engaged during the session.
    pub safety_engaged: bool,
    /// Whether the drone finished on the ground.
    pub grounded: bool,
    /// Datalink traffic summary, when a datalink was configured.
    pub link: Option<LinkReport>,
    /// Cohort consensus summary, when an observation cohort was configured.
    pub cohort: Option<CohortReport>,
    /// The full event log.
    pub log: EventLog,
}

/// What the human decided to answer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlannedResponse {
    /// Hold a static marshalling sign.
    Sign(MarshallingSign),
    /// Wave the drone off (dynamic gesture — emphatic refusal).
    WaveOff,
}

/// A scheduled human response.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingResponse {
    due_at: f64,
    response: PlannedResponse,
}

/// What the human is doing with their arms right now.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HumanActivity {
    /// Arms down.
    Idle,
    /// Holding a static sign until the deadline.
    Holding(MarshallingSign, f64, Pose),
    /// Waving the drone off until the deadline (slow deliberate wave).
    Waving(f64 /* until */, f64 /* started at */),
}

/// The human's current signalling state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HumanState {
    heading: f64,
    activity: HumanActivity,
    pending: Option<PendingResponse>,
}

/// The closed-loop session engine.
#[derive(Debug)]
pub struct CollaborationSession {
    config: SessionConfig,
    drone: Drone,
    machine: NegotiationMachine,
    pipeline: Calibrated,
    dynamic: hdc_vision::dynamic::DynamicRecognizer,
    memo: ViewMemo,
    observer: PatternClassifier,
    monitor: SafetyMonitor,
    human: HumanState,
    rng: SmallRng,
    log: EventLog,
    time: f64,
    drone_ticks: u64,
    advances: u64,
    next_frame_at: f64,
    frames_processed: usize,
    frames_recognized: usize,
    frames_dropped: usize,
    frames_duplicated: usize,
    contact_point: Vec3,
    flying_to: Option<Vec3>,
    entered_area: bool,
    static_filter: hdc_vision::DecisionFilter,
    faults: Option<Box<dyn SessionFaults>>,
    link: Option<SessionLink>,
    cohort: Option<Cohort>,
}

/// Sign hold duration, seconds.
const SIGN_HOLD_S: f64 = 5.0;
/// Wave-off duration, seconds (slow deliberate wave at [`WAVE_HZ`]).
const WAVE_HOLD_S: f64 = 8.0;
/// Wave frequency, Hz — slow enough that the 0.5 s camera cadence samples
/// each cycle ~5 times.
const WAVE_HZ: f64 = 0.4;
/// Probability that a refusing human waves off instead of signing No.
const WAVE_OFF_PROB: f64 = 0.35;
/// Simulation step, seconds.
const DT: f64 = 0.1;

/// The dynamic-channel (wave-off) recogniser every session member runs —
/// shared with the cohort observers so each relay drone carries an
/// identically tuned detector.
pub(crate) fn session_dynamic_recognizer() -> hdc_vision::dynamic::DynamicRecognizer {
    hdc_vision::dynamic::DynamicRecognizer::new(hdc_vision::dynamic::DynamicConfig {
        window_s: 6.0,
        min_cycles: 2,
        min_amplitude: 0.12,
        static_max_sd: 0.03,
        min_frames: 6,
    })
}

impl CollaborationSession {
    /// The lockstep simulation step, seconds — the tick period schedulers
    /// use to choreograph compat mode, and the fallback advance in event
    /// mode when work is due immediately.
    pub const TICK_S: f64 = DT;

    /// Builds a session: takes the vision pipeline calibrated from the
    /// canonical views (the paper's 0°-azimuth references at the negotiation
    /// geometry, calibrated once per process) and positions the actors.
    pub fn new(config: SessionConfig) -> Self {
        let pipeline = calibrated_pipeline(&ViewSpec::paper_default(
            0.0,
            config.negotiation_altitude_m,
            config.contact_distance_m,
        ));

        // contact point: at contact distance from the human, on the side the
        // drone approaches from
        let approach = (config.drone_home - config.human_position)
            .normalized()
            .unwrap_or(Vec2::X);
        let contact_ground = config.human_position + approach * config.contact_distance_m;
        let contact_point = Vec3::from_xy(contact_ground, config.negotiation_altitude_m);

        CollaborationSession {
            drone: Drone::new(DroneConfig {
                home: Vec3::from_xy(config.drone_home, 0.0),
                wind: config.wind,
                // a distinct stream derived from the one session seed, so the
                // wind process and the human never share draws
                seed: config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0xD1B5),
                battery_wh: config.battery_wh,
                ..DroneConfig::default()
            }),
            machine: NegotiationMachine::new(config.negotiation),
            pipeline,
            observer: PatternClassifier::default(),
            monitor: SafetyMonitor::default(),
            dynamic: session_dynamic_recognizer(),
            memo: ViewMemo::default(),
            human: HumanState {
                heading: config.human_heading,
                activity: HumanActivity::Idle,
                pending: None,
            },
            rng: SmallRng::seed_from_u64(config.seed),
            log: EventLog::new(),
            time: 0.0,
            drone_ticks: 0,
            advances: 0,
            next_frame_at: 0.0,
            frames_processed: 0,
            frames_recognized: 0,
            frames_dropped: 0,
            frames_duplicated: 0,
            contact_point,
            flying_to: None,
            entered_area: false,
            static_filter: hdc_vision::DecisionFilter::new(2),
            faults: None,
            link: config
                .datalink
                .map(|datalink| SessionLink::new(datalink, config.seed, 0.0)),
            cohort: config.cohort.map(|cohort| {
                Cohort::new(
                    cohort,
                    config.seed,
                    config.negotiation_altitude_m,
                    config.contact_distance_m,
                    0.0,
                )
            }),
            config,
        }
    }

    /// Installs a fault-injection layer. The hooks are consulted at every
    /// disturbance point from the next step on.
    pub fn set_faults(&mut self, faults: Box<dyn SessionFaults>) {
        self.faults = Some(faults);
    }

    /// Mutable access to the drone (fault injection: LED channel failure and
    /// other hardware degradation set up by a harness before the run).
    pub fn drone_mut(&mut self) -> &mut Drone {
        &mut self.drone
    }

    /// The event log so far.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The simulated drone (for inspection).
    pub fn drone(&self) -> &Drone {
        &self.drone
    }

    /// The protocol machine state.
    pub fn state(&self) -> NegotiationState {
        self.machine.state()
    }

    /// Elapsed simulated time, seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Whether the session has reached a terminal protocol state and the
    /// drone has finished moving. A datalink must also be quiet (every
    /// command acknowledged, nothing in flight) so a terminal decision's
    /// actions still reach the drone, and a cohort's relays settled —
    /// unless the drone has already engaged its safety latch, in which case
    /// a permanently partitioned link cannot hold the session open.
    pub fn is_done(&self) -> bool {
        let relays_settled = self.drone.safety_engaged()
            || (self.link.as_ref().is_none_or(SessionLink::is_quiet)
                && self.cohort.as_ref().is_none_or(Cohort::is_settled));
        self.machine.state().is_terminal()
            && !self.drone.is_executing()
            && self.flying_to.is_none()
            && relays_settled
    }

    fn note(&mut self, entry: LogEntry) {
        self.log.push(self.time, entry);
    }

    /// The behavioural profile in force (override or the role's standard).
    fn behaviour_profile(&self) -> crate::roles::RoleProfile {
        self.config
            .profile_override
            .unwrap_or_else(|| self.config.role.profile())
    }

    fn apply_actions(&mut self, actions: Vec<ProtocolAction>) {
        for action in actions {
            self.note(LogEntry::Action(action.clone()));
            match action {
                ProtocolAction::FlyToContact => {
                    // take off first if grounded
                    if self.drone.state().is_grounded() {
                        self.drone.execute_pattern(FlightPattern::TakeOff {
                            target_altitude: self.config.negotiation_altitude_m,
                        });
                    }
                    self.flying_to = Some(self.contact_point);
                }
                ProtocolAction::ExecutePoke => {
                    let toward = self.config.human_position - self.drone.state().position.xy();
                    // clear the trace so the human reads only the gesture,
                    // not the preceding transit
                    let _ = self.drone.take_trace();
                    self.drone.execute_pattern(FlightPattern::Poke { toward });
                }
                ProtocolAction::ExecuteRectangle => {
                    let _ = self.drone.take_trace();
                    // small enough that no corner of the circuit can breach
                    // the 2 m separation from the 3 m contact distance
                    self.drone.execute_pattern(FlightPattern::RectangleRequest {
                        half_width: 0.45,
                        half_depth: 0.35,
                    });
                }
                ProtocolAction::ExecuteNod => self.drone.execute_pattern(FlightPattern::Nod),
                ProtocolAction::ExecuteTurn => self.drone.execute_pattern(FlightPattern::Turn),
                ProtocolAction::EnterArea => {
                    self.monitor.access_granted = true;
                    self.entered_area = true;
                    self.flying_to = Some(Vec3::from_xy(
                        self.config.human_position,
                        self.config.negotiation_altitude_m,
                    ));
                }
                ProtocolAction::Retreat => {
                    let away = (self.drone.state().position.xy() - self.config.human_position)
                        .normalized()
                        .unwrap_or(Vec2::X);
                    self.flying_to = Some(Vec3::from_xy(
                        self.config.human_position + away * (self.config.contact_distance_m * 3.0),
                        self.config.negotiation_altitude_m,
                    ));
                }
                ProtocolAction::DangerLand => {
                    self.flying_to = None;
                    self.drone.trigger_safety("protocol abort");
                }
            }
        }
    }

    /// Sends a drone-side negotiation event to the supervisor: up the
    /// datalink when one is configured (the endpoint gives it exactly-once,
    /// in-order delivery, so a redelivered event can never drive the
    /// machine twice), straight into [`Self::on_link_event`] otherwise.
    /// Returns `true` when the event went up the link or changed the
    /// machine's state.
    fn dispatch(&mut self, event: LinkEvent) -> bool {
        let now = self.time;
        if let Some(link) = self.link.as_mut() {
            link.send_event(now, event);
            return true;
        }
        self.on_link_event(event)
    }

    /// Runs one negotiation handler at the supervisor: logs the new state
    /// iff it changed, then forwards the resulting actions to the drone.
    /// Returns whether the state changed.
    fn drive(
        &mut self,
        handler: impl FnOnce(&mut NegotiationMachine, f64) -> Vec<ProtocolAction>,
    ) -> bool {
        let before = self.machine.state();
        let actions = handler(&mut self.machine, self.time);
        let changed = self.machine.state() != before;
        if changed {
            self.note(LogEntry::StateChanged {
                to: self.machine.state(),
            });
        }
        self.forward_actions(actions);
        changed
    }

    /// Hands supervisor-decided actions to the drone: a direct in-process
    /// call without a datalink, a reliable downlink message with one.
    fn forward_actions(&mut self, actions: Vec<ProtocolAction>) {
        let now = self.time;
        match self.link.as_mut() {
            Some(link) => {
                for action in actions {
                    link.send_action(now, action);
                }
            }
            None => self.apply_actions(actions),
        }
    }

    /// Supervisor side of the uplink (or of the in-process call): one
    /// delivered event drives exactly one machine handler. Returns whether
    /// the state changed.
    fn on_link_event(&mut self, event: LinkEvent) -> bool {
        match event {
            LinkEvent::Arrived => self.drive(NegotiationMachine::on_arrived),
            LinkEvent::PatternComplete => self.drive(NegotiationMachine::on_pattern_complete),
            LinkEvent::Sign(sign) => self.drive(|m, now| m.on_sign(Some(sign), now)),
            LinkEvent::WaveOff => self.drive(NegotiationMachine::on_wave_off),
            LinkEvent::Safety => self.drive(NegotiationMachine::on_safety),
        }
    }

    /// The human perceives a completed drone pattern and maybe schedules a
    /// response.
    fn human_perceive(&mut self, trace: hdc_drone::Trajectory) {
        let Some(kind) = self.observer.classify(&trace) else {
            self.note(LogEntry::Note(
                "human could not read the drone's motion".into(),
            ));
            return;
        };
        self.note(LogEntry::Note(format!("human reads the motion as: {kind}")));

        // scripted humans bypass the stochastic profile entirely: exact
        // response, exact latency, no RNG draws
        if let Some(script) = self.config.script {
            let scripted = match kind {
                PatternKind::Poke => script.on_poke,
                PatternKind::RectangleRequest => script.on_request,
                _ => return,
            };
            let response = match scripted {
                ScriptedResponse::Sign(sign) => PlannedResponse::Sign(sign),
                ScriptedResponse::WaveOff => PlannedResponse::WaveOff,
                ScriptedResponse::Ignore => {
                    self.note(LogEntry::Note(
                        "human (scripted) ignores the pattern".into(),
                    ));
                    return;
                }
            };
            let extra = self.extra_response_delay();
            self.human.pending = Some(PendingResponse {
                due_at: self.time + script.latency_s + extra,
                response,
            });
            return;
        }

        let profile = self.behaviour_profile();
        let respond = |rng: &mut SmallRng, p: f64| rng.gen::<f64>() < p;

        let intended = match kind {
            PatternKind::Poke => {
                if !respond(&mut self.rng, profile.attend_probability) {
                    self.note(LogEntry::Note("human ignores the poke".into()));
                    return;
                }
                // someone who will refuse anyway may wave the drone off right
                // at the poke — "don't even ask"
                if !self.config.will_consent && self.rng.gen::<f64>() < WAVE_OFF_PROB {
                    let latency = profile.sample_latency(&mut self.rng);
                    let due_at = self.time + latency + self.extra_response_delay();
                    self.human.pending = Some(PendingResponse {
                        due_at,
                        response: PlannedResponse::WaveOff,
                    });
                    return;
                }
                MarshallingSign::AttentionGained
            }
            PatternKind::RectangleRequest => {
                if !respond(&mut self.rng, profile.answer_probability) {
                    self.note(LogEntry::Note("human does not answer the request".into()));
                    return;
                }
                if self.config.will_consent {
                    MarshallingSign::Yes
                } else {
                    // an emphatic refuser may wave the drone off instead of
                    // holding the static No
                    if self.rng.gen::<f64>() < WAVE_OFF_PROB {
                        let latency = profile.sample_latency(&mut self.rng);
                        let due_at = self.time + latency + self.extra_response_delay();
                        self.human.pending = Some(PendingResponse {
                            due_at,
                            response: PlannedResponse::WaveOff,
                        });
                        return;
                    }
                    MarshallingSign::No
                }
            }
            _ => return, // nod/turn/transits need no human response
        };

        // training errors: the wrong sign comes out
        let sign = if respond(&mut self.rng, profile.correct_sign_probability) {
            intended
        } else {
            let options: Vec<MarshallingSign> = MarshallingSign::ALL
                .into_iter()
                .filter(|s| *s != intended)
                .collect();
            options[self.rng.gen_range(0..options.len())]
        };
        let latency = profile.sample_latency(&mut self.rng);
        let due_at = self.time + latency + self.extra_response_delay();
        self.human.pending = Some(PendingResponse {
            due_at,
            response: PlannedResponse::Sign(sign),
        });
    }

    /// Extra response latency requested by an installed fault layer.
    fn extra_response_delay(&mut self) -> f64 {
        let t = self.time;
        self.faults.as_mut().map_or(0.0, |f| f.response_delay(t))
    }

    /// Renders the drone's camera view of the human and runs recognition,
    /// reading every view through `worker`.
    fn process_frame(&mut self, worker: &mut ViewWorker) {
        let drone_pos = self.drone.state().position;
        let distance = drone_pos.xy().distance(self.config.human_position);
        if distance < 0.5 {
            return; // directly overhead: no usable view
        }
        let pose = match self.human.activity {
            HumanActivity::Holding(_, _, pose) => pose,
            HumanActivity::Waving(_, started_at) => {
                Pose::wave_off_phase((self.time - started_at) * WAVE_HZ)
            }
            HumanActivity::Idle => Pose::neutral(),
        };
        let signaller = Signaller::new(self.config.human_position, self.human.heading, pose);
        let eye = drone_pos;

        // cohort observers sense the same scene from their own viewpoints
        // on the owner's camera cadence; their votes ride the relay and
        // surface at the next cohort pump. The fault layer below touches
        // only the owner's frame — observer impairment is the relay model.
        if let Some(cohort) = self.cohort.as_mut() {
            cohort.sense(worker, self.time, &signaller, eye);
        }

        // An installed fault layer may rewrite pixels and must see every
        // frame in order, so only an unfaulted owner reads through its memo.
        let Some(faults) = self.faults.as_mut() else {
            let read = self
                .memo
                .view(worker, &signaller, eye, &self.pipeline, true);
            self.ingest_read(read);
            return;
        };

        // the fault layer sees (and may corrupt or discard) the frame before
        // either recognition channel does
        let t = self.time;
        faults.on_view(t, &signaller, eye);
        let (fate, read) = worker.read_faulted(&signaller, eye, &self.pipeline, |frame| {
            faults.on_frame(t, frame)
        });
        let Some(read) = read else {
            self.frames_dropped += 1;
            return;
        };
        self.ingest_read(read);
        // a stuck buffer delivers the same frame again, which reads the
        // same; it only matters while we are still listening
        if fate == FrameFate::Duplicate {
            self.frames_duplicated += 1;
            if !self.machine.state().is_terminal() {
                self.ingest_read(read);
            }
        }
    }

    /// Feeds one view's read — fresh or served from the memo — through both
    /// recognition channels' debounce, log, counters and cohort vote.
    fn ingest_read(&mut self, read: ViewRead) {
        // dynamic channel: the temporal recogniser sees every frame
        self.dynamic.push_features(self.time, read.features);
        if self.dynamic.decision() == hdc_vision::dynamic::DynamicDecision::WaveOff {
            self.note(LogEntry::WaveOffDetected);
            self.dynamic.reset();
            // a wave-off the machine ignores lets frame processing go on
            if self.dispatch(LinkEvent::WaveOff) {
                return;
            }
        }

        // static channel — debounced: a label is believed only when two
        // consecutive frames agree (a single mid-gesture frame can alias to
        // a static sign; a held sign always repeats)
        let decision = read
            .decision
            .expect("the owner always reads the static decision");
        self.frames_processed += 1;
        if decision.is_some() {
            self.frames_recognized += 1;
        }
        self.note(LogEntry::Recognized(decision));
        // unconfirmed frames neither vote nor reach the protocol: silence
        // is covered by the protocol's own timeouts
        let Some(sign) = self.static_filter.push(decision) else {
            return;
        };
        if let Some(cohort) = self.cohort.as_mut() {
            // the owner's confirmation is vote 0 of the quorum; only what
            // the vote accepts reaches the protocol path
            let pump = cohort.owner_vote(self.time, sign);
            self.apply_cohort_pump(pump);
        } else {
            self.dispatch(LinkEvent::Sign(sign));
        }
    }

    /// Acts on one cohort round: logs observer recognitions (the R4 audit
    /// sees cohort-wide evidence) and cohort notes, honours relayed
    /// wave-offs immediately (they bypass the vote), and dispatches a
    /// quorum-accepted sign.
    fn apply_cohort_pump(&mut self, pump: CohortPump) {
        for sign in pump.recognized {
            self.note(LogEntry::Recognized(Some(sign)));
        }
        for note in pump.notes {
            self.note(note);
        }
        if pump.wave_off {
            self.dispatch(LinkEvent::WaveOff);
        }
        if let Some(sign) = pump.accepted {
            self.dispatch(LinkEvent::Sign(sign));
        }
    }

    /// Fires an external safety fault into the session (fault injection for
    /// experiment E12 and failure-mode tests). The protocol aborts, the ring
    /// goes all-red and the drone lands — exactly as for an organically
    /// detected violation.
    pub fn inject_safety(&mut self, reason: &str) {
        self.note(LogEntry::Note(format!("SAFETY (injected): {reason}")));
        if self.link.is_some() || self.machine.state().is_terminal() {
            // safety is reflexive at the drone: it cannot wait on the link
            // (the supervisor's own lease expiry covers an uplink message
            // that never lands), and a finished negotiation has no abort
            // left to command it
            self.flying_to = None;
            self.drone.trigger_safety(reason);
        }
        self.dispatch(LinkEvent::Safety);
    }

    /// Advances the session by one lockstep tick of `DT` seconds, reading
    /// its camera views through a fresh [`ViewWorker`].
    pub fn step(&mut self) {
        self.step_with(&mut ViewWorker::new());
    }

    /// [`step`](CollaborationSession::step), reading camera views through
    /// `worker`: the same pass whatever the worker has read before.
    pub fn step_with(&mut self, worker: &mut ViewWorker) {
        self.time += DT;
        self.step_body(DT, worker);
    }

    /// Advances the session directly to absolute time `t` (event-driven
    /// mode): one pass of the session loop covering the whole span since the
    /// previous pass, with the idle drone coasting across the gap. Its
    /// camera views are read through a fresh [`ViewWorker`], so a caller
    /// that keeps many sessions side by side keeps no frame buffers between
    /// their passes.
    ///
    /// # Panics
    /// Panics unless `t` is strictly after the current session time.
    pub fn step_to(&mut self, t: f64) {
        self.step_to_with(t, &mut ViewWorker::new());
    }

    /// [`step_to`](CollaborationSession::step_to), reading camera views
    /// through `worker`: the same pass whatever the worker has read before.
    ///
    /// # Panics
    /// Panics unless `t` is strictly after the current session time.
    pub fn step_to_with(&mut self, t: f64, worker: &mut ViewWorker) {
        let dt = t - self.time;
        assert!(dt > 0.0, "step_to must move time forward");
        self.time = t;
        self.step_body(dt, worker);
    }

    /// One pass of the session loop. `self.time` has already been advanced;
    /// `dt` is the span this pass covers (always exactly `DT` in lockstep
    /// mode, so lockstep behaviour is bit-identical to the pre-scheduler
    /// engine).
    fn step_body(&mut self, dt: f64, worker: &mut ViewWorker) {
        self.advances += 1;
        // --- fault layer: mid-negotiation role change ---
        let t = self.time;
        if let Some(role) = self.faults.as_mut().and_then(|f| f.role_change(t)) {
            if role != self.config.role {
                self.config.role = role;
                self.note(LogEntry::Note(format!(
                    "human role changed mid-negotiation to {role}"
                )));
            }
        }

        // --- protocol bootstrap ---
        if self.machine.state() == NegotiationState::Idle {
            self.drive(NegotiationMachine::start);
        }

        // --- drone motion ---
        if let Some(target) = self.flying_to {
            if !self.drone.is_executing() {
                self.drone.goto(target);
                if self.drone.state().position.distance(target) < 0.35 {
                    self.flying_to = None;
                    if self.machine.state() == NegotiationState::Approaching {
                        self.dispatch(LinkEvent::Arrived);
                    }
                }
            }
        }
        // Busy drones (pattern playback, waypoint transit) need true ticks
        // for motion fidelity; an idle hover over a longer event gap
        // coalesces into one coast — what makes a quiet session cost
        // O(events) instead of O(duration / DT).
        if self.drone.is_executing() || self.drone.has_waypoint() || dt <= DT + 1e-9 {
            self.drone.tick(dt);
            self.drone_ticks += 1;
        } else {
            self.drone.coast(dt);
        }

        // --- drone events ---
        for event in self.drone.drain_events() {
            if let DroneEvent::PatternComplete(kind) = &event {
                let kind = *kind;
                self.note(LogEntry::PatternDone(kind));
                self.dispatch(LinkEvent::PatternComplete);
                // the human watches communicative patterns
                if matches!(kind, PatternKind::Poke | PatternKind::RectangleRequest) {
                    let trace = self.drone.take_trace();
                    self.human_perceive(trace);
                }
            } else {
                let is_safety = matches!(event, DroneEvent::SafetyTriggered(_));
                self.note(LogEntry::Drone(event));
                // a drone-side safety engagement (battery reserve, hardware
                // fault) aborts the negotiation too — the protocol must not
                // keep waiting on a platform that has landed itself
                if is_safety {
                    self.dispatch(LinkEvent::Safety);
                }
            }
        }
        // keep the trace bounded between patterns
        if !self.drone.is_executing() && self.drone.trace().len() > 4000 {
            let _ = self.drone.take_trace();
        }

        // --- human signalling ---
        if let Some(pending) = self.human.pending {
            if self.time >= pending.due_at {
                self.human.pending = None;
                // turn toward the drone — imperfectly for a stochastic
                // human, exactly for a scripted one; a fault layer can push
                // the facing toward the recogniser's dead angle either way
                let bearing =
                    (self.drone.state().position.xy() - self.config.human_position).angle();
                let bias = {
                    let t = self.time;
                    self.faults.as_mut().map_or(0.0, |f| f.facing_bias(t))
                };
                let facing_error = if self.config.script.is_some() {
                    0.0
                } else {
                    self.behaviour_profile().sample_facing_error(&mut self.rng)
                };
                self.human.heading = bearing + facing_error + bias;
                match pending.response {
                    PlannedResponse::Sign(sign) => {
                        let pose = if self.config.script.is_some() {
                            Pose::for_sign(sign)
                        } else {
                            let jitter = self.behaviour_profile().pose_jitter_rad;
                            Pose::for_sign(sign).jittered(jitter, &mut self.rng)
                        };
                        self.human.activity =
                            HumanActivity::Holding(sign, self.time + SIGN_HOLD_S, pose);
                        self.note(LogEntry::HumanSigned(sign));
                    }
                    PlannedResponse::WaveOff => {
                        self.human.activity =
                            HumanActivity::Waving(self.time + WAVE_HOLD_S, self.time);
                        self.note(LogEntry::HumanWavesOff);
                    }
                }
            }
        }
        match self.human.activity {
            HumanActivity::Holding(_, until, _) | HumanActivity::Waving(until, _) => {
                if self.time >= until {
                    self.human.activity = HumanActivity::Idle;
                    self.note(LogEntry::HumanIdle);
                } else if self.faults.is_some() {
                    // fault layer: the signaller slowly rotates (e.g. into
                    // the ~100° azimuth dead angle) while holding the sign
                    let t = self.time;
                    let drift = self.faults.as_mut().map_or(0.0, |f| f.heading_drift(t));
                    self.human.heading += drift * dt;
                }
            }
            HumanActivity::Idle => {}
        }

        // --- vision frames while listening ---
        let listening = matches!(
            self.machine.state(),
            NegotiationState::AwaitingAttention | NegotiationState::AwaitingAnswer
        );
        if listening && !self.drone.is_executing() && self.time >= self.next_frame_at {
            self.next_frame_at = self.time + self.config.frame_interval_s;
            self.process_frame(worker);
        }

        // --- datalink ---
        if self.link.is_some() {
            let now = self.time;
            let pump = self.link.as_mut().expect("checked above").pump(now);
            for event in pump.events {
                self.on_link_event(event);
            }
            self.apply_actions(pump.actions);
            if pump.drone_lease_expired {
                // the drone has heard nothing for the lease timeout: it
                // must not keep holding position near a person on a dead
                // command link — autonomous safe-hold
                self.inject_safety("datalink lease expired: autonomous safe-hold");
            }
            if pump.supervisor_lease_expired {
                // the supervisor declares the drone lost and aborts
                self.note(LogEntry::Note(
                    "datalink lease expired: supervisor declares the drone lost".into(),
                ));
                self.drive(NegotiationMachine::on_safety);
            }
        }

        // --- cohort relays ---
        if self.cohort.is_some() {
            let now = self.time;
            let pump = self.cohort.as_mut().expect("checked above").pump(now);
            self.apply_cohort_pump(pump);
        }

        // --- timeouts ---
        self.drive(NegotiationMachine::poll);

        // --- safety ---
        let drone_already_latched = self.link.is_some() && self.drone.safety_engaged();
        if !self.machine.state().is_terminal() && !drone_already_latched {
            if let Some(violation) = self
                .monitor
                .check(self.drone.state(), self.config.human_position)
            {
                self.note(LogEntry::Note(format!("SAFETY: {violation}")));
                if self.link.is_some() {
                    // reflexive at the drone; the supervisor learns over
                    // the uplink
                    self.flying_to = None;
                    self.drone.trigger_safety("proximity/safety violation");
                }
                self.dispatch(LinkEvent::Safety);
            }
        }
    }

    /// Runs to completion (terminal protocol state or the time cap) in
    /// lockstep, reading camera views through one fresh [`ViewWorker`].
    pub fn run(&mut self) -> SessionOutcome {
        self.run_with(&mut ViewWorker::new())
    }

    /// [`run`](CollaborationSession::run), reading camera views through
    /// `worker`.
    pub fn run_with(&mut self, worker: &mut ViewWorker) -> SessionOutcome {
        while !self.is_done() && self.time < self.config.max_duration_s {
            self.step_with(worker);
        }
        self.machine.outcome()
    }

    /// The next absolute time at which this session has work to do, given
    /// that it last stepped at `now` — the event-driven scheduler's query.
    ///
    /// Conservative: it may return a time at which nothing observable
    /// happens (that step is then cheap) and may return times at or before
    /// `now` (meaning "work is due immediately"), but it never skips past a
    /// time where observable work exists. Sources: busy-drone per-tick
    /// motion, scheduled human responses, sign/wave expiry, the camera
    /// cadence while listening, protocol deadlines, datalink timers and
    /// lease edges, and the fault layer's own deadlines.
    pub fn next_due_after(&mut self, now: f64) -> f64 {
        let mut due = f64::INFINITY;
        // A busy drone (pattern playback, waypoint transit) needs per-tick
        // motion fidelity; a machine still waiting to bootstrap needs the
        // next tick too.
        if self.drone.is_executing()
            || self.drone.has_waypoint()
            || self.flying_to.is_some()
            || self.machine.state() == NegotiationState::Idle
        {
            due = due.min(now + DT);
        }
        if let Some(pending) = self.human.pending {
            due = due.min(pending.due_at);
        }
        match self.human.activity {
            HumanActivity::Holding(_, until, _) | HumanActivity::Waving(until, _) => {
                due = due.min(until);
            }
            HumanActivity::Idle => {}
        }
        let listening = matches!(
            self.machine.state(),
            NegotiationState::AwaitingAttention | NegotiationState::AwaitingAnswer
        );
        if listening && !self.drone.is_executing() {
            due = due.min(self.next_frame_at.max(now));
        }
        if let Some(deadline) = self.machine.next_deadline() {
            due = due.min(deadline);
        }
        if let Some(link) = &self.link {
            due = due.min(link.next_due(now));
        }
        if let Some(cohort) = &self.cohort {
            due = due.min(cohort.next_due(now));
        }
        if let Some(faults) = self.faults.as_mut() {
            if let Some(d) = faults.next_due(now) {
                due = due.min(d);
            }
        }
        due
    }

    /// Runs to completion in event-driven mode: instead of ticking every
    /// `DT`, the session jumps straight to each next due time, coasting the
    /// idle drone across the gaps. Deterministic and digest-stable for a
    /// given config, but not bit-identical to lockstep [`run`] (coarser idle
    /// traces, gap-dependent float sums) — the event-driven golden manifest
    /// pins this mode separately.
    ///
    /// Its camera views are read through one fresh [`ViewWorker`].
    ///
    /// [`run`]: CollaborationSession::run
    pub fn run_events(&mut self) -> SessionOutcome {
        self.run_events_with(&mut ViewWorker::new())
    }

    /// [`run_events`](CollaborationSession::run_events), reading camera
    /// views through `worker`.
    pub fn run_events_with(&mut self, worker: &mut ViewWorker) -> SessionOutcome {
        while !self.is_done() && self.time < self.config.max_duration_s {
            let now = self.time;
            let mut target = self.next_due_after(now);
            if target <= now || target.is_nan() {
                // overdue or immediate work (NaN-proof): take one tick
                target = now + DT;
            }
            self.step_to_with(target.min(self.config.max_duration_s), worker);
        }
        self.machine.outcome()
    }

    /// True drone ticks executed so far (coasts excluded) — the work metric
    /// the event-driven scheduler is judged on.
    pub fn drone_ticks(&self) -> u64 {
        self.drone_ticks
    }

    /// Passes of the session loop so far, one per [`step`] or [`step_to`]:
    /// a scheduler's dispatch count for this session.
    ///
    /// [`step`]: CollaborationSession::step
    /// [`step_to`]: CollaborationSession::step_to
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Runs and produces the full report.
    pub fn run_report(mut self) -> SessionReport {
        self.run();
        self.into_report()
    }

    /// Produces the report for whatever has run so far — for harnesses that
    /// step the session manually (e.g. to fire [`inject_safety`] mid-run).
    ///
    /// [`inject_safety`]: CollaborationSession::inject_safety
    pub fn into_report(self) -> SessionReport {
        SessionReport {
            outcome: self.machine.outcome(),
            duration_s: self.time,
            frames_processed: self.frames_processed,
            frames_recognized: self.frames_recognized,
            frames_dropped: self.frames_dropped,
            frames_duplicated: self.frames_duplicated,
            views_reused: self.memo.reused() as usize,
            ring_mode: self.drone.ring().mode(),
            safety_engaged: self.drone.safety_engaged(),
            grounded: self.drone.state().is_grounded(),
            link: self.link.as_ref().map(SessionLink::report),
            cohort: self.cohort.as_ref().map(Cohort::report),
            log: self.log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_on_two_threads_share_one_calibration() {
        let cfg = SessionConfig::worker_example(3);
        let here = CollaborationSession::new(cfg).pipeline;
        let there = std::thread::scope(|scope| {
            scope
                .spawn(|| CollaborationSession::new(cfg).pipeline)
                .join()
                .expect("a session builds on a second thread")
        });
        assert!(
            std::ptr::eq(&*here, &*there),
            "the spec was calibrated once per process, not once per thread"
        );
    }

    #[test]
    fn event_driven_run_matches_lockstep_outcome_with_far_fewer_ticks() {
        // A slow (but still in-time) responder: the drone spends most of the
        // session hovering and listening, which is where coasting pays.
        let cfg = SessionConfig::worker_example(3).with_script(HumanScript {
            on_poke: ScriptedResponse::Sign(MarshallingSign::AttentionGained),
            on_request: ScriptedResponse::Sign(MarshallingSign::Yes),
            latency_s: 6.0,
        });
        let mut lock = CollaborationSession::new(cfg);
        let lock_outcome = lock.run();
        let mut ev = CollaborationSession::new(cfg);
        let ev_outcome = ev.run_events();
        assert_eq!(lock_outcome, ev_outcome, "log:\n{}", ev.log());
        // Flight time is irreducible, so the bound here is modest; the
        // idle-heavy capacity bench is where the big ratios show up.
        assert!(
            ev.drone_ticks() + 50 < lock.drone_ticks(),
            "event mode must do fewer drone ticks: {} vs {}",
            ev.drone_ticks(),
            lock.drone_ticks()
        );
    }

    #[test]
    fn idle_gaps_between_events_cost_zero_drone_ticks() {
        // An ignoring human leaves the drone hovering and listening; every
        // gap until the next camera frame or protocol deadline must coast.
        let cfg = SessionConfig::worker_example(11).with_script(HumanScript {
            on_poke: ScriptedResponse::Ignore,
            on_request: ScriptedResponse::Ignore,
            latency_s: 1.0,
        });
        let mut s = CollaborationSession::new(cfg);
        let mut checked_gaps = 0;
        for _ in 0..10_000 {
            if s.is_done() || s.time() >= 60.0 {
                break;
            }
            let now = s.time();
            let mut due = s.next_due_after(now);
            if due <= now || due.is_nan() {
                due = now + DT;
            }
            let hovering = !s.drone().is_executing() && !s.drone().has_waypoint();
            let ticks_before = s.drone_ticks();
            s.step_to(due);
            if hovering && due - now > DT + 1e-9 {
                checked_gaps += 1;
                assert_eq!(
                    s.drone_ticks(),
                    ticks_before,
                    "an idle gap of {:.3} s at t={now:.3} must not tick the drone",
                    due - now
                );
            }
        }
        assert!(
            checked_gaps > 10,
            "the ignore script should produce many coastable gaps, saw {checked_gaps}"
        );
    }

    #[test]
    fn supervisor_yes_is_granted() {
        let mut s = CollaborationSession::new(SessionConfig::for_role(Role::Supervisor, true, 3));
        let outcome = s.run();
        assert_eq!(outcome, SessionOutcome::Granted, "log:\n{}", s.log());
    }

    #[test]
    fn supervisor_no_is_denied() {
        let mut s = CollaborationSession::new(SessionConfig::for_role(Role::Supervisor, false, 4));
        let outcome = s.run();
        assert_eq!(outcome, SessionOutcome::Denied, "log:\n{}", s.log());
    }

    #[test]
    fn worker_sessions_terminate() {
        for seed in 0..5 {
            let mut s = CollaborationSession::new(SessionConfig::worker_example(seed));
            let outcome = s.run();
            assert_ne!(outcome, SessionOutcome::StillRunning, "seed {seed}");
        }
    }

    #[test]
    fn granted_session_enters_only_after_yes() {
        let mut s = CollaborationSession::new(SessionConfig::for_role(Role::Supervisor, true, 5));
        let outcome = s.run();
        assert_eq!(outcome, SessionOutcome::Granted);
        let log = s.log();
        let yes_t = log
            .first_time(|e| *e == LogEntry::Recognized(Some(MarshallingSign::Yes)))
            .expect("a Yes must be recognised");
        let enter_t = log
            .first_time(|e| *e == LogEntry::Action(ProtocolAction::EnterArea))
            .expect("entry happens on grant");
        assert!(yes_t <= enter_t, "R4: recognition precedes entry");
    }

    #[test]
    fn visitor_often_fails_to_negotiate() {
        let mut abandoned = 0;
        for seed in 0..8 {
            let mut s =
                CollaborationSession::new(SessionConfig::for_role(Role::Visitor, true, seed));
            if s.run() == SessionOutcome::Abandoned {
                abandoned += 1;
            }
        }
        assert!(
            abandoned >= 1,
            "untrained visitors should sometimes stall the protocol"
        );
    }

    #[test]
    fn report_counts_frames() {
        let s = CollaborationSession::new(SessionConfig::for_role(Role::Supervisor, true, 6));
        let report = s.run_report();
        assert!(report.frames_processed > 0);
        assert!(report.frames_recognized <= report.frames_processed);
        assert!(report.duration_s > 0.0);
        assert!(!report.log.is_empty());
    }

    #[test]
    fn wave_off_is_detected_dynamically_and_denies() {
        // the scripted human waves the drone off at the poke stage on ANY
        // seed — the assertion no longer depends on a hand-tuned RNG stream
        for seed in [0, 13, 21, 0xDEAD_BEEF] {
            let config = SessionConfig::for_role(Role::Worker, false, seed)
                .with_script(HumanScript::wave_off());
            let mut s = CollaborationSession::new(config);
            let outcome = s.run();
            assert_eq!(outcome, SessionOutcome::Denied, "seed {seed}");
            let waved = s.log().first_time(|e| *e == LogEntry::HumanWavesOff);
            let detected = s.log().first_time(|e| *e == LogEntry::WaveOffDetected);
            assert!(waved.is_some(), "seed {seed}; log:\n{}", s.log());
            assert!(
                detected.is_some(),
                "dynamic channel must fire; seed {seed}; log:\n{}",
                s.log()
            );
            assert!(waved < detected, "waving precedes detection");
        }
    }

    #[test]
    fn scripted_sessions_are_seed_invariant() {
        // with a script installed, the human RNG is never consulted: the
        // whole event log must be identical across seeds
        let run = |seed: u64| {
            let config = SessionConfig::for_role(Role::Supervisor, true, seed).with_script(
                HumanScript::answering(ScriptedResponse::Sign(MarshallingSign::Yes)),
            );
            CollaborationSession::new(config).run_report()
        };
        let a = run(1);
        let b = run(999);
        assert_eq!(a.outcome, SessionOutcome::Granted, "log:\n{}", a.log);
        assert_eq!(format!("{}", a.log), format!("{}", b.log));
    }

    #[test]
    fn refusing_workers_always_end_denied_or_abandoned() {
        for seed in 0..6 {
            let mut s =
                CollaborationSession::new(SessionConfig::for_role(Role::Worker, false, seed));
            let outcome = s.run();
            assert!(
                matches!(outcome, SessionOutcome::Denied | SessionOutcome::Abandoned),
                "seed {seed}: {outcome}"
            );
        }
    }

    #[test]
    fn clean_datalink_reaches_the_same_grant() {
        let config = SessionConfig::for_role(Role::Supervisor, true, 3)
            .with_script(HumanScript::answering(ScriptedResponse::Sign(
                MarshallingSign::Yes,
            )))
            .with_datalink(crate::DatalinkConfig::clean());
        let report = CollaborationSession::new(config).run_report();
        assert_eq!(
            report.outcome,
            SessionOutcome::Granted,
            "log:\n{}",
            report.log
        );
        let link = report.link.expect("a datalink was configured");
        assert!(link.up.delivered > 0 && link.down.delivered > 0);
        assert!(!link.drone_lease_expired && !link.supervisor_lease_expired);
    }

    #[test]
    fn lossy_datalink_recovers_by_retransmission() {
        let quality = hdc_link::LinkQuality::clean().with_drop(0.25);
        let config = SessionConfig::for_role(Role::Supervisor, true, 3)
            .with_script(HumanScript::answering(ScriptedResponse::Sign(
                MarshallingSign::Yes,
            )))
            .with_datalink(crate::DatalinkConfig::symmetric(quality));
        let report = CollaborationSession::new(config).run_report();
        assert_eq!(
            report.outcome,
            SessionOutcome::Granted,
            "log:\n{}",
            report.log
        );
        let link = report.link.expect("a datalink was configured");
        assert!(link.up.dropped + link.down.dropped > 0, "loss must occur");
        assert!(
            link.drone_endpoint.retransmits + link.supervisor_endpoint.retransmits > 0,
            "recovery must come from retransmission"
        );
    }

    #[test]
    fn duplicated_commands_are_applied_exactly_once() {
        let quality = hdc_link::LinkQuality::clean()
            .with_dup(0.9)
            .with_jitter(0.3);
        let config = SessionConfig::for_role(Role::Supervisor, true, 3)
            .with_script(HumanScript::answering(ScriptedResponse::Sign(
                MarshallingSign::Yes,
            )))
            .with_datalink(crate::DatalinkConfig::symmetric(quality));
        let report = CollaborationSession::new(config).run_report();
        assert_eq!(
            report.outcome,
            SessionOutcome::Granted,
            "log:\n{}",
            report.log
        );
        let entries = report
            .log
            .filter(|e| *e == LogEntry::Action(ProtocolAction::EnterArea))
            .count();
        assert_eq!(entries, 1, "EnterArea must apply exactly once");
        let link = report.link.expect("a datalink was configured");
        assert!(
            link.drone_endpoint.duplicates_discarded
                + link.supervisor_endpoint.duplicates_discarded
                > 0,
            "the dedup window must have engaged"
        );
    }

    #[test]
    fn dead_datalink_forces_the_autonomous_failsafe() {
        // the link partitions at t=2 s and never heals: the drone must end
        // grounded with the danger ring, the supervisor must end aborted
        let quality = hdc_link::LinkQuality::clean().with_partition(2.0, 1.0e9);
        let config = SessionConfig::for_role(Role::Supervisor, true, 3)
            .with_script(HumanScript::answering(ScriptedResponse::Sign(
                MarshallingSign::Yes,
            )))
            .with_datalink(crate::DatalinkConfig::symmetric(quality));
        let report = CollaborationSession::new(config).run_report();
        assert_eq!(
            report.outcome,
            SessionOutcome::Aborted,
            "log:\n{}",
            report.log
        );
        assert!(report.safety_engaged, "the safety latch must engage");
        assert!(report.grounded, "the drone must land itself");
        assert_eq!(report.ring_mode, LedMode::Danger);
        let link = report.link.expect("a datalink was configured");
        assert!(link.drone_lease_expired && link.supervisor_lease_expired);
        assert!(
            report.duration_s < 60.0,
            "the failsafe must fire promptly, not ride the session cap"
        );
    }

    #[test]
    fn linked_sessions_are_reproducible() {
        let quality = hdc_link::LinkQuality::clean()
            .with_drop(0.3)
            .with_jitter(0.5);
        let run = || {
            let config = SessionConfig::for_role(Role::Supervisor, true, 11)
                .with_script(HumanScript::answering(ScriptedResponse::Sign(
                    MarshallingSign::Yes,
                )))
                .with_datalink(crate::DatalinkConfig::symmetric(quality));
            CollaborationSession::new(config).run_report()
        };
        let a = run();
        let b = run();
        assert_eq!(format!("{}", a.log), format!("{}", b.log));
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn session_log_contains_the_figure3_flow() {
        let mut s = CollaborationSession::new(SessionConfig::for_role(Role::Supervisor, true, 7));
        s.run();
        let log = s.log();
        let poke = log.first_time(|e| *e == LogEntry::Action(ProtocolAction::ExecutePoke));
        let attention = log
            .first_time(|e| matches!(e, LogEntry::HumanSigned(MarshallingSign::AttentionGained)));
        let rect = log.first_time(|e| *e == LogEntry::Action(ProtocolAction::ExecuteRectangle));
        let answer = log.first_time(|e| matches!(e, LogEntry::HumanSigned(MarshallingSign::Yes)));
        assert!(poke.is_some() && attention.is_some() && rect.is_some() && answer.is_some());
        assert!(poke < attention, "poke precedes attention");
        assert!(attention < rect, "attention precedes the request");
        assert!(rect < answer, "request precedes the answer");
    }

    #[test]
    fn safety_injected_after_the_grant_logs_no_state_change() {
        // E12 seed 2: the consenting worker is granted before the fault
        // fires at 20.7 s, while the drone still flies into the area
        let mut s = CollaborationSession::new(SessionConfig::for_role(Role::Worker, true, 2));
        while s.time() < 20.7 {
            s.step();
        }
        assert_eq!(s.state(), NegotiationState::Granted, "log:\n{}", s.log());
        assert!(!s.is_done());
        let state_changes = |s: &CollaborationSession| {
            s.log()
                .filter(|e| matches!(e, LogEntry::StateChanged { .. }))
                .count()
        };
        let before = state_changes(&s);
        s.inject_safety("injected fault");
        while !s.is_done() && s.time() < 120.0 {
            s.step();
        }
        assert_eq!(state_changes(&s), before, "log:\n{}", s.log());
        assert_eq!(s.state(), NegotiationState::Granted);
        assert_eq!(s.drone().ring().mode(), LedMode::Danger);
        assert!(s.drone().state().is_grounded());
    }
}
