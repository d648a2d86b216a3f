//! Workload inputs, each a pure function of the benchmark seed.
//!
//! The seed varies everything a real fleet would vary from day to day —
//! session seeds, human headings and latencies, relay loss rates, the heap
//! tie-break salt, camera azimuths, sensor noise and arrival jitter — while
//! the *shape* of each workload (its role mix, script mix and size) is fixed
//! by index, so the work a run does stays nearly constant across seeds.

use hdc_core::{CohortConfig, DatalinkConfig, HumanScript, Role, ScriptedResponse, SessionConfig};
use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_geometry::azimuth::DEAD_ANGLE_CENTER_RAD;
use hdc_link::LinkQuality;
use hdc_raster::noise::add_salt_pepper;
use hdc_raster::GrayImage;
use hdc_runtime::SplitMix64;
use hdc_serve::{ArrivalSpec, CostModel, ServeConfig, StreamBudget};
use hdc_vision::temporal::TemporalConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::f64::consts::TAU;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FarmMixed,
    IdleDay,
    CohortRelay,
    ServeFleet,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "farm_mixed" => Some(Workload::FarmMixed),
            "idle_day" => Some(Workload::IdleDay),
            "cohort_relay" => Some(Workload::CohortRelay),
            "serve_fleet" => Some(Workload::ServeFleet),
            _ => None,
        }
    }
}

/// A session workload: the farm's configs, its heap salt, how many leading
/// configs the set-up warm-up slice runs, and how many equal slices a timed
/// pass runs, each as a farm of its own.
pub struct SessionInputs {
    pub configs: Vec<SessionConfig>,
    pub salt: u64,
    pub warmup: usize,
    pub units: usize,
}

impl SessionInputs {
    /// The `u`-th of the [`SessionInputs::units`] slices. A farmed session
    /// replays its solo run bit for bit, so the slices together do exactly
    /// the whole farm's work.
    pub fn unit(&self, u: usize) -> &[SessionConfig] {
        let size = self.configs.len().div_ceil(self.units);
        self.configs
            .chunks(size)
            .nth(u)
            .expect("unit index below units")
    }
}

/// `farm_mixed`: single-view sessions over all three roles, consenting and
/// refusing, half scripted and half stochastic humans (stochastic refusers
/// wave off a third of the time, so the dynamic channel fires).
const FARM_SESSIONS: usize = 400;
/// `idle_day`: silent humans, hour-long attention timeouts.
const IDLE_SESSIONS: usize = 20;
const IDLE_TIMEOUT_S: f64 = 3600.0;
/// Camera cadence while a drone waits out a silent human all day: slow
/// enough that a day-length session fits a run, while hover frames still
/// outnumber drone ticks.
const IDLE_FRAME_INTERVAL_S: f64 = 30.0;
/// `cohort_relay`: dual-observer sessions over lossy relays and datalinks.
const COHORT_SESSIONS: usize = 128;

fn scripted(answer: ScriptedResponse, latency_s: f64) -> HumanScript {
    HumanScript {
        on_poke: ScriptedResponse::Sign(MarshallingSign::AttentionGained),
        on_request: answer,
        latency_s,
    }
}

/// A refuser's scripted answer: the static No or an emphatic wave-off.
fn refusal(i: usize) -> ScriptedResponse {
    if (i / 12).is_multiple_of(2) {
        ScriptedResponse::Sign(MarshallingSign::No)
    } else {
        ScriptedResponse::WaveOff
    }
}

pub fn farm_mixed(seed: u64) -> SessionInputs {
    let mut rng = SplitMix64::stream(seed, 1);
    let configs = (0..FARM_SESSIONS)
        .map(|i| {
            let role = [Role::Supervisor, Role::Worker, Role::Visitor][i % 3];
            let consent = (i / 3) % 2 == 0;
            let mut c = SessionConfig::for_role(role, consent, rng.next_u64());
            c.human_heading = TAU * rng.next_unit_f64();
            let latency_s = 1.0 + 4.0 * rng.next_unit_f64();
            if (i / 6) % 2 == 0 {
                let answer = if consent {
                    ScriptedResponse::Sign(MarshallingSign::Yes)
                } else {
                    refusal(i)
                };
                c = c.with_script(scripted(answer, latency_s));
            }
            c
        })
        .collect();
    SessionInputs {
        configs,
        salt: rng.next_u64(),
        warmup: 8,
        units: 16,
    }
}

pub fn idle_day(seed: u64) -> SessionInputs {
    let mut rng = SplitMix64::stream(seed, 2);
    let configs = (0..IDLE_SESSIONS)
        .map(|i| {
            let role = [Role::Supervisor, Role::Worker, Role::Visitor][i % 3];
            let mut c =
                SessionConfig::for_role(role, true, rng.next_u64()).with_script(HumanScript {
                    on_poke: ScriptedResponse::Ignore,
                    on_request: ScriptedResponse::Ignore,
                    latency_s: 5.0,
                });
            c.human_heading = TAU * rng.next_unit_f64();
            c.negotiation.attention_timeout_s = IDLE_TIMEOUT_S;
            c.negotiation.max_poke_attempts = 2;
            c.max_duration_s = 4.0 * IDLE_TIMEOUT_S;
            c.frame_interval_s = IDLE_FRAME_INTERVAL_S;
            // a day pack: the negotiation window, not the battery, limits
            c.battery_wh = 2000.0;
            c
        })
        .collect();
    SessionInputs {
        configs,
        salt: rng.next_u64(),
        warmup: 1,
        units: 5,
    }
}

pub fn cohort_relay(seed: u64) -> SessionInputs {
    let mut rng = SplitMix64::stream(seed, 3);
    let configs = (0..COHORT_SESSIONS)
        .map(|i| {
            let consent = i % 2 == 0;
            let answer = if consent {
                ScriptedResponse::Sign(MarshallingSign::Yes)
            } else {
                refusal(i)
            };
            let latency_s = 1.0 + 3.0 * rng.next_unit_f64();
            let relay = LinkQuality::clean().with_drop(0.1 + 0.2 * rng.next_unit_f64());
            let uplink = LinkQuality::clean().with_drop(0.05 + 0.1 * rng.next_unit_f64());
            // the second observer sits at the dead-angle offset: it sees the
            // signaller inside its own dead band and must abstain
            let cohort = CohortConfig::dual_observer(
                0.25 + 0.2 * rng.next_unit_f64(),
                DEAD_ANGLE_CENTER_RAD,
            )
            .with_relay(relay);
            let mut c = SessionConfig::for_role(Role::Supervisor, consent, rng.next_u64())
                .with_script(scripted(answer, latency_s))
                .with_datalink(DatalinkConfig::symmetric(uplink))
                .with_cohort(cohort);
            c.human_heading = TAU * rng.next_unit_f64();
            c
        })
        .collect();
    SessionInputs {
        configs,
        salt: rng.next_u64(),
        warmup: 6,
        units: 16,
    }
}

/// `serve_fleet`: VGA cameras each holding two signs in turn.
pub struct FleetInputs {
    pub frame_sets: Vec<Vec<GrayImage>>,
    pub arrivals: ArrivalSpec,
    pub warmup_arrivals: ArrivalSpec,
    pub config: ServeConfig,
}

const FLEET_SETS: usize = 3;
/// Jittered keyframes per held sign, each oversampled `DUPS` times.
const KEYFRAMES: usize = 2;
const DUPS: usize = 3;

/// One held-sign stream: two signs, each as seeded sensor-noise keyframes
/// repeated byte-identically (camera oversampling).
fn fleet_frame_set(rng: &mut SplitMix64) -> Vec<GrayImage> {
    let view = ViewSpec::paper_default(30.0 * rng.next_unit_f64(), 5.0, 3.0);
    let first = rng.below(MarshallingSign::ALL.len() as u64) as usize;
    let mut noise = SmallRng::seed_from_u64(rng.next_u64());
    let mut frames = Vec::with_capacity(2 * KEYFRAMES * DUPS);
    for s in 0..2 {
        let sign = MarshallingSign::ALL[(first + s) % MarshallingSign::ALL.len()];
        let base = render_sign(sign, &view);
        for _ in 0..KEYFRAMES {
            let mut keyframe = base.clone();
            add_salt_pepper(&mut keyframe, 0.002, &mut noise);
            for _ in 0..DUPS {
                frames.push(keyframe.clone());
            }
        }
    }
    frames
}

pub fn serve_fleet(seed: u64) -> FleetInputs {
    let mut rng = SplitMix64::stream(seed, 4);
    let frame_sets = (0..FLEET_SETS).map(|_| fleet_frame_set(&mut rng)).collect();
    let arrivals = ArrivalSpec {
        streams: 48,
        frames_per_stream: 128,
        period_us: 33_333,
        jitter_us: 2_000,
        burst: None,
        seed: rng.next_u64(),
    };
    FleetInputs {
        frame_sets,
        warmup_arrivals: ArrivalSpec {
            streams: 4,
            frames_per_stream: 24,
            ..arrivals
        },
        arrivals,
        // under capacity (a full run costs 420 virtual µs against a 33 ms
        // frame period), but 8 resident gate states for 12 streams a shard,
        // so the LRU spills and restores continuously
        config: ServeConfig {
            shards: 4,
            queue_cap: 16,
            resident_cap: 8,
            deadline_us: 50_000,
            budget: StreamBudget { fps: 30, burst: 4 },
            costs: CostModel::default(),
            gate: TemporalConfig::incremental(),
            spill: true,
        },
    }
}
