//! Recognition-rate sweeps under fault intensity.
//!
//! Reproduces the paper's Figure-4 finding — recognition collapses in a
//! dead angle around ~100° azimuth — and extends it with a noise-intensity
//! axis: the same azimuth sweep is repeated at several Gaussian-noise
//! levels, showing the cliff both deepening and widening as the sensor
//! degrades. The cohort sweeps then quantify how a second drone offset by
//! the dead-angle centre shrinks that cliff, and how relay loss and drone
//! loss degrade the closed loop without ever terminating unsafe.

use crate::fault::{FaultKind, FaultPlan};
use hdc_core::{
    CohortConfig, CollaborationSession, DatalinkConfig, HumanScript, Role, ScriptedResponse,
    SessionConfig, SessionOutcome, ViewWorker,
};
use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_geometry::azimuth::{in_dead_angle_deg, DEAD_ANGLE_CENTER_RAD};
use hdc_link::LinkQuality;
use hdc_raster::noise;
use hdc_runtime::{derive_seed, WorkPool};
use hdc_vision::{FrameScratch, PipelineConfig, RecognitionPipeline};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One point of the sweep: all signs rendered at one azimuth under one
/// noise level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Signaller azimuth, degrees.
    pub azimuth_deg: f64,
    /// Gaussian noise standard deviation, intensity levels.
    pub sigma: f64,
    /// Signs recognised correctly at this point.
    pub correct: usize,
    /// Signs attempted.
    pub total: usize,
}

impl SweepPoint {
    /// Fraction recognised correctly.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

/// The noise levels of the sweep, clean first.
const SIGMAS: [f64; 3] = [0.0, 15.0, 40.0];
/// Azimuth steps: 0°..180° in 15° increments.
const AZ_STEPS: u32 = 12;

/// The RNG seed of one grid point, derived from the sweep seed by a
/// SplitMix64-style mix so every point owns an independent noise stream.
/// Point independence is what lets the grid fan out over a pool with the
/// exact same numbers as the serial sweep.
fn point_seed(seed: u64, sigma_idx: usize, az_step: u32) -> u64 {
    let seed = seed ^ u64::from(az_step).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    derive_seed(seed, sigma_idx as u64)
}

/// Evaluates one grid point: all signs at one azimuth under one noise level,
/// through caller-provided scratch. Pure function of `(seed, sigma, azimuth)`.
fn sweep_point(
    pipeline: &RecognitionPipeline,
    scratch: &mut FrameScratch,
    seed: u64,
    sigma_idx: usize,
    az_step: u32,
) -> SweepPoint {
    let sigma = SIGMAS[sigma_idx];
    let azimuth_deg = f64::from(az_step) * 15.0;
    let mut rng = SmallRng::seed_from_u64(point_seed(seed, sigma_idx, az_step));
    let mut correct = 0;
    let mut total = 0;
    for sign in MarshallingSign::ALL {
        let mut frame = render_sign(sign, &ViewSpec::paper_default(azimuth_deg, 5.0, 3.0));
        if sigma > 0.0 {
            noise::add_gaussian(&mut frame, sigma, &mut rng);
        }
        let result = pipeline.recognize_with(scratch, &frame);
        total += 1;
        if result.decision == Some(sign.label()) {
            correct += 1;
        }
    }
    SweepPoint {
        azimuth_deg,
        sigma,
        correct,
        total,
    }
}

/// Sweeps azimuth × noise intensity with the pipeline calibrated at the
/// paper's canonical 0° view. Deterministic for a given `seed`; serial
/// shorthand for [`dead_angle_sweep_with`] on a one-worker pool.
pub fn dead_angle_sweep(seed: u64) -> Vec<SweepPoint> {
    dead_angle_sweep_with(&WorkPool::new(1), seed)
}

/// [`dead_angle_sweep`] fanned out over a work pool: grid points carry
/// independently derived noise streams, so the result is identical at every
/// worker count (and to the serial sweep).
pub fn dead_angle_sweep_with(pool: &WorkPool, seed: u64) -> Vec<SweepPoint> {
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    let grid: Vec<(usize, u32)> = (0..SIGMAS.len())
        .flat_map(|s| (0..=AZ_STEPS).map(move |az| (s, az)))
        .collect();
    pool.map_indexed(
        &grid,
        |_| FrameScratch::new(),
        |scratch, _, &(sigma_idx, az_step)| {
            sweep_point(&pipeline, scratch, seed, sigma_idx, az_step)
        },
    )
}

/// One point of the link-loss sweep: the outcome distribution of full
/// closed-loop sessions negotiated over a symmetric lossy datalink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossPoint {
    /// Per-frame drop probability applied to both link directions.
    pub drop_p: f64,
    /// Sessions run at this loss rate.
    pub sessions: usize,
    /// Sessions ending Granted (negotiation completed, access given).
    pub granted: usize,
    /// Sessions ending Denied or Abandoned (the safe-retreat postures).
    pub retreated: usize,
    /// Sessions ending Aborted (the lease-expiry / safety failsafe).
    pub failsafed: usize,
    /// Terminal sessions whose safety posture was wrong (must stay 0):
    /// an abort without the latched all-red grounded posture, or a
    /// non-terminal session at the time cap.
    pub unsafe_terminations: usize,
    /// Mean session duration, simulated seconds.
    pub mean_duration_s: f64,
}

/// The drop probabilities of the link-loss sweep.
const LOSS_STEPS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.45, 0.6];

/// Runs one linked session at drop rate `drop_p` and classifies its end.
/// Returns `(outcome, duration, safe)`.
fn loss_session(seed: u64, drop_p: f64) -> (SessionOutcome, f64, bool) {
    let quality = LinkQuality::clean().with_drop(drop_p);
    let config = SessionConfig::for_role(Role::Supervisor, true, seed)
        .with_script(HumanScript::answering(ScriptedResponse::Sign(
            MarshallingSign::Yes,
        )))
        .with_datalink(DatalinkConfig::symmetric(quality));
    let mut s = CollaborationSession::new(config);
    let mut worker = ViewWorker::new();
    while !s.is_done() && s.time() < 300.0 {
        s.step_with(&mut worker);
    }
    let done = s.is_done();
    let report = s.into_report();
    let safe = match report.outcome {
        SessionOutcome::Aborted => report.safety_engaged && report.grounded,
        SessionOutcome::StillRunning => false,
        _ => done,
    };
    (report.outcome, report.duration_s, safe)
}

/// Sweeps link loss rate against session outcome: at each drop probability,
/// `seeds_per_point` full closed-loop sessions negotiate over the lossy
/// datalink and the outcome distribution is recorded. Deterministic for a
/// given `seed` and identical at every worker count (each session derives
/// an independent seed).
pub fn link_loss_sweep_with(pool: &WorkPool, seed: u64, seeds_per_point: usize) -> Vec<LossPoint> {
    let grid: Vec<(usize, u32)> = (0..LOSS_STEPS.len())
        .flat_map(|p| (0..seeds_per_point as u32).map(move |s| (p, s)))
        .collect();
    let runs = pool.map_indexed(
        &grid,
        |_| (),
        |_, _, &(p_idx, s_idx)| {
            let session_seed = point_seed(seed, p_idx, s_idx);
            loss_session(session_seed, LOSS_STEPS[p_idx])
        },
    );
    collect_loss_points(&grid, &runs)
}

/// One point of the cohort fusion sweep: every sign rendered at one owner
/// azimuth under one noise level, recognised by the owner alone and by the
/// owner fused with an observer offset by the dead-angle centre.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionPoint {
    /// Owner azimuth, degrees.
    pub azimuth_deg: f64,
    /// Gaussian noise standard deviation, intensity levels.
    pub sigma: f64,
    /// Signs the owner's single view recognised correctly.
    pub single_correct: usize,
    /// Signs the two-view quorum-1 fusion recognised correctly.
    pub fused_correct: usize,
    /// Signs attempted.
    pub total: usize,
}

impl FusionPoint {
    /// Single-view recognition rate.
    pub fn single_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.single_correct as f64 / self.total as f64
        }
    }

    /// Fused recognition rate.
    pub fn fused_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.fused_correct as f64 / self.total as f64
        }
    }
}

/// Evaluates one fusion grid point. The fusion mirrors the cohort's
/// quorum-1 rule exactly: an observer inside its own dead band abstains,
/// two distinct non-abstaining reads discard the round, a single
/// uncontested read is accepted.
fn fusion_point(
    pipeline: &RecognitionPipeline,
    scratch: &mut FrameScratch,
    seed: u64,
    sigma_idx: usize,
    az_step: u32,
) -> FusionPoint {
    let sigma = SIGMAS[sigma_idx];
    let azimuth_deg = f64::from(az_step) * 15.0;
    let observer_deg = azimuth_deg - DEAD_ANGLE_CENTER_RAD.to_degrees();
    let mut rng = SmallRng::seed_from_u64(point_seed(seed, sigma_idx, az_step));
    let mut single_correct = 0;
    let mut fused_correct = 0;
    let mut total = 0;
    for sign in MarshallingSign::ALL {
        let mut owner_frame = render_sign(sign, &ViewSpec::paper_default(azimuth_deg, 5.0, 3.0));
        let mut observer_frame =
            render_sign(sign, &ViewSpec::paper_default(observer_deg, 5.0, 3.0));
        if sigma > 0.0 {
            noise::add_gaussian(&mut owner_frame, sigma, &mut rng);
            noise::add_gaussian(&mut observer_frame, sigma, &mut rng);
        }
        let owner = pipeline.recognize_with(scratch, &owner_frame).decision;
        // the observer abstains inside its own dead band, like the cohort
        let observer = if in_dead_angle_deg(observer_deg) {
            None
        } else {
            pipeline.recognize_with(scratch, &observer_frame).decision
        };
        total += 1;
        if owner == Some(sign.label()) {
            single_correct += 1;
        }
        let fused = match (owner, observer) {
            (Some(a), Some(b)) if a != b => None, // disagreement: round discarded
            (Some(a), _) => Some(a),
            (None, b) => b,
        };
        if fused == Some(sign.label()) {
            fused_correct += 1;
        }
    }
    FusionPoint {
        azimuth_deg,
        sigma,
        single_correct,
        fused_correct,
        total,
    }
}

/// Sweeps azimuth × noise with the owner's view fused against an observer
/// offset by the dead-angle centre — the dead-angle-shrinkage experiment.
/// Deterministic for a given `seed` and identical at every worker count.
pub fn cohort_fusion_sweep_with(pool: &WorkPool, seed: u64) -> Vec<FusionPoint> {
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    let grid: Vec<(usize, u32)> = (0..SIGMAS.len())
        .flat_map(|s| (0..=AZ_STEPS).map(move |az| (s, az)))
        .collect();
    pool.map_indexed(
        &grid,
        |_| FrameScratch::new(),
        |scratch, _, &(sigma_idx, az_step)| {
            fusion_point(&pipeline, scratch, seed, sigma_idx, az_step)
        },
    )
}

/// Serial shorthand for [`cohort_fusion_sweep_with`] on a one-worker pool.
pub fn cohort_fusion_sweep(seed: u64) -> Vec<FusionPoint> {
    cohort_fusion_sweep_with(&WorkPool::new(1), seed)
}

/// Runs one cohort session against relay drop rate `drop_p`. The owner is
/// blind (facing bias parks the human in the dead angle) so the negotiation
/// rides entirely on the observer's relayed votes; odd seeds additionally
/// kill the observer platform mid-run. Returns `(outcome, duration, safe)`.
fn cohort_loss_session(seed: u64, drop_p: f64, kill_observer: bool) -> (SessionOutcome, f64, bool) {
    let mut cohort = CohortConfig::single_observer(DEAD_ANGLE_CENTER_RAD);
    if kill_observer {
        cohort = cohort.with_observer_failure(0, 10.0);
    }
    let mut config = SessionConfig::for_role(Role::Supervisor, true, seed)
        .with_script(HumanScript::answering(ScriptedResponse::Sign(
            MarshallingSign::Yes,
        )))
        .with_cohort(cohort);
    let plan = FaultPlan {
        seed,
        faults: vec![
            FaultKind::FacingBias {
                rad: DEAD_ANGLE_CENTER_RAD,
            },
            FaultKind::RelayDrop {
                probability: drop_p,
            },
        ],
    };
    plan.apply_config(&mut config);
    let mut s = CollaborationSession::new(config);
    s.set_faults(Box::new(plan.build()));
    let mut worker = ViewWorker::new();
    while !s.is_done() && s.time() < 300.0 {
        s.step_with(&mut worker);
    }
    let done = s.is_done();
    let report = s.into_report();
    let safe = match report.outcome {
        SessionOutcome::Aborted => report.safety_engaged && report.grounded,
        SessionOutcome::StillRunning => false,
        _ => done,
    };
    (report.outcome, report.duration_s, safe)
}

/// Sweeps relay loss (and, on odd seeds, mid-run drone loss) against the
/// cohort session outcome — the degraded-mode fallback experiment. Every
/// session must terminate in a safe posture; losing the only sighted relay
/// can delay or abandon a negotiation, never corrupt one. Deterministic for
/// a given `seed` and identical at every worker count.
pub fn cohort_loss_sweep_with(
    pool: &WorkPool,
    seed: u64,
    seeds_per_point: usize,
) -> Vec<LossPoint> {
    let grid: Vec<(usize, u32)> = (0..LOSS_STEPS.len())
        .flat_map(|p| (0..seeds_per_point as u32).map(move |s| (p, s)))
        .collect();
    let runs = pool.map_indexed(
        &grid,
        |_| (),
        |_, _, &(p_idx, s_idx)| {
            let session_seed = point_seed(seed, p_idx + LOSS_STEPS.len(), s_idx);
            cohort_loss_session(session_seed, LOSS_STEPS[p_idx], s_idx % 2 == 1)
        },
    );
    collect_loss_points(&grid, &runs)
}

/// Folds per-session results back into one [`LossPoint`] per drop rate.
fn collect_loss_points(
    grid: &[(usize, u32)],
    runs: &[(SessionOutcome, f64, bool)],
) -> Vec<LossPoint> {
    LOSS_STEPS
        .iter()
        .enumerate()
        .map(|(p_idx, &drop_p)| {
            let mut point = LossPoint {
                drop_p,
                sessions: 0,
                granted: 0,
                retreated: 0,
                failsafed: 0,
                unsafe_terminations: 0,
                mean_duration_s: 0.0,
            };
            for (g, &(gp, _)) in grid.iter().enumerate() {
                if gp != p_idx {
                    continue;
                }
                let (outcome, duration, safe) = runs[g];
                point.sessions += 1;
                point.mean_duration_s += duration;
                if !safe {
                    point.unsafe_terminations += 1;
                }
                match outcome {
                    SessionOutcome::Granted => point.granted += 1,
                    SessionOutcome::Denied | SessionOutcome::Abandoned => point.retreated += 1,
                    SessionOutcome::Aborted => point.failsafed += 1,
                    SessionOutcome::StillRunning => {}
                }
            }
            if point.sessions > 0 {
                point.mean_duration_s /= point.sessions as f64;
            }
            point
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_identical_at_every_worker_count() {
        let serial = dead_angle_sweep(5);
        for workers in [2usize, 4] {
            let parallel = dead_angle_sweep_with(&WorkPool::new(workers), 5);
            assert_eq!(parallel, serial, "{workers}-worker sweep drifted");
        }
    }

    #[test]
    fn link_loss_sweep_is_deterministic_and_safe() {
        let a = link_loss_sweep_with(&WorkPool::new(1), 7, 1);
        let b = link_loss_sweep_with(&WorkPool::new(2), 7, 1);
        assert_eq!(a, b, "loss sweep drifted across worker counts");
        assert_eq!(a[0].granted, a[0].sessions, "a clean link must grant");
        for p in &a {
            assert_eq!(p.unsafe_terminations, 0, "unsafe terminal posture: {p:?}");
            assert_eq!(
                p.granted + p.retreated + p.failsafed,
                p.sessions,
                "every session must terminate in a classified posture: {p:?}"
            );
        }
    }

    #[test]
    fn fusion_sweep_shrinks_the_dead_angle() {
        let single = dead_angle_sweep(5);
        let fused = cohort_fusion_sweep(5);
        assert_eq!(
            cohort_fusion_sweep_with(&WorkPool::new(2), 5),
            fused,
            "fusion sweep drifted across worker counts"
        );
        let frontal = single
            .iter()
            .find(|p| p.sigma == 0.0 && p.azimuth_deg == 0.0)
            .expect("frontal point")
            .rate();
        for p in fused.iter().filter(|p| p.sigma == 0.0) {
            if in_dead_angle_deg(p.azimuth_deg) {
                assert!(
                    p.fused_rate() >= 0.9 * frontal,
                    "fused rate inside the former dead angle must reach 90% \
                     of the frontal rate: {p:?} vs frontal {frontal}"
                );
                assert!(
                    p.fused_rate() >= p.single_rate(),
                    "fusion must never make the dead angle worse: {p:?}"
                );
            }
        }
    }

    #[test]
    fn cohort_loss_sweep_is_deterministic_and_never_unsafe() {
        let a = cohort_loss_sweep_with(&WorkPool::new(1), 9, 2);
        let b = cohort_loss_sweep_with(&WorkPool::new(4), 9, 2);
        assert_eq!(a, b, "cohort loss sweep drifted across worker counts");
        for p in &a {
            assert_eq!(
                p.unsafe_terminations, 0,
                "relay/drone loss must degrade, never fail unsafe: {p:?}"
            );
            assert_eq!(
                p.granted + p.retreated + p.failsafed,
                p.sessions,
                "every cohort session must terminate classified: {p:?}"
            );
        }
    }

    #[test]
    fn clean_sweep_shows_the_dead_angle_cliff() {
        let points = dead_angle_sweep(5);
        let clean: Vec<_> = points.iter().filter(|p| p.sigma == 0.0).collect();
        let frontal = clean
            .iter()
            .find(|p| p.azimuth_deg == 0.0)
            .expect("frontal point");
        let dead = clean
            .iter()
            .find(|p| (p.azimuth_deg - 105.0).abs() < 1e-9)
            .expect("dead-angle point");
        assert_eq!(frontal.rate(), 1.0, "frontal views recognise perfectly");
        assert!(
            dead.rate() < frontal.rate(),
            "the ~100° dead angle must depress recognition: {points:?}"
        );
    }
}
