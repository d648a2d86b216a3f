//! The per-experiment implementations (E1–E12).
//!
//! Each function regenerates one of the paper's tables/figures (or
//! quantitative claims) and returns a plain-text report. The mapping to the
//! paper is documented in `DESIGN.md`; paper-vs-measured numbers are
//! archived in `EXPERIMENTS.md`.

use crate::report::{num, pct, Table};
use hdc_core::{
    CollaborationSession, LogEntry, ProtocolAction, Role, SessionConfig, SessionOutcome, ViewWorker,
};
use hdc_drone::{
    Drone, DroneConfig, DroneEvent, FlightPattern, LedColor, LedMode, LedRing, VerticalAnimation,
    VerticalArray,
};
use hdc_figure::{render_pose, render_sign, MarshallingSign, Pose, ViewSpec};
use hdc_raster::noise;
use hdc_sax::{min_rotated_mindist, tuning::grid_search, SaxParams};
use hdc_vision::classifiers::{
    DtwClassifier, HuClassifier, SaxClassifier, SignClassifier, ZoningClassifier,
};
use hdc_vision::{FrameBudget, PipelineConfig, RecognitionPipeline};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Instant;

/// Identifier of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExperimentId(pub u8);

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// All experiment ids with one-line descriptions.
pub fn all_experiments() -> Vec<(ExperimentId, &'static str)> {
    vec![
        (
            ExperimentId(1),
            "Figure 4: 'No' at 0 vs 65 degrees - series, words, decisions",
        ),
        (
            ExperimentId(2),
            "altitude window of recognition (paper: 2-5 m)",
        ),
        (
            ExperimentId(3),
            "azimuth sweep and dead angle (paper: erratic > 65 deg, ~100 deg dead)",
        ),
        (
            ExperimentId(4),
            "recognition latency and frame-rate budgets (paper: 38/27 ms, 30/60 fps)",
        ),
        (
            ExperimentId(5),
            "uniqueness of the three signs' SAX strings",
        ),
        (
            ExperimentId(6),
            "Figure 1: LED ring navigation colours and danger mode",
        ),
        (
            ExperimentId(7),
            "Figure 2: landing pattern timeline (rotors off before lights out)",
        ),
        (
            ExperimentId(8),
            "Figure 3: negotiation traces and outcome statistics by role",
        ),
        (
            ExperimentId(9),
            "vertical LED array confusion (why it was discarded)",
        ),
        (
            ExperimentId(10),
            "tuning PAA segments and alphabet size (paper ref [22])",
        ),
        (
            ExperimentId(11),
            "SAX vs classical baselines: accuracy and cost",
        ),
        (
            ExperimentId(12),
            "safety fault injection: all-red + landing invariants",
        ),
        (
            ExperimentId(13),
            "extension: RGB status colours vs the vertical array (paper future work)",
        ),
        (
            ExperimentId(14),
            "extension: IMU-derived flight state for honest lights (paper open issue)",
        ),
        (
            ExperimentId(15),
            "extension: minimum-sign-set economics - database size vs lookup cost",
        ),
        (
            ExperimentId(16),
            "extension: dynamic wave-off gesture detection (paper future work)",
        ),
        (
            ExperimentId(17),
            "extension: fleet scaling - makespan and energy vs drone count",
        ),
        (
            ExperimentId(18),
            "extension: facing-error sensitivity - dead angle to protocol coupling",
        ),
        (
            ExperimentId(19),
            "extension: anthropometric robustness - other bodies vs the calibrated templates",
        ),
    ]
}

/// Runs one experiment by id, returning its report.
///
/// Returns `None` for an unknown id.
pub fn run_experiment(id: ExperimentId) -> Option<String> {
    Some(match id.0 {
        1 => e1_fig4_no_sign(),
        2 => e2_altitude_window(),
        3 => e3_azimuth_dead_angle(),
        4 => e4_latency(),
        5 => e5_uniqueness(),
        6 => e6_led_ring(),
        7 => e7_landing_pattern(),
        8 => e8_negotiation(),
        9 => e9_vertical_array(),
        10 => e10_tuning(),
        11 => e11_baselines(),
        12 => e12_safety_injection(),
        13 => e13_rgb_vs_vertical(),
        14 => e14_imu_flight_state(),
        15 => e15_vocabulary_economics(),
        16 => e16_wave_off(),
        17 => e17_fleet_scaling(),
        18 => e18_facing_sensitivity(),
        19 => e19_anthropometric_robustness(),
        _ => return None,
    })
}

fn calibrated_pipeline() -> RecognitionPipeline {
    let mut p = RecognitionPipeline::new(PipelineConfig::default());
    p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    p
}

/// E1 — Figure 4: the "No" sign at relative azimuth 0° and 65°.
pub fn e1_fig4_no_sign() -> String {
    let pipeline = calibrated_pipeline();
    let mut out = String::from(
        "E1 | Figure 4: 'No' at relative azimuth 0 deg and 65 deg (altitude 5 m, distance 3 m)\n\n",
    );
    let mut table = Table::new([
        "azimuth",
        "contour px",
        "SAX word",
        "best",
        "distance",
        "decision",
    ]);
    let mut series_rows: Vec<(f64, Vec<f64>)> = Vec::new();
    for az in [0.0, 65.0] {
        let frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(az, 5.0, 3.0));
        let r = pipeline.recognize(&frame);
        let sig = r.signature.as_ref().expect("figure visible");
        table.row([
            format!("{az:.0} deg"),
            sig.contour_len.to_string(),
            r.word.as_ref().map(|w| w.to_string()).unwrap_or_default(),
            r.best.as_ref().map(|m| m.label.clone()).unwrap_or_default(),
            num(r.best.as_ref().map(|m| m.distance).unwrap_or(f64::NAN), 3),
            r.decision.clone().unwrap_or_else(|| "(rejected)".into()),
        ]);
        series_rows.push((az, sig.series.clone()));
    }
    out.push_str(&table.render());
    out.push_str(
        "\nFigure 4 (bottom): the two centroid-distance time series (16-sample PAA view)\n",
    );
    let mut series_table = Table::new(["frame", "0 deg", "65 deg"]);
    let paa0 = hdc_timeseries::paa(&series_rows[0].1, 16);
    let paa65 = hdc_timeseries::paa(&series_rows[1].1, 16);
    for i in 0..16 {
        series_table.row([i.to_string(), num(paa0[i], 3), num(paa65[i], 3)]);
    }
    out.push_str(&series_table.render());
    out.push_str(
        "\nPaper: both views identified as 'No' from the 0 deg canonical reference.\n\
         Measured: the frontal view matches exactly; 65 deg exceeds our figure's\n\
         critical azimuth (~32 deg, see E3) and is rejected — the degradation\n\
         mechanism (foreshortening of the frontal-plane arms) is reproduced, the\n\
         crossover angle of the capsule body sits earlier than the human body's.\n",
    );
    out
}

/// E2 — the altitude recognition window.
pub fn e2_altitude_window() -> String {
    let pipeline = calibrated_pipeline();
    let mut out = String::from(
        "E2 | altitude window, sign 'No', azimuth 0 deg, horizontal distance 3 m,\n     canonical reference at 5 m (as in Figure 4)\n\n",
    );
    let mut table = Table::new(["altitude", "best", "distance", "decision"]);
    let mut window: Vec<f64> = Vec::new();
    for alt10 in (10..=100).step_by(5) {
        let alt = alt10 as f64 / 10.0;
        let frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, alt, 3.0));
        let r = pipeline.recognize(&frame);
        let ok = r.decision.as_deref() == Some("No");
        if ok {
            window.push(alt);
        }
        table.row([
            format!("{alt:.1} m"),
            r.best.as_ref().map(|m| m.label.clone()).unwrap_or_default(),
            num(r.best.as_ref().map(|m| m.distance).unwrap_or(f64::NAN), 3),
            if ok {
                "No".into()
            } else {
                "(rejected)".to_string()
            },
        ]);
    }
    out.push_str(&table.render());
    let lo = window.first().copied().unwrap_or(f64::NAN);
    let hi = window.last().copied().unwrap_or(f64::NAN);
    out.push_str(&format!(
        "\nMeasured window: {lo:.1}-{hi:.1} m (paper: 2-5 m with its camera/body geometry).\n\
         Same shape: a bounded window around the canonical altitude; outside it the\n\
         perspective deformation exceeds the calibrated margin and the frame is rejected.\n",
    ));
    out
}

/// E3 — azimuth sweep, dead angle, and the "erratic" zone under jitter.
pub fn e3_azimuth_dead_angle() -> String {
    let pipeline = calibrated_pipeline();
    let mut rng = SmallRng::seed_from_u64(31);
    let trials = 10;
    let mut out = String::from(
        "E3 | azimuth sweep, sign 'No', altitude 5 m, distance 3 m,\n     10 jittered/noisy trials per angle (pose jitter 0.05 rad, sensor noise sigma 6)\n\n",
    );
    let mut table = Table::new(["azimuth", "success", "wrong", "rejected", "verdict"]);
    let mut critical = 0.0f64;
    for az in (0..=90).step_by(5) {
        let mut success = 0;
        let mut wrong = 0;
        for _ in 0..trials {
            let pose = Pose::for_sign(MarshallingSign::No).jittered(0.05, &mut rng);
            let mut frame = render_pose(pose, &ViewSpec::paper_default(az as f64, 5.0, 3.0));
            noise::add_gaussian(&mut frame, 6.0, &mut rng);
            match calibrated_decision(&pipeline, &frame) {
                Some(l) if l == "No" => success += 1,
                Some(_) => wrong += 1,
                None => {}
            }
        }
        let rejected = trials - success - wrong;
        let verdict = if success == trials {
            "reliable"
        } else if success > 0 {
            "erratic"
        } else {
            "dead"
        };
        if success == trials {
            critical = az as f64;
        }
        table.row([
            format!("{az} deg"),
            format!("{success}/{trials}"),
            wrong.to_string(),
            rejected.to_string(),
            verdict.to_string(),
        ]);
    }
    out.push_str(&table.render());
    let dead = 360.0 - 4.0 * critical;
    out.push_str(&format!(
        "\nCritical azimuth (last fully reliable): {critical:.0} deg (paper: 65 deg)\n\
         Dead angle (silhouette is front/back symmetric): {dead:.0} deg of 360\n\
         (paper: ~100 deg). The paper's qualitative claims reproduce: a reliable\n\
         frontal cone, an erratic transition band, and an unusable side zone whose\n\
         SAX strings do not indicate a recovery direction.\n",
    ));
    out
}

fn calibrated_decision(
    pipeline: &RecognitionPipeline,
    frame: &hdc_raster::GrayImage,
) -> Option<String> {
    pipeline.recognize(frame).decision
}

/// E4 — recognition latency and the 30/60 fps bars.
pub fn e4_latency() -> String {
    let pipeline = calibrated_pipeline();
    let mut out = String::from(
        "E4 | recognition latency (median of 50 runs per frame) and frame budgets\n\n",
    );
    let mut table = Table::new([
        "azimuth",
        "segment",
        "blob",
        "contour+sig",
        "classify",
        "total",
        "fps",
        "30fps?",
        "60fps?",
    ]);
    for az in [0.0, 65.0] {
        let frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(az, 5.0, 3.0));
        let mut totals: Vec<u64> = Vec::new();
        let mut last = None;
        for _ in 0..50 {
            let r = pipeline.recognize(&frame);
            totals.push(r.timings.total_us());
            last = Some(r.timings);
        }
        totals.sort_unstable();
        let median = totals[totals.len() / 2];
        let t = last.unwrap();
        let fps = 1_000_000.0 / median as f64;
        table.row([
            format!("{az:.0} deg"),
            format!("{} us", t.segment_us),
            format!("{} us", t.component_us),
            format!("{} us", t.contour_us + t.signature_us),
            format!("{} us", t.classify_us),
            format!("{median} us"),
            num(fps, 0),
            if FrameBudget::thirty_fps().budget_us() >= median {
                "yes".into()
            } else {
                "no".to_string()
            },
            if FrameBudget::sixty_fps().budget_us() >= median {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper: 38 ms at 0 deg, 27 ms at 65 deg (unoptimised Python/OpenCV on an\n\
         i7-7660U), with the expectation that native code reaches 30 fps and 60 fps\n\
         with offloading. Measured: the Rust pipeline clears both budgets by a wide\n\
         margin. The paper's oblique-cheaper ordering survives in the contour and\n\
         signature stages (the 65 deg contour is ~40% shorter, see E1); in the\n\
         end-to-end totals fixed-resolution segmentation and labelling dominate,\n\
         so the gap is a few percent, below this table's resolution. The fig4\n\
         rows of bench_recognize (BENCH_recognize.json) time both frames\n\
         interleaved and commit the same-repeat 65/0 ratio with its spread.\n",
    );
    out
}

/// E5 — uniqueness of the three signs' SAX strings.
pub fn e5_uniqueness() -> String {
    let pipeline = calibrated_pipeline();
    let mut out =
        String::from("E5 | uniqueness of the sign signatures (canonical 0 deg views)\n\n");
    let templates = pipeline.index().templates();
    let mut words = Table::new(["sign", "SAX word"]);
    for t in templates {
        words.row([t.label.clone(), t.word.to_string()]);
    }
    out.push_str(&words.render());
    out.push_str("\nPairwise distances (lower triangle: rotation-invariant MINDIST | exact):\n\n");
    let mut table = Table::new(["pair", "MINDIST", "exact", "margin vs threshold"]);
    let threshold = pipeline.config().accept_threshold;
    let n = pipeline.config().signature_len;
    for i in 0..templates.len() {
        for j in (i + 1)..templates.len() {
            let (lb, _) = min_rotated_mindist(&templates[i].word, &templates[j].word, n);
            let (d, _) = hdc_timeseries::min_rotated_euclidean(
                &templates[i].series,
                &templates[j].series,
                1,
            )
            .expect("canonical series");
            table.row([
                format!("{} / {}", templates[i].label, templates[j].label),
                num(lb, 3),
                num(d, 3),
                format!("{:.2}x", d / threshold),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper: 'Preliminary results also suggest that the strings retrievable from\n\
         the three signs are unique.' Measured: all three words differ, every exact\n\
         inter-sign distance exceeds the acceptance threshold, so no sign can be\n\
         mistaken for another at the canonical geometry.\n",
    );
    out
}

/// E6 — Figure 1: the LED ring.
pub fn e6_led_ring() -> String {
    let mut out = String::from("E6 | Figure 1: all-round ring, navigation vs danger\n\n");
    let ring = LedRing::new(LedMode::Navigation);
    out.push_str(&format!(
        "navigation snapshot (nose, clockwise): {}\n",
        ring.snapshot()
    ));
    out.push_str(&format!(
        "danger snapshot                      : {}\n",
        LedRing::new(LedMode::Danger).snapshot()
    ));
    out.push_str(&format!(
        "fail-safe default mode               : {:?}\n\n",
        LedRing::default().mode()
    ));
    out.push_str("colour an observer sees vs drone heading (observer due north of drone):\n\n");
    let mut table = Table::new(["drone heading", "observer sees", "meaning"]);
    for heading_deg in (0..360).step_by(45) {
        let heading = (heading_deg as f64).to_radians();
        let color = ring.color_toward(heading, std::f64::consts::FRAC_PI_2);
        let meaning = match color {
            LedColor::Red => "observer on port side",
            LedColor::Green => "observer on starboard side",
            LedColor::White => "observer ahead/astern",
            LedColor::Off => "off",
        };
        table.row([
            format!("{heading_deg} deg"),
            color.to_string(),
            meaning.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper: 'Depending on the direction of controlled flight, the position of\n\
         red, green and white lighting will change.' Measured: the observed colour\n\
         changes deterministically with the relative bearing, and the safety trigger\n\
         forces the all-red state (the default setting).\n",
    );
    out
}

/// E7 — Figure 2: the landing pattern timeline.
pub fn e7_landing_pattern() -> String {
    let mut out = String::from(
        "E7 | Figure 2: landing — descend (1), touch down (2), rotors off then lights out (3)\n\n",
    );
    let mut drone = Drone::new(DroneConfig::default());
    drone.execute_pattern(FlightPattern::TakeOff {
        target_altitude: 5.0,
    });
    while drone.is_executing() {
        drone.tick(0.05);
    }
    drone.drain_events();
    let t0 = drone.time();
    drone.execute_pattern(FlightPattern::Landing);
    let mut table = Table::new(["t", "altitude", "rotors", "ring"]);
    let mut events: Vec<(f64, DroneEvent)> = Vec::new();
    while drone.is_executing() {
        drone.tick(0.05);
        for e in drone.drain_events() {
            events.push((drone.time() - t0, e));
        }
        let t = drone.time() - t0;
        if ((t / 0.05).round() as u64).is_multiple_of(20) || !drone.is_executing() {
            table.row([
                format!("{t:.1} s"),
                format!("{:.2} m", drone.state().position.z),
                if drone.state().rotors_on {
                    "on".to_string()
                } else {
                    "off".into()
                },
                format!("{:?}", drone.ring().mode()),
            ]);
        }
    }
    for e in drone.drain_events() {
        events.push((drone.time() - t0, e));
    }
    out.push_str(&table.render());
    out.push_str("\nevent order:\n");
    for (t, e) in &events {
        out.push_str(&format!("  [{t:.2} s] {e}\n"));
    }
    let rotors_idx = events
        .iter()
        .position(|(_, e)| *e == DroneEvent::RotorsStopped);
    let lights_idx = events.iter().position(|(_, e)| *e == DroneEvent::LightsOut);
    out.push_str(&format!(
        "\ninvariant 'rotors stop before lights out': {}\n",
        match (rotors_idx, lights_idx) {
            (Some(r), Some(l)) if r < l => "holds",
            _ => "VIOLATED",
        }
    ));
    out
}

/// E8 — Figure 3: negotiation traces and per-role outcome statistics.
pub fn e8_negotiation() -> String {
    let mut out = String::from("E8 | Figure 3: negotiated access (closed loop: motion -> human -> camera -> SAX -> protocol)\n\n");

    // one full YES trace
    let mut session = CollaborationSession::new(SessionConfig::for_role(Role::Supervisor, true, 3));
    let outcome = session.run();
    out.push_str(&format!(
        "--- supervisor, consents (outcome: {outcome}) ---\n"
    ));
    for (t, e) in session.log().entries() {
        // keep the trace readable: drop the per-frame no-sign lines
        if matches!(e, LogEntry::Recognized(None)) {
            continue;
        }
        out.push_str(&format!("[{t:7.2}s] {e}\n"));
    }

    // one full NO trace
    let mut session =
        CollaborationSession::new(SessionConfig::for_role(Role::Supervisor, false, 4));
    let outcome = session.run();
    out.push_str(&format!(
        "\n--- supervisor, refuses (outcome: {outcome}) ---\n"
    ));
    for (t, e) in session.log().entries() {
        if matches!(e, LogEntry::Recognized(None)) {
            continue;
        }
        out.push_str(&format!("[{t:7.2}s] {e}\n"));
    }

    // outcome statistics by role
    out.push_str("\noutcome statistics (10 sessions per role, consent intended):\n\n");
    let mut table = Table::new([
        "role",
        "granted",
        "denied",
        "abandoned",
        "aborted",
        "mean time",
    ]);
    for role in Role::ALL {
        let mut counts = [0u32; 4];
        let mut total_t = 0.0;
        let runs = 10;
        for seed in 0..runs {
            let mut s = CollaborationSession::new(SessionConfig::for_role(role, true, 50 + seed));
            let o = s.run();
            total_t += s.time();
            match o {
                SessionOutcome::Granted => counts[0] += 1,
                SessionOutcome::Denied => counts[1] += 1,
                SessionOutcome::Abandoned => counts[2] += 1,
                SessionOutcome::Aborted => counts[3] += 1,
                SessionOutcome::StillRunning => {}
            }
        }
        table.row([
            role.to_string(),
            counts[0].to_string(),
            counts[1].to_string(),
            counts[2].to_string(),
            counts[3].to_string(),
            format!("{:.0} s", total_t / runs as f64),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nThe training gradient the user stories predict appears in the loop:\n\
         supervisors nearly always resolve the negotiation, visitors stall it —\n\
         partly by ignoring the poke, partly by facing the drone so poorly that\n\
         their signs fall into the recognition dead angle (E3).\n",
    );
    out
}

/// E9 — the discarded vertical array: direction-reading accuracy.
pub fn e9_vertical_array() -> String {
    let mut out = String::from(
        "E9 | vertical take-off/landing array: observer accuracy vs corruption\n     (3 glances, 0.45 s apart, per trial; 400 trials per cell)\n\n",
    );
    let mut rng = SmallRng::seed_from_u64(9);
    let mut table = Table::new([
        "flip prob",
        "take-off read correctly",
        "landing read correctly",
    ]);
    for flip in [0.0, 0.05, 0.1, 0.2, 0.3, 0.4] {
        let mut acc = [0usize; 2];
        let trials = 400;
        for (i, anim) in [VerticalAnimation::TakeOff, VerticalAnimation::Landing]
            .into_iter()
            .enumerate()
        {
            let arr = VerticalArray::new(anim);
            for _ in 0..trials {
                if arr.observe_direction(3, 0.45, flip, &mut rng) == Some(anim) {
                    acc[i] += 1;
                }
            }
        }
        table.row([
            num(flip, 2),
            pct(acc[0] as f64 / 400.0),
            pct(acc[1] as f64 / 400.0),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper (user feedback): the animations 'are difficult to distinguish, do\n\
         not serve clarity, indeed serve to confuse, and so will be discarded'.\n\
         Measured: with casual glances the sweep direction aliases — under even\n\
         modest corruption the reading collapses and can invert (systematically\n\
         wrong, worse than chance), which is exactly the confusion users reported.\n",
    );
    out
}

/// E10 — tuning word length and alphabet size.
///
/// Evaluates the *string-level* matcher (the paper's preliminary
/// implementation compares SAX strings), where `(w, a)` genuinely matter:
/// acceptance uses the rotation-invariant MINDIST between words, thresholded
/// at a fraction of the smallest inter-template word distance.
pub fn e10_tuning() -> String {
    let mut out = String::from(
        "E10 | tuning PAA segments (w) and alphabet size (a) of the string-level\n      matcher: per-configuration usability and critical azimuth (sign 'No')\n\n",
    );
    let segments = [4usize, 8, 16, 32];
    let alphabets = [3u8, 4, 6, 8, 12];
    let pipeline = calibrated_pipeline(); // only for signature extraction

    // signature per azimuth (computed once)
    let azimuths: Vec<f64> = (0..=60).step_by(5).map(|a| a as f64).collect();
    let queries: Vec<(f64, Vec<f64>)> = azimuths
        .iter()
        .map(|az| {
            let frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(*az, 5.0, 3.0));
            (*az, pipeline.signature_of(&frame).expect("visible").series)
        })
        .collect();
    let canonical: Vec<(String, Vec<f64>)> = MarshallingSign::ALL
        .iter()
        .map(|s| {
            let frame = render_sign(*s, &ViewSpec::paper_default(0.0, 5.0, 3.0));
            (
                s.label().to_string(),
                pipeline.signature_of(&frame).expect("visible").series,
            )
        })
        .collect();

    // word-level evaluation: returns (usable, min inter-template word dist,
    // critical azimuth) for a configuration
    let eval = |params: SaxParams| -> (bool, f64, f64) {
        let mut idx = hdc_sax::SaxIndex::new(params, 128);
        for (label, series) in &canonical {
            idx.insert(label.clone(), series);
        }
        let templates = idx.templates();
        let mut min_lb = f64::INFINITY;
        for i in 0..templates.len() {
            for j in (i + 1)..templates.len() {
                let (d, _) = min_rotated_mindist(&templates[i].word, &templates[j].word, 128);
                min_lb = min_lb.min(d);
            }
        }
        if min_lb <= 1e-9 {
            return (false, min_lb, 0.0); // templates collide at word level
        }
        let threshold = 0.9 * min_lb;
        let mut critical = 0.0;
        for (az, series) in &queries {
            let word = idx.encode(series);
            let mut best: Option<(&str, f64)> = None;
            for t in templates {
                let (d, _) = min_rotated_mindist(&word, &t.word, 128);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((&t.label, d));
                }
            }
            let ok = matches!(best, Some((l, d)) if l == "No" && d <= threshold);
            if ok && critical + 5.0 >= *az {
                critical = *az;
            }
        }
        (true, min_lb, critical)
    };

    let mut table = Table::new([
        "w",
        "a",
        "usable",
        "inter-template word dist",
        "critical azimuth",
    ]);
    for w in segments {
        for a in alphabets {
            let (usable, min_lb, crit) = eval(SaxParams::new(w, a).expect("valid grid"));
            table.row([
                w.to_string(),
                a.to_string(),
                if usable {
                    "yes".to_string()
                } else {
                    "no (collide)".into()
                },
                num(min_lb, 3),
                if usable {
                    format!("{crit:.0} deg")
                } else {
                    "-".into()
                },
            ]);
        }
    }
    out.push_str(&table.render());
    let results = grid_search(&segments, &alphabets, |p| {
        let (usable, _, crit) = eval(p);
        if usable {
            crit
        } else {
            -1.0
        }
    });
    let best = &results[0];
    out.push_str(&format!(
        "\nBest configuration by the sweep: w={}, a={} (critical azimuth {:.0} deg).\n\
         Short words over tiny alphabets collide (MINDIST between the three signs'\n\
         words is 0 — adjacent symbols are free), so they cannot support an\n\
         acceptance threshold at all; larger (w, a) separate the signs but no\n\
         configuration rescues the oblique views. Paper (ref [22]): 'even with\n\
         tuning of the piecewise aggregation and alphabet size recognition appears\n\
         erratic' — reproduced: the dead angle is geometric, not a symbolisation\n\
         artefact.\n",
        best.segments, best.alphabet, best.score
    ));
    out
}

/// E11 — SAX vs the classical baselines.
pub fn e11_baselines() -> String {
    let mut out = String::from(
        "E11 | SAX vs baselines: closed-set accuracy under pose jitter + noise\n      (20 trials x 3 signs per cell) and per-frame classification cost\n\n",
    );
    let make: Vec<Box<dyn Fn() -> Box<dyn SignClassifier>>> = vec![
        Box::new(|| Box::new(SaxClassifier::new(SaxParams::default(), 128))),
        Box::new(|| Box::new(DtwClassifier::new(128, 8, 8))),
        Box::new(|| Box::new(HuClassifier::new())),
        Box::new(|| Box::new(ZoningClassifier::new(4))),
    ];

    let mut table = Table::new([
        "classifier",
        "frontal acc",
        "20 deg acc",
        "rotated-frame acc",
        "cost/frame",
    ]);
    for factory in &make {
        let mut c = factory();
        for sign in MarshallingSign::ALL {
            let frame = render_sign(sign, &ViewSpec::paper_default(0.0, 5.0, 3.0));
            let mask = hdc_raster::threshold::binarize(&frame, 128);
            assert!(c.train(sign.label(), &mask));
        }
        let mut rng = SmallRng::seed_from_u64(111);
        let run_cell = |az: f64, rotate: bool, rng: &mut SmallRng| -> f64 {
            let mut ok = 0;
            let trials = 20;
            for _ in 0..trials {
                for sign in MarshallingSign::ALL {
                    let pose = Pose::for_sign(sign).jittered(0.04, rng);
                    let mut frame = render_pose(pose, &ViewSpec::paper_default(az, 5.0, 3.0));
                    noise::add_gaussian(&mut frame, 5.0, rng);
                    let mut mask = hdc_raster::threshold::binarize(&frame, 128);
                    if rotate {
                        mask = rotate_mask_90(&mask);
                    }
                    if c.classify(&mask)
                        .map(|r| r.label == sign.label())
                        .unwrap_or(false)
                    {
                        ok += 1;
                    }
                }
            }
            ok as f64 / (trials * 3) as f64
        };
        let frontal = run_cell(0.0, false, &mut rng);
        let oblique = run_cell(20.0, false, &mut rng);
        let rotated = run_cell(0.0, true, &mut rng);
        // cost
        let frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, 5.0, 3.0));
        let mask = hdc_raster::threshold::binarize(&frame, 128);
        let t0 = Instant::now();
        let reps = 20;
        for _ in 0..reps {
            let _ = c.classify(&mask);
        }
        let cost_us = t0.elapsed().as_micros() as f64 / reps as f64;
        table.row([
            c.name().to_string(),
            pct(frontal),
            pct(oblique),
            pct(rotated),
            format!("{cost_us:.0} us"),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nShape of the paper's argument: the contour-SAX approach keeps the accuracy\n\
         of the expensive sequence matcher (DTW) at a fraction of its cost, remains\n\
         rotation invariant where the cheap zoning grid collapses on rotated frames,\n\
         and separates the articulated signs better than global Hu moments.\n",
    );
    out
}

/// Rotates a mask by 90° (image-plane rotation for the rotation-invariance column).
fn rotate_mask_90(mask: &hdc_raster::Bitmap) -> hdc_raster::Bitmap {
    let w = mask.width();
    let h = mask.height();
    let mut out = hdc_raster::Bitmap::new(h, w);
    for (x, y, v) in mask.iter() {
        if v {
            out.set(h - 1 - y, x, true);
        }
    }
    out
}

/// E12 — safety fault injection.
pub fn e12_safety_injection() -> String {
    let mut out = String::from(
        "E12 | safety fault injection: at a random time in each session a safety\n      function fires; every run must end all-red, landed, without area entry\n\n",
    );
    let mut table = Table::new([
        "seed",
        "fired at",
        "state after",
        "ring",
        "grounded",
        "entered w/o yes",
    ]);
    let mut all_hold = true;
    for seed in 0..10u64 {
        let mut session =
            CollaborationSession::new(SessionConfig::for_role(Role::Worker, true, seed));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD);
        let fire_at = rng.gen_range(2.0..25.0);
        let (mut fired, mut worker) = (false, ViewWorker::new());
        while !session.is_done() && session.time() < 120.0 {
            if !fired && session.time() >= fire_at {
                session.inject_safety("injected fault");
                fired = true;
            }
            session.step_with(&mut worker);
        }
        let drone = session.drone();
        let entered_before_yes = session
            .log()
            .first_time(|e| *e == LogEntry::Action(ProtocolAction::EnterArea))
            .map(|t_enter| {
                let t_yes = session
                    .log()
                    .first_time(|e| *e == LogEntry::Recognized(Some(MarshallingSign::Yes)));
                t_yes.map(|ty| ty > t_enter).unwrap_or(true)
            })
            .unwrap_or(false);
        let ring_red = drone.ring().mode() == LedMode::Danger;
        let grounded = drone.state().is_grounded();
        // sessions that completed before the fault fired end in normal states
        let holds = if fired {
            ring_red && grounded && !entered_before_yes
        } else {
            !entered_before_yes
        };
        all_hold &= holds;
        table.row([
            seed.to_string(),
            if fired {
                format!("{fire_at:.1} s")
            } else {
                "(finished first)".into()
            },
            session.state().to_string(),
            format!("{:?}", drone.ring().mode()),
            if grounded {
                "yes".to_string()
            } else {
                "no".into()
            },
            if entered_before_yes {
                "VIOLATION".to_string()
            } else {
                "no".into()
            },
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nall safety invariants hold: {}\n\
         (R2: all-red on trigger; landing follows; R4: no entry without Yes)\n",
        if all_hold { "yes" } else { "NO — see table" }
    ));
    out
}

/// E13 — the paper's proposed RGB replacement for the vertical array.
pub fn e13_rgb_vs_vertical() -> String {
    use hdc_drone::RgbStatusSignal;
    let mut out = String::from(
        "E13 | extension (paper: 'a combination of RGB light signals may be used ...\n      left for further work'): colour-coded status vs the discarded vertical\n      array, identical observer budget (3 glances, per-glance corruption)\n\n",
    );
    let mut rng = SmallRng::seed_from_u64(13);
    let trials = 400;
    let mut table = Table::new(["corruption", "vertical array", "RGB status"]);
    for p in [0.0, 0.05, 0.1, 0.2, 0.3, 0.4] {
        let arr = VerticalArray::new(VerticalAnimation::TakeOff);
        let arr_ok = (0..trials)
            .filter(|_| {
                arr.observe_direction(3, 0.45, p, &mut rng) == Some(VerticalAnimation::TakeOff)
            })
            .count();
        let rgb = RgbStatusSignal::for_animation(VerticalAnimation::TakeOff);
        let rgb_ok = (0..trials)
            .filter(|_| {
                rgb.observe_hue(3, p, &mut rng).map(|h| h.animation())
                    == Some(VerticalAnimation::TakeOff)
            })
            .count();
        table.row([
            num(p, 2),
            pct(arr_ok as f64 / trials as f64),
            pct(rgb_ok as f64 / trials as f64),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nThe colour code is order-free: any single clean glance decodes it, and\n\
         majority voting over glances *improves* with corruption instead of\n\
         inverting. The array's phase-order encoding is what made it confusing —\n\
         exactly the paper's hypothesis when it proposed RGB signals instead.\n",
    );
    out
}

/// E14 — IMU-derived flight state (the paper's open IMU question).
pub fn e14_imu_flight_state() -> String {
    use hdc_drone::{Barometer, FlightState, FlightStateEstimator, Imu};
    let mut out = String::from(
        "E14 | extension (paper: 'the integration of an appropriate sensor like an\n      IMU to indicate actual flight is yet to be discussed'): flight state\n      estimated from a consumer MEMS IMU + barometer across a full sortie\n\n",
    );
    let mut drone = Drone::new(DroneConfig::default());
    let mut imu = Imu::mems();
    let baro = Barometer::consumer();
    let mut est = FlightStateEstimator::new();
    let mut rng = SmallRng::seed_from_u64(14);
    // prime from rest
    let _ = imu.sample(drone.state(), 0.05, &mut rng);

    let mut table = Table::new(["phase", "duration", "dominant estimate", "agreement"]);
    let run_phase = |drone: &mut Drone,
                     imu: &mut Imu,
                     est: &mut FlightStateEstimator,
                     rng: &mut SmallRng,
                     label: &str,
                     truth: FlightState,
                     steps: usize,
                     table: &mut Table| {
        let mut counts: std::collections::HashMap<FlightState, usize> = Default::default();
        for _ in 0..steps {
            drone.tick(0.05);
            let s = imu.sample(drone.state(), 0.05, rng);
            let alt = baro.sample(drone.state(), rng);
            let e = est.update_fused(&s, Some(alt), drone.state().rotors_on, 0.05);
            *counts.entry(e).or_default() += 1;
        }
        let dominant = counts
            .iter()
            .max_by_key(|(_, c)| **c)
            .map(|(s, _)| *s)
            .unwrap_or(FlightState::Grounded);
        let agree = *counts.get(&truth).unwrap_or(&0) as f64 / steps as f64;
        table.row([
            label.to_string(),
            format!("{:.1} s", steps as f64 * 0.05),
            format!("{dominant:?}"),
            pct(agree),
        ]);
    };

    drone.execute_pattern(FlightPattern::TakeOff {
        target_altitude: 4.0,
    });
    run_phase(
        &mut drone,
        &mut imu,
        &mut est,
        &mut rng,
        "take-off (climb)",
        FlightState::Climbing,
        60,
        &mut table,
    );
    run_phase(
        &mut drone,
        &mut imu,
        &mut est,
        &mut rng,
        "hover",
        FlightState::Hovering,
        100,
        &mut table,
    );
    drone.goto(hdc_geometry::Vec3::new(15.0, 0.0, 4.0));
    run_phase(
        &mut drone,
        &mut imu,
        &mut est,
        &mut rng,
        "transit",
        FlightState::Translating,
        70,
        &mut table,
    );
    // settle at the waypoint (skip the deceleration transient)
    run_phase(
        &mut drone,
        &mut imu,
        &mut est,
        &mut rng,
        "settle (transient)",
        FlightState::Hovering,
        30,
        &mut table,
    );
    run_phase(
        &mut drone,
        &mut imu,
        &mut est,
        &mut rng,
        "hover 2",
        FlightState::Hovering,
        100,
        &mut table,
    );
    drone.execute_pattern(FlightPattern::Landing);
    run_phase(
        &mut drone,
        &mut imu,
        &mut est,
        &mut rng,
        "landing (descent)",
        FlightState::Descending,
        90,
        &mut table,
    );
    run_phase(
        &mut drone,
        &mut imu,
        &mut est,
        &mut rng,
        "parked",
        FlightState::Grounded,
        40,
        &mut table,
    );

    out.push_str(&table.render());
    out.push_str(
        "\nThe fused estimator (accelerometer for bandwidth, barometer differencing\n\
         for the constant-rate phases, rotor telemetry for ground truth-ing) reads\n\
         the whole sortie, so the navigation lights can reflect *actual* flight\n\
         rather than commanded flight — closing the paper's open question.\n\
         Transitions blur across phase boundaries (debouncing), which is the price\n\
         of not flapping the lights.\n",
    );
    out
}

/// E15 — vocabulary economics: database size vs lookup cost.
pub fn e15_vocabulary_economics() -> String {
    let mut out = String::from(
        "E15 | extension (paper: 'cost-efficient drones need only understand the\n      bare minimum of signs and so reduce the complexity and cost of\n      recognition electronics'): lookup cost and margin vs vocabulary size\n\n",
    );
    // build vocabularies: the 3 real signs plus synthetic extra 'signs'
    // (distinct smooth shapes) to emulate richer languages
    let pipeline = calibrated_pipeline();
    let canonical: Vec<Vec<f64>> = MarshallingSign::ALL
        .iter()
        .map(|s| {
            let frame = render_sign(*s, &ViewSpec::paper_default(0.0, 5.0, 3.0));
            pipeline.signature_of(&frame).expect("visible").series
        })
        .collect();
    let query = canonical[2].clone(); // 'No'

    let mut table = Table::new(["vocabulary", "templates", "lookup", "min margin"]);
    let mut scratch = hdc_sax::QueryScratch::new();
    for extra in [0usize, 7, 27, 97] {
        let mut idx = hdc_sax::SaxIndex::new(SaxParams::default(), 128);
        for (i, s) in canonical.iter().enumerate() {
            idx.insert(format!("sign{i}"), s);
        }
        for k in 0..extra {
            let synth: Vec<f64> = (0..128)
                .map(|i| {
                    let x = i as f64 * 0.1 + k as f64 * 0.7;
                    (x.sin() * (1.0 + 0.1 * k as f64)).cos() + (0.37 * x).sin()
                })
                .collect();
            idx.insert(format!("extra{k}"), &synth);
        }
        // timing: the recognition loop's call, one exact distance per template
        let reps = 30;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = idx.best_two_with(&query, &mut scratch);
        }
        let lookup_us = t0.elapsed().as_micros() as f64 / reps as f64;
        // min inter-template margin
        let templates = idx.templates();
        let mut min_pair = f64::INFINITY;
        for i in 0..templates.len() {
            for j in (i + 1)..templates.len() {
                let (d, _) = hdc_timeseries::min_rotated_euclidean(
                    &templates[i].series,
                    &templates[j].series,
                    8, // coarse stride is enough for a margin estimate
                )
                .expect("canonical");
                min_pair = min_pair.min(d);
            }
        }
        table.row([
            format!("3 signs + {extra}"),
            (3 + extra).to_string(),
            format!("{lookup_us:.0} us"),
            num(min_pair, 2),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nLookup computes one exact rotation distance per template, so its cost is\n\
         linear in vocabulary size, while the inter-template margin (the thing the\n\
         acceptance threshold lives off) shrinks — quantifying the paper's argument\n\
         that cheap drones should carry only the minimum sign set. A word-level\n\
         lower bound (MINDIST) can skip templates only in a vocabulary of tens of\n\
         signs; on the system's three it never skipped one (E48), so the index\n\
         keeps none.\n",
    );
    out
}

/// E16 — the dynamic wave-off gesture.
pub fn e16_wave_off() -> String {
    use hdc_vision::dynamic::{DynamicConfig, DynamicDecision, DynamicRecognizer};
    let mut out = String::from(
        "E16 | extension (paper: 'static and, possibly later, dynamic marshalling\n      signals'): the wave-off gesture — detection across wave frequency and\n      azimuth, plus false-positive checks on held static signs\n\n",
    );
    let view_for = |az: f64| ViewSpec::paper_default(az, 5.0, 3.0);
    let run = |freq_hz: f64, az: f64| -> DynamicDecision {
        let mut rec = DynamicRecognizer::new(DynamicConfig::default());
        for i in 0..30 {
            let t = i as f64 * 0.1;
            let frame = render_pose(Pose::wave_off_phase(t * freq_hz), &view_for(az));
            rec.push(t, &hdc_raster::threshold::binarize(&frame, 128));
        }
        rec.decision()
    };

    let mut table = Table::new(["wave freq", "azimuth 0", "azimuth 30", "azimuth 60"]);
    for freq in [0.5, 1.0, 2.0] {
        table.row([
            format!("{freq} Hz"),
            format!("{:?}", run(freq, 0.0)),
            format!("{:?}", run(freq, 30.0)),
            format!("{:?}", run(freq, 60.0)),
        ]);
    }
    out.push_str(&table.render());

    out.push_str("\nfalse positives on held static signs (3 s windows):\n\n");
    let mut fp = Table::new(["pose", "decision"]);
    for sign in MarshallingSign::ALL {
        let mut rec = DynamicRecognizer::new(DynamicConfig::default());
        for i in 0..30 {
            let frame = render_pose(Pose::for_sign(sign), &view_for(0.0));
            rec.push(
                i as f64 * 0.1,
                &hdc_raster::threshold::binarize(&frame, 128),
            );
        }
        fp.row([sign.label().to_string(), format!("{:?}", rec.decision())]);
    }
    out.push_str(&fp.render());
    out.push_str(
        "\nThe temporal channel is *more* azimuth-robust than the static one: the\n\
         aspect oscillation survives foreshortening (it only attenuates), so the\n\
         wave-off still reads at azimuths where static signs are already dead —\n\
         a good property for an abort gesture. Static holds never false-trigger.\n",
    );
    out
}

/// E17 — fleet scaling over the orchard.
pub fn e17_fleet_scaling() -> String {
    use hdc_orchard::{run_fleet, FleetConfig, MissionConfig, OrchardMap};
    let mut out = String::from(
        "E17 | extension (paper intro: drones 'will work collaboratively and\n      cooperatively'): trap-collection makespan and energy vs fleet size\n      (6x8 orchard, 48 traps, 4 people about)\n\n",
    );
    out.push_str("clean logistics (no people — pure transit/read scaling):\n\n");
    let run_table = |people: u32| -> Table {
        let mut table = Table::new([
            "drones",
            "traps read",
            "makespan",
            "speedup",
            "fleet energy",
            "negotiations",
        ]);
        let mut solo_time = 0.0;
        for n in [1u32, 2, 3, 4, 6] {
            let map = OrchardMap::grid(6, 8, 4.0, 3.0);
            let mission = MissionConfig {
                human_count: people,
                blocking_radius_m: 3.5,
                ..Default::default()
            };
            let stats = run_fleet(
                FleetConfig {
                    drone_count: n,
                    mission,
                },
                &map,
                17,
            );
            if n == 1 {
                solo_time = stats.makespan_s;
            }
            table.row([
                n.to_string(),
                stats.traps_read.to_string(),
                format!("{:.0} s", stats.makespan_s),
                format!("{:.1}x", solo_time / stats.makespan_s),
                format!("{:.2} Wh", stats.energy_wh),
                stats.negotiations().to_string(),
            ]);
        }
        table
    };
    out.push_str(&run_table(0).render());
    out.push_str("\nbusy orchard (4 people — negotiation time and luck added):\n\n");
    out.push_str(&run_table(4).render());
    out.push_str(
        "\nOn clean logistics the makespan shrinks sub-linearly (per-drone take-off,\n\
         landing and transit overhead; uneven region splits) while total energy\n\
         grows. With people about, negotiation encounters dominate the variance —\n\
         splitting the orchard also splits the 30 s negotiations across drones,\n\
         which can make small fleets look super-linear. Both effects support the\n\
         paper's cost argument: many cheap, minimally-equipped drones win\n\
         wall-clock, not energy.\n",
    );
    out
}

/// E18 — facing-error sensitivity: the vision dead angle felt by the protocol.
pub fn e18_facing_sensitivity() -> String {
    use hdc_core::{CollaborationSession, Role, SessionConfig};
    let mut out = String::from(
        "E18 | extension: how accurately must the human face the drone? Consenting\n      workers with controlled facing error (8 sessions per cell); links the\n      dead angle (E3) to protocol outcomes\n\n",
    );
    let mut table = Table::new([
        "max facing error",
        "granted",
        "denied",
        "abandoned",
        "mean duration",
    ]);
    for err_deg in [0.0, 10.0, 20.0, 30.0, 45.0, 60.0] {
        let mut granted = 0;
        let mut denied = 0;
        let mut abandoned = 0;
        let mut total_t = 0.0;
        let runs = 8;
        for seed in 0..runs {
            let mut cfg = SessionConfig::for_role(Role::Worker, true, 300 + seed);
            let mut profile = Role::Worker.profile();
            profile.attend_probability = 1.0; // isolate the geometric effect
            profile.answer_probability = 1.0;
            profile.correct_sign_probability = 1.0;
            profile.max_facing_error_deg = err_deg;
            cfg.profile_override = Some(profile);
            let mut s = CollaborationSession::new(cfg);
            match s.run() {
                hdc_core::SessionOutcome::Granted => granted += 1,
                hdc_core::SessionOutcome::Denied => denied += 1,
                hdc_core::SessionOutcome::Abandoned => abandoned += 1,
                _ => {}
            }
            total_t += s.time();
        }
        table.row([
            format!("{err_deg:.0} deg"),
            format!("{granted}/{runs}"),
            denied.to_string(),
            abandoned.to_string(),
            format!("{:.0} s", total_t / runs as f64),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nWith behavioural error sources switched off, outcome degradation is purely\n\
         geometric: once the facing error can exceed the critical azimuth (E3,\n\
         ~30 deg), signs start landing in the dead angle, sessions need retries or\n\
         abandon. Training people to face the drone is as important as training\n\
         the signs — a concrete, measurable refinement of the paper's user-story\n\
         analysis.\n",
    );
    out
}

/// E19 — anthropometric robustness: the enrolled templates come from one
/// synthetic adult; real orchards contain every body.
pub fn e19_anthropometric_robustness() -> String {
    use hdc_figure::{render_signaller, BodyDimensions, Signaller};
    let mut out = String::from(
        "E19 | extension: recognition of all three signs by bodies that differ from\n      the calibrated adult (templates enrolled once from the default body)\n\n",
    );
    let pipeline = calibrated_pipeline();
    let view = ViewSpec::paper_default(0.0, 5.0, 3.0);
    let camera = view.camera();

    let bodies: Vec<(&str, BodyDimensions)> = vec![
        ("calibrated adult", BodyDimensions::adult()),
        ("short (0.85x)", BodyDimensions::adult().scaled(0.85)),
        ("tall (1.12x)", BodyDimensions::adult().scaled(1.12)),
        (
            "long-limbed (+15% limbs)",
            BodyDimensions::adult().with_proportions(1.15, 1.0),
        ),
        (
            "short-limbed (-12% limbs)",
            BodyDimensions::adult().with_proportions(0.88, 1.0),
        ),
        (
            "broad (+25% girth)",
            BodyDimensions::adult().with_proportions(1.0, 1.25),
        ),
        (
            "slim (-20% girth)",
            BodyDimensions::adult().with_proportions(1.0, 0.8),
        ),
        (
            "bulky child (0.8x, +20% girth)",
            BodyDimensions::adult()
                .scaled(0.8)
                .with_proportions(1.0, 1.2),
        ),
    ];

    let mut table = Table::new(["body", "AttentionGained", "Yes", "No"]);
    for (name, dims) in &bodies {
        let mut cells = vec![name.to_string()];
        for sign in MarshallingSign::ALL {
            let signaller = Signaller::new(
                hdc_geometry::Vec2::ZERO,
                std::f64::consts::FRAC_PI_2,
                Pose::for_sign(sign),
            )
            .with_dimensions(*dims);
            let frame = render_signaller(&signaller, &camera);
            let r = pipeline.recognize(&frame);
            let ok = r.decision.as_deref() == Some(sign.label());
            let d = r.best.as_ref().map(|m| m.distance).unwrap_or(f64::NAN);
            cells.push(if ok {
                format!("ok ({d:.1})")
            } else {
                format!("MISS ({d:.1})")
            });
        }
        table.row(cells);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nUniform size changes are almost free (the contour signature is scale\n\
         invariant; only rasterisation changes), and every tested body stays\n\
         within the acceptance threshold — though proportion changes consume up\n\
         to ~45% of the margin. A deployment should still enrol a small\n\
         body-shape panel: proportion shifts stack with azimuth and noise, which\n\
         each consume margin of their own (E3).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_cover_all() {
        let all = all_experiments();
        assert_eq!(all.len(), 19);
        for (id, desc) in &all {
            assert!(!desc.is_empty(), "{id}");
        }
        assert!(run_experiment(ExperimentId(99)).is_none());
    }

    #[test]
    fn e5_reports_unique_words() {
        let report = e5_uniqueness();
        assert!(report.contains("AttentionGained"));
        assert!(report.contains("Yes"));
        assert!(report.contains("No"));
    }

    #[test]
    fn e6_contains_danger_row() {
        let report = e6_led_ring();
        assert!(report.contains("danger snapshot"));
        assert!(report.contains("r r r r r r r r r r"));
    }

    #[test]
    fn e7_invariant_holds() {
        let report = e7_landing_pattern();
        assert!(
            report.contains("invariant 'rotors stop before lights out': holds"),
            "{report}"
        );
    }

    #[test]
    fn e9_clean_reading_perfect() {
        let report = e9_vertical_array();
        let first_data_line = report
            .lines()
            .find(|l| l.trim_start().starts_with("0.00"))
            .expect("flip 0 row");
        assert!(first_data_line.contains("100%"), "{first_data_line}");
    }
}
