//! Cross-crate integration: render → segment → signature → SAX → decision,
//! exercised through the public `hdc` facade.

use hdc::figure::{render_pose, render_sign, MarshallingSign, Pose, ViewSpec};
use hdc::raster::noise;
use hdc::vision::{PipelineConfig, RecognitionPipeline};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn calibrated() -> RecognitionPipeline {
    let mut p = RecognitionPipeline::new(PipelineConfig::default());
    p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    p
}

#[test]
fn all_signs_recognised_through_the_facade() {
    let p = calibrated();
    for sign in MarshallingSign::ALL {
        let frame = render_sign(sign, &ViewSpec::paper_default(0.0, 5.0, 3.0));
        assert_eq!(p.recognize(&frame).decision.as_deref(), Some(sign.label()));
    }
}

#[test]
fn recognition_is_deterministic() {
    let p = calibrated();
    let frame = render_sign(
        MarshallingSign::Yes,
        &ViewSpec::paper_default(10.0, 4.0, 3.0),
    );
    let a = p.recognize(&frame);
    let b = p.recognize(&frame);
    assert_eq!(a.decision, b.decision);
    assert_eq!(a.word, b.word);
    let (da, db) = (a.best.unwrap().distance, b.best.unwrap().distance);
    assert_eq!(da, db);
}

#[test]
fn recognition_survives_moderate_sensor_noise() {
    let p = calibrated();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut ok = 0;
    let trials = 15;
    for _ in 0..trials {
        let mut frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(5.0, 5.0, 3.0));
        noise::add_gaussian(&mut frame, 10.0, &mut rng);
        if p.recognize(&frame).decision.as_deref() == Some("No") {
            ok += 1;
        }
    }
    assert!(ok >= trials - 1, "noise robustness: {ok}/{trials}");
}

#[test]
fn image_plane_rotation_is_free_for_the_signature() {
    // rotate the camera frame by 90° (drone banking): the contour signature
    // is rotation invariant via circular-shift matching, so the decision holds
    let p = calibrated();
    let frame = render_sign(
        MarshallingSign::Yes,
        &ViewSpec::paper_default(0.0, 5.0, 3.0),
    );
    // rotate the image 90°
    let mut rotated = hdc::raster::GrayImage::new(frame.height(), frame.width());
    for (x, y, v) in frame.iter() {
        rotated.set(frame.height() - 1 - y, x, v);
    }
    let r = p.recognize(&rotated);
    assert_eq!(
        r.decision.as_deref(),
        Some("Yes"),
        "90°-rolled frame must still match (distance {:?})",
        r.best.map(|m| m.distance)
    );
}

#[test]
fn distractor_poses_do_not_false_accept_as_yes() {
    // waving may read as "No" (fails safe); nothing may read as "Yes"
    let p = calibrated();
    for (name, pose) in [
        ("neutral", Pose::neutral()),
        ("waving", Pose::waving()),
        ("akimbo", Pose::akimbo()),
    ] {
        let frame = render_pose(pose, &ViewSpec::paper_default(0.0, 5.0, 3.0));
        let d = p.recognize(&frame).decision;
        assert_ne!(d.as_deref(), Some("Yes"), "{name} must never grant access");
    }
}

#[test]
fn pipeline_handles_pathological_frames() {
    let p = calibrated();
    // all black
    let black = hdc::raster::GrayImage::new(640, 480);
    assert!(p.recognize(&black).decision.is_none());
    // all white (one giant blob, no interior structure)
    let white = hdc::raster::GrayImage::filled(640, 480, 255);
    assert!(p.recognize(&white).decision.is_none());
    // random noise
    let mut rng = SmallRng::seed_from_u64(2);
    let mut noisy = hdc::raster::GrayImage::new(640, 480);
    noise::add_salt_pepper(&mut noisy, 0.5, &mut rng);
    let r = p.recognize(&noisy);
    assert!(
        r.decision.is_none(),
        "pure noise must be rejected: {:?}",
        r.decision
    );
}

#[test]
fn two_people_in_frame_dominant_one_wins() {
    use hdc::figure::{paint_signaller, Signaller};
    use hdc::geometry::Vec2;
    let p = calibrated();
    let view = ViewSpec::paper_default(0.0, 5.0, 3.0);
    let cam = view.camera();
    let mut frame = hdc::raster::GrayImage::new(view.width, view.height);
    // the near signaller shows Yes; a distant bystander stands neutral
    let near = view.signaller(Pose::for_sign(MarshallingSign::Yes));
    let far = Signaller::new(
        Vec2::new(2.0, 6.0),
        std::f64::consts::FRAC_PI_2,
        Pose::neutral(),
    );
    paint_signaller(&far, &cam, &mut frame);
    paint_signaller(&near, &cam, &mut frame);
    let r = p.recognize(&frame);
    assert_eq!(
        r.decision.as_deref(),
        Some("Yes"),
        "largest blob is the negotiating partner"
    );
}
