//! The one-pass view read equals the two-pass formula it replaced, and the
//! mask-path miss equals the grey-frame read.
//!
//! A camera view used to be read twice: the wave-off channel labelled
//! `binarize(frame, 128)` through a `DynamicRecognizer`, and the static
//! channel ran `RecognitionPipeline::recognize` on the frame from scratch.
//! `ViewRead` now labels the view once and serves both channels from that
//! one component. A memo miss (`ViewRead::view`) never paints a grey frame:
//! it rasterises the silhouette straight into a packed mask
//! (`paint_view_mask`). The session-level oracle (`view_memo_props`) runs
//! through the same shared read, so this suite checks the shared read
//! itself: the mask against `binarize(paint_view(..), 128)` packed, and
//! both reads against the two-pass formula, over signs, wave-off phases,
//! mid-transition poses, headings, body scales, frontal, dead-band,
//! far-away and close (partly off-frame) eyes, and an empty frame.

use hdc_core::{paint_view, paint_view_mask, Role, SessionConfig, ViewRead, ViewWorker};
use hdc_figure::{BodyDimensions, MarshallingSign, Pose, Signaller, ViewSpec};
use hdc_geometry::{Vec2, Vec3};
use hdc_raster::threshold::binarize;
use hdc_raster::{BitMask, GrayImage};
use hdc_vision::dynamic::{DynamicConfig, DynamicRecognizer, FrameFeatures};
use hdc_vision::{PipelineConfig, RecognitionPipeline};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The pipeline every session calibrates: default config, enrolled at the
/// default negotiation geometry.
fn pipeline() -> &'static RecognitionPipeline {
    static PIPELINE: OnceLock<RecognitionPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let d = SessionConfig::for_role(Role::Worker, true, 0);
        let mut p = RecognitionPipeline::new(PipelineConfig::default());
        p.calibrate_from_views(&ViewSpec::paper_default(
            0.0,
            d.negotiation_altitude_m,
            d.contact_distance_m,
        ));
        p
    })
}

/// A read as the two-pass formula states it: features, and the decided
/// label when a decision was asked for.
type Labelled = (Option<FrameFeatures>, Option<Option<String>>);

/// The two-pass formula: the wave-off detector's own labelling of the
/// binarised frame, and a from-scratch recognition for the decision.
fn two_pass(frame: &GrayImage, needs_decision: bool) -> Labelled {
    let mut dynamic = DynamicRecognizer::new(DynamicConfig::default());
    (
        dynamic.features(&binarize(frame, 128)),
        needs_decision.then(|| pipeline().recognize(frame).decision),
    )
}

/// `read` with its decided sign written as the sign's label.
fn labelled(read: &ViewRead) -> Labelled {
    let label = |sign: MarshallingSign| sign.label().to_owned();
    (read.features, read.decision.map(|d| d.map(label)))
}

/// Checks the rasterised mask against the grey frame's, and both one-pass
/// entries — the memo-miss path that reads the mask, and the
/// delivered-frame path — against the oracle and each other.
fn assert_one_pass_matches(signaller: &Signaller, eye: Vec3) -> Result<(), TestCaseError> {
    let mut frame = GrayImage::new(1, 1);
    paint_view(signaller, eye, &mut frame);
    let mut mask = BitMask::new(1, 1);
    paint_view_mask(signaller, eye, &mut mask);
    prop_assert_eq!(&mask, &BitMask::from_bitmap(&binarize(&frame, 128)));
    let mut worker = ViewWorker::new();
    for needs_decision in [false, true] {
        let oracle = two_pass(&frame, needs_decision);
        let miss = ViewRead::view(&mut worker, signaller, eye, pipeline(), needs_decision);
        let delivered = ViewRead::frame(&mut worker, &frame, pipeline(), needs_decision);
        prop_assert_eq!(&miss, &delivered);
        prop_assert_eq!(labelled(&miss), oracle);
    }
    Ok(())
}

fn pose(pick: usize, phase: f64, from: usize, to: usize) -> Pose {
    match pick {
        0 => Pose::for_sign(MarshallingSign::ALL[from]),
        1 => Pose::wave_off_phase(phase),
        _ => Pose::for_sign(MarshallingSign::ALL[from])
            .lerp(&Pose::for_sign(MarshallingSign::ALL[to]), phase),
    }
}

/// Where the eye sits relative to the signaller's facing.
fn eye_for(signaller: &Signaller, rel_az_deg: f64, distance_m: f64, altitude_m: f64) -> Vec3 {
    let bearing = signaller.heading() + rel_az_deg.to_radians();
    let ground = signaller.position() + Vec2::new(bearing.cos(), bearing.sin()) * distance_m;
    Vec3::from_xy(ground, altitude_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_pass_read_equals_the_two_pass_formula(
        pose_pick in 0usize..3,
        phase in 0.0f64..1.0,
        from in 0usize..3,
        to in 0usize..3,
        x in -20.0f64..20.0,
        y in -20.0f64..20.0,
        heading in -3.1f64..3.1,
        scale in 0.8f64..1.2,
        eye_pick in 0usize..4,
        band in 0.0f64..1.0,
        left in any::<bool>(),
        altitude_m in 2.5f64..6.0,
    ) {
        let signaller = Signaller::new(Vec2::new(x, y), heading, pose(pose_pick, phase, from, to))
            .with_dimensions(BodyDimensions::adult().scaled(scale));
        let side = if left { -1.0 } else { 1.0 };
        let eye = match eye_pick {
            // frontal cone, at negotiation range
            0 => eye_for(&signaller, side * 30.0 * band, 2.5 + band, altitude_m),
            // the 90–120° dead band
            1 => eye_for(&signaller, side * (90.0 + 30.0 * band), 3.0, altitude_m),
            // far enough that the silhouette falls below the area floor
            2 => eye_for(&signaller, side * 20.0 * band, 80.0 + 80.0 * band, altitude_m),
            // close enough that the silhouette runs off the frame
            _ => eye_for(&signaller, side * 60.0 * band, 0.6 + 0.6 * band, altitude_m),
        };
        assert_one_pass_matches(&signaller, eye)?;
    }
}

#[test]
fn the_cases_reach_every_outcome() {
    // frontal, dead-band and far eyes really yield an accepted sign, a
    // rejection and a blob below the area floor
    let signaller = Signaller::new(Vec2::ZERO, 0.4, Pose::for_sign(MarshallingSign::Yes));
    let outcome = |eye: Vec3| {
        let mut frame = GrayImage::new(1, 1);
        paint_view(&signaller, eye, &mut frame);
        pipeline().recognize(&frame)
    };
    let frontal = outcome(eye_for(&signaller, 0.0, 3.0, 4.0));
    assert_eq!(frontal.decision.as_deref(), Some("Yes"));
    let dead = outcome(eye_for(&signaller, 100.0, 3.0, 4.0));
    assert_eq!(dead.decision, None);
    assert!(dead.failure.is_none(), "the dead band is a rejected read");
    let far = outcome(eye_for(&signaller, 0.0, 120.0, 4.0));
    assert!(
        far.failure
            .as_deref()
            .is_some_and(|f| f.contains("below minimum")),
        "far eye: {:?}",
        far.failure
    );
    // the close eye's silhouette is clipped by the frame edge
    let mut close = GrayImage::new(1, 1);
    paint_view(&signaller, eye_for(&signaller, 0.0, 0.6, 2.5), &mut close);
    let (w, h) = (close.width(), close.height());
    let on_border = (0..w)
        .any(|x| close.get(x, 0) == Some(255) || close.get(x, h - 1) == Some(255))
        || (0..h).any(|y| close.get(0, y) == Some(255) || close.get(w - 1, y) == Some(255));
    assert!(on_border, "the close eye must cut the silhouette off");
}

#[test]
fn an_empty_frame_reads_as_no_blob_on_both_channels() {
    let empty = GrayImage::new(640, 480);
    let mut worker = ViewWorker::new();
    for needs_decision in [false, true] {
        let read = ViewRead::frame(&mut worker, &empty, pipeline(), needs_decision);
        assert_eq!(labelled(&read), two_pass(&empty, needs_decision));
        assert_eq!(read.features, None);
        assert_eq!(read.decision, needs_decision.then_some(None));
    }
}
