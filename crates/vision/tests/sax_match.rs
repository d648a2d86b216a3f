//! The sign database's lookup on the traffic the system actually sends it.
//!
//! `SaxIndex::best_two_with` (an FFT rotation distance to every template)
//! must equal `SaxIndex::best_two_reference` (the naive all-shifts distance,
//! stably sorted) bit for bit: label, distance, shift and runner-up. The
//! property tests in `hdc-sax` draw synthetic shapes; here the queries are
//! the signatures of rendered signs seen by a pipeline calibrated the way
//! the collaboration sessions calibrate theirs, across the azimuths and
//! altitudes a drone flies, with Gaussian sensor noise.

use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::noise::add_gaussian;
use hdc_sax::{IndexMatch, QueryScratch};
use hdc_vision::{PipelineConfig, RecognitionPipeline};
use rand::{rngs::SmallRng, SeedableRng};

/// A lookup result with its distances as bits, so equality is bit for bit.
fn bits((m, runner_up): (IndexMatch, Option<f64>)) -> (String, u64, usize, Option<u64>) {
    (
        m.label,
        m.distance.to_bits(),
        m.shift,
        runner_up.map(f64::to_bits),
    )
}

#[test]
fn best_two_with_is_the_reference_on_rendered_views() {
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 4.0, 3.0));
    let index = pipeline.index();
    assert_eq!(index.len(), 3, "one template per sign");

    let mut rng = SmallRng::seed_from_u64(2005);
    let mut scratch = QueryScratch::new();
    let mut queries = 0;
    for azimuth in (0..=90).step_by(15) {
        for altitude in [2.5, 4.0, 6.0] {
            let view = ViewSpec::paper_default(f64::from(azimuth), altitude, 3.0);
            for sign in MarshallingSign::ALL {
                let mut frame = render_sign(sign, &view);
                add_gaussian(&mut frame, 8.0, &mut rng);
                let Ok(signature) = pipeline.signature_of(&frame) else {
                    continue;
                };
                let fast = index
                    .best_two_with(&signature.series, &mut scratch)
                    .map(|(m, r)| (m.into_owned(), r));
                assert_eq!(
                    fast.map(bits),
                    index.best_two_reference(&signature.series).map(bits),
                    "{sign:?} at {azimuth}°, {altitude} m"
                );
                queries += 1;
            }
        }
    }
    assert!(queries >= 60, "only {queries} of 63 views gave a signature");
}
