//! The marshalling-sign recognition pipeline (the paper's Section IV).
//!
//! Stages, mirroring the paper's description:
//!
//! 1. **Segment** the frame (fixed or Otsu threshold) straight into a
//!    bit-packed mask.
//! 2. **Isolate** the signaller: largest connected component.
//! 3. **Trace** the silhouette's outer contour (Moore neighbourhood).
//! 4. **Convert shape → time series**: centroid-distance signature,
//!    uniformly resampled, z-normalised.
//! 5. **Classify**: SAX word lookup against the sign database with a
//!    rotation-invariant MINDIST lower bound and exact refinement
//!    (`hdc-sax`), accepting only matches within a calibrated threshold.
//!
//! Per-stage wall-clock timings are recorded ([`StageTimings`]) because the
//! paper's headline numbers are recognition latencies (38 ms / 27 ms) and
//! frame-rate projections (30/60 fps).
//!
//! Classical baselines (1-NN DTW, Hu moments, zoning grids) live in
//! [`classifiers`] for experiment E11's cost/accuracy comparison.
//!
//! # Example
//! ```
//! use hdc_figure::{MarshallingSign, ViewSpec, render_sign};
//! use hdc_vision::{PipelineConfig, RecognitionPipeline};
//!
//! let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
//! pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
//! let frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, 5.0, 3.0));
//! let result = pipeline.recognize(&frame);
//! assert_eq!(result.decision.as_deref(), Some("No"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifiers;
pub mod dynamic;
mod engine;
mod filter;
mod moments;
mod pipeline;
mod signature;
pub mod temporal;
mod timing;

pub use engine::{MultiStreamReport, Recognition, RecognitionEngine, StreamStats};
pub use filter::DecisionFilter;

pub use moments::{central_moments, hu_moments, RawMoments};
pub use pipeline::{
    FrameFailure, FrameRead, FrameResult, FrameScratch, PipelineConfig, RecognitionPipeline,
    RecognitionResult, SegmentationMode,
};
pub use signature::{
    extract_signature, signature_from_contour, trace_contour_packed_with, trace_contour_with,
    ShapeSignature, SignatureError, SignatureScratch, SignatureStats, MIN_CONTOUR_POINTS,
};
pub use timing::{FrameBudget, StageTimings};
