//! `hdc` — Human-Drone Communication in Collaborative Environments.
//!
//! A from-scratch Rust reproduction of *Conceptual Design of Human-Drone
//! Communication in Collaborative Environments* (Doran, Reif, Oehler, Stöhr,
//! Capone — ZHAW, DSN 2020): the marshalling-sign language, the SAX-based
//! recognition pipeline, the LED-ring and flight-pattern signalling, the
//! negotiation protocol, and the cherry-orchard use case, with every
//! substrate (geometry, rasterisation, time-series, drone simulation,
//! synthetic signaller) implemented in this workspace.
//!
//! This meta-crate re-exports the member crates under stable names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geometry`] | `hdc-geometry` | vectors, transforms, camera model |
//! | [`raster`] | `hdc-raster` | images, segmentation, contours |
//! | [`timeseries`] | `hdc-timeseries` | z-norm, PAA, DTW |
//! | [`sax`] | `hdc-sax` | SAX words, MINDIST, template index |
//! | [`figure`] | `hdc-figure` | synthetic signaller rendering |
//! | [`vision`] | `hdc-vision` | the recognition pipeline + baselines |
//! | [`drone`] | `hdc-drone` | drone sim, flight patterns, LED ring |
//! | [`core`] | `hdc-core` | the language, protocol, sessions |
//! | [`orchard`] | `hdc-orchard` | the orchard mission simulation |
//!
//! # Quickstart
//!
//! ```
//! use hdc::figure::{render_sign, MarshallingSign, ViewSpec};
//! use hdc::vision::{PipelineConfig, RecognitionPipeline};
//!
//! // calibrate from the canonical full-on views (the paper's protocol)
//! let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
//! pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
//!
//! // a worker shows "No" from 15° off-axis
//! let frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(15.0, 5.0, 3.0));
//! let result = pipeline.recognize(&frame);
//! assert_eq!(result.decision.as_deref(), Some("No"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hdc_core as core;
pub use hdc_drone as drone;
pub use hdc_figure as figure;
pub use hdc_geometry as geometry;
pub use hdc_orchard as orchard;
pub use hdc_raster as raster;
pub use hdc_sax as sax;
pub use hdc_timeseries as timeseries;
pub use hdc_vision as vision;
