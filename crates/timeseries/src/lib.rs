//! Time-series substrate for the `hdc` workspace.
//!
//! The paper's recognition technique converts a silhouette contour into a
//! time series, z-normalises it, reduces dimensionality with piecewise
//! aggregate approximation (PAA) and symbolises it (SAX, in the sibling
//! `hdc-sax` crate). This crate owns the numeric series layer:
//!
//! * the [`TimeSeries`] container and summary statistics,
//! * [`TimeSeries::znormalized`] standardisation,
//! * [`paa`] dimensionality reduction,
//! * uniform [`resample`]-ing of irregular series,
//! * [`euclidean`] and banded dynamic-time-warping ([`dtw`]) distances,
//! * rotation handling via [`min_rotated_euclidean`] circular alignment.
//!
//! # Example
//! ```
//! use hdc_timeseries::{TimeSeries, paa};
//! let ts = TimeSeries::new(vec![0.0, 2.0, 4.0, 6.0]);
//! let z = ts.znormalized();
//! assert!(z.mean().abs() < 1e-12);
//! let reduced = paa(z.values(), 2);
//! assert_eq!(reduced.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distance;
mod fft;
mod series;
mod transform;

pub use distance::{
    dtw, dtw_banded, euclidean, min_rotated_euclidean, min_rotated_euclidean_naive,
    min_rotated_euclidean_of, min_rotated_euclidean_with, DistanceError, RotationScratch,
};
pub use fft::{
    circular_cross_correlation_into, circular_cross_correlation_of, fft_radix2, FftScratch,
    Spectrum, FFT_MIN_LEN,
};
pub use series::TimeSeries;
pub use transform::{
    paa, paa_into, resample, resample_into, rotate_left, smooth_moving_average, znormalize_in_place,
};
