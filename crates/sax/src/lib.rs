//! Symbolic Aggregate approXimation (SAX) for the `hdc` workspace.
//!
//! The paper identifies marshalling signs by converting silhouette contours
//! to time series and comparing their SAX strings — citing Keogh et al.,
//! *Finding Motifs in a Database of Shapes* — and claims this is the first
//! use of the technique in real-time vision recognition. This crate is that
//! algorithmic core, built from scratch:
//!
//! * Gaussian [`breakpoints`] for any alphabet size 2–26,
//! * [`SaxWord`] symbol strings with letter display (`abca…`),
//! * the [`SaxEncoder`] (z-normalise → PAA → symbolise),
//! * the [`mindist`] lower-bounding distance with its lookup table,
//! * rotation-invariant matching ([`min_rotated_mindist`]),
//! * a [`SaxIndex`] template database with exact rotation-invariant lookup,
//! * parameter [`tuning`] sweeps over word length and alphabet size
//!   (the paper's ref \[22\] tunes exactly these two knobs).
//!
//! # Example
//! ```
//! use hdc_sax::{SaxEncoder, SaxParams};
//! let enc = SaxEncoder::new(SaxParams::new(8, 4).unwrap());
//! let word = enc.encode(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
//! assert_eq!(word.len(), 8);
//! assert!(word.to_string().starts_with('a')); // rising ramp starts low
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakpoints;
mod encoder;
mod index;
mod mindist;
pub mod tuning;
mod word;

pub use breakpoints::{breakpoints, normal_quantile, MAX_ALPHABET, MIN_ALPHABET};
pub use encoder::{SaxEncoder, SaxParams, SaxParamsError};
pub use index::{IndexMatch, IndexMatchRef, QueryScratch, SaxIndex, Template};
pub use mindist::{min_rotated_mindist, mindist, symbol_distance_table};
pub use word::{SaxWord, SaxWordError};
