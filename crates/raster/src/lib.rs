//! Minimal raster-imaging substrate for the `hdc` workspace.
//!
//! The paper's recognition pipeline ran on OpenCV; this crate supplies the
//! handful of image operations that pipeline actually needs, from scratch:
//!
//! * a generic [`Image`] container with a grayscale [`GrayImage`] alias,
//! * a bit-packed binary mask ([`BitMask`], 64 px per word) with
//!   word-parallel `*_packed` forms of every silhouette kernel,
//! * span rasterisation of disks and tapered capsules into grey frames or
//!   straight into packed masks, plus polygons and lines ([`draw`]),
//! * fixed and Otsu [`threshold`]ing,
//! * connected-component labelling ([`components`]),
//! * Moore-neighbour [`contour`] tracing,
//! * binary [`morphology`] (erode / dilate / open / close),
//! * tiled mask differencing for temporal-coherence gating ([`diff`]),
//! * FNV-1a/64 [`digest`]s of raw byte slices (frame identity, golden traces),
//! * sensor [`noise`] models,
//! * portable-anymap [`io`] (PGM) plus ASCII-art dumps for debugging.
//!
//! # Example
//!
//! ```
//! use hdc_raster::{GrayImage, draw, threshold, contour};
//! use hdc_geometry::Vec2;
//!
//! let mut img = GrayImage::new(64, 64);
//! draw::fill_disk(&mut img, Vec2::new(32.0, 32.0), 10.0, 255);
//! let bin = threshold::binarize(&img, 128);
//! let contour = contour::trace_outer_contour(&bin).expect("disk has a boundary");
//! assert!(contour.len() > 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmask;
pub mod components;
pub mod contour;
pub mod diff;
pub mod digest;
pub mod draw;
pub mod image;
pub mod io;
pub mod morphology;
pub mod noise;
pub mod threshold;

pub use bitmask::{BitMask, WORD_BITS};
pub use components::{
    label_components, label_components_bfs, label_components_packed, largest_component,
    largest_component_packed_lazy, largest_component_packed_with, largest_component_with,
    Component, Connectivity, LabelScratch,
};
pub use contour::{
    trace_outer_contour, trace_outer_contour_into, trace_outer_contour_packed_into, ContourPoint,
};
pub use image::{Bitmap, GrayImage, Image};
