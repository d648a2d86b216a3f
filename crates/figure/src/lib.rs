//! Synthetic human signaller for the `hdc` workspace.
//!
//! The paper evaluates sign recognition on camera frames of a human making
//! marshalling signs at known altitude / distance / relative azimuth
//! (Figure 4). We have no camera or human, so this crate renders the closest
//! synthetic equivalent: an articulated capsule-limb skeleton posed into the
//! paper's three signs (plus distractors), projected through the pinhole
//! camera of `hdc-geometry` and rasterised with `hdc-raster`.
//!
//! The substitution preserves the phenomena that drive the paper's results:
//!
//! * foreshortening with relative azimuth — at high azimuth the arms project
//!   onto the torso and the contour signature collapses (the dead angle),
//! * apparent size shrinking with altitude and distance (the 2–5 m window),
//! * contour length driving per-frame processing time (38 ms vs 27 ms).
//!
//! # Example
//! ```
//! use hdc_figure::{MarshallingSign, ViewSpec, render_sign};
//! let view = ViewSpec::paper_default(0.0, 5.0, 3.0);
//! let frame = render_sign(MarshallingSign::No, &view);
//! assert!(frame.pixels().iter().any(|p| *p > 0), "signaller visible");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pose;
mod render;
mod skeleton;

pub use pose::{MarshallingSign, Pose, PoseLibrary};
pub use render::{
    paint_signaller, paint_silhouette, render_pose, render_sign, render_signaller, ViewSpec,
};
pub use skeleton::{BodyDimensions, BodyPart, Signaller};
