//! Shape → time-series conversion (the paper's step 1).
//!
//! A silhouette's outer contour is unrolled into the distance-to-centroid
//! series, resampled to a fixed length and z-normalised — the exact
//! conversion of Keogh's shape-SAX that the paper adopts. Rotating the shape
//! circularly shifts this series, which is why rotation-invariant matching
//! reduces to circular-shift minimisation downstream.

use hdc_geometry::Vec2;
use hdc_raster::contour::{
    contour_centroid, trace_outer_contour_into, trace_outer_contour_packed_into,
};
use hdc_raster::{BitMask, Bitmap, ContourPoint};
use hdc_timeseries::{resample_into, znormalize_in_place};
use std::fmt;

/// Errors from signature extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// The mask had no foreground pixels.
    EmptyMask,
    /// The blob was too small to produce a usable contour.
    BlobTooSmall {
        /// Number of contour points found.
        contour_points: usize,
        /// Minimum required.
        required: usize,
    },
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::EmptyMask => write!(f, "mask has no foreground"),
            SignatureError::BlobTooSmall {
                contour_points,
                required,
            } => write!(
                f,
                "contour has {contour_points} points, need at least {required}"
            ),
        }
    }
}

impl std::error::Error for SignatureError {}

/// The centroid-distance signature of a silhouette.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeSignature {
    /// Z-normalised, fixed-length centroid-distance series.
    pub series: Vec<f64>,
    /// Number of raw contour pixels before resampling (drives stage cost).
    pub contour_len: usize,
    /// Contour centroid in pixel coordinates.
    pub centroid: Vec2,
    /// Mean raw centroid distance in pixels (apparent size proxy).
    pub mean_radius: f64,
}

/// Minimum contour points for a meaningful signature (re-exported via the
/// crate root so the docs can link it).
pub const MIN_CONTOUR_POINTS: usize = 8;

/// Extracts the centroid-distance signature from a binary mask.
///
/// The mask should contain a single blob (run
/// [`hdc_raster::largest_component`] first); if several blobs exist the
/// row-major-first one is used.
///
/// # Errors
/// [`SignatureError::EmptyMask`] for an all-background mask;
/// [`SignatureError::BlobTooSmall`] when the contour has fewer than
/// [`MIN_CONTOUR_POINTS`] points.
///
/// # Panics
/// Panics if `sample_count` is zero.
///
/// # Example
/// ```
/// use hdc_raster::{Bitmap, draw, threshold};
/// use hdc_geometry::Vec2;
/// use hdc_vision::extract_signature;
/// let mut img = hdc_raster::GrayImage::new(64, 64);
/// draw::fill_disk(&mut img, Vec2::new(32.0, 32.0), 14.0, 255);
/// let sig = extract_signature(&threshold::binarize(&img, 128), 128).unwrap();
/// assert_eq!(sig.series.len(), 128);
/// ```
pub fn extract_signature(
    mask: &Bitmap,
    sample_count: usize,
) -> Result<ShapeSignature, SignatureError> {
    assert!(sample_count > 0, "sample count must be positive");
    let mut scratch = SignatureScratch::new();
    trace_contour_with(mask, &mut scratch)?;
    let stats = signature_from_contour(&mut scratch, sample_count);
    Ok(ShapeSignature {
        series: scratch.series,
        contour_len: stats.contour_len,
        centroid: stats.centroid,
        mean_radius: stats.mean_radius,
    })
}

/// Reusable buffers for signature extraction: the traced contour, the raw
/// centroid-distance series and the resampled + z-normalised signature.
#[derive(Debug, Clone, Default)]
pub struct SignatureScratch {
    contour: Vec<ContourPoint>,
    raw: Vec<f64>,
    series: Vec<f64>,
}

impl SignatureScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The signature series produced by the most recent
    /// [`signature_from_contour`] call.
    pub fn series(&self) -> &[f64] {
        &self.series
    }
}

/// The scalar metadata of a signature — everything in [`ShapeSignature`]
/// except the series itself (which lives in the [`SignatureScratch`] on the
/// allocation-free path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignatureStats {
    /// Number of raw contour pixels before resampling.
    pub contour_len: usize,
    /// Contour centroid in pixel coordinates.
    pub centroid: Vec2,
    /// Mean raw centroid distance in pixels.
    pub mean_radius: f64,
}

/// Stage 1 of [`extract_signature`]: traces the blob's outer contour into the
/// scratch buffer and validates it is large enough to carry a signature.
///
/// Split from [`signature_from_contour`] so the pipeline can time contour
/// tracing and signature computation separately.
///
/// # Errors
/// Same conditions as [`extract_signature`].
pub fn trace_contour_with(
    mask: &Bitmap,
    scratch: &mut SignatureScratch,
) -> Result<(), SignatureError> {
    if !trace_outer_contour_into(mask, &mut scratch.contour) {
        return Err(SignatureError::EmptyMask);
    }
    if scratch.contour.len() < MIN_CONTOUR_POINTS {
        return Err(SignatureError::BlobTooSmall {
            contour_points: scratch.contour.len(),
            required: MIN_CONTOUR_POINTS,
        });
    }
    Ok(())
}

/// [`trace_contour_with`] on a bit-packed mask — the word-parallel kernel
/// path. The traced contour (and therefore every downstream signature and
/// decision) is bit-identical to the byte form's.
///
/// # Errors
/// Same conditions as [`extract_signature`].
pub fn trace_contour_packed_with(
    mask: &BitMask,
    scratch: &mut SignatureScratch,
) -> Result<(), SignatureError> {
    if !trace_outer_contour_packed_into(mask, &mut scratch.contour) {
        return Err(SignatureError::EmptyMask);
    }
    if scratch.contour.len() < MIN_CONTOUR_POINTS {
        return Err(SignatureError::BlobTooSmall {
            contour_points: scratch.contour.len(),
            required: MIN_CONTOUR_POINTS,
        });
    }
    Ok(())
}

/// Stage 2 of [`extract_signature`]: unrolls the contour traced by
/// [`trace_contour_with`] into the z-normalised centroid-distance series
/// (left in [`SignatureScratch::series`]) and returns its metadata.
///
/// # Panics
/// Panics if `sample_count` is zero or no contour has been traced.
pub fn signature_from_contour(
    scratch: &mut SignatureScratch,
    sample_count: usize,
) -> SignatureStats {
    assert!(sample_count > 0, "sample count must be positive");
    let centroid = contour_centroid(&scratch.contour).expect("non-empty contour");
    scratch.raw.clear();
    scratch.raw.extend(
        scratch
            .contour
            .iter()
            .map(|p| p.to_vec2().distance(centroid)),
    );
    let mean_radius = scratch.raw.iter().sum::<f64>() / scratch.raw.len() as f64;
    scratch.series.resize(sample_count, 0.0);
    resample_into(&scratch.raw, &mut scratch.series);
    znormalize_in_place(&mut scratch.series);
    SignatureStats {
        contour_len: scratch.contour.len(),
        centroid,
        mean_radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_raster::threshold::binarize;
    use hdc_raster::{draw, GrayImage};
    use hdc_timeseries::TimeSeries;

    fn disk_mask(r: f64) -> Bitmap {
        let size = (2.0 * r + 10.0) as u32;
        let mut img = GrayImage::new(size, size);
        draw::fill_disk(
            &mut img,
            Vec2::new(size as f64 / 2.0, size as f64 / 2.0),
            r,
            255,
        );
        binarize(&img, 128)
    }

    fn bar_mask(w: f64, h: f64) -> Bitmap {
        let size = (w.max(h) + 10.0) as u32;
        let mut img = GrayImage::new(size, size);
        let c = size as f64 / 2.0;
        draw::fill_tapered_capsule(
            &mut img,
            Vec2::new(c - w / 2.0, c),
            h / 2.0,
            Vec2::new(c + w / 2.0, c),
            h / 2.0,
            255,
        );
        binarize(&img, 128)
    }

    #[test]
    fn empty_mask_errors() {
        let m = Bitmap::new(8, 8);
        assert_eq!(extract_signature(&m, 32), Err(SignatureError::EmptyMask));
    }

    #[test]
    fn tiny_blob_errors() {
        let mut m = Bitmap::new(8, 8);
        m.set(3, 3, true);
        m.set(4, 3, true);
        let e = extract_signature(&m, 32).unwrap_err();
        assert!(matches!(e, SignatureError::BlobTooSmall { .. }));
        assert!(e.to_string().contains("contour has"));
    }

    #[test]
    fn disk_signature_is_flat() {
        let sig = extract_signature(&disk_mask(20.0), 64).unwrap();
        // a circle's centroid distance is constant ⇒ z-normalised ≈ 0 noise
        let ts = TimeSeries::new(sig.series.clone());
        // after z-normalisation sd is 1 by construction (unless degenerate),
        // but the *raw* variation is tiny: mean radius >> sd of raw distances
        assert!(sig.mean_radius > 18.0 && sig.mean_radius < 22.0);
        assert_eq!(ts.len(), 64);
    }

    #[test]
    fn elongated_shape_has_two_lobes() {
        let sig = extract_signature(&bar_mask(60.0, 10.0), 128).unwrap();
        // a bar's centroid-distance series has two maxima (the two ends):
        // count sign changes of the derivative of the smoothed series
        let s = hdc_timeseries::smooth_moving_average(&sig.series, 3);
        let mut maxima = 0;
        let n = s.len();
        for i in 0..n {
            let prev = s[(i + n - 1) % n];
            let next = s[(i + 1) % n];
            if s[i] > prev && s[i] >= next && s[i] > 0.5 {
                maxima += 1;
            }
        }
        assert_eq!(maxima, 2, "bar has exactly two far ends");
    }

    #[test]
    fn signature_scale_invariant() {
        let small = extract_signature(&disk_mask(12.0), 64).unwrap();
        let large = extract_signature(&disk_mask(24.0), 64).unwrap();
        // both are (near-)flat circles; z-normalised series differ only by
        // quantisation noise
        let d = hdc_timeseries::euclidean(&small.series, &large.series).unwrap();
        // flat series z-normalise to noise; just check same length and finite
        assert!(d.is_finite());
        assert_eq!(small.series.len(), large.series.len());
        // the *size* information lives in mean_radius, not the signature
        assert!(large.mean_radius > 1.8 * small.mean_radius);
    }

    #[test]
    fn contour_len_grows_with_size() {
        let small = extract_signature(&disk_mask(10.0), 64).unwrap();
        let large = extract_signature(&disk_mask(30.0), 64).unwrap();
        assert!(large.contour_len > 2 * small.contour_len);
    }

    #[test]
    fn staged_extraction_matches_reference_formula() {
        // The scratch path must reproduce the original allocating formula
        // (resample → TimeSeries::znormalized) bit for bit, across reuses.
        let mut scratch = SignatureScratch::new();
        for mask in [disk_mask(15.0), bar_mask(60.0, 10.0), disk_mask(8.0)] {
            trace_contour_with(&mask, &mut scratch).unwrap();
            let stats = signature_from_contour(&mut scratch, 64);
            let contour = hdc_raster::trace_outer_contour(&mask).unwrap();
            let centroid = contour_centroid(&contour).unwrap();
            let raw: Vec<f64> = contour
                .iter()
                .map(|p| p.to_vec2().distance(centroid))
                .collect();
            let reference = TimeSeries::new(hdc_timeseries::resample(&raw, 64))
                .znormalized()
                .into_values();
            assert_eq!(scratch.series(), &reference[..]);
            assert_eq!(stats.contour_len, contour.len());
            assert_eq!(stats.centroid, centroid);
        }
    }

    #[test]
    fn centroid_recovered() {
        let sig = extract_signature(&disk_mask(15.0), 64).unwrap();
        let c = 20.0; // size = 40, centre 20
        assert!(sig.centroid.distance(Vec2::new(c, c)) < 2.0);
    }
}
