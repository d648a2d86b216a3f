//! Baseline classifiers for the cost/accuracy comparison (experiment E11).
//!
//! The paper motivates SAX by contrasting it with heavier techniques (neural
//! networks, Kinect pipelines) that "do not appear to promise rapid passage
//! through relevant safety certification". We cannot compare against a
//! closed-source Kinect stack, so the comparison set is the classic trio of
//! certifiable-complexity shape classifiers:
//!
//! * [`DtwClassifier`] — 1-NN with banded dynamic time warping on the same
//!   contour signature (accuracy ceiling, highest cost),
//! * [`HuClassifier`] — nearest neighbour on Hu moment invariants (cheapest,
//!   weakest separation),
//! * [`ZoningClassifier`] — occupancy grid over the normalised bounding box
//!   (cheap, *not* rotation invariant).
//!
//! All implement [`SignClassifier`] over binary masks so the harness can
//! swap them freely; the SAX pipeline itself is exposed through the same
//! trait by [`SaxClassifier`].

use crate::moments::{hu_log, hu_moments};
use crate::signature::extract_signature;
use hdc_raster::Bitmap;
use hdc_sax::{SaxIndex, SaxParams};
use hdc_timeseries::{dtw_banded, rotate_left};

/// A label with a match score (smaller = closer).
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// The nearest template's label.
    pub label: String,
    /// The classifier-specific distance to that template.
    pub score: f64,
}

/// Common interface over sign classifiers operating on silhouette masks.
pub trait SignClassifier {
    /// Human-readable classifier name for experiment tables.
    fn name(&self) -> &'static str;

    /// Adds a labelled training silhouette.
    ///
    /// Returns `false` when the mask yielded no usable features (the sample
    /// is skipped).
    fn train(&mut self, label: &str, mask: &Bitmap) -> bool;

    /// Classifies a silhouette, or `None` when no features could be
    /// extracted or no templates are enrolled.
    fn classify(&self, mask: &Bitmap) -> Option<Classification>;
}

// ---------------------------------------------------------------------------

/// SAX classifier: the paper's approach behind the common trait.
#[derive(Debug, Clone)]
pub struct SaxClassifier {
    index: SaxIndex,
    signature_len: usize,
}

impl SaxClassifier {
    /// Creates the classifier with the given SAX parameters and signature
    /// length.
    pub fn new(params: SaxParams, signature_len: usize) -> Self {
        SaxClassifier {
            index: SaxIndex::new(params, signature_len),
            signature_len,
        }
    }
}

impl SignClassifier for SaxClassifier {
    fn name(&self) -> &'static str {
        "sax"
    }

    fn train(&mut self, label: &str, mask: &Bitmap) -> bool {
        match extract_signature(mask, self.signature_len) {
            Ok(sig) => {
                self.index.insert(label, &sig.series);
                true
            }
            Err(_) => false,
        }
    }

    fn classify(&self, mask: &Bitmap) -> Option<Classification> {
        let sig = extract_signature(mask, self.signature_len).ok()?;
        let m = self.index.best_match(&sig.series)?;
        Some(Classification {
            label: m.label,
            score: m.distance,
        })
    }
}

// ---------------------------------------------------------------------------

/// 1-nearest-neighbour DTW on contour signatures, rotation handled by
/// sub-sampled circular shifts.
#[derive(Debug, Clone)]
pub struct DtwClassifier {
    templates: Vec<(String, Vec<f64>)>,
    signature_len: usize,
    band: usize,
    rotation_stride: usize,
}

impl DtwClassifier {
    /// Creates the classifier.
    ///
    /// `band` is the Sakoe–Chiba half-width; `rotation_stride` sub-samples
    /// the circular-shift search (1 = exhaustive, slower).
    pub fn new(signature_len: usize, band: usize, rotation_stride: usize) -> Self {
        DtwClassifier {
            templates: Vec::new(),
            signature_len,
            band,
            rotation_stride: rotation_stride.max(1),
        }
    }
}

impl SignClassifier for DtwClassifier {
    fn name(&self) -> &'static str {
        "dtw-1nn"
    }

    fn train(&mut self, label: &str, mask: &Bitmap) -> bool {
        match extract_signature(mask, self.signature_len) {
            Ok(sig) => {
                self.templates.push((label.to_string(), sig.series));
                true
            }
            Err(_) => false,
        }
    }

    fn classify(&self, mask: &Bitmap) -> Option<Classification> {
        let sig = extract_signature(mask, self.signature_len).ok()?;
        let mut best: Option<Classification> = None;
        for (label, tpl) in &self.templates {
            let mut shift = 0usize;
            while shift < sig.series.len() {
                let rotated = rotate_left(&sig.series, shift);
                let d = dtw_banded(&rotated, tpl, self.band).expect("non-empty signatures");
                if best.as_ref().is_none_or(|b| d < b.score) {
                    best = Some(Classification {
                        label: label.clone(),
                        score: d,
                    });
                }
                shift += self.rotation_stride;
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------

/// Nearest neighbour on log-scaled Hu moment invariants.
#[derive(Debug, Clone, Default)]
pub struct HuClassifier {
    templates: Vec<(String, [f64; 7])>,
}

impl HuClassifier {
    /// Creates an empty classifier.
    pub fn new() -> Self {
        HuClassifier::default()
    }
}

impl SignClassifier for HuClassifier {
    fn name(&self) -> &'static str {
        "hu-moments"
    }

    fn train(&mut self, label: &str, mask: &Bitmap) -> bool {
        match hu_moments(mask) {
            Some(h) => {
                self.templates.push((label.to_string(), hu_log(&h)));
                true
            }
            None => false,
        }
    }

    fn classify(&self, mask: &Bitmap) -> Option<Classification> {
        let h = hu_log(&hu_moments(mask)?);
        self.templates
            .iter()
            .map(|(label, tpl)| {
                let d: f64 = h
                    .iter()
                    .zip(tpl)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                Classification {
                    label: label.clone(),
                    score: d,
                }
            })
            .min_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
    }
}

// ---------------------------------------------------------------------------

/// Occupancy-grid ("zoning") classifier: the blob's bounding box is divided
/// into `grid × grid` cells and the per-cell fill fractions compared by
/// Euclidean distance. Cheap, but **not** rotation invariant — included to
/// show why the paper needs the contour signature.
#[derive(Debug, Clone)]
pub struct ZoningClassifier {
    grid: u32,
    templates: Vec<(String, Vec<f64>)>,
}

impl ZoningClassifier {
    /// Creates the classifier with a `grid × grid` zoning.
    ///
    /// # Panics
    /// Panics if `grid` is zero.
    pub fn new(grid: u32) -> Self {
        assert!(grid > 0, "grid must be positive");
        ZoningClassifier {
            grid,
            templates: Vec::new(),
        }
    }

    fn features(&self, mask: &Bitmap) -> Option<Vec<f64>> {
        // bounding box of the foreground
        let mut min_x = u32::MAX;
        let mut min_y = u32::MAX;
        let mut max_x = 0u32;
        let mut max_y = 0u32;
        let mut any = false;
        for (x, y, v) in mask.iter() {
            if v {
                any = true;
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
            }
        }
        if !any {
            return None;
        }
        let g = self.grid;
        let w = (max_x - min_x + 1) as f64;
        let h = (max_y - min_y + 1) as f64;
        let mut counts = vec![0.0f64; (g * g) as usize];
        let mut total = 0.0;
        for (x, y, v) in mask.iter() {
            if v {
                let gx = (((x - min_x) as f64 / w) * g as f64).min(g as f64 - 1.0) as u32;
                let gy = (((y - min_y) as f64 / h) * g as f64).min(g as f64 - 1.0) as u32;
                counts[(gy * g + gx) as usize] += 1.0;
                total += 1.0;
            }
        }
        for c in &mut counts {
            *c /= total;
        }
        Some(counts)
    }
}

impl SignClassifier for ZoningClassifier {
    fn name(&self) -> &'static str {
        "zoning"
    }

    fn train(&mut self, label: &str, mask: &Bitmap) -> bool {
        match self.features(mask) {
            Some(f) => {
                self.templates.push((label.to_string(), f));
                true
            }
            None => false,
        }
    }

    fn classify(&self, mask: &Bitmap) -> Option<Classification> {
        let f = self.features(mask)?;
        self.templates
            .iter()
            .map(|(label, tpl)| {
                let d: f64 = f
                    .iter()
                    .zip(tpl)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                Classification {
                    label: label.clone(),
                    score: d,
                }
            })
            .min_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
    use hdc_raster::threshold::binarize;

    fn sign_mask(sign: MarshallingSign, azimuth: f64) -> Bitmap {
        let frame = render_sign(sign, &ViewSpec::paper_default(azimuth, 5.0, 3.0));
        binarize(&frame, 128)
    }

    fn train_all(c: &mut dyn SignClassifier) {
        for sign in MarshallingSign::ALL {
            assert!(c.train(sign.label(), &sign_mask(sign, 0.0)), "{}", sign);
        }
    }

    fn accuracy_frontal(c: &dyn SignClassifier) -> usize {
        MarshallingSign::ALL
            .iter()
            .filter(|s| {
                c.classify(&sign_mask(**s, 0.0))
                    .map(|r| r.label == s.label())
                    .unwrap_or(false)
            })
            .count()
    }

    #[test]
    fn sax_classifier_frontal_perfect() {
        let mut c = SaxClassifier::new(SaxParams::default(), 128);
        train_all(&mut c);
        assert_eq!(accuracy_frontal(&c), 3);
        assert_eq!(c.name(), "sax");
    }

    #[test]
    fn dtw_classifier_frontal_perfect() {
        let mut c = DtwClassifier::new(128, 8, 8);
        train_all(&mut c);
        assert_eq!(accuracy_frontal(&c), 3);
        assert_eq!(c.name(), "dtw-1nn");
    }

    #[test]
    fn hu_classifier_frontal_perfect() {
        let mut c = HuClassifier::new();
        train_all(&mut c);
        assert_eq!(accuracy_frontal(&c), 3);
    }

    #[test]
    fn zoning_classifier_frontal_perfect() {
        let mut c = ZoningClassifier::new(4);
        train_all(&mut c);
        assert_eq!(accuracy_frontal(&c), 3);
    }

    #[test]
    fn empty_mask_not_trainable() {
        let empty = Bitmap::new(16, 16);
        let mut sax = SaxClassifier::new(SaxParams::default(), 64);
        let mut dtw = DtwClassifier::new(64, 4, 8);
        let mut hu = HuClassifier::new();
        let mut zone = ZoningClassifier::new(4);
        assert!(!sax.train("x", &empty));
        assert!(!dtw.train("x", &empty));
        assert!(!hu.train("x", &empty));
        assert!(!zone.train("x", &empty));
        assert!(sax.classify(&empty).is_none());
        assert!(dtw.classify(&empty).is_none());
        assert!(hu.classify(&empty).is_none());
        assert!(zone.classify(&empty).is_none());
    }

    #[test]
    fn untrained_classifier_returns_none() {
        let c = SaxClassifier::new(SaxParams::default(), 64);
        assert!(c.classify(&sign_mask(MarshallingSign::Yes, 0.0)).is_none());
    }

    #[test]
    fn moderate_azimuth_still_classified_by_sax() {
        let mut c = SaxClassifier::new(SaxParams::default(), 128);
        train_all(&mut c);
        for az in [10.0, 25.0, 40.0] {
            let r = c.classify(&sign_mask(MarshallingSign::No, az)).unwrap();
            assert_eq!(r.label, "No", "azimuth {az}");
        }
    }

    #[test]
    fn trait_objects_compose() {
        let mut classifiers: Vec<Box<dyn SignClassifier>> = vec![
            Box::new(SaxClassifier::new(SaxParams::default(), 128)),
            Box::new(DtwClassifier::new(128, 8, 16)),
            Box::new(HuClassifier::new()),
            Box::new(ZoningClassifier::new(4)),
        ];
        for c in classifiers.iter_mut() {
            train_all(c.as_mut());
        }
        for c in &classifiers {
            assert!(accuracy_frontal(c.as_ref()) >= 2, "{} too weak", c.name());
        }
    }
}
