//! A template database of SAX words with exact rotation-invariant lookup.
//!
//! The paper: *"This last step facilitates a comparison of the string against
//! a database of strings and hence can be used quite effectively to identify
//! features in images."* The [`SaxIndex`] is that database: canonical sign
//! signatures inserted once with their SAX words, live frames matched by the
//! exact rotation-invariant Euclidean distance to every template. The system
//! carries the paper's three signs, so lookup is one linear scan: a
//! word-level lower bound has nothing to prune (E48).

use crate::encoder::{SaxEncoder, SaxParams};
use crate::word::SaxWord;
use hdc_timeseries::{
    min_rotated_euclidean_naive, min_rotated_euclidean_of, resample, resample_into,
    znormalize_in_place, RotationScratch, Spectrum, TimeSeries,
};

/// A stored canonical signature.
#[derive(Debug, Clone)]
pub struct Template {
    /// The class label (e.g. `"No"`).
    pub label: String,
    /// The template's SAX word.
    pub word: SaxWord,
    /// The z-normalised, uniformly resampled series.
    pub series: Vec<f64>,
}

/// Result of a database lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexMatch {
    /// Label of the best-matching template.
    pub label: String,
    /// Exact rotation-invariant Euclidean distance.
    pub distance: f64,
    /// Circular shift (in samples) that aligned the query with the template.
    pub shift: usize,
}

/// A lookup result borrowing its label from the index — the allocation-free
/// counterpart of [`IndexMatch`] returned by [`SaxIndex::best_two_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexMatchRef<'a> {
    /// Label of the best-matching template (borrowed from the index).
    pub label: &'a str,
    /// Exact rotation-invariant Euclidean distance.
    pub distance: f64,
    /// Circular shift (in samples) that aligned the query with the template.
    pub shift: usize,
}

impl IndexMatchRef<'_> {
    /// Converts to the owning form (clones the label).
    pub fn into_owned(self) -> IndexMatch {
        IndexMatch {
            label: self.label.to_string(),
            distance: self.distance,
            shift: self.shift,
        }
    }
}

/// Reusable buffers for [`SaxIndex::best_two_with`], so the steady-state
/// recognition loop performs no heap allocation per query.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    /// Canonical (resampled + z-normalised) query signature.
    canonical: Vec<f64>,
    /// The canonical query's spectrum, taken once per query for its
    /// rotation matches against every template.
    spectrum: Spectrum,
    /// Rotation-distance scratch.
    rot: RotationScratch,
}

impl QueryScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A database of SAX-encoded shape signatures.
///
/// # Example
/// ```
/// use hdc_sax::{SaxIndex, SaxParams};
/// let mut idx = SaxIndex::new(SaxParams::default(), 128);
/// let square: Vec<f64> = (0..128).map(|i| if (i / 16) % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// let sine: Vec<f64> = (0..128).map(|i| (i as f64 * 0.3).sin()).collect();
/// idx.insert("square", &square);
/// idx.insert("sine", &sine);
/// let m = idx.best_match(&square).unwrap();
/// assert_eq!(m.label, "square");
/// ```
#[derive(Debug, Clone)]
pub struct SaxIndex {
    encoder: SaxEncoder,
    series_len: usize,
    templates: Vec<Template>,
    /// Per-template spectra of the canonical series, taken at insertion.
    spectra: Vec<Spectrum>,
}

impl SaxIndex {
    /// Creates an empty index.
    ///
    /// `series_len` is the common length all signatures are resampled to
    /// before encoding and matching.
    ///
    /// # Panics
    /// Panics if `series_len` is zero.
    pub fn new(params: SaxParams, series_len: usize) -> Self {
        assert!(series_len > 0, "series length must be positive");
        SaxIndex {
            encoder: SaxEncoder::new(params),
            series_len,
            templates: Vec::new(),
            spectra: Vec::new(),
        }
    }

    /// The encoder parameters.
    pub fn params(&self) -> SaxParams {
        self.encoder.params()
    }

    /// The common signature length.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Number of stored templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the index holds no templates.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The stored templates.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Normalises a raw signature to the index's canonical form.
    fn canonicalize(&self, series: &[f64]) -> Vec<f64> {
        let resampled = resample(series, self.series_len);
        TimeSeries::new(resampled).znormalized().into_values()
    }

    /// Inserts a canonical signature under `label`.
    pub fn insert(&mut self, label: impl Into<String>, series: &[f64]) {
        let canonical = self.canonicalize(series);
        let word = self.encoder.encode(&canonical);
        let mut spectrum = Spectrum::new();
        spectrum.transform(&canonical);
        self.spectra.push(spectrum);
        self.templates.push(Template {
            label: label.into(),
            word,
            series: canonical,
        });
    }

    /// Encodes an arbitrary series with the index's encoder (exposed for
    /// diagnostics and the experiment harness).
    pub fn encode(&self, series: &[f64]) -> SaxWord {
        self.encoder.encode(&self.canonicalize(series))
    }

    /// The best-matching template for a query signature: the winner of
    /// [`SaxIndex::best_two`]. Returns `None` when the index is empty.
    pub fn best_match(&self, series: &[f64]) -> Option<IndexMatch> {
        self.best_two(series).map(|(m, _)| m)
    }

    /// The best-matching template for a query signature, and the exact
    /// distance to the best template of a *different* label when one
    /// exists — the runner-up used by ambiguity (ratio) tests.
    ///
    /// Every template's exact rotation-invariant Euclidean distance is
    /// computed; a tie goes to the template inserted first. Returns `None`
    /// when the index is empty.
    pub fn best_two(&self, series: &[f64]) -> Option<(IndexMatch, Option<f64>)> {
        self.best_two_with(series, &mut QueryScratch::new())
            .map(|(m, r)| (m.into_owned(), r))
    }

    /// [`SaxIndex::best_two`] with caller-provided scratch buffers and a
    /// borrowed label; the allocation-free form used by the steady-state
    /// recognition loop.
    pub fn best_two_with<'a>(
        &'a self,
        series: &[f64],
        scratch: &mut QueryScratch,
    ) -> Option<(IndexMatchRef<'a>, Option<f64>)> {
        if self.templates.is_empty() {
            return None;
        }
        scratch.canonical.resize(self.series_len, 0.0);
        resample_into(series, &mut scratch.canonical);
        znormalize_in_place(&mut scratch.canonical);
        scratch.spectrum.transform(&scratch.canonical);

        // Templates are visited in insertion order and only a strictly
        // smaller distance takes the lead, so ties go to the lower index
        // (what a stable sort on exact distance would produce).
        let mut best: Option<IndexMatchRef<'a>> = None;
        let mut runner_up: Option<f64> = None;
        for (t, spectrum) in self.templates.iter().zip(&self.spectra) {
            let (distance, shift) = min_rotated_euclidean_of(
                &scratch.canonical,
                &scratch.spectrum,
                &t.series,
                spectrum,
                1,
                &mut scratch.rot,
            )
            .expect("canonical series are equal-length and non-empty");
            if best.is_none_or(|b| distance < b.distance) {
                // The dethroned winner is no farther than anything seen, so
                // it is the runner-up unless it shares the new label.
                if let Some(b) = best.filter(|b| b.label != t.label) {
                    runner_up = Some(b.distance);
                }
                best = Some(IndexMatchRef {
                    label: &t.label,
                    distance,
                    shift,
                });
            } else if best.is_some_and(|b| b.label != t.label)
                && runner_up.is_none_or(|r| distance < r)
            {
                runner_up = Some(distance);
            }
        }
        best.map(|b| (b, runner_up))
    }

    /// Reference implementation of [`SaxIndex::best_two`]: a naive rotation
    /// distance to every template, stably sorted. Kept as the test oracle
    /// and the honest "before" baseline for the committed benchmark.
    pub fn best_two_reference(&self, series: &[f64]) -> Option<(IndexMatch, Option<f64>)> {
        if self.templates.is_empty() {
            return None;
        }
        let canonical = self.canonicalize(series);
        let mut exact: Vec<(usize, f64, usize)> = self
            .templates
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (d, shift) = min_rotated_euclidean_naive(&canonical, &t.series, 1)
                    .expect("canonical series are equal-length and non-empty");
                (i, d, shift)
            })
            .collect();
        exact.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        let (i, distance, shift) = exact[0];
        let best = IndexMatch {
            label: self.templates[i].label.clone(),
            distance,
            shift,
        };
        let runner_up = exact
            .iter()
            .skip(1)
            .find(|(j, _, _)| self.templates[*j].label != best.label)
            .map(|(_, d, _)| *d);
        Some((best, runner_up))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_timeseries::rotate_left;

    fn square_wave(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if (i / period).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect()
    }

    fn sine(n: usize, cycles: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * cycles * i as f64 / n as f64).sin())
            .collect()
    }

    fn index_with_shapes() -> SaxIndex {
        let mut idx = SaxIndex::new(SaxParams::default(), 128);
        idx.insert("square", &square_wave(128, 16));
        idx.insert("sine3", &sine(128, 3.0));
        idx.insert("sine7", &sine(128, 7.0));
        idx
    }

    #[test]
    fn empty_index_returns_none() {
        let idx = SaxIndex::new(SaxParams::default(), 64);
        assert!(idx.best_match(&[1.0, 2.0]).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn exact_query_matches_itself() {
        let idx = index_with_shapes();
        let m = idx.best_match(&sine(128, 3.0)).unwrap();
        assert_eq!(m.label, "sine3");
        assert!(m.distance < 1e-9);
    }

    #[test]
    fn rotated_query_still_matches() {
        let idx = index_with_shapes();
        let rotated = rotate_left(&sine(128, 7.0), 37);
        let m = idx.best_match(&rotated).unwrap();
        assert_eq!(m.label, "sine7");
        assert!(
            m.distance < 1e-6,
            "rotation-invariant match, got {}",
            m.distance
        );
    }

    #[test]
    fn different_length_query_is_resampled() {
        let idx = index_with_shapes();
        let m = idx.best_match(&sine(300, 3.0)).unwrap();
        assert_eq!(m.label, "sine3");
        assert!(m.distance < 1.5, "resampled query distance {}", m.distance);
    }

    #[test]
    fn best_two_single_label_has_no_runner_up() {
        let mut idx = SaxIndex::new(SaxParams::default(), 128);
        idx.insert("only", &sine(128, 3.0));
        idx.insert("only", &sine(128, 5.0));
        let (m, runner) = idx.best_two(&sine(128, 3.0)).unwrap();
        assert_eq!(m.label, "only");
        assert!(runner.is_none());
        assert_eq!(idx.best_two_reference(&sine(128, 3.0)).unwrap().1, None);
    }

    #[test]
    fn duplicate_templates_tie_break_like_reference() {
        // Identical series under different labels force exact-distance ties;
        // the scan must break them the same way the reference does.
        let mut idx = SaxIndex::new(SaxParams::default(), 128);
        idx.insert("first", &sine(128, 3.0));
        idx.insert("second", &sine(128, 3.0));
        idx.insert("third", &sine(128, 5.0));
        let q = rotate_left(&sine(128, 3.0), 9);
        assert_eq!(idx.best_two(&q), idx.best_two_reference(&q));
        assert_eq!(
            idx.best_match(&q),
            idx.best_two_reference(&q).map(|(m, _)| m)
        );
    }

    #[test]
    fn templates_accessible() {
        let idx = index_with_shapes();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.templates()[0].label, "square");
        assert_eq!(idx.series_len(), 128);
        assert_eq!(idx.params(), SaxParams::default());
    }
}
