//! A template database of SAX words with lower-bound pruned lookup.
//!
//! The paper: *"This last step facilitates a comparison of the string against
//! a database of strings and hence can be used quite effectively to identify
//! features in images."* The [`SaxIndex`] is that database: canonical sign
//! signatures inserted once, live frames matched with a rotation-invariant
//! MINDIST lower bound and an exact Euclidean refinement.

use crate::encoder::{SaxEncoder, SaxParams};
use crate::mindist::{mindist_with_table, symbol_distance_table};
use crate::word::SaxWord;
use hdc_timeseries::{
    min_rotated_euclidean_naive, min_rotated_euclidean_of, paa_into, resample, resample_into,
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
    /// Rotation-invariant MINDIST lower bound to that template.
    pub lower_bound: f64,
    /// Exact rotation-invariant Euclidean distance.
    pub distance: f64,
    /// Circular shift (in samples) that aligned the query with the template.
    pub shift: usize,
}

/// A lookup result borrowing its label from the index — the allocation-free
/// counterpart of [`IndexMatch`] returned by the `*_with` query methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexMatchRef<'a> {
    /// Label of the best-matching template (borrowed from the index).
    pub label: &'a str,
    /// Rotation-invariant MINDIST lower bound to that template.
    pub lower_bound: f64,
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
            lower_bound: self.lower_bound,
            distance: self.distance,
            shift: self.shift,
        }
    }
}

/// Reusable buffers for the `*_with` query methods on [`SaxIndex`], so the
/// steady-state recognition loop performs no heap allocation per query.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    /// Canonical (resampled + z-normalised) query signature.
    canonical: Vec<f64>,
    /// Second z-normalisation pass feeding the encoder (mirrors the encoder's
    /// own normalisation of the canonical series).
    znorm: Vec<f64>,
    /// PAA frames of the query.
    frames: Vec<f64>,
    /// SAX symbols of the query.
    syms: Vec<u8>,
    /// `(lower bound, template index)` visit order.
    order: Vec<(f64, usize)>,
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
    table: Vec<Vec<f64>>,
    /// Flattened `alphabet × alphabet` table of *squared* symbol distances —
    /// the per-position MINDIST cost without the per-query squaring.
    dsq: Vec<f64>,
    /// Per-template word symbols doubled back-to-back, so the word rotated
    /// left by `s` is the slice `doubled[s..s + w]` — no allocation per shift.
    doubled: Vec<Vec<u8>>,
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
        let table = symbol_distance_table(params.alphabet());
        let a = params.alphabet() as usize;
        let mut dsq = vec![0.0; a * a];
        for (i, row) in table.iter().enumerate() {
            for (j, d) in row.iter().enumerate() {
                dsq[i * a + j] = d * d;
            }
        }
        SaxIndex {
            encoder: SaxEncoder::new(params),
            series_len,
            templates: Vec::new(),
            table,
            dsq,
            doubled: Vec::new(),
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
        let mut doubled = Vec::with_capacity(word.len() * 2);
        doubled.extend_from_slice(word.symbols());
        doubled.extend_from_slice(word.symbols());
        self.doubled.push(doubled);
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

    /// Canonicalises the query into `scratch` and computes the rotation
    /// lower bound to every template, leaving `(lb, index)` pairs in
    /// `scratch.order` sorted ascending. No heap allocation in steady state.
    fn prepare_query(&self, series: &[f64], scratch: &mut QueryScratch) {
        scratch.canonical.resize(self.series_len, 0.0);
        resample_into(series, &mut scratch.canonical);
        znormalize_in_place(&mut scratch.canonical);
        scratch.spectrum.transform(&scratch.canonical);

        // The encoder z-normalises its input itself; replicate that second
        // pass so the symbols match `encode(&canonicalize(series))` exactly.
        scratch.znorm.clear();
        scratch.znorm.extend_from_slice(&scratch.canonical);
        znormalize_in_place(&mut scratch.znorm);
        let w = self.encoder.params().segments();
        scratch.frames.resize(w, 0.0);
        if w <= self.series_len {
            paa_into(&scratch.znorm, &mut scratch.frames);
        } else {
            // Series shorter than the word: the encoder stretches by
            // resampling (PAA is the identity in that regime).
            resample_into(&scratch.znorm, &mut scratch.frames);
        }
        self.encoder
            .symbolize_into(&scratch.frames, &mut scratch.syms);

        let a = self.encoder.params().alphabet() as usize;
        let scale = self.series_len as f64 / w as f64;
        scratch.order.clear();
        for (i, doubled) in self.doubled.iter().enumerate() {
            let mut lb = f64::INFINITY;
            for shift in 0..w {
                let window = &doubled[shift..shift + w];
                let sum: f64 = scratch
                    .syms
                    .iter()
                    .zip(window)
                    .map(|(q, t)| self.dsq[*q as usize * a + *t as usize])
                    .sum();
                let d = (scale * sum).sqrt();
                if d < lb {
                    lb = d;
                }
            }
            scratch.order.push((lb, i));
        }
        // Ascending lower bound, ties broken by insertion order — the same
        // visit order a stable sort on the lower bound alone would give.
        scratch
            .order
            .sort_unstable_by(|x, y| x.partial_cmp(y).unwrap());
    }

    /// Finds the best-matching template for a query signature.
    ///
    /// Strategy: compute the rotation-invariant MINDIST lower bound to every
    /// template (cheap, word-level), visit templates in ascending lower-bound
    /// order and compute the exact rotation-invariant Euclidean distance,
    /// skipping any template whose lower bound already exceeds the best exact
    /// distance found — the classic lower-bound pruning search.
    ///
    /// Returns `None` when the index is empty.
    pub fn best_match(&self, series: &[f64]) -> Option<IndexMatch> {
        self.best_match_with(series, &mut QueryScratch::new())
            .map(IndexMatchRef::into_owned)
    }

    /// [`SaxIndex::best_match`] with caller-provided scratch buffers and a
    /// borrowed label; the allocation-free form used by the steady-state
    /// recognition loop.
    pub fn best_match_with<'a>(
        &'a self,
        series: &[f64],
        scratch: &mut QueryScratch,
    ) -> Option<IndexMatchRef<'a>> {
        if self.templates.is_empty() {
            return None;
        }
        self.prepare_query(series, scratch);
        let mut best: Option<IndexMatchRef<'a>> = None;
        for k in 0..scratch.order.len() {
            let (lb, i) = scratch.order[k];
            if let Some(ref b) = best {
                if lb >= b.distance {
                    break; // every remaining lower bound is worse
                }
            }
            let t = &self.templates[i];
            let (d, shift) = min_rotated_euclidean_of(
                &scratch.canonical,
                &scratch.spectrum,
                &t.series,
                &self.spectra[i],
                1,
                &mut scratch.rot,
            )
            .expect("canonical series are equal-length and non-empty");
            if best.as_ref().is_none_or(|b| d < b.distance) {
                best = Some(IndexMatchRef {
                    label: &t.label,
                    lower_bound: lb,
                    distance: d,
                    shift,
                });
            }
        }
        best
    }

    /// Like [`SaxIndex::best_match`] but also returns the exact distance to
    /// the best template of a *different* label, when one exists — the
    /// runner-up used by ambiguity (ratio) tests.
    ///
    /// Note that the runner-up distance is exact (not approximated): ratio
    /// tests need the true second-best value. Pruning therefore only skips a
    /// template once its lower bound exceeds the current runner-up distance —
    /// such a template can change neither the winner nor the runner-up.
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
        self.prepare_query(series, scratch);

        // Track the global best and the best among *other* labels, ordering
        // ties by template index (what a stable sort on exact distance over
        // the whole database would produce).
        struct Entry {
            d: f64,
            idx: usize,
            lb: f64,
            shift: usize,
        }
        let beats = |d: f64, idx: usize, e: &Entry| d < e.d || (d == e.d && idx < e.idx);
        let mut best: Option<Entry> = None;
        let mut runner: Option<Entry> = None;
        for k in 0..scratch.order.len() {
            let (lb, i) = scratch.order[k];
            if let Some(ref r) = runner {
                if lb > r.d {
                    break; // can change neither winner nor runner-up
                }
            }
            let t = &self.templates[i];
            let (d, shift) = min_rotated_euclidean_of(
                &scratch.canonical,
                &scratch.spectrum,
                &t.series,
                &self.spectra[i],
                1,
                &mut scratch.rot,
            )
            .expect("canonical series are equal-length and non-empty");
            let entry = Entry {
                d,
                idx: i,
                lb,
                shift,
            };
            match best {
                None => best = Some(entry),
                Some(ref b) if beats(d, i, b) => {
                    // The dethroned winner is the best candidate from any
                    // other label (it beat the previous runner-up too).
                    let old = best.replace(entry).expect("just matched Some");
                    if self.templates[old.idx].label != t.label {
                        runner = Some(old);
                    }
                }
                Some(ref b) => {
                    if self.templates[b.idx].label != t.label
                        && runner.as_ref().is_none_or(|r| beats(d, i, r))
                    {
                        runner = Some(entry);
                    }
                }
            }
        }
        let b = best.expect("templates are non-empty");
        let best_ref = IndexMatchRef {
            label: &self.templates[b.idx].label,
            lower_bound: b.lb,
            distance: b.d,
            shift: b.shift,
        };
        Some((best_ref, runner.map(|r| r.d)))
    }

    /// Reference implementation of [`SaxIndex::best_match`]: the
    /// pre-optimisation search that materialises a rotated word per shift and
    /// a rotated series per alignment. Kept as the test oracle and the honest
    /// "before" baseline for the committed benchmark.
    pub fn best_match_reference(&self, series: &[f64]) -> Option<IndexMatch> {
        if self.templates.is_empty() {
            return None;
        }
        let canonical = self.canonicalize(series);
        let query_word = self.encoder.encode(&canonical);

        let mut candidates: Vec<(usize, f64)> = self
            .templates
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut best = f64::INFINITY;
                for shift in 0..t.word.len() {
                    let rotated = t.word.rotated_left(shift);
                    let d = mindist_with_table(&query_word, &rotated, self.series_len, &self.table);
                    if d < best {
                        best = d;
                    }
                }
                (i, best)
            })
            .collect();
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        let mut best: Option<IndexMatch> = None;
        for (i, lb) in candidates {
            if let Some(ref b) = best {
                if lb >= b.distance {
                    break;
                }
            }
            let t = &self.templates[i];
            let (d, shift) = min_rotated_euclidean_naive(&canonical, &t.series, 1)
                .expect("canonical series are equal-length and non-empty");
            if best.as_ref().is_none_or(|b| d < b.distance) {
                best = Some(IndexMatch {
                    label: t.label.clone(),
                    lower_bound: lb,
                    distance: d,
                    shift,
                });
            }
        }
        best
    }

    /// Reference implementation of [`SaxIndex::best_two`]: exact distance to
    /// every template, sorted. Kept as the test oracle and the honest
    /// "before" baseline for the committed benchmark.
    pub fn best_two_reference(&self, series: &[f64]) -> Option<(IndexMatch, Option<f64>)> {
        if self.templates.is_empty() {
            return None;
        }
        let canonical = self.canonicalize(series);
        let query_word = self.encoder.encode(&canonical);

        let mut exact: Vec<(usize, f64, f64, usize)> = self
            .templates
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut lb = f64::INFINITY;
                for shift in 0..t.word.len() {
                    let rotated = t.word.rotated_left(shift);
                    let d = mindist_with_table(&query_word, &rotated, self.series_len, &self.table);
                    if d < lb {
                        lb = d;
                    }
                }
                let (d, shift) = min_rotated_euclidean_naive(&canonical, &t.series, 1)
                    .expect("canonical series are equal-length and non-empty");
                (i, lb, d, shift)
            })
            .collect();
        exact.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());

        let (i, lb, d, shift) = exact[0];
        let best = IndexMatch {
            label: self.templates[i].label.clone(),
            lower_bound: lb,
            distance: d,
            shift,
        };
        let runner_up = exact
            .iter()
            .skip(1)
            .find(|(j, _, _, _)| self.templates[*j].label != best.label)
            .map(|(_, _, d, _)| *d);
        Some((best, runner_up))
    }

    /// Classifies a query: the best match's label if its exact distance is
    /// within `threshold`, otherwise `None` (unknown sign).
    pub fn classify(&self, series: &[f64], threshold: f64) -> Option<IndexMatch> {
        self.best_match(series).filter(|m| m.distance <= threshold)
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
        assert!(m.lower_bound <= m.distance + 1e-9, "lower bound property");
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
    fn classify_thresholds() {
        let idx = index_with_shapes();
        let q = sine(128, 3.0);
        assert!(idx.classify(&q, 0.5).is_some());
        // white-ish junk: far from every template
        let junk: Vec<f64> = (0..128u64)
            .map(|i| ((i * 2654435761) % 97) as f64)
            .collect();
        let m = idx.best_match(&junk).unwrap();
        assert!(idx.classify(&junk, m.distance / 2.0).is_none());
    }

    #[test]
    fn lower_bound_never_exceeds_distance() {
        let idx = index_with_shapes();
        for q in [sine(128, 3.0), sine(128, 5.0), square_wave(128, 8)] {
            let m = idx.best_match(&q).unwrap();
            assert!(m.lower_bound <= m.distance + 1e-9);
        }
    }

    #[test]
    fn pruned_search_matches_reference() {
        let idx = index_with_shapes();
        let queries = [
            sine(128, 3.0),
            sine(128, 7.0),
            sine(128, 5.0),
            square_wave(128, 16),
            square_wave(128, 8),
            rotate_left(&sine(128, 7.0), 37),
            rotate_left(&square_wave(128, 16), 5),
            sine(300, 3.0),
        ];
        let mut scratch = QueryScratch::new();
        for (qi, q) in queries.iter().enumerate() {
            let fast = idx
                .best_match_with(q, &mut scratch)
                .map(IndexMatchRef::into_owned);
            let reference = idx.best_match_reference(q);
            assert_eq!(fast, reference, "best_match query {qi}");
            let fast_two = idx
                .best_two_with(q, &mut scratch)
                .map(|(m, r)| (m.into_owned(), r));
            let reference_two = idx.best_two_reference(q);
            assert_eq!(fast_two, reference_two, "best_two query {qi}");
        }
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
        // the pruned search must break them the same way the reference does.
        let mut idx = SaxIndex::new(SaxParams::default(), 128);
        idx.insert("first", &sine(128, 3.0));
        idx.insert("second", &sine(128, 3.0));
        idx.insert("third", &sine(128, 5.0));
        let q = rotate_left(&sine(128, 3.0), 9);
        assert_eq!(idx.best_two(&q), idx.best_two_reference(&q));
        assert_eq!(idx.best_match(&q), idx.best_match_reference(&q));
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
