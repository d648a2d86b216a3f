//! Parameter tuning for SAX word length and alphabet size.
//!
//! The paper (ref \[22\]) notes that recognition beyond 65° stayed erratic
//! *"even with tuning of the piecewise aggregation and alphabet size"*. This
//! module provides the sweep machinery used by experiment E10 to reproduce
//! that observation: a full grid evaluation of `(w, a)` pairs under an
//! arbitrary scoring function.

use crate::encoder::{SaxParams, SaxParamsError};

/// A scored parameter combination.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResult {
    /// Word length (PAA segments).
    pub segments: usize,
    /// Alphabet size.
    pub alphabet: u8,
    /// Score assigned by the evaluation function (higher is better).
    pub score: f64,
}

/// Evaluates every `(segments, alphabet)` combination with `eval` and returns
/// results sorted by descending score (ties broken toward smaller words, then
/// smaller alphabets — prefer the cheaper configuration).
///
/// Invalid combinations (zero segments, out-of-range alphabets) are skipped
/// rather than failing the whole sweep.
///
/// # Example
/// ```
/// use hdc_sax::tuning::grid_search;
/// // favour medium-sized words
/// let results = grid_search(&[4, 8, 16], &[3, 4], |p| -((p.segments() as f64) - 8.0).abs());
/// assert_eq!(results[0].segments, 8);
/// ```
pub fn grid_search<F>(segments: &[usize], alphabets: &[u8], mut eval: F) -> Vec<TuningResult>
where
    F: FnMut(SaxParams) -> f64,
{
    let mut out = Vec::with_capacity(segments.len() * alphabets.len());
    for &w in segments {
        for &a in alphabets {
            let params = match SaxParams::new(w, a) {
                Ok(p) => p,
                Err(SaxParamsError::ZeroSegments) | Err(SaxParamsError::AlphabetOutOfRange(_)) => {
                    continue
                }
            };
            let score = eval(params);
            out.push(TuningResult {
                segments: w,
                alphabet: a,
                score,
            });
        }
    }
    out.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.segments.cmp(&y.segments))
            .then(x.alphabet.cmp(&y.alphabet))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_valid_combinations() {
        let res = grid_search(&[4, 8], &[3, 5], |_| 1.0);
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn invalid_combinations_skipped() {
        let res = grid_search(&[0, 4], &[1, 3, 40], |_| 1.0);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].segments, 4);
        assert_eq!(res[0].alphabet, 3);
    }

    #[test]
    fn sorted_by_score_then_cost() {
        let res = grid_search(
            &[16, 4],
            &[4, 3],
            |p| {
                if p.segments() == 4 {
                    2.0
                } else {
                    1.0
                }
            },
        );
        assert_eq!(res[0].segments, 4);
        // ties at segments=4 broken toward the smaller alphabet
        assert_eq!(res[0].alphabet, 3);
        assert_eq!(res[1].alphabet, 4);
    }
}
