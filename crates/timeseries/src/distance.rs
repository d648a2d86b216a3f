//! Series distances: Euclidean, DTW (full and banded), rotation-minimised.

use crate::fft::{
    circular_cross_correlation_into, circular_cross_correlation_of, FftScratch, Spectrum,
};
use crate::transform::rotate_left;
use std::fmt;

/// Error returned by distance functions for incompatible inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistanceError {
    /// The two series have different lengths (Euclidean requires equal).
    LengthMismatch {
        /// Length of the first series.
        a: usize,
        /// Length of the second series.
        b: usize,
    },
    /// One of the series is empty.
    Empty,
}

impl fmt::Display for DistanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistanceError::LengthMismatch { a, b } => {
                write!(f, "series lengths differ: {a} vs {b}")
            }
            DistanceError::Empty => write!(f, "empty series"),
        }
    }
}

impl std::error::Error for DistanceError {}

/// Euclidean (L2) distance between equal-length series.
///
/// # Errors
/// [`DistanceError::LengthMismatch`] when lengths differ,
/// [`DistanceError::Empty`] when both are empty.
///
/// # Example
/// ```
/// use hdc_timeseries::euclidean;
/// let d = euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap();
/// assert_eq!(d, 5.0);
/// ```
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64, DistanceError> {
    if a.len() != b.len() {
        return Err(DistanceError::LengthMismatch {
            a: a.len(),
            b: b.len(),
        });
    }
    if a.is_empty() {
        return Err(DistanceError::Empty);
    }
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt())
}

/// Full dynamic-time-warping distance between (possibly different-length)
/// series, with squared-difference local cost and the classic 3-way recursion.
///
/// # Errors
/// [`DistanceError::Empty`] when either series is empty.
pub fn dtw(a: &[f64], b: &[f64]) -> Result<f64, DistanceError> {
    dtw_banded(a, b, usize::MAX)
}

/// DTW constrained to a Sakoe–Chiba band of half-width `band`.
///
/// `band = usize::MAX` means unconstrained. A narrow band is the classic
/// latency optimisation for real-time matching — this is the "expensive
/// baseline made as cheap as honestly possible" against which the paper's
/// SAX approach is compared.
///
/// # Errors
/// [`DistanceError::Empty`] when either series is empty.
pub fn dtw_banded(a: &[f64], b: &[f64], band: usize) -> Result<f64, DistanceError> {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return Err(DistanceError::Empty);
    }
    // Ensure the band admits a path when lengths differ.
    let band = band.max(n.abs_diff(m));
    let inf = f64::INFINITY;
    let mut prev = vec![inf; m + 1];
    let mut cur = vec![inf; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        cur.fill(inf);
        let j_lo = if band == usize::MAX {
            1
        } else {
            i.saturating_sub(band).max(1)
        };
        let j_hi = if band == usize::MAX {
            m
        } else {
            (i + band).min(m)
        };
        for j in j_lo..=j_hi {
            let cost = (a[i - 1] - b[j - 1]) * (a[i - 1] - b[j - 1]);
            let best = prev[j].min(cur[j - 1]).min(prev[j - 1]);
            cur[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    Ok(prev[m].sqrt())
}

/// Reusable buffers for [`min_rotated_euclidean_with`], so repeated rotation
/// matching (one call per template per frame) performs no heap allocation in
/// steady state.
#[derive(Debug, Default, Clone)]
pub struct RotationScratch {
    ccorr: Vec<f64>,
    fft: FftScratch,
}

impl RotationScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Minimum Euclidean distance over all circular rotations of `b`, returning
/// `(distance, best_shift)`.
///
/// This is the rotation-invariant matching step: a rotated shape produces a
/// circularly shifted contour signature, so the best alignment over shifts is
/// the rotation-free distance. `stride` sub-samples the shift search
/// (`stride = 1` is exhaustive).
///
/// All rotation distances are derived from one circular cross-correlation
/// (`‖a − rot(b, s)‖² = Σa² + Σb² − 2·ccorr(a, b)[s]`, FFT-accelerated for
/// power-of-two lengths), then the winning shifts are re-evaluated with the
/// plain subtract-square sum so the result is bit-identical to
/// [`min_rotated_euclidean_naive`], including tie-breaking on the earliest
/// shift.
///
/// # Errors
/// Same as [`euclidean`]; additionally `stride` of zero yields
/// [`DistanceError::Empty`].
pub fn min_rotated_euclidean(
    a: &[f64],
    b: &[f64],
    stride: usize,
) -> Result<(f64, usize), DistanceError> {
    min_rotated_euclidean_with(a, b, stride, &mut RotationScratch::new())
}

/// [`min_rotated_euclidean`] with caller-provided scratch buffers; the
/// allocation-free form used by the steady-state recognition loop.
///
/// # Errors
/// Same as [`min_rotated_euclidean`].
pub fn min_rotated_euclidean_with(
    a: &[f64],
    b: &[f64],
    stride: usize,
    scratch: &mut RotationScratch,
) -> Result<(f64, usize), DistanceError> {
    check_rotation_inputs(a, b, stride)?;
    scratch.ccorr.clear();
    scratch.ccorr.resize(a.len(), 0.0);
    circular_cross_correlation_into(a, b, &mut scratch.ccorr, &mut scratch.fft);
    let energies = scratch.fft.energies();
    Ok(min_over_rotations(a, b, energies, stride, &scratch.ccorr))
}

/// [`min_rotated_euclidean_with`] from the series' kept spectra
/// ([`Spectrum::transform`] of `a` and of `b`), for matching one query
/// against many templates without re-transforming either. The result is
/// bit-identical.
///
/// # Errors
/// Same as [`min_rotated_euclidean`].
///
/// # Panics
/// Panics when a spectrum is not the transform of a series of this length.
pub fn min_rotated_euclidean_of(
    a: &[f64],
    a_spec: &Spectrum,
    b: &[f64],
    b_spec: &Spectrum,
    stride: usize,
    scratch: &mut RotationScratch,
) -> Result<(f64, usize), DistanceError> {
    check_rotation_inputs(a, b, stride)?;
    scratch.ccorr.clear();
    scratch.ccorr.resize(a.len(), 0.0);
    circular_cross_correlation_of(a, a_spec, b, b_spec, &mut scratch.ccorr, &mut scratch.fft);
    let energies = (a_spec.energy(), b_spec.energy());
    Ok(min_over_rotations(a, b, energies, stride, &scratch.ccorr))
}

fn check_rotation_inputs(a: &[f64], b: &[f64], stride: usize) -> Result<(), DistanceError> {
    if stride == 0 {
        return Err(DistanceError::Empty);
    }
    if a.len() != b.len() {
        return Err(DistanceError::LengthMismatch {
            a: a.len(),
            b: b.len(),
        });
    }
    if a.is_empty() {
        return Err(DistanceError::Empty);
    }
    Ok(())
}

/// The best admissible shift given `ccorr(a, b)` and the energies
/// `(Σa², Σb²)`: estimates every shift's squared distance from the
/// correlation, then re-evaluates exactly each shift within rounding
/// tolerance of the minimum estimate.
fn min_over_rotations(
    a: &[f64],
    b: &[f64],
    (sa, sb): (f64, f64),
    stride: usize,
    ccorr: &[f64],
) -> (f64, usize) {
    let n = a.len();

    // First pass: minimum *estimated* squared distance over admissible shifts.
    let mut min_est = f64::INFINITY;
    for s in (0..n).step_by(stride) {
        let est = sa + sb - 2.0 * ccorr[s];
        if est < min_est {
            min_est = est;
        }
    }
    // Second pass: exact re-evaluation at every shift whose estimate is within
    // the FFT rounding tolerance of the minimum. The tolerance scales with the
    // energy of the inputs (correlation entries are O(sa + sb)); candidates it
    // admits only cost one extra O(n) pass each, never correctness.
    let eps = (sa + sb + 1.0) * 1e-9;
    let mut best = (f64::INFINITY, 0usize);
    for s in (0..n).step_by(stride) {
        let est = sa + sb - 2.0 * ccorr[s];
        if est <= min_est + eps {
            let d = rotated_euclidean_at(a, b, s);
            if d < best.0 {
                best = (d, s);
            }
        }
    }
    best
}

/// Exact Euclidean distance between `a` and `rot(b, shift)`, accumulated in
/// the same element order as [`euclidean`] on a materialised rotation (so the
/// floating-point result is bit-identical to the naive oracle's).
fn rotated_euclidean_at(a: &[f64], b: &[f64], shift: usize) -> f64 {
    let n = a.len();
    let k = n - shift;
    let mut acc = 0.0;
    for i in 0..k {
        let d = a[i] - b[shift + i];
        acc += d * d;
    }
    for i in k..n {
        let d = a[i] - b[i - k];
        acc += d * d;
    }
    acc.sqrt()
}

/// Reference implementation of [`min_rotated_euclidean`]: materialises each
/// rotation and measures it. `O(n²)` with an allocation per shift — kept as
/// the test oracle and the honest "before" baseline for benchmarks.
///
/// # Errors
/// Same as [`min_rotated_euclidean`].
pub fn min_rotated_euclidean_naive(
    a: &[f64],
    b: &[f64],
    stride: usize,
) -> Result<(f64, usize), DistanceError> {
    if stride == 0 {
        return Err(DistanceError::Empty);
    }
    if a.len() != b.len() {
        return Err(DistanceError::LengthMismatch {
            a: a.len(),
            b: b.len(),
        });
    }
    if a.is_empty() {
        return Err(DistanceError::Empty);
    }
    let mut best = (f64::INFINITY, 0usize);
    let mut shift = 0usize;
    while shift < b.len() {
        let rotated = rotate_left(b, shift);
        let d = euclidean(a, &rotated)?;
        if d < best.0 {
            best = (d, shift);
        }
        shift += stride;
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[1.0], &[1.0]).unwrap(), 0.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
        assert!(matches!(
            euclidean(&[1.0], &[1.0, 2.0]),
            Err(DistanceError::LengthMismatch { a: 1, b: 2 })
        ));
        assert!(matches!(euclidean(&[], &[]), Err(DistanceError::Empty)));
    }

    #[test]
    fn dtw_equals_euclidean_for_identical() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(dtw(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn dtw_absorbs_time_shift() {
        // same shape shifted by one sample: DTW smaller than Euclidean
        let a = [0.0, 0.0, 1.0, 5.0, 1.0, 0.0, 0.0, 0.0];
        let b = [0.0, 0.0, 0.0, 1.0, 5.0, 1.0, 0.0, 0.0];
        let de = euclidean(&a, &b).unwrap();
        let dw = dtw(&a, &b).unwrap();
        assert!(dw < de, "dtw {dw} should beat euclidean {de}");
        assert!(dw < 1e-9, "pure shift should warp to ~zero");
    }

    #[test]
    fn dtw_different_lengths() {
        let a = [0.0, 1.0, 0.0];
        let b = [0.0, 0.5, 1.0, 0.5, 0.0];
        let d = dtw(&a, &b).unwrap();
        assert!(d.is_finite());
        assert!(matches!(dtw(&[], &b), Err(DistanceError::Empty)));
    }

    #[test]
    fn banded_dtw_upper_bounds_full() {
        let a: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3 + 0.8).sin()).collect();
        let full = dtw(&a, &b).unwrap();
        let banded = dtw_banded(&a, &b, 3).unwrap();
        assert!(
            banded >= full - 1e-12,
            "band constrains the path: {banded} >= {full}"
        );
    }

    #[test]
    fn banded_wide_band_equals_full() {
        let a = [1.0, 3.0, 2.0, 5.0];
        let b = [2.0, 1.0, 4.0, 4.0];
        assert_eq!(dtw(&a, &b).unwrap(), dtw_banded(&a, &b, 100).unwrap());
    }

    #[test]
    fn rotation_minimum_finds_shift() {
        let a = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let b = rotate_left(&a, 2);
        let (d, shift) = min_rotated_euclidean(&a, &b, 1).unwrap();
        assert!(d < 1e-12);
        // rotating b left by 4 recovers a (2 + 4 = 6 ≡ 0)
        assert_eq!(shift, 4);
    }

    #[test]
    fn fast_rotation_matches_naive_bitwise() {
        // Covers the FFT path (128 = 2^7 ≥ FFT_MIN_LEN), the direct path (37)
        // and small lengths, with strides 1..4.
        for n in [3usize, 8, 37, 64, 128] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 3.0 + 0.5).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos() - 1.2).collect();
            for stride in 1..=4 {
                let fast = min_rotated_euclidean(&a, &b, stride).unwrap();
                let naive = min_rotated_euclidean_naive(&a, &b, stride).unwrap();
                assert_eq!(fast, naive, "n={n} stride={stride}");
            }
        }
    }

    #[test]
    fn fast_rotation_exact_zero_on_self_match() {
        // d = 0 is where FFT rounding would otherwise show up as sqrt(ε);
        // exact re-evaluation must return literally 0.0 like the naive loop.
        let a: Vec<f64> = (0..128).map(|i| (i as f64 * 0.17).sin()).collect();
        let b = rotate_left(&a, 11);
        let (d, shift) = min_rotated_euclidean(&a, &b, 1).unwrap();
        assert_eq!(d, 0.0);
        assert_eq!(shift, 128 - 11);
    }

    #[test]
    fn rotation_scratch_reuse_across_lengths() {
        let mut scratch = RotationScratch::new();
        for n in [128usize, 37, 64] {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b = rotate_left(&a, n / 3);
            let fast = min_rotated_euclidean_with(&a, &b, 1, &mut scratch).unwrap();
            let naive = min_rotated_euclidean_naive(&a, &b, 1).unwrap();
            assert_eq!(fast, naive, "n={n}");
        }
    }

    #[test]
    fn rotation_stride_subsampling() {
        let a = [0.0, 1.0, 2.0, 3.0];
        let b = rotate_left(&a, 1);
        // stride 2 only checks shifts {0, 2}; exact shift 3 is missed but a
        // finite distance is still returned
        let (d, _) = min_rotated_euclidean(&a, &b, 2).unwrap();
        assert!(d > 0.0);
        assert!(min_rotated_euclidean(&a, &b, 0).is_err());
    }

    #[test]
    fn error_display() {
        let e = DistanceError::LengthMismatch { a: 1, b: 2 };
        assert_eq!(e.to_string(), "series lengths differ: 1 vs 2");
        assert_eq!(DistanceError::Empty.to_string(), "empty series");
    }
}
