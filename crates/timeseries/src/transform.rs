//! Series transforms: PAA, resampling, rotation, smoothing.

/// Piecewise aggregate approximation: averages the series into `segments`
/// equal-width frames (fractional frame boundaries are weighted).
///
/// This is the dimensionality-reduction step of SAX. When `segments >= len`
/// the series is returned unchanged (each sample its own frame).
///
/// # Panics
/// Panics if `segments` is zero.
///
/// # Example
/// ```
/// use hdc_timeseries::paa;
/// let out = paa(&[1.0, 1.0, 3.0, 3.0], 2);
/// assert_eq!(out, vec![1.0, 3.0]);
/// ```
pub fn paa(values: &[f64], segments: usize) -> Vec<f64> {
    assert!(segments > 0, "PAA needs at least one segment");
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    if segments >= n {
        return values.to_vec();
    }
    let mut out = vec![0.0; segments];
    paa_into(values, &mut out);
    out
}

/// Uniformly resamples the series to `target_len` samples by linear
/// interpolation over the index axis.
///
/// Contours of different pixel lengths are mapped onto a common length so
/// signatures are comparable across scale — the scale-invariance half of the
/// paper's pipeline.
///
/// # Panics
/// Panics if `target_len` is zero.
pub fn resample(values: &[f64], target_len: usize) -> Vec<f64> {
    assert!(target_len > 0, "cannot resample to zero samples");
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![values[0]; target_len];
    }
    (0..target_len)
        .map(|i| {
            let t = i as f64 * (n - 1) as f64 / (target_len - 1).max(1) as f64;
            let lo = t as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = t - lo as f64;
            values[lo] * (1.0 - frac) + values[hi] * frac
        })
        .collect()
}

/// [`resample`] into a caller-provided buffer (`out.len()` is the target
/// length); the allocation-free form used by the steady-state frame loop.
///
/// # Panics
/// Panics if `out` is empty or `values` is empty (a fixed-length output
/// cannot represent an empty resampling).
pub fn resample_into(values: &[f64], out: &mut [f64]) {
    assert!(!out.is_empty(), "cannot resample to zero samples");
    let n = values.len();
    assert!(
        n > 0,
        "cannot resample an empty series into a fixed-length buffer"
    );
    if n == 1 {
        out.fill(values[0]);
        return;
    }
    let target_len = out.len();
    for (i, slot) in out.iter_mut().enumerate() {
        let t = i as f64 * (n - 1) as f64 / (target_len - 1).max(1) as f64;
        // The saturating cast is `t.floor() as usize` for every f64 (a
        // negative truncates to 0 where its floor saturates to 0), without
        // the call `floor` is on the baseline target.
        let lo = t as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = t - lo as f64;
        *slot = values[lo] * (1.0 - frac) + values[hi] * frac;
    }
}

/// Z-normalises the slice in place (zero mean, unit population variance),
/// with the same flat-series convention as `TimeSeries::znormalized`: a
/// (near-)constant series becomes all zeros.
pub fn znormalize_in_place(values: &mut [f64]) {
    if values.is_empty() {
        return;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd < 1e-12 {
        values.fill(0.0);
        return;
    }
    for v in values.iter_mut() {
        *v = (*v - mean) / sd;
    }
}

/// [`paa`] into a caller-provided buffer (`out.len()` is the segment count),
/// reducing only: frames are weighted by how much of each sample they
/// overlap, with fractional boundaries.
///
/// # Panics
/// Panics if `out` is empty or longer than `values`.
pub fn paa_into(values: &[f64], out: &mut [f64]) {
    assert!(!out.is_empty(), "PAA needs at least one segment");
    let n = values.len();
    let segments = out.len();
    assert!(segments <= n, "paa_into requires segments <= input length");
    if segments == n {
        out.copy_from_slice(values);
        return;
    }
    out.fill(0.0);
    let ratio = segments as f64 / n as f64;
    for (i, v) in values.iter().enumerate() {
        let start = i as f64 * ratio;
        let end = (i + 1) as f64 * ratio;
        // saturating casts: the floors, as in `resample_into`
        let first = start as usize;
        let last = ((end - 1e-12) as usize).min(segments - 1);
        if first == last {
            out[first] += v * (end - start);
        } else {
            for (seg, cell) in out.iter_mut().enumerate().take(last + 1).skip(first) {
                let seg_start = (seg as f64).max(start);
                let seg_end = ((seg + 1) as f64).min(end);
                *cell += v * (seg_end - seg_start);
            }
        }
    }
}

/// Returns the series circularly rotated left by `shift` positions.
///
/// Rotating a closed contour's starting point corresponds to rotating the
/// underlying shape, so matching under all rotations = matching under all
/// circular shifts.
pub fn rotate_left(values: &[f64], shift: usize) -> Vec<f64> {
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    let s = shift % n;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&values[s..]);
    out.extend_from_slice(&values[..s]);
    out
}

/// Centred moving-average smoothing with the given window half-width, using a
/// circular boundary (appropriate for closed contours).
///
/// `half_width = 0` returns the input unchanged.
pub fn smooth_moving_average(values: &[f64], half_width: usize) -> Vec<f64> {
    let n = values.len();
    if n == 0 || half_width == 0 {
        return values.to_vec();
    }
    let w = 2 * half_width + 1;
    (0..n)
        .map(|i| {
            let mut sum = 0.0;
            for k in 0..w {
                let idx = (i as i64 + k as i64 - half_width as i64).rem_euclid(n as i64) as usize;
                sum += values[idx];
            }
            sum / w as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paa_exact_division() {
        let out = paa(&[1.0, 1.0, 5.0, 5.0, 9.0, 9.0], 3);
        assert_eq!(out, vec![1.0, 5.0, 9.0]);
    }

    #[test]
    fn paa_fractional_boundaries() {
        // 3 samples into 2 segments: middle sample splits
        let out = paa(&[0.0, 6.0, 12.0], 2);
        // stretched: each frame covers 1.5 samples. frame0 = (0*1 + 6*0.5)/1.5 = 2
        // accumulate in stretched units: sample weights ratio = 2/3.
        // frame0 = 0*(2/3) + 6*(1/3) = 2; frame1 = 6*(1/3) + 12*(2/3) = 10
        assert!((out[0] - 2.0).abs() < 1e-9, "{out:?}");
        assert!((out[1] - 10.0).abs() < 1e-9, "{out:?}");
    }

    #[test]
    fn paa_mean_is_preserved() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let out = paa(&values, 8);
        let mean_in: f64 = values.iter().sum::<f64>() / values.len() as f64;
        let mean_out: f64 = out.iter().sum::<f64>() / out.len() as f64;
        assert!((mean_in - mean_out).abs() < 1e-9);
    }

    #[test]
    fn paa_more_segments_than_samples() {
        let v = vec![1.0, 2.0];
        assert_eq!(paa(&v, 10), v);
    }

    #[test]
    #[should_panic(expected = "segment")]
    fn paa_zero_segments_panics() {
        paa(&[1.0], 0);
    }

    #[test]
    fn resample_endpoints_preserved() {
        let v = vec![1.0, 5.0, 2.0, 8.0];
        let r = resample(&v, 7);
        assert_eq!(r.len(), 7);
        assert_eq!(r[0], 1.0);
        assert_eq!(r[6], 8.0);
    }

    #[test]
    fn resample_identity_length() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(resample(&v, 3), v);
    }

    #[test]
    fn resample_single_sample() {
        assert_eq!(resample(&[7.0], 4), vec![7.0; 4]);
        assert_eq!(resample(&[], 4), Vec::<f64>::new());
    }

    #[test]
    fn resample_into_matches_resample() {
        let v: Vec<f64> = (0..50).map(|i| (i as f64 * 0.4).sin()).collect();
        for target in [1usize, 2, 7, 50, 128] {
            let mut out = vec![0.0; target];
            resample_into(&v, &mut out);
            assert_eq!(out, resample(&v, target), "target {target}");
        }
        let mut single = vec![0.0; 4];
        resample_into(&[7.0], &mut single);
        assert_eq!(single, vec![7.0; 4]);
    }

    #[test]
    fn znormalize_in_place_matches_timeseries() {
        use crate::TimeSeries;
        let v = vec![10.0, 20.0, 30.0, 45.0, 5.0];
        let mut z = v.clone();
        znormalize_in_place(&mut z);
        assert_eq!(z, TimeSeries::new(v).znormalized().into_values());
        let mut flat = vec![3.0; 6];
        znormalize_in_place(&mut flat);
        assert_eq!(flat, vec![0.0; 6]);
        let mut empty: Vec<f64> = vec![];
        znormalize_in_place(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn saturating_cast_is_the_floor() {
        // what `resample_into` and `paa_into` rely on in place of `floor`
        for x in [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -0.5,
            -1e-12,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            126.999_999_999,
            1e19,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(x as usize, x.floor() as usize, "{x}");
        }
    }

    #[test]
    fn paa_into_matches_paa() {
        let v: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        for segments in [1usize, 3, 8, 100] {
            let mut out = vec![0.0; segments];
            paa_into(&v, &mut out);
            assert_eq!(out, paa(&v, segments), "segments {segments}");
        }
    }

    #[test]
    #[should_panic(expected = "segments <= input length")]
    fn paa_into_rejects_expansion() {
        let mut out = vec![0.0; 4];
        paa_into(&[1.0, 2.0], &mut out);
    }

    #[test]
    fn rotate_roundtrip() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(rotate_left(&v, 1), vec![2.0, 3.0, 4.0, 1.0]);
        assert_eq!(rotate_left(&v, 4), v);
        assert_eq!(rotate_left(&v, 5), rotate_left(&v, 1));
        assert_eq!(rotate_left(&[], 3), Vec::<f64>::new());
    }

    #[test]
    fn smoothing_flattens_spike() {
        let mut v = vec![0.0; 9];
        v[4] = 9.0;
        let s = smooth_moving_average(&v, 1);
        assert_eq!(s[4], 3.0);
        assert_eq!(s[3], 3.0);
        assert_eq!(s[0], 0.0);
    }

    #[test]
    fn smoothing_is_circular() {
        let v = vec![9.0, 0.0, 0.0, 0.0];
        let s = smooth_moving_average(&v, 1);
        // neighbours of index 0 wrap to index 3
        assert_eq!(s[0], 3.0);
        assert_eq!(s[3], 3.0);
    }

    #[test]
    fn smoothing_zero_width_identity() {
        let v = vec![1.0, 2.0];
        assert_eq!(smooth_moving_average(&v, 0), v);
    }
}
