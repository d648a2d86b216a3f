//! The time-series container and summary statistics.

use std::fmt;

/// A univariate time series with `f64` samples.
///
/// In this workspace the "time" axis is usually arc position along a
/// silhouette contour and the value is distance to the shape centroid — the
/// shape-to-series conversion of the paper's SAX pipeline.
///
/// # Example
/// ```
/// use hdc_timeseries::TimeSeries;
/// let ts = TimeSeries::new(vec![1.0, 3.0]);
/// assert_eq!(ts.mean(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Wraps raw samples.
    pub fn new(values: Vec<f64>) -> Self {
        TimeSeries { values }
    }

    /// Borrow the samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series, returning the samples.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation (0 for an empty series).
    pub fn std_dev(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.values.len() as f64;
        var.sqrt()
    }

    /// Minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Z-normalised copy: zero mean, unit variance.
    ///
    /// A constant (zero-variance) series z-normalises to all zeros, matching
    /// the usual SAX convention for flat subsequences.
    pub fn znormalized(&self) -> TimeSeries {
        let mean = self.mean();
        let sd = self.std_dev();
        if sd < 1e-12 {
            return TimeSeries::new(vec![0.0; self.values.len()]);
        }
        TimeSeries::new(self.values.iter().map(|v| (v - mean) / sd).collect())
    }

    /// Whether every sample is finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

impl FromIterator<f64> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        TimeSeries::new(iter.into_iter().collect())
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(values: Vec<f64>) -> Self {
        TimeSeries::new(values)
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TimeSeries(n={}, mean={:.3}, sd={:.3})",
            self.len(),
            self.mean(),
            self.std_dev()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let ts = TimeSeries::new(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(ts.mean(), 5.0);
        assert!((ts.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(ts.min(), Some(2.0));
        assert_eq!(ts.max(), Some(9.0));
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::default();
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.std_dev(), 0.0);
        assert_eq!(ts.min(), None);
        assert_eq!(ts.max(), None);
        assert_eq!(ts.znormalized().len(), 0);
    }

    #[test]
    fn znorm_standardises() {
        let ts = TimeSeries::new(vec![10.0, 20.0, 30.0, 40.0]);
        let z = ts.znormalized();
        assert!(z.mean().abs() < 1e-12);
        assert!((z.std_dev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znorm_constant_is_zero() {
        let ts = TimeSeries::new(vec![5.0; 10]);
        let z = ts.znormalized();
        assert!(z.values().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn constructors() {
        let a: TimeSeries = vec![1.0, 2.0].into();
        let b: TimeSeries = [1.0, 2.0].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.into_values(), vec![1.0, 2.0]);
    }

    #[test]
    fn display_summarises() {
        let ts = TimeSeries::new(vec![1.0, 1.0]);
        assert_eq!(format!("{ts}"), "TimeSeries(n=2, mean=1.000, sd=0.000)");
    }
}
