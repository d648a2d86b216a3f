//! The SAX encoder: z-normalise → PAA → symbolise.

use crate::breakpoints::{breakpoints, symbol_for, MAX_ALPHABET, MIN_ALPHABET};
use crate::word::SaxWord;
use hdc_timeseries::{paa, TimeSeries};
use std::fmt;

/// Validated SAX parameters: word length (PAA segments) and alphabet size.
///
/// These are exactly the two knobs the paper's ref \[22\] tunes ("tuning of the
/// piecewise aggregation and alphabet size").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaxParams {
    segments: usize,
    alphabet: u8,
}

/// Error building [`SaxParams`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxParamsError {
    /// Word length must be at least 1.
    ZeroSegments,
    /// Alphabet size outside the supported range.
    AlphabetOutOfRange(u8),
}

impl fmt::Display for SaxParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaxParamsError::ZeroSegments => write!(f, "SAX word length must be at least 1"),
            SaxParamsError::AlphabetOutOfRange(a) => write!(
                f,
                "alphabet size {a} outside [{MIN_ALPHABET}, {MAX_ALPHABET}]"
            ),
        }
    }
}

impl std::error::Error for SaxParamsError {}

impl SaxParams {
    /// Validates and creates parameters.
    ///
    /// # Errors
    /// See [`SaxParamsError`].
    pub fn new(segments: usize, alphabet: u8) -> Result<Self, SaxParamsError> {
        if segments == 0 {
            return Err(SaxParamsError::ZeroSegments);
        }
        if !(MIN_ALPHABET..=MAX_ALPHABET).contains(&alphabet) {
            return Err(SaxParamsError::AlphabetOutOfRange(alphabet));
        }
        Ok(SaxParams { segments, alphabet })
    }

    /// Word length (number of PAA segments).
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Alphabet size.
    pub fn alphabet(&self) -> u8 {
        self.alphabet
    }
}

impl Default for SaxParams {
    /// The defaults used throughout the reproduction: 16 segments over a
    /// 4-letter alphabet — small enough for string matching to be cheap, big
    /// enough to keep the three marshalling signs well separated (see the
    /// tuning experiment E10).
    fn default() -> Self {
        SaxParams {
            segments: 16,
            alphabet: 4,
        }
    }
}

impl fmt::Display for SaxParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SAX(w={}, a={})", self.segments, self.alphabet)
    }
}

/// Encodes numeric series into [`SaxWord`]s under fixed parameters.
///
/// # Example
/// ```
/// use hdc_sax::{SaxEncoder, SaxParams};
/// let enc = SaxEncoder::new(SaxParams::new(4, 3).unwrap());
/// let w = enc.encode(&[0.0, 0.0, 10.0, 10.0]);
/// assert_eq!(w.to_string(), "aacc");
/// ```
#[derive(Debug, Clone)]
pub struct SaxEncoder {
    params: SaxParams,
    bps: Vec<f64>,
}

impl SaxEncoder {
    /// Creates an encoder, precomputing the Gaussian breakpoints.
    pub fn new(params: SaxParams) -> Self {
        SaxEncoder {
            params,
            bps: breakpoints(params.alphabet),
        }
    }

    /// The encoder's parameters.
    pub fn params(&self) -> SaxParams {
        self.params
    }

    /// Encodes a raw series: z-normalise, PAA to the word length, symbolise.
    ///
    /// An empty input produces the all-`a` word of the configured length
    /// (matching the z-normalisation convention that flat/absent data maps to
    /// zeros — which symbolise to the interval containing 0).
    pub fn encode(&self, series: &[f64]) -> SaxWord {
        let z = TimeSeries::new(series.to_vec()).znormalized();
        let reduced = if z.is_empty() {
            vec![0.0; self.params.segments]
        } else {
            let mut r = paa(z.values(), self.params.segments);
            // When the series is shorter than the word, stretch by resampling.
            if r.len() < self.params.segments {
                r = hdc_timeseries::resample(&r, self.params.segments);
            }
            r
        };
        let symbols = reduced.iter().map(|v| symbol_for(*v, &self.bps)).collect();
        SaxWord::new(symbols, self.params.alphabet).expect("encoder produces valid symbols")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validate() {
        assert!(SaxParams::new(8, 4).is_ok());
        assert_eq!(SaxParams::new(0, 4), Err(SaxParamsError::ZeroSegments));
        assert_eq!(
            SaxParams::new(8, 1),
            Err(SaxParamsError::AlphabetOutOfRange(1))
        );
        assert_eq!(
            SaxParams::new(8, 27),
            Err(SaxParamsError::AlphabetOutOfRange(27))
        );
        assert_eq!(SaxParams::default().segments(), 16);
    }

    #[test]
    fn ramp_encodes_monotonically() {
        let enc = SaxEncoder::new(SaxParams::new(8, 4).unwrap());
        let series: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let w = enc.encode(&series);
        let s = w.symbols();
        for win in s.windows(2) {
            assert!(win[0] <= win[1], "ramp must be non-decreasing: {w}");
        }
        assert_eq!(s[0], 0);
        assert_eq!(s[7], 3);
    }

    #[test]
    fn square_wave_uses_extremes() {
        let enc = SaxEncoder::new(SaxParams::new(4, 3).unwrap());
        let w = enc.encode(&[0.0, 0.0, 10.0, 10.0]);
        assert_eq!(w.to_string(), "aacc");
    }

    #[test]
    fn constant_series_is_mid_alphabet() {
        let enc = SaxEncoder::new(SaxParams::new(4, 4).unwrap());
        let w = enc.encode(&[5.0; 32]);
        // znorm(constant) = 0, symbol_for(0) with even alphabet = upper-middle
        assert_eq!(w.to_string(), "cccc");
    }

    #[test]
    fn short_series_stretches() {
        let enc = SaxEncoder::new(SaxParams::new(8, 3).unwrap());
        let w = enc.encode(&[0.0, 1.0]);
        assert_eq!(w.len(), 8);
    }

    #[test]
    fn empty_series_is_flat_word() {
        let enc = SaxEncoder::new(SaxParams::new(5, 4).unwrap());
        let w = enc.encode(&[]);
        assert_eq!(w.len(), 5);
        assert_eq!(w.to_string(), "ccccc");
    }

    #[test]
    fn scaling_invariance() {
        // z-normalisation makes encoding invariant to offset and scale
        let enc = SaxEncoder::new(SaxParams::new(8, 5).unwrap());
        let base: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.4).sin()).collect();
        let scaled: Vec<f64> = base.iter().map(|v| v * 37.0 + 120.0).collect();
        assert_eq!(enc.encode(&base), enc.encode(&scaled));
    }

    #[test]
    fn display() {
        assert_eq!(SaxParams::default().to_string(), "SAX(w=16, a=4)");
    }
}
