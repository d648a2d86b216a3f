//! In-crate radix-2 FFT and circular cross-correlation.
//!
//! The rotation-invariant matching step needs the squared Euclidean distance
//! between `a` and every circular rotation of `b`:
//!
//! ```text
//! ‖a − rot(b, s)‖² = Σa² + Σb² − 2·ccorr(a, b)[s]
//! ```
//!
//! so all `n` rotation distances reduce to one circular cross-correlation.
//! For power-of-two lengths the correlation is computed in `O(n log n)` via
//! the correlation theorem (`CCORR = IFFT(conj(FFT(a)) ⊙ FFT(b))`); other
//! lengths fall back to a direct `O(n²)` accumulation that still performs no
//! heap allocation. Both paths write into caller-provided buffers so the
//! steady-state recognition loop stays allocation-free.

use std::f64::consts::PI;

/// Smallest power-of-two length for which the FFT path beats the direct
/// dot-product accumulation (below this the butterfly overhead dominates).
pub const FFT_MIN_LEN: usize = 64;

/// In-place iterative radix-2 Cooley–Tukey FFT over split real/imaginary
/// buffers. `invert` selects the inverse transform (including the `1/n`
/// scaling).
///
/// # Panics
/// Panics when the buffers differ in length or the length is not a power of
/// two.
pub fn fft_radix2(re: &mut [f64], im: &mut [f64], invert: bool) {
    let n = re.len();
    assert_eq!(n, im.len(), "re/im buffers must match");
    assert!(
        n.is_power_of_two(),
        "radix-2 FFT needs a power-of-two length"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }

    let sign = if invert { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let (w_re, w_im) = (ang.cos(), ang.sin());
        let half = len / 2;
        for start in (0..n).step_by(len) {
            let mut c_re = 1.0f64;
            let mut c_im = 0.0f64;
            for k in start..start + half {
                let (u_re, u_im) = (re[k], im[k]);
                let (t_re, t_im) = (re[k + half], im[k + half]);
                let v_re = t_re * c_re - t_im * c_im;
                let v_im = t_re * c_im + t_im * c_re;
                re[k] = u_re + v_re;
                im[k] = u_im + v_im;
                re[k + half] = u_re - v_re;
                im[k + half] = u_im - v_im;
                let n_re = c_re * w_re - c_im * w_im;
                c_im = c_re * w_im + c_im * w_re;
                c_re = n_re;
            }
        }
        len <<= 1;
    }

    if invert {
        let inv_n = 1.0 / n as f64;
        for v in re.iter_mut() {
            *v *= inv_n;
        }
        for v in im.iter_mut() {
            *v *= inv_n;
        }
    }
}

/// The forward transform of one real series, kept so that the series can
/// be correlated with many others without being transformed again
/// ([`circular_cross_correlation_of`]). It is empty for a length the
/// direct accumulation serves, which needs no transform.
#[derive(Debug, Default, Clone)]
pub struct Spectrum {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Spectrum {
    /// Empty spectrum; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the spectrum with the forward FFT of `a` when `a`'s
    /// correlations take the FFT path, and empties it otherwise.
    pub fn transform(&mut self, a: &[f64]) {
        self.re.clear();
        self.im.clear();
        if takes_fft_path(a.len()) {
            self.re.extend_from_slice(a);
            self.im.resize(a.len(), 0.0);
            fft_radix2(&mut self.re, &mut self.im, false);
        }
    }
}

/// Whether correlations of length `n` go through the FFT.
fn takes_fft_path(n: usize) -> bool {
    n.is_power_of_two() && n >= FFT_MIN_LEN
}

/// Reusable work buffers for [`circular_cross_correlation_into`] and
/// [`circular_cross_correlation_of`].
#[derive(Debug, Default, Clone)]
pub struct FftScratch {
    a: Spectrum,
    b: Spectrum,
    product: Spectrum,
}

impl FftScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Writes `ccorr(a, b)[s] = Σ_i a[i]·b[(i+s) mod n]` for every shift `s` into
/// `out`, choosing the FFT path for power-of-two lengths ≥ [`FFT_MIN_LEN`]
/// and a direct allocation-free accumulation otherwise.
///
/// # Panics
/// Panics when `a`, `b` and `out` differ in length.
pub fn circular_cross_correlation_into(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    scratch: &mut FftScratch,
) {
    let FftScratch {
        a: a_spec,
        b: b_spec,
        product,
    } = scratch;
    a_spec.transform(a);
    b_spec.transform(b);
    correlate(a, a_spec, b, b_spec, out, product);
}

/// [`circular_cross_correlation_into`] with the operands' spectra already
/// taken ([`Spectrum::transform`] of `a` and of `b`), so a series matched
/// against many others is transformed once. The result is bit-identical.
///
/// # Panics
/// Panics when `a`, `b` and `out` differ in length, or a spectrum is not
/// the transform of a series that long.
pub fn circular_cross_correlation_of(
    a: &[f64],
    a_spec: &Spectrum,
    b: &[f64],
    b_spec: &Spectrum,
    out: &mut [f64],
    scratch: &mut FftScratch,
) {
    correlate(a, a_spec, b, b_spec, out, &mut scratch.product);
}

fn correlate(
    a: &[f64],
    a_spec: &Spectrum,
    b: &[f64],
    b_spec: &Spectrum,
    out: &mut [f64],
    product: &mut Spectrum,
) {
    let n = a.len();
    assert_eq!(n, b.len(), "series lengths must match");
    assert_eq!(n, out.len(), "output length must match the series");
    if n == 0 {
        return;
    }
    if takes_fft_path(n) {
        assert!(
            a_spec.re.len() == n && b_spec.re.len() == n,
            "spectra must transform the correlated series"
        );
        // conj(A) ⊙ B, then back.
        product.re.clear();
        product.im.clear();
        for k in 0..n {
            let (ar, ai) = (a_spec.re[k], a_spec.im[k]);
            let (br, bi) = (b_spec.re[k], b_spec.im[k]);
            product.re.push(ar * br + ai * bi);
            product.im.push(ar * bi - ai * br);
        }
        fft_radix2(&mut product.re, &mut product.im, true);
        out.copy_from_slice(&product.re);
    } else {
        for (s, slot) in out.iter_mut().enumerate() {
            // rot(b, s) = b[s..] ++ b[..s]; accumulate a·rot(b, s) in two runs
            // so no index ever needs a modulo.
            let k = n - s;
            let mut acc = 0.0;
            for i in 0..k {
                acc += a[i] * b[s + i];
            }
            for i in k..n {
                acc += a[i] * b[i - k];
            }
            *slot = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ccorr_naive(a: &[f64], b: &[f64]) -> Vec<f64> {
        let n = a.len();
        (0..n)
            .map(|s| (0..n).map(|i| a[i] * b[(i + s) % n]).sum())
            .collect()
    }

    #[test]
    fn fft_roundtrip_recovers_input() {
        let src: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 0.37).sin() + 0.2 * i as f64)
            .collect();
        let mut re = src.clone();
        let mut im = vec![0.0; src.len()];
        fft_radix2(&mut re, &mut im, false);
        fft_radix2(&mut re, &mut im, true);
        for (x, y) in src.iter().zip(&re) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
        for y in &im {
            assert!(y.abs() < 1e-10);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        fft_radix2(&mut re, &mut im, false);
        for k in 0..8 {
            assert!((re[k] - 1.0).abs() < 1e-12);
            assert!(im[k].abs() < 1e-12);
        }
    }

    #[test]
    fn correlation_fft_path_matches_naive() {
        let n = 128; // power of two ≥ FFT_MIN_LEN → FFT path
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.33).cos() * 2.0).collect();
        let mut out = vec![0.0; n];
        let mut scratch = FftScratch::new();
        circular_cross_correlation_into(&a, &b, &mut out, &mut scratch);
        let expect = ccorr_naive(&a, &b);
        for (x, y) in out.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn correlation_direct_path_matches_naive() {
        let n = 37; // not a power of two → direct path
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).cos()).collect();
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 18.0).collect();
        let mut out = vec![0.0; n];
        let mut scratch = FftScratch::new();
        circular_cross_correlation_into(&a, &b, &mut out, &mut scratch);
        let expect = ccorr_naive(&a, &b);
        for (x, y) in out.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let a: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..64).map(|i| (i as f64).sqrt()).collect();
        let mut scratch = FftScratch::new();
        let mut first = vec![0.0; 64];
        circular_cross_correlation_into(&a, &b, &mut first, &mut scratch);
        let mut second = vec![0.0; 64];
        circular_cross_correlation_into(&a, &b, &mut second, &mut scratch);
        assert_eq!(first, second);
    }

    #[test]
    fn kept_spectra_correlate_bit_identically() {
        for n in [37, 64, 128] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.33).cos() * 2.0).collect();
            let mut scratch = FftScratch::new();
            let mut fresh = vec![0.0; n];
            circular_cross_correlation_into(&a, &b, &mut fresh, &mut scratch);
            let (mut a_spec, mut b_spec) = (Spectrum::new(), Spectrum::new());
            a_spec.transform(&a);
            b_spec.transform(&b);
            let mut kept = vec![0.0; n];
            circular_cross_correlation_of(&a, &a_spec, &b, &b_spec, &mut kept, &mut scratch);
            assert_eq!(
                kept.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "length {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "spectra must transform")]
    fn a_spectrum_of_another_length_is_refused() {
        let a = vec![1.0; 64];
        let mut short = Spectrum::new();
        short.transform(&[1.0; 128]);
        let mut out = vec![0.0; 64];
        circular_cross_correlation_of(&a, &short, &a, &short, &mut out, &mut FftScratch::new());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn fft_rejects_non_power_of_two() {
        let mut re = vec![0.0; 6];
        let mut im = vec![0.0; 6];
        fft_radix2(&mut re, &mut im, false);
    }
}
