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
//!
//! The FFT reads its twiddle factors from a table built once per length
//! and shared by every thread, so a transform makes no `cos`/`sin` call
//! and runs no serial twiddle recurrence.

use std::f64::consts::PI;
use std::sync::OnceLock;

/// Smallest power-of-two length for which the FFT path beats the direct
/// dot-product accumulation (below this the butterfly overhead dominates).
pub const FFT_MIN_LEN: usize = 64;

/// Everything a length-`n` transform needs besides its data: the bit-reversal
/// swaps and every butterfly stage's forward twiddles, stage after stage.
/// The stage that joins halves of length `h` reads `e^{-iπk/h}` for `k < h`
/// from `re[h - 1..2h - 1]` and `im[h - 1..2h - 1]`, so one length-`n`
/// table holds `n - 1` twiddles (2 KiB at `n = 128`). The entries of the
/// first two stages are read only at `n = 2` (see [`butterflies`]).
struct Twiddles {
    swaps: Box<[(u32, u32)]>,
    re: Box<[f64]>,
    im: Box<[f64]>,
}

impl Twiddles {
    fn new(n: usize) -> Self {
        let bits = n.trailing_zeros();
        let swaps = (0..n as u32)
            .filter_map(|i| {
                let j = i.reverse_bits() >> (u32::BITS - bits);
                (i < j).then_some((i, j))
            })
            .collect();
        let (mut re, mut im) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut h = 1;
        while h < n {
            for k in 0..h {
                let (sin, cos) = (-PI * k as f64 / h as f64).sin_cos();
                re.push(cos);
                im.push(sin);
            }
            h *= 2;
        }
        Twiddles {
            swaps,
            re: re.into(),
            im: im.into(),
        }
    }

    /// The table for length `n` (a power of two ≥ 2), built on first use.
    fn of(n: usize) -> &'static Twiddles {
        static TABLES: [OnceLock<Twiddles>; usize::BITS as usize] =
            [const { OnceLock::new() }; usize::BITS as usize];
        TABLES[n.trailing_zeros() as usize].get_or_init(|| Twiddles::new(n))
    }
}

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
    let table = Twiddles::of(n);
    for &(i, j) in table.swaps.iter() {
        re.swap(i as usize, j as usize);
        im.swap(i as usize, j as usize);
    }
    if invert {
        butterflies::<true>(re, im, table);
        let inv_n = 1.0 / n as f64;
        for v in re.iter_mut() {
            *v *= inv_n;
        }
        for v in im.iter_mut() {
            *v *= inv_n;
        }
    } else {
        butterflies::<false>(re, im, table);
    }
}

/// Every butterfly stage over bit-reversed data. The inverse transform uses
/// the conjugate twiddles. The first two stages run as one pass over blocks
/// of four, whose twiddles are 1 and ∓i and need no multiply; every later
/// stage splits each block into its two halves, so the inner loop zips
/// equal-length slices and indexes nothing.
fn butterflies<const INVERT: bool>(re: &mut [f64], im: &mut [f64], table: &Twiddles) {
    let n = re.len();
    let mut h = 1;
    if n >= 4 {
        for (re, im) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            let (a_re, a_im) = (re[0] + re[1], im[0] + im[1]);
            let (b_re, b_im) = (re[0] - re[1], im[0] - im[1]);
            let (c_re, c_im) = (re[2] + re[3], im[2] + im[3]);
            let (d_re, d_im) = (re[2] - re[3], im[2] - im[3]);
            // d times the h = 2 stage's second twiddle: −i forward, +i inverse
            let (e_re, e_im) = if INVERT { (-d_im, d_re) } else { (d_im, -d_re) };
            (re[0], im[0]) = (a_re + c_re, a_im + c_im);
            (re[1], im[1]) = (b_re + e_re, b_im + e_im);
            (re[2], im[2]) = (a_re - c_re, a_im - c_im);
            (re[3], im[3]) = (b_re - e_re, b_im - e_im);
        }
        h = 4;
    }
    while h < n {
        let w_re = &table.re[h - 1..2 * h - 1];
        let w_im = &table.im[h - 1..2 * h - 1];
        for (re, im) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
            let (u_re, t_re) = re.split_at_mut(h);
            let (u_im, t_im) = im.split_at_mut(h);
            let pairs = u_re.iter_mut().zip(u_im.iter_mut());
            let twins = t_re.iter_mut().zip(t_im.iter_mut());
            for (((u_re, u_im), (t_re, t_im)), (&c_re, &c_im)) in
                pairs.zip(twins).zip(w_re.iter().zip(w_im))
            {
                let c_im = if INVERT { -c_im } else { c_im };
                let v_re = *t_re * c_re - *t_im * c_im;
                let v_im = *t_re * c_im + *t_im * c_re;
                *t_re = *u_re - v_re;
                *t_im = *u_im - v_im;
                *u_re += v_re;
                *u_im += v_im;
            }
        }
        h *= 2;
    }
}

/// The forward transform of one real series, kept so that the series can
/// be correlated with many others without being transformed again
/// ([`circular_cross_correlation_of`]), and the series' energy Σx². The
/// transform is empty for a length the direct accumulation serves, which
/// needs none.
#[derive(Debug, Default, Clone)]
pub struct Spectrum {
    re: Vec<f64>,
    im: Vec<f64>,
    energy: f64,
}

impl Spectrum {
    /// Empty spectrum; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the spectrum with the forward FFT of `a` when `a`'s
    /// correlations take the FFT path, and empties it otherwise; records
    /// `a`'s energy either way.
    pub fn transform(&mut self, a: &[f64]) {
        self.energy = a.iter().map(|x| x * x).sum();
        self.re.clear();
        self.im.clear();
        if takes_fft_path(a.len()) {
            self.re.extend_from_slice(a);
            self.im.resize(a.len(), 0.0);
            fft_radix2(&mut self.re, &mut self.im, false);
        }
    }

    /// Σx² of the last transformed series, summed left to right.
    pub(crate) fn energy(&self) -> f64 {
        self.energy
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

    /// The energies of the two series last correlated by
    /// [`circular_cross_correlation_into`].
    pub(crate) fn energies(&self) -> (f64, f64) {
        (self.a.energy, self.b.energy)
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
        let a_bins = a_spec.re.iter().zip(&a_spec.im);
        let b_bins = b_spec.re.iter().zip(&b_spec.im);
        for ((&ar, &ai), (&br, &bi)) in a_bins.zip(b_bins) {
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

    /// The defining sum of the DFT (inverse: conjugate twiddles and `1/n`),
    /// with each twiddle angle reduced mod `n` before the `sin_cos`.
    fn dft(re: &[f64], im: &[f64], invert: bool) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let sign = if invert { 1.0 } else { -1.0 };
        let scale = if invert { 1.0 / n as f64 } else { 1.0 };
        (0..n)
            .map(|k| {
                let (mut acc_re, mut acc_im) = (0.0, 0.0);
                for j in 0..n {
                    let ang = sign * 2.0 * PI * ((j * k) % n) as f64 / n as f64;
                    let (sin, cos) = ang.sin_cos();
                    acc_re += re[j] * cos - im[j] * sin;
                    acc_im += re[j] * sin + im[j] * cos;
                }
                (acc_re * scale, acc_im * scale)
            })
            .unzip()
    }

    #[test]
    fn fft_matches_naive_dft_at_every_length() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut n = 2;
        while n <= 1024 {
            let re: Vec<f64> = (0..n).map(|_| unit()).collect();
            let im: Vec<f64> = (0..n).map(|_| unit()).collect();
            for invert in [false, true] {
                let (want_re, want_im) = dft(&re, &im, invert);
                let (mut got_re, mut got_im) = (re.clone(), im.clone());
                fft_radix2(&mut got_re, &mut got_im, invert);
                let tol = 1e-12 * n as f64;
                for k in 0..n {
                    let err = (got_re[k] - want_re[k])
                        .abs()
                        .max((got_im[k] - want_im[k]).abs());
                    assert!(err <= tol, "n={n} invert={invert} bin {k}: error {err}");
                }
            }
            n *= 2;
        }
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
