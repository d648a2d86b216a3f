//! Binarisation.

use crate::image::{Bitmap, GrayImage};

/// Binarises with a fixed threshold: pixels **strictly above** `t` become
/// foreground.
///
/// Routes through [`binarize_into`] so the allocating convenience form and
/// the steady-state form can never drift apart.
///
/// # Example
/// ```
/// use hdc_raster::{GrayImage, threshold::binarize};
/// let mut img = GrayImage::new(2, 1);
/// img.set(0, 0, 200);
/// let b = binarize(&img, 128);
/// assert_eq!(b.get(0, 0), Some(true));
/// assert_eq!(b.get(1, 0), Some(false));
/// ```
pub fn binarize(img: &GrayImage, t: u8) -> Bitmap {
    let mut out = Bitmap::new(img.width(), img.height());
    binarize_into(img, t, &mut out);
    out
}

/// [`binarize`] into a caller-provided mask (re-dimensioned to match, every
/// pixel overwritten); the allocation-free form used by the steady-state
/// frame loop.
pub fn binarize_into(img: &GrayImage, t: u8, out: &mut Bitmap) {
    out.reset_dimensions(img.width(), img.height());
    for (dst, src) in out.pixels_mut().iter_mut().zip(img.pixels()) {
        *dst = *src > t;
    }
}

/// [`binarize`] into a byte-per-pixel 0/1 image: the front half of the
/// hybrid binarise-then-pack path. The straight byte compare is the form
/// the compiler vectorises best — one SIMD compare per register of pixels —
/// and the 0/1 `u8` output (unlike `bool`) can be reloaded eight lanes at a
/// time by [`crate::BitMask::pack_from_bytes`] with plain word loads.
pub fn binarize_bytes_into(img: &GrayImage, t: u8, out: &mut GrayImage) {
    out.reset_dimensions(img.width(), img.height());
    for (dst, src) in out.pixels_mut().iter_mut().zip(img.pixels()) {
        *dst = u8::from(*src > t);
    }
}

/// Band-restricted [`binarize_bytes_into`]: re-thresholds only rows
/// `[row_lo, row_hi)` into the matching rows of a cached 0/1 byte image,
/// leaving every other row untouched. Unlike the whole-frame form this
/// never re-dimensions `out`; the caller's cache must already match the
/// frame geometry.
///
/// # Panics
/// Panics if `out` and `img` differ in dimensions or the band is reversed
/// or out of bounds.
pub fn binarize_bytes_band_into(
    img: &GrayImage,
    t: u8,
    out: &mut GrayImage,
    row_lo: u32,
    row_hi: u32,
) {
    assert!(
        out.width() == img.width() && out.height() == img.height(),
        "band binarise requires a cached image matching the frame: {}x{} vs {}x{}",
        out.width(),
        out.height(),
        img.width(),
        img.height()
    );
    assert!(
        row_lo <= row_hi && row_hi <= img.height(),
        "band [{row_lo}, {row_hi}) must lie inside height {}",
        img.height()
    );
    let w = img.width() as usize;
    let (lo, hi) = (row_lo as usize * w, row_hi as usize * w);
    for (dst, src) in out.pixels_mut()[lo..hi]
        .iter_mut()
        .zip(&img.pixels()[lo..hi])
    {
        *dst = u8::from(*src > t);
    }
}

/// Computes Otsu's optimal global threshold from the image histogram.
///
/// Returns the threshold value `t` such that [`binarize`]`(img, t)` separates
/// the two intensity classes with maximal between-class variance. For a
/// constant image every threshold is equivalent; `0` is returned.
pub fn otsu_threshold(img: &GrayImage) -> u8 {
    let hist = img.histogram();
    let total = img.pixel_count() as f64;
    let sum_all: f64 = hist
        .iter()
        .enumerate()
        .map(|(i, c)| i as f64 * *c as f64)
        .sum();

    let mut sum_bg = 0.0;
    let mut weight_bg = 0.0;
    let mut best_t = 0u8;
    let mut best_var = -1.0;

    for (t, count) in hist.iter().enumerate() {
        weight_bg += *count as f64;
        if weight_bg == 0.0 {
            continue;
        }
        let weight_fg = total - weight_bg;
        if weight_fg == 0.0 {
            break;
        }
        sum_bg += t as f64 * *count as f64;
        let mean_bg = sum_bg / weight_bg;
        let mean_fg = (sum_all - sum_bg) / weight_fg;
        let between = weight_bg * weight_fg * (mean_bg - mean_fg).powi(2);
        if between > best_var {
            best_var = between;
            best_t = t as u8;
        }
    }
    best_t
}

/// Convenience: Otsu threshold + binarise in one call.
pub fn binarize_otsu(img: &GrayImage) -> Bitmap {
    binarize(img, otsu_threshold(img))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    #[test]
    fn fixed_threshold_is_strict() {
        let mut img = GrayImage::new(3, 1);
        img.set(0, 0, 127);
        img.set(1, 0, 128);
        img.set(2, 0, 129);
        let b = binarize(&img, 128);
        assert_eq!(b.get(0, 0), Some(false));
        assert_eq!(b.get(1, 0), Some(false));
        assert_eq!(b.get(2, 0), Some(true));
    }

    #[test]
    fn bytes_form_matches_bool_form() {
        let mut img = GrayImage::new(130, 3);
        for (i, p) in img.pixels_mut().iter_mut().enumerate() {
            *p = (i * 37 % 256) as u8;
        }
        for t in [0u8, 127, 128, 200, 255] {
            let bools = binarize(&img, t);
            let mut bytes = GrayImage::new(1, 1);
            binarize_bytes_into(&img, t, &mut bytes);
            for (a, b) in bools.pixels().iter().zip(bytes.pixels()) {
                assert_eq!(u8::from(*a), *b, "threshold {t}");
            }
        }
    }

    #[test]
    fn band_binarise_patches_only_the_band() {
        let mut a = GrayImage::new(70, 9);
        let mut b = GrayImage::new(70, 9);
        for (i, p) in a.pixels_mut().iter_mut().enumerate() {
            *p = (i * 31 % 256) as u8;
        }
        for (i, p) in b.pixels_mut().iter_mut().enumerate() {
            *p = (i * 53 % 256) as u8;
        }
        // Cache holds the binarisation of `a`; patch rows [3, 6) from `b`.
        let mut bytes = GrayImage::new(1, 1);
        binarize_bytes_into(&a, 128, &mut bytes);
        binarize_bytes_band_into(&b, 128, &mut bytes, 3, 6);
        let oracle_a = binarize(&a, 128);
        let oracle_b = binarize(&b, 128);
        for y in 0..9u32 {
            let oracle = if (3..6).contains(&y) {
                &oracle_b
            } else {
                &oracle_a
            };
            for x in 0..70u32 {
                assert_eq!(
                    bytes.get(x, y).map(|v| v != 0),
                    oracle.get(x, y),
                    "pixel ({x},{y})"
                );
            }
        }
        // Empty band is a no-op.
        let before = bytes.clone();
        binarize_bytes_band_into(&a, 128, &mut bytes, 4, 4);
        assert_eq!(bytes, before);
    }

    #[test]
    #[should_panic(expected = "matching the frame")]
    fn band_binarise_rejects_mismatched_dims() {
        let img = GrayImage::new(8, 8);
        let mut out = GrayImage::new(8, 9);
        binarize_bytes_band_into(&img, 100, &mut out, 0, 1);
    }

    #[test]
    fn otsu_separates_bimodal() {
        let mut img = GrayImage::new(10, 10);
        for (i, p) in img.pixels_mut().iter_mut().enumerate() {
            *p = if i < 50 { 30 } else { 220 };
        }
        let t = otsu_threshold(&img);
        assert!(
            (30..220).contains(&t),
            "otsu threshold {t} should split the modes"
        );
        let b = binarize(&img, t);
        assert_eq!(b.count_foreground(), 50);
    }

    #[test]
    fn otsu_constant_image() {
        let img: GrayImage = Image::filled(4, 4, 77);
        // no second class exists; must not panic
        let _ = otsu_threshold(&img);
    }

    #[test]
    fn binarize_otsu_silhouette() {
        let mut img = GrayImage::new(8, 8);
        img.set(3, 3, 255);
        img.set(4, 3, 255);
        let b = binarize_otsu(&img);
        assert_eq!(b.count_foreground(), 2);
    }
}
