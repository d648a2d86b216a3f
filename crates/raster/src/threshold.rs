//! Binarisation.

use crate::bitmask::{pack_unit_word, BitMask, WORD_BITS};
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

/// [`binarize`] straight into a bit-packed mask (re-dimensioned to match,
/// every word overwritten): the segmentation kernel of the hybrid path.
/// Each 64-pixel chunk of a row is compared into a stack buffer of 0/1
/// bytes — the straight byte compare the compiler vectorises — and that
/// buffer is gathered into one mask word, so the frame is read once and no
/// byte plane is written. A row's ragged tail goes through the same gather
/// with its missing pixels left at 0, which keeps the tail invariant.
pub fn binarize_packed_into(img: &GrayImage, t: u8, out: &mut BitMask) {
    out.reset_dimensions(img.width(), img.height());
    let w = img.width() as usize;
    let wpr = out.words_per_row();
    for (dst_row, src_row) in out
        .words_mut()
        .chunks_exact_mut(wpr)
        .zip(img.pixels().chunks_exact(w))
    {
        let mut full = src_row.chunks_exact(WORD_BITS);
        for (word, chunk) in dst_row.iter_mut().zip(full.by_ref()) {
            *word = pack_unit_word(&above(chunk, t));
        }
        let tail = full.remainder();
        if !tail.is_empty() {
            dst_row[wpr - 1] = pack_unit_word(&above(tail, t));
        }
    }
}

/// One chunk of up to 64 pixels compared against `t` into 0/1 bytes;
/// lanes past the chunk stay 0.
#[inline]
fn above(chunk: &[u8], t: u8) -> [u8; WORD_BITS] {
    let mut unit = [0u8; WORD_BITS];
    for (u, &p) in unit.iter_mut().zip(chunk) {
        *u = u8::from(p > t);
    }
    unit
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn packed_form_matches_bool_form() {
        for w in [1u32, 63, 64, 65, 640] {
            let mut img = GrayImage::new(w, 3);
            for (i, p) in img.pixels_mut().iter_mut().enumerate() {
                *p = (i * 37 % 256) as u8;
            }
            // the extremes of the strict compare sit on the row edges
            img.set(0, 0, 0);
            img.set(w - 1, 1, 255);
            img.set(w - 1, 2, 128);
            for t in [0u8, 127, 128, 254, 255] {
                let mut packed = BitMask::new(1, 1);
                binarize_packed_into(&img, t, &mut packed);
                assert_eq!(
                    packed,
                    BitMask::from_bitmap(&binarize(&img, t)),
                    "{w} px, t {t}"
                );
            }
        }
    }
}
