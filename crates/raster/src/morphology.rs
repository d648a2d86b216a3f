//! Binary morphology with a 3×3 square structuring element.
//!
//! Two families share one contract: the byte-per-pixel kernels on
//! [`Bitmap`] (the original implementation, retained as the oracle) and
//! the word-parallel kernels on [`BitMask`] (`*_packed*`), which exploit
//! that a 3×3 box erosion/dilation is separable into a vertical 1×3 pass
//! (plain word AND/OR of three rows) and a horizontal 3×1 pass (shift by
//! one bit with the neighbouring word supplying the carried-over edge
//! bit). 64 pixels move per instruction instead of one.

use crate::bitmask::BitMask;
use crate::image::Bitmap;

fn neighbourhood_all(mask: &Bitmap, x: i64, y: i64) -> bool {
    for dy in -1..=1 {
        for dx in -1..=1 {
            if !mask.get_padded(x + dx, y + dy) {
                return false;
            }
        }
    }
    true
}

fn neighbourhood_any(mask: &Bitmap, x: i64, y: i64) -> bool {
    for dy in -1..=1 {
        for dx in -1..=1 {
            if mask.get_padded(x + dx, y + dy) {
                return true;
            }
        }
    }
    false
}

/// Erosion: a pixel survives only if its whole 3×3 neighbourhood is foreground.
///
/// Outside-image pixels count as background, so blobs touching the border erode
/// there too.
pub fn erode(mask: &Bitmap) -> Bitmap {
    let mut out = Bitmap::new(mask.width(), mask.height());
    erode_into(mask, &mut out);
    out
}

/// [`erode`] into a caller-provided mask (re-dimensioned to match, every
/// pixel overwritten); the allocation-free form used by the steady-state
/// frame loop. The inner loop works on three row slices at a time instead of
/// bounds-checked per-neighbour reads.
pub fn erode_into(mask: &Bitmap, out: &mut Bitmap) {
    let w = mask.width() as usize;
    let h = mask.height() as usize;
    out.reset_dimensions(mask.width(), mask.height());
    let src = mask.pixels();
    let dst = out.pixels_mut();
    // Border pixels always erode away (outside counts as background).
    if w <= 2 || h <= 2 {
        dst.fill(false);
        return;
    }
    dst[..w].fill(false);
    dst[(h - 1) * w..].fill(false);
    for y in 1..h - 1 {
        let up = &src[(y - 1) * w..y * w];
        let mid = &src[y * w..(y + 1) * w];
        let down = &src[(y + 1) * w..(y + 2) * w];
        let row = &mut dst[y * w..(y + 1) * w];
        row[0] = false;
        row[w - 1] = false;
        for x in 1..w - 1 {
            row[x] = up[x - 1]
                && up[x]
                && up[x + 1]
                && mid[x - 1]
                && mid[x]
                && mid[x + 1]
                && down[x - 1]
                && down[x]
                && down[x + 1];
        }
    }
}

/// Dilation: a pixel becomes foreground if any 3×3 neighbour is foreground.
pub fn dilate(mask: &Bitmap) -> Bitmap {
    let mut out = Bitmap::new(mask.width(), mask.height());
    dilate_into(mask, &mut out);
    out
}

/// [`dilate`] into a caller-provided mask (re-dimensioned to match, every
/// pixel overwritten); the allocation-free form used by the steady-state
/// frame loop.
pub fn dilate_into(mask: &Bitmap, out: &mut Bitmap) {
    let w = mask.width() as usize;
    let h = mask.height() as usize;
    out.reset_dimensions(mask.width(), mask.height());
    let src = mask.pixels();
    let dst = out.pixels_mut();
    for y in 0..h {
        let y_lo = y.saturating_sub(1);
        let y_hi = (y + 2).min(h);
        let row = &mut dst[y * w..(y + 1) * w];
        for (x, slot) in row.iter_mut().enumerate() {
            let x_lo = x.saturating_sub(1);
            let x_hi = (x + 2).min(w);
            let mut any = false;
            for ny in y_lo..y_hi {
                let window = &src[ny * w + x_lo..ny * w + x_hi];
                if window.iter().any(|p| *p) {
                    any = true;
                    break;
                }
            }
            *slot = any;
        }
    }
}

/// Opening (erode then dilate): removes speckle smaller than the kernel.
pub fn open(mask: &Bitmap) -> Bitmap {
    dilate(&erode(mask))
}

/// [`open`] through caller-provided intermediate and output masks; the
/// allocation-free form used by the steady-state frame loop.
pub fn open_into(mask: &Bitmap, eroded: &mut Bitmap, out: &mut Bitmap) {
    erode_into(mask, eroded);
    dilate_into(eroded, out);
}

/// Closing (dilate then erode): fills pinholes smaller than the kernel.
pub fn close(mask: &Bitmap) -> Bitmap {
    let mut dilated = Bitmap::new(mask.width(), mask.height());
    let mut out = Bitmap::new(mask.width(), mask.height());
    close_into(mask, &mut dilated, &mut out);
    out
}

/// [`close`] through caller-provided intermediate and output masks; the
/// allocation-free form (mirrors [`open_into`], so the convenience wrapper
/// and the steady-state form cannot drift).
pub fn close_into(mask: &Bitmap, dilated: &mut Bitmap, out: &mut Bitmap) {
    dilate_into(mask, dilated);
    erode_into(dilated, out);
}

/// [`erode`] on a bit-packed mask: vertical 1×3 AND of the three
/// neighbouring rows into `out`, then a horizontal 3×1 AND in place, with
/// word shifts carrying the edge bit across word boundaries. Outside-image
/// pixels count as background (zeros shift in at every edge), exactly like
/// the byte kernel.
pub fn erode_packed_into(mask: &BitMask, out: &mut BitMask) {
    vertical_pass(mask, out, false);
    let wpr = out.words_per_row();
    for row in out.words_mut().chunks_exact_mut(wpr) {
        horizontal_erode_row(row);
    }
}

/// [`erode_packed_into`] into a fresh mask.
pub fn erode_packed(mask: &BitMask) -> BitMask {
    let mut out = BitMask::new(mask.width(), mask.height());
    erode_packed_into(mask, &mut out);
    out
}

/// [`dilate`] on a bit-packed mask (shift-OR form of
/// [`erode_packed_into`]); the horizontal pass re-clears each row's tail
/// bits so the [`BitMask`] tail invariant survives the left-shift.
pub fn dilate_packed_into(mask: &BitMask, out: &mut BitMask) {
    vertical_pass(mask, out, true);
    let wpr = out.words_per_row();
    let tail = out.tail_mask();
    for row in out.words_mut().chunks_exact_mut(wpr) {
        horizontal_dilate_row(row);
        row[wpr - 1] &= tail;
    }
}

/// [`dilate_packed_into`] into a fresh mask.
pub fn dilate_packed(mask: &BitMask) -> BitMask {
    let mut out = BitMask::new(mask.width(), mask.height());
    dilate_packed_into(mask, &mut out);
    out
}

/// [`open`] on a bit-packed mask through caller-provided buffers.
pub fn open_packed_into(mask: &BitMask, eroded: &mut BitMask, out: &mut BitMask) {
    erode_packed_into(mask, eroded);
    dilate_packed_into(eroded, out);
}

/// [`close`] on a bit-packed mask through caller-provided buffers.
pub fn close_packed_into(mask: &BitMask, dilated: &mut BitMask, out: &mut BitMask) {
    dilate_packed_into(mask, dilated);
    erode_packed_into(dilated, out);
}

/// The vertical 1×3 pass: each output word combines the word above, the
/// word itself and the word below (`union = true` ORs for dilation,
/// `false` ANDs for erosion). Rows outside the image contribute zero
/// words, which is exactly the background padding convention.
fn vertical_pass(mask: &BitMask, out: &mut BitMask, union: bool) {
    out.reset_dimensions(mask.width(), mask.height());
    let wpr = mask.words_per_row();
    let h = mask.height() as usize;
    let src = mask.words();
    let dst = out.words_mut();
    for y in 0..h {
        let mid = &src[y * wpr..(y + 1) * wpr];
        let row = &mut dst[y * wpr..(y + 1) * wpr];
        for (j, slot) in row.iter_mut().enumerate() {
            let up = if y > 0 { src[(y - 1) * wpr + j] } else { 0 };
            let down = if y + 1 < h { src[(y + 1) * wpr + j] } else { 0 };
            *slot = if union {
                up | mid[j] | down
            } else {
                up & mid[j] & down
            };
        }
    }
}

/// In-place horizontal 3×1 erosion of one row of words: a bit survives only
/// if both horizontal neighbours are set, with the adjacent word supplying
/// the bit that crosses the 64-pixel boundary and zeros shifting in at the
/// row ends (outside = background).
fn horizontal_erode_row(row: &mut [u64]) {
    let mut prev = 0u64;
    for j in 0..row.len() {
        let cur = row[j];
        let next = if j + 1 < row.len() { row[j + 1] } else { 0 };
        let left = (cur << 1) | (prev >> 63);
        let right = (cur >> 1) | (next << 63);
        row[j] = left & cur & right;
        prev = cur;
    }
}

/// In-place horizontal 3×1 dilation of one row of words (shift-OR form of
/// [`horizontal_erode_row`]). May set tail bits past the image width; the
/// caller re-masks them.
fn horizontal_dilate_row(row: &mut [u64]) {
    let mut prev = 0u64;
    for j in 0..row.len() {
        let cur = row[j];
        let next = if j + 1 < row.len() { row[j + 1] } else { 0 };
        let left = (cur << 1) | (prev >> 63);
        let right = (cur >> 1) | (next << 63);
        row[j] = left | cur | right;
        prev = cur;
    }
}

/// Reference erosion through the bounds-checked padded accessor — the
/// pre-optimisation implementation, kept as the test oracle and the honest
/// "before" baseline for the committed benchmark.
pub fn erode_reference(mask: &Bitmap) -> Bitmap {
    let mut out = Bitmap::new(mask.width(), mask.height());
    for y in 0..mask.height() {
        for x in 0..mask.width() {
            out.set(x, y, neighbourhood_all(mask, x as i64, y as i64));
        }
    }
    out
}

/// Reference dilation through the bounds-checked padded accessor (see
/// [`erode_reference`]).
pub fn dilate_reference(mask: &Bitmap) -> Bitmap {
    let mut out = Bitmap::new(mask.width(), mask.height());
    for y in 0..mask.height() {
        for x in 0..mask.width() {
            out.set(x, y, neighbourhood_any(mask, x as i64, y as i64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_from_rows(rows: &[&str]) -> Bitmap {
        let h = rows.len() as u32;
        let w = rows[0].len() as u32;
        let mut m = Bitmap::new(w, h);
        for (y, row) in rows.iter().enumerate() {
            for (x, c) in row.chars().enumerate() {
                m.set(x as u32, y as u32, c == '#');
            }
        }
        m
    }

    #[test]
    fn erosion_shrinks() {
        let m = mask_from_rows(&["#####", "#####", "#####", "#####", "#####"]);
        let e = erode(&m);
        assert_eq!(e.count_foreground(), 9, "5×5 erodes to 3×3");
        assert_eq!(e.get(2, 2), Some(true));
        assert_eq!(e.get(0, 0), Some(false));
    }

    #[test]
    fn dilation_grows() {
        let m = mask_from_rows(&[".....", ".....", "..#..", ".....", "....."]);
        let d = dilate(&m);
        assert_eq!(d.count_foreground(), 9);
    }

    #[test]
    fn open_removes_speckle() {
        let m = mask_from_rows(&["#....", ".....", "..###", "..###", "..###"]);
        let o = open(&m);
        assert_eq!(o.get(0, 0), Some(false), "lone pixel removed");
        assert_eq!(o.get(3, 3), Some(true), "blob core kept");
    }

    #[test]
    fn close_fills_pinhole() {
        let m = mask_from_rows(&["#####", "#####", "##.##", "#####", "#####"]);
        let c = close(&m);
        assert_eq!(c.get(2, 2), Some(true), "pinhole filled");
    }

    #[test]
    fn row_slice_morphology_matches_reference() {
        // Deterministic speckle over several sizes, including degenerate 1-2
        // pixel dimensions where every pixel is a border pixel.
        for (w, h) in [(1u32, 1u32), (2, 5), (3, 3), (17, 11), (40, 23)] {
            let mut m = Bitmap::new(w, h);
            let mut state = 0x9e3779b97f4a7c15u64 ^ u64::from(w * 131 + h);
            for y in 0..h {
                for x in 0..w {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    m.set(x, y, (state >> 62) != 0);
                }
            }
            assert_eq!(erode(&m), erode_reference(&m), "erode {w}×{h}");
            assert_eq!(dilate(&m), dilate_reference(&m), "dilate {w}×{h}");
            let mut tmp = Bitmap::new(1, 1);
            let mut out = Bitmap::new(1, 1);
            open_into(&m, &mut tmp, &mut out);
            assert_eq!(out, open(&m), "open {w}×{h}");
        }
    }

    #[test]
    fn packed_morphology_matches_byte_kernels() {
        // Sizes straddling the 64-bit word boundary plus the degenerate
        // 1-2 pixel dimensions where every pixel is a border pixel.
        for (w, h) in [
            (1u32, 1u32),
            (2, 5),
            (63, 3),
            (64, 4),
            (65, 5),
            (130, 7),
            (40, 23),
        ] {
            let mut m = Bitmap::new(w, h);
            let mut state = 0xa076_1d64_78bd_642fu64 ^ u64::from(w * 131 + h);
            for y in 0..h {
                for x in 0..w {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    m.set(x, y, (state >> 62) != 0);
                }
            }
            let packed = BitMask::from_bitmap(&m);
            assert_eq!(
                erode_packed(&packed).to_bitmap(),
                erode(&m),
                "erode {w}×{h}"
            );
            assert_eq!(
                dilate_packed(&packed).to_bitmap(),
                dilate(&m),
                "dilate {w}×{h}"
            );
            let mut tmp = BitMask::new(1, 1);
            let mut out = BitMask::new(1, 1);
            open_packed_into(&packed, &mut tmp, &mut out);
            assert_eq!(out.to_bitmap(), open(&m), "open {w}×{h}");
            close_packed_into(&packed, &mut tmp, &mut out);
            assert_eq!(out.to_bitmap(), close(&m), "close {w}×{h}");
            assert_eq!(
                out.tail_mask() | out.row(0).last().copied().unwrap_or(0),
                out.tail_mask(),
                "tail invariant after close {w}×{h}"
            );
        }
    }

    #[test]
    fn erode_dilate_are_monotone() {
        let m = mask_from_rows(&[".....", ".###.", ".###.", ".###.", "....."]);
        let e = erode(&m);
        let d = dilate(&m);
        for (x, y, v) in e.iter() {
            if v {
                assert_eq!(m.get(x, y), Some(true), "erosion is a subset");
            }
        }
        for (x, y, v) in m.iter() {
            if v {
                assert_eq!(d.get(x, y), Some(true), "dilation is a superset");
            }
        }
    }
}
