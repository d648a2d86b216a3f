//! Bit-packed binary masks: 64 pixels per `u64` word.
//!
//! Every value in a segmentation mask is 0 or 1, yet [`Bitmap`]
//! (`Image<bool>`) spends a whole byte per pixel — so the silhouette hot
//! path (binarize → labelling → contour → diff) was touching
//! 8× more memory than the information it carried. [`BitMask`] packs each
//! row into `u64` words, least-significant bit first (pixel `x` lives in
//! bit `x % 64` of word `x / 64` of its row), with rows padded to whole
//! words. On top of that layout the pipeline kernels become word-parallel:
//!
//! * binarisation compares each 64-pixel chunk into a stack buffer of
//!   0/1 bytes and gathers it into one mask word
//!   ([`crate::threshold::binarize_packed_into`]);
//!   a binary silhouette skips both, rasterised straight into the words
//!   as row runs ([`crate::draw::SpanSink`]),
//! * run extraction for the union-find labeller scans words with
//!   trailing-zero counts ([`crate::components::largest_component_packed_lazy`]),
//! * mask differencing is XOR + popcount ([`crate::diff::mask_diff_count`]),
//! * contour tracing reads single bits ([`crate::contour::trace_outer_contour_packed_into`]).
//!
//! **Tail invariant.** Bits at or beyond `width` in each row's last word
//! are always zero. Every constructor and kernel in this crate maintains
//! it; it is what lets popcounts, word comparisons and shift-in-zeroes at
//! the right image edge work without per-pixel masking. Code that writes
//! through [`BitMask::words_mut`] must re-establish the invariant (e.g. by
//! AND-ing each row's last word with [`BitMask::tail_mask`]).
//!
//! # Example
//! ```
//! use hdc_raster::{BitMask, Bitmap};
//! let mut m = BitMask::new(70, 2); // 70 px → 2 words per row
//! m.set(69, 1, true);
//! assert_eq!(m.get(69, 1), Some(true));
//! assert_eq!(m.count_ones(), 1);
//! let bytes: Bitmap = m.to_bitmap();
//! assert_eq!(bytes.count_foreground(), 1);
//! assert_eq!(BitMask::from_bitmap(&bytes), m);
//! ```

use crate::image::Bitmap;

/// Pixels per storage word.
pub const WORD_BITS: usize = 64;

/// A bit-packed binary mask: one bit per pixel, rows padded to whole
/// `u64` words. See the module docs for the layout and the tail invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    width: u32,
    height: u32,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMask {
    /// Creates an all-background mask.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mask must be non-empty");
        let words_per_row = (width as usize).div_ceil(WORD_BITS);
        BitMask {
            width,
            height,
            words_per_row,
            words: vec![0; words_per_row * height as usize],
        }
    }

    /// Re-dimensions the mask, reusing the word buffer when its capacity
    /// already suffices (no allocation in steady state). Pixel contents are
    /// unspecified afterwards; callers are expected to overwrite every word
    /// (all kernels in this crate do) and to leave the tail invariant intact.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn reset_dimensions(&mut self, width: u32, height: u32) {
        assert!(width > 0 && height > 0, "mask must be non-empty");
        self.words_per_row = (width as usize).div_ceil(WORD_BITS);
        self.words.resize(self.words_per_row * height as usize, 0);
        self.width = width;
        self.height = height;
    }

    /// Mask width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mask height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Storage words per row (`ceil(width / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The valid-bit mask of each row's **last** word: all ones when the
    /// width is a multiple of 64, otherwise ones in the low `width % 64`
    /// bits. AND-ing with it re-establishes the tail invariant.
    pub fn tail_mask(&self) -> u64 {
        let rem = (self.width as usize) % WORD_BITS;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }

    /// The raw row-major word buffer.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw word buffer. Writers must maintain the tail invariant
    /// (see the module docs).
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// The words of row `y`.
    ///
    /// # Panics
    /// Panics if `y` is out of bounds.
    pub fn row(&self, y: u32) -> &[u64] {
        let base = y as usize * self.words_per_row;
        &self.words[base..base + self.words_per_row]
    }

    /// Pixel value at `(x, y)`, or `None` out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Option<bool> {
        if x < self.width && y < self.height {
            let i = y as usize * self.words_per_row + (x as usize) / WORD_BITS;
            Some(self.words[i] >> (x as usize % WORD_BITS) & 1 != 0)
        } else {
            None
        }
    }

    /// Pixel value at signed coordinates; out-of-bounds reads as background
    /// — the same padding convention as [`crate::image::Image::get_padded`].
    #[inline]
    pub fn get_padded(&self, x: i64, y: i64) -> bool {
        // a negative coordinate wraps past every width and height
        if (x as u64) < u64::from(self.width) && (y as u64) < u64::from(self.height) {
            let i = y as usize * self.words_per_row + (x as usize) / WORD_BITS;
            self.words[i] >> (x as usize % WORD_BITS) & 1 != 0
        } else {
            false
        }
    }

    /// Sets the pixel at `(x, y)`; silently ignores out-of-bounds writes
    /// (matching [`crate::image::Image::set`]).
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: bool) {
        if x < self.width && y < self.height {
            let i = y as usize * self.words_per_row + (x as usize) / WORD_BITS;
            let bit = 1u64 << (x as usize % WORD_BITS);
            if value {
                self.words[i] |= bit;
            } else {
                self.words[i] &= !bit;
            }
        }
    }

    /// Fills the whole mask, maintaining the tail invariant.
    pub fn fill(&mut self, value: bool) {
        if value {
            self.words.fill(u64::MAX);
            let tail = self.tail_mask();
            if tail != u64::MAX {
                let wpr = self.words_per_row;
                for row in self.words.chunks_exact_mut(wpr) {
                    row[wpr - 1] &= tail;
                }
            }
        } else {
            self.words.fill(0);
        }
    }

    /// Sets the inclusive pixel run `[start, end]` of row `y` to foreground
    /// with at most three word-granular stores — the packed equivalent of
    /// `slice.fill(true)` over a byte run.
    ///
    /// # Panics
    /// Panics if the run is reversed or out of bounds.
    #[inline]
    pub fn set_run(&mut self, y: u32, start: u32, end: u32) {
        assert!(
            start <= end && end < self.width && y < self.height,
            "run ({start}..={end}) must lie inside row {y} of a {}x{} mask",
            self.width,
            self.height
        );
        let base = y as usize * self.words_per_row;
        let (s, e) = (start as usize, end as usize);
        let (ws, we) = (s / WORD_BITS, e / WORD_BITS);
        // Ones at bit (s % 64) and up.
        let first = u64::MAX << (s % WORD_BITS);
        // Ones at bit (e % 64) and down.
        let last = u64::MAX >> (WORD_BITS - 1 - e % WORD_BITS);
        if ws == we {
            self.words[base + ws] |= first & last;
        } else {
            self.words[base + ws] |= first;
            for w in &mut self.words[base + ws + 1..base + we] {
                *w = u64::MAX;
            }
            self.words[base + we] |= last;
        }
    }

    /// Number of foreground pixels (one `popcount` per word; the tail
    /// invariant keeps padding bits out of the sum).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Packs a byte-per-pixel mask, re-dimensioning `self` to match (the
    /// allocation-free bridge from the byte world).
    pub fn pack_from(&mut self, mask: &Bitmap) {
        self.reset_dimensions(mask.width(), mask.height());
        let w = mask.width() as usize;
        let wpr = self.words_per_row;
        for (dst_row, src_row) in self
            .words
            .chunks_exact_mut(wpr)
            .zip(mask.pixels().chunks_exact(w))
        {
            pack_row(src_row, dst_row);
        }
    }

    /// Packs a byte-per-pixel mask into a fresh [`BitMask`].
    pub fn from_bitmap(mask: &Bitmap) -> Self {
        let mut out = BitMask::new(mask.width(), mask.height());
        out.pack_from(mask);
        out
    }

    /// Unpacks into a byte-per-pixel mask, re-dimensioning `out` to match.
    pub fn unpack_into(&self, out: &mut Bitmap) {
        out.reset_dimensions(self.width, self.height);
        let w = self.width as usize;
        for (dst_row, src_row) in out
            .pixels_mut()
            .chunks_exact_mut(w)
            .zip(self.words.chunks_exact(self.words_per_row))
        {
            for (x, dst) in dst_row.iter_mut().enumerate() {
                *dst = src_row[x / WORD_BITS] >> (x % WORD_BITS) & 1 != 0;
            }
        }
    }

    /// Unpacks into a fresh byte-per-pixel mask.
    pub fn to_bitmap(&self) -> Bitmap {
        let mut out = Bitmap::new(self.width, self.height);
        self.unpack_into(&mut out);
        out
    }
}

/// Packs 64 0/1 bytes into one mask word (byte `k` lands at bit `k`):
/// eight pairwise-combined gathers, so the multiplies pipeline instead of
/// waiting on one OR chain.
#[inline]
pub(crate) fn pack_unit_word(unit: &[u8; WORD_BITS]) -> u64 {
    let g = |o: usize| gather_unit_bytes(&unit[o..o + 8]);
    let lo = g(0) | (g(8) << 8) | (g(16) << 16) | (g(24) << 24);
    let hi = (g(32) << 32) | (g(40) << 40) | (g(48) << 48) | (g(56) << 56);
    lo | hi
}

/// Gathers eight 0/1 bytes into the low 8 bits of the result: one
/// little-endian word load and one overflowing multiply (byte `k` of the
/// load lands at bit `k`).
#[inline]
fn gather_unit_bytes(b: &[u8]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let v = u64::from_le_bytes(b.try_into().expect("gather operates on 8 bytes"));
    debug_assert_eq!(v & !0x0101_0101_0101_0101, 0, "source bytes must be 0 or 1");
    v.wrapping_mul(GATHER) >> 56
}

/// Packs one row of bools into words: 8 bools per step through the
/// bit-gather multiply (each `true` is byte `0x01`; the multiply lines the
/// eight low bits up in the top byte).
fn pack_row(src: &[bool], dst: &mut [u64]) {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    for (j, word) in dst.iter_mut().enumerate() {
        let chunk = &src[j * WORD_BITS..(j * WORD_BITS + WORD_BITS).min(src.len())];
        let mut w = 0u64;
        let mut bytes = chunk.chunks_exact(8);
        for (k, b) in bytes.by_ref().enumerate() {
            let v = u64::from_le_bytes([
                b[0] as u8, b[1] as u8, b[2] as u8, b[3] as u8, b[4] as u8, b[5] as u8, b[6] as u8,
                b[7] as u8,
            ]);
            w |= (v.wrapping_mul(GATHER) >> 56) << (8 * k);
        }
        let tail_base = chunk.len() - bytes.remainder().len();
        for (i, &b) in bytes.remainder().iter().enumerate() {
            w |= u64::from(b) << (tail_base + i);
        }
        *word = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speckled(w: u32, h: u32, salt: u64) -> Bitmap {
        let mut m = Bitmap::new(w, h);
        let mut state = salt | 1;
        for y in 0..h {
            for x in 0..w {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                m.set(x, y, (state >> 62) != 0);
            }
        }
        m
    }

    #[test]
    fn get_set_roundtrip_across_word_boundaries() {
        let mut m = BitMask::new(130, 3);
        assert_eq!(m.words_per_row(), 3);
        for &(x, y) in &[(0u32, 0u32), (63, 0), (64, 1), (127, 2), (128, 2), (129, 0)] {
            m.set(x, y, true);
            assert_eq!(m.get(x, y), Some(true), "({x},{y})");
        }
        assert_eq!(m.count_ones(), 6);
        m.set(64, 1, false);
        assert_eq!(m.get(64, 1), Some(false));
        assert_eq!(m.get(130, 0), None);
        assert_eq!(m.get(0, 3), None);
        m.set(200, 0, true); // ignored
        assert_eq!(m.count_ones(), 5);
    }

    #[test]
    fn padded_reads_background_outside() {
        let mut m = BitMask::new(4, 4);
        m.set(0, 0, true);
        assert!(m.get_padded(0, 0));
        assert!(!m.get_padded(-1, 0));
        assert!(!m.get_padded(0, -1));
        assert!(!m.get_padded(4, 0));
    }

    #[test]
    fn fill_maintains_tail_invariant() {
        for w in [1u32, 63, 64, 65, 128, 130] {
            let mut m = BitMask::new(w, 2);
            m.fill(true);
            assert_eq!(m.count_ones(), 2 * w as usize, "width {w}");
            let tail = m.tail_mask();
            let wpr = m.words_per_row();
            for row in m.words().chunks_exact(wpr) {
                assert_eq!(row[wpr - 1] & !tail, 0, "width {w} tail must stay clear");
            }
            m.fill(false);
            assert_eq!(m.count_ones(), 0);
        }
    }

    #[test]
    fn pack_unpack_roundtrip_odd_widths() {
        for (w, h, salt) in [
            (1u32, 1u32, 3u64),
            (63, 2, 5),
            (64, 3, 7),
            (65, 2, 9),
            (190, 4, 11),
        ] {
            let b = speckled(w, h, salt);
            let packed = BitMask::from_bitmap(&b);
            assert_eq!(packed.count_ones(), b.count_foreground(), "{w}x{h}");
            assert_eq!(packed.to_bitmap(), b, "{w}x{h}");
            // tail invariant after packing
            let tail = packed.tail_mask();
            let wpr = packed.words_per_row();
            for row in packed.words().chunks_exact(wpr) {
                assert_eq!(row[wpr - 1] & !tail, 0);
            }
        }
    }

    #[test]
    fn set_run_matches_per_pixel_sets() {
        for (s, e) in [
            (0u32, 0u32),
            (0, 63),
            (5, 64),
            (63, 64),
            (10, 150),
            (64, 127),
            (150, 169),
        ] {
            let mut by_run = BitMask::new(170, 2);
            by_run.set_run(1, s, e);
            let mut by_pixel = BitMask::new(170, 2);
            for x in s..=e {
                by_pixel.set(x, 1, true);
            }
            assert_eq!(by_run, by_pixel, "run {s}..={e}");
        }
    }

    #[test]
    #[should_panic(expected = "must lie inside")]
    fn set_run_rejects_out_of_bounds() {
        BitMask::new(10, 2).set_run(0, 5, 10);
    }

    #[test]
    fn reset_dimensions_reuses_capacity() {
        let mut m = BitMask::new(200, 100);
        let cap = m.words.capacity();
        m.reset_dimensions(100, 50);
        m.reset_dimensions(200, 100);
        assert_eq!(m.words.capacity(), cap);
        assert_eq!(m.words.len(), m.words_per_row() * 100);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_rejected() {
        let _ = BitMask::new(0, 4);
    }
}
