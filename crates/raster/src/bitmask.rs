//! Bit-packed binary masks: 64 pixels per `u64` word.
//!
//! Every value in a segmentation mask is 0 or 1, yet [`Bitmap`]
//! (`Image<bool>`) spends a whole byte per pixel — so the silhouette hot
//! path (binarize → morphology → labelling → contour → diff) was touching
//! 8× more memory than the information it carried. [`BitMask`] packs each
//! row into `u64` words, least-significant bit first (pixel `x` lives in
//! bit `x % 64` of word `x / 64` of its row), with rows padded to whole
//! words. On top of that layout the pipeline kernels become word-parallel:
//!
//! * binarisation is a vectorised byte compare followed by one
//!   gather-multiply pack into mask words ([`BitMask::pack_from_bytes`]);
//!   a binary silhouette skips both, rasterised straight into the words
//!   as row runs ([`crate::draw::SpanSink`]),
//! * erosion/dilation are shift-AND / shift-OR across word boundaries
//!   ([`crate::morphology::erode_packed_into`]),
//! * run extraction for the union-find labeller scans words with
//!   trailing-zero counts ([`crate::components::largest_component_packed_with`]),
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

use crate::digest::Fnv1a64;
use crate::image::{Bitmap, GrayImage};

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

    /// Mutable words of row `y`. Writers must maintain the tail invariant.
    ///
    /// # Panics
    /// Panics if `y` is out of bounds.
    pub fn row_mut(&mut self, y: u32) -> &mut [u64] {
        let base = y as usize * self.words_per_row;
        &mut self.words[base..base + self.words_per_row]
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
        if x >= 0 && y >= 0 && (x as u32) < self.width && (y as u32) < self.height {
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

    /// FNV-1a/64 fingerprint of the dimensions plus every `row_stride`-th
    /// row's words — the packed analogue of the temporal gate's sampled-row
    /// frame fingerprint, touching ⅛ of the bytes the byte-mask version
    /// hashes. Byte-identical masks always collide (callers verify with a
    /// word compare).
    ///
    /// # Panics
    /// Panics if `row_stride` is zero.
    pub fn fingerprint_sampled(&self, row_stride: usize) -> u64 {
        assert!(row_stride > 0, "row stride must be positive");
        let mut h = Fnv1a64::new();
        h.write(&self.width.to_le_bytes());
        h.write(&self.height.to_le_bytes());
        for y in (0..self.height).step_by(row_stride) {
            for w in self.row(y) {
                h.write(&w.to_le_bytes());
            }
        }
        h.finish()
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

    /// Packs a 0/1 byte image (as produced by
    /// [`crate::threshold::binarize_bytes_into`]), re-dimensioning `self`
    /// to match. Unlike [`BitMask::pack_from`], the `u8` source rows chunk
    /// into plain little-endian word loads, so each gather multiply is fed
    /// by one 8-byte load instead of eight bool-to-byte conversions — this
    /// is the fast half of the hybrid binarise-then-pack path.
    ///
    /// Every source byte must be 0 or 1; larger values would carry across
    /// gather lanes and corrupt neighbouring bits (debug-asserted).
    pub fn pack_from_bytes(&mut self, mask: &GrayImage) {
        self.reset_dimensions(mask.width(), mask.height());
        let w = mask.width() as usize;
        let wpr = self.words_per_row;
        for (dst_row, src_row) in self
            .words
            .chunks_exact_mut(wpr)
            .zip(mask.pixels().chunks_exact(w))
        {
            pack_unit_row(src_row, dst_row, wpr);
        }
    }

    /// Band-restricted [`BitMask::pack_from_bytes`]: repacks only rows
    /// `[row_lo, row_hi)` of the 0/1 byte image into the matching rows of
    /// this cached mask, leaving every other row untouched. This is the
    /// hybrid-path patch primitive of the incremental recognition ladder.
    /// Never re-dimensions `self`.
    ///
    /// # Panics
    /// Panics if the dimensions differ or the band is reversed or out of
    /// bounds.
    pub fn pack_from_bytes_band(&mut self, mask: &GrayImage, row_lo: u32, row_hi: u32) {
        assert!(
            self.width == mask.width() && self.height == mask.height(),
            "band pack requires a cached mask matching the image: {}x{} vs {}x{}",
            self.width,
            self.height,
            mask.width(),
            mask.height()
        );
        assert!(
            row_lo <= row_hi && row_hi <= self.height,
            "band [{row_lo}, {row_hi}) must lie inside height {}",
            self.height
        );
        let w = mask.width() as usize;
        let wpr = self.words_per_row;
        let (lo, hi) = (row_lo as usize, row_hi as usize);
        for (dst_row, src_row) in self.words[lo * wpr..hi * wpr]
            .chunks_exact_mut(wpr)
            .zip(mask.pixels()[lo * w..hi * w].chunks_exact(w))
        {
            pack_unit_row(src_row, dst_row, wpr);
        }
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

/// Gathers eight 0/1 bytes into the low 8 bits of the result: one
/// little-endian word load and one overflowing multiply (byte `k` of the
/// load lands at bit `k`).
///
/// # Panics
/// Panics if `b` is not exactly 8 bytes.
/// Packs one row of 0/1 bytes into its words: full 64-byte chunks go
/// through eight pairwise-combined gathers (no loop-carried OR chain, so
/// the multiplies pipeline), the ragged tail through byte-at-a-time bits.
#[inline]
fn pack_unit_row(src_row: &[u8], dst_row: &mut [u64], wpr: usize) {
    let mut full = src_row.chunks_exact(WORD_BITS);
    for (word, chunk) in dst_row.iter_mut().zip(full.by_ref()) {
        let g = |o: usize| gather_unit_bytes(&chunk[o..o + 8]);
        let lo = g(0) | (g(8) << 8) | (g(16) << 16) | (g(24) << 24);
        let hi = (g(32) << 32) | (g(40) << 40) | (g(48) << 48) | (g(56) << 56);
        *word = lo | hi;
    }
    let tail = full.remainder();
    if !tail.is_empty() {
        let mut packed = 0u64;
        let mut bytes = tail.chunks_exact(8);
        for (k, b) in bytes.by_ref().enumerate() {
            packed |= gather_unit_bytes(b) << (8 * k);
        }
        let tail_base = tail.len() - bytes.remainder().len();
        for (i, &p) in bytes.remainder().iter().enumerate() {
            debug_assert!(p <= 1, "source bytes must be 0 or 1");
            packed |= u64::from(p) << (tail_base + i);
        }
        dst_row[wpr - 1] = packed;
    }
}

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
    fn pack_from_bytes_matches_pack_from_bool() {
        for (w, h, salt) in [
            (1u32, 1u32, 3u64),
            (63, 2, 5),
            (64, 3, 7),
            (65, 2, 9),
            (190, 4, 11),
        ] {
            let b = speckled(w, h, salt);
            let mut bytes = GrayImage::new(w, h);
            for (dst, src) in bytes.pixels_mut().iter_mut().zip(b.pixels()) {
                *dst = u8::from(*src);
            }
            let mut from_bytes = BitMask::new(1, 1);
            from_bytes.pack_from_bytes(&bytes);
            assert_eq!(from_bytes, BitMask::from_bitmap(&b), "{w}x{h}");
        }
    }

    #[test]
    fn pack_from_bytes_band_patches_only_the_band() {
        for (w, h) in [(70u32, 9u32), (64, 6), (13, 4)] {
            let a = speckled(w, h, 41);
            let b = speckled(w, h, 97);
            let to_bytes = |m: &Bitmap| {
                let mut img = GrayImage::new(w, h);
                for (dst, src) in img.pixels_mut().iter_mut().zip(m.pixels()) {
                    *dst = u8::from(*src);
                }
                img
            };
            let (lo, hi) = (h / 3, 2 * h / 3 + 1);
            let mut cached = BitMask::from_bitmap(&a);
            cached.pack_from_bytes_band(&to_bytes(&b), lo, hi);
            for y in 0..h {
                let oracle = if (lo..hi).contains(&y) { &b } else { &a };
                for x in 0..w {
                    assert_eq!(cached.get(x, y), oracle.get(x, y), "({x},{y}) {w}x{h}");
                }
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
    fn fingerprint_distinguishes_and_samples() {
        let a = BitMask::from_bitmap(&speckled(100, 40, 1));
        let b = BitMask::from_bitmap(&speckled(100, 40, 2));
        assert_ne!(a.fingerprint_sampled(1), b.fingerprint_sampled(1));
        assert_eq!(a.fingerprint_sampled(4), a.clone().fingerprint_sampled(4));
        // a change in an unsampled row is invisible at that stride …
        let mut c = a.clone();
        c.set(0, 1, !c.get(0, 1).unwrap());
        assert_eq!(a.fingerprint_sampled(4), c.fingerprint_sampled(4));
        // … and visible at stride 1
        assert_ne!(a.fingerprint_sampled(1), c.fingerprint_sampled(1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_rejected() {
        let _ = BitMask::new(0, 4);
    }
}
