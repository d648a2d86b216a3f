//! Mask differencing for temporal-coherence gating.
//!
//! A drone watching a mostly static marshaller produces long runs of nearly
//! identical frames; the stream recogniser exploits that by comparing each
//! frame's packed silhouette mask against the mask of its cached decision
//! and skipping the labelling→contour→signature→SAX stages when nothing
//! moved. This module is the raster half of that gate, allocation-free
//! kernels on packed masks:
//!
//! * [`mask_diff_count`] — whole-mask differing-pixel count (XOR +
//!   popcount): the oracle the tiled kernel's totals are checked against.
//! * [`mask_tile_diff_into`] — per-tile differing-pixel counts over a fixed
//!   grid, one pass over both masks. Per-tile resolution is what makes the
//!   tolerance *local*: a small moving arm concentrates its delta in a few
//!   tiles instead of being averaged away over the whole frame.
//! * [`DirtyBands`] — the tiles over tolerance merged into row-band spans,
//!   the input of the band-restricted patch kernels.
//!
//! All kernels take caller-owned output buffers (`Vec` resized in place) so
//! the steady-state gate performs no heap allocation after the first frame
//! at a given geometry.

use crate::bitmask::{BitMask, WORD_BITS};

/// The shape and aggregates of one [`mask_tile_diff_into`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSummary {
    /// Tiles per row (`ceil(width / tile)`).
    pub tiles_x: u32,
    /// Tile rows (`ceil(height / tile)`).
    pub tiles_y: u32,
    /// Largest per-tile count.
    pub max: u64,
    /// Total count (equals [`mask_diff_count`] of the same pair).
    pub total: u64,
}

impl TileSummary {
    /// Total number of tiles in the grid.
    pub fn tile_count(&self) -> usize {
        self.tiles_x as usize * self.tiles_y as usize
    }
}

/// Number of differing pixels between two packed masks: XOR plus popcount,
/// 64 pixels per word pair. Because both masks obey the tail invariant
/// (padding bits zero), padding never contributes to the count.
///
/// # Panics
/// Panics if the masks differ in dimensions.
///
/// # Example
/// ```
/// use hdc_raster::{diff::mask_diff_count, BitMask};
/// let a = BitMask::new(70, 2);
/// let mut b = a.clone();
/// b.set(65, 1, true);
/// assert_eq!(mask_diff_count(&a, &a), 0);
/// assert_eq!(mask_diff_count(&a, &b), 1);
/// ```
pub fn mask_diff_count(a: &BitMask, b: &BitMask) -> u64 {
    assert_mask_dims_match(a, b);
    a.words()
        .iter()
        .zip(b.words())
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// Per-tile differing-pixel counts between two packed masks over a
/// `tile`×`tile` grid (edge tiles clipped): each XOR word is split at tile
/// boundaries and each segment's popcount lands in its tile. `out` is resized to the tile count
/// and filled row-major; totals equal [`mask_diff_count`] of the same pair.
///
/// # Panics
/// Panics if the masks differ in dimensions or `tile` is zero.
pub fn mask_tile_diff_into(a: &BitMask, b: &BitMask, tile: u32, out: &mut Vec<u64>) -> TileSummary {
    assert_mask_dims_match(a, b);
    assert!(tile > 0, "tile size must be positive");
    let (w, h) = (a.width() as usize, a.height() as usize);
    let t = tile as usize;
    let tiles_x = w.div_ceil(t);
    let tiles_y = h.div_ceil(t);
    out.clear();
    out.resize(tiles_x * tiles_y, 0);

    let wpr = a.words_per_row();
    for y in 0..h {
        let row_a = &a.words()[y * wpr..(y + 1) * wpr];
        let row_b = &b.words()[y * wpr..(y + 1) * wpr];
        let tile_row = &mut out[(y / t) * tiles_x..][..tiles_x];
        for (j, xor) in row_a.iter().zip(row_b).map(|(x, y)| x ^ y).enumerate() {
            if xor == 0 {
                continue;
            }
            // Split this word's 64 pixels at tile boundaries; each
            // segment's popcount goes to its own tile.
            let base = j * WORD_BITS;
            let word_end = (base + WORD_BITS).min(w);
            let mut seg_start = base;
            while seg_start < word_end {
                let tx = seg_start / t;
                let seg_end = ((tx + 1) * t).min(word_end);
                let lo = seg_start - base;
                let len = seg_end - seg_start;
                let segment = (xor >> lo) & (u64::MAX >> (WORD_BITS - len));
                tile_row[tx] += u64::from(segment.count_ones());
                seg_start = seg_end;
            }
        }
    }

    let mut max = 0u64;
    let mut total = 0u64;
    for &v in out.iter() {
        max = max.max(v);
        total += v;
    }
    TileSummary {
        tiles_x: tiles_x as u32,
        tiles_y: tiles_y as u32,
        max,
        total,
    }
}

/// Merged dirty row-band spans derived from a tile grid — the bridge from
/// per-tile change detection ([`mask_tile_diff_into`]) to the
/// band-restricted row patch ([`BitMask::copy_rows_from`]).
///
/// A tile row is dirty when **any** tile in it exceeds the tolerance;
/// consecutive dirty tile rows merge into one `[row_lo, row_hi)` pixel
/// span. The span `Vec` is reused across rebuilds, so the steady-state
/// gate performs no heap allocation after the first frame at a geometry.
#[derive(Debug, Clone, Default)]
pub struct DirtyBands {
    spans: Vec<(u32, u32)>,
    dirty_rows: u32,
    height: u32,
}

impl DirtyBands {
    /// Rebuilds the spans from a row-major tile grid as produced by
    /// [`mask_tile_diff_into`] with the matching
    /// `summary`. `height` is the frame height in pixels; a tile row is
    /// dirty when any of its tiles is **strictly above** `tolerance`.
    ///
    /// # Panics
    /// Panics if the grid length disagrees with the summary shape, `tile`
    /// is zero, or `height` disagrees with the summary's tile-row count.
    pub fn rebuild(
        &mut self,
        tiles: &[u64],
        summary: &TileSummary,
        tile: u32,
        height: u32,
        tolerance: u64,
    ) {
        assert_eq!(
            tiles.len(),
            summary.tile_count(),
            "tile grid must match its summary"
        );
        assert!(tile > 0, "tile size must be positive");
        assert_eq!(
            height.div_ceil(tile),
            summary.tiles_y,
            "height {height} disagrees with {} tile rows of {tile}",
            summary.tiles_y
        );
        self.spans.clear();
        self.dirty_rows = 0;
        self.height = height;
        let tiles_x = summary.tiles_x as usize;
        for (ty, tile_row) in tiles.chunks_exact(tiles_x.max(1)).enumerate() {
            if tile_row.iter().all(|&v| v <= tolerance) {
                continue;
            }
            let lo = ty as u32 * tile;
            let hi = ((ty as u32 + 1) * tile).min(height);
            match self.spans.last_mut() {
                Some(span) if span.1 == lo => span.1 = hi,
                _ => self.spans.push((lo, hi)),
            }
            self.dirty_rows += hi - lo;
        }
    }

    /// The merged `[row_lo, row_hi)` spans, in ascending order.
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// Total dirty pixel rows across all spans.
    pub fn dirty_rows(&self) -> u32 {
        self.dirty_rows
    }

    /// Dirty rows as a fraction of the frame height (0 when no rebuild has
    /// happened yet).
    pub fn coverage(&self) -> f64 {
        if self.height == 0 {
            0.0
        } else {
            f64::from(self.dirty_rows) / f64::from(self.height)
        }
    }

    /// True when no tile row exceeded the tolerance.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

fn assert_mask_dims_match(a: &BitMask, b: &BitMask) {
    assert!(
        a.width() == b.width() && a.height() == b.height(),
        "mask dimensions must match: {}x{} vs {}x{}",
        a.width(),
        a.height(),
        b.width(),
        b.height()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::GrayImage;
    use crate::threshold::binarize;

    /// The packed silhouette of a deterministic intensity ramp.
    fn ramp(w: u32, h: u32, step: u32) -> BitMask {
        let mut img = GrayImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, ((x * step + y * 3) % 256) as u8);
            }
        }
        BitMask::from_bitmap(&binarize(&img, 127))
    }

    fn flip(m: &mut BitMask, x: u32, y: u32) {
        let v = m.get(x, y).expect("pixel in range");
        m.set(x, y, !v);
    }

    #[test]
    fn identical_frames_have_zero_sad_everywhere() {
        let a = ramp(37, 23, 7);
        assert_eq!(mask_diff_count(&a, &a), 0);
        let mut tiles = Vec::new();
        let s = mask_tile_diff_into(&a, &a, 8, &mut tiles);
        assert_eq!(s.max, 0);
        assert_eq!(s.total, 0);
        assert!(tiles.iter().all(|&t| t == 0));
    }

    #[test]
    fn tile_totals_match_the_oracle_with_clipped_edges() {
        let a = ramp(37, 23, 7); // not a multiple of the tile size
        let b = ramp(37, 23, 11);
        let mut tiles = Vec::new();
        let s = mask_tile_diff_into(&a, &b, 8, &mut tiles);
        assert_eq!(s.tiles_x, 5);
        assert_eq!(s.tiles_y, 3);
        assert_eq!(tiles.len(), s.tile_count());
        assert!(s.total > 0);
        assert_eq!(s.total, mask_diff_count(&a, &b));
        assert_eq!(s.max, tiles.iter().copied().max().unwrap());
    }

    #[test]
    fn single_pixel_change_lands_in_one_tile() {
        let a = BitMask::new(32, 32);
        let mut b = a.clone();
        b.set(20, 5, true); // tile (1, 0) of a 16-pixel grid
        let mut tiles = Vec::new();
        let s = mask_tile_diff_into(&a, &b, 16, &mut tiles);
        assert_eq!(s.max, 1);
        assert_eq!(s.total, 1);
        assert_eq!(tiles, vec![0, 1, 0, 0]);
    }

    #[test]
    fn buffers_are_reused_not_regrown() {
        let a = ramp(64, 48, 3);
        let b = ramp(64, 48, 9);
        let mut tiles = Vec::new();
        mask_tile_diff_into(&a, &b, 16, &mut tiles);
        let cap = tiles.capacity();
        for _ in 0..3 {
            mask_tile_diff_into(&a, &b, 16, &mut tiles);
            assert_eq!(tiles.capacity(), cap);
        }
    }

    fn speckled_mask(w: u32, h: u32, salt: u64) -> BitMask {
        let mut m = BitMask::new(w, h);
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
    fn mask_diff_counts_differing_pixels() {
        // Widths straddling word boundaries; compare against a per-pixel count.
        for (w, h) in [(37u32, 23u32), (64, 8), (65, 5), (130, 11)] {
            let a = speckled_mask(w, h, 3);
            let b = speckled_mask(w, h, 17);
            let expected: u64 = (0..h)
                .map(|y| (0..w).filter(|&x| a.get(x, y) != b.get(x, y)).count() as u64)
                .sum();
            assert_eq!(mask_diff_count(&a, &b), expected, "{w}×{h}");
            assert_eq!(mask_diff_count(&a, &a), 0);
        }
    }

    #[test]
    fn mask_tile_diff_matches_per_pixel_tiles() {
        for (w, h, tile) in [(37u32, 23u32, 8u32), (130, 21, 16), (64, 8, 64), (65, 5, 7)] {
            let a = speckled_mask(w, h, 5);
            let b = speckled_mask(w, h, 23);
            let mut tiles = Vec::new();
            let s = mask_tile_diff_into(&a, &b, tile, &mut tiles);
            assert_eq!(s.total, mask_diff_count(&a, &b), "{w}×{h} t{tile}");
            assert_eq!(s.max, tiles.iter().copied().max().unwrap());
            // Per-pixel oracle for every tile.
            let (tx, ty) = (s.tiles_x, s.tiles_y);
            for cy in 0..ty {
                for cx in 0..tx {
                    let mut count = 0u64;
                    for y in cy * tile..((cy + 1) * tile).min(h) {
                        for x in cx * tile..((cx + 1) * tile).min(w) {
                            if a.get(x, y) != b.get(x, y) {
                                count += 1;
                            }
                        }
                    }
                    assert_eq!(
                        tiles[(cy * tx + cx) as usize],
                        count,
                        "tile ({cx},{cy}) of {w}×{h} t{tile}"
                    );
                }
            }
        }
    }

    #[test]
    fn dirty_bands_merge_and_clip() {
        // 37×23 frame, 8-px tiles → 5×3 grid; edge tile row clips to 23.
        let a = ramp(37, 23, 7);
        let mut b = a.clone();
        flip(&mut b, 3, 2); // tile row 0
        flip(&mut b, 5, 12); // tile row 1
        flip(&mut b, 30, 22); // tile row 2 (clipped: rows 16..23)
        let mut tiles = Vec::new();
        let s = mask_tile_diff_into(&a, &b, 8, &mut tiles);
        let mut bands = DirtyBands::default();
        bands.rebuild(&tiles, &s, 8, 23, 0);
        // All three tile rows are dirty and adjacent → one merged span.
        assert_eq!(bands.spans(), &[(0, 23)]);
        assert_eq!(bands.dirty_rows(), 23);
        assert!((bands.coverage() - 1.0).abs() < 1e-12);

        // Only the clipped last tile row dirty.
        let mut c = a.clone();
        flip(&mut c, 30, 22);
        let s = mask_tile_diff_into(&a, &c, 8, &mut tiles);
        bands.rebuild(&tiles, &s, 8, 23, 0);
        assert_eq!(bands.spans(), &[(16, 23)]);
        assert_eq!(bands.dirty_rows(), 7);

        // Tolerance above the delta → clean.
        bands.rebuild(&tiles, &s, 8, 23, 1);
        assert!(bands.is_empty());
        assert_eq!(bands.dirty_rows(), 0);
        assert_eq!(bands.coverage(), 0.0);

        // Disjoint dirty tile rows stay separate spans.
        let mut d = a.clone();
        flip(&mut d, 3, 2); // tile row 0
        flip(&mut d, 30, 22); // tile row 2
        let s = mask_tile_diff_into(&a, &d, 8, &mut tiles);
        bands.rebuild(&tiles, &s, 8, 23, 0);
        assert_eq!(bands.spans(), &[(0, 8), (16, 23)]);
        assert_eq!(bands.dirty_rows(), 15);
    }

    #[test]
    fn dirty_bands_reuse_their_span_buffer() {
        let a = ramp(64, 48, 3);
        let b = ramp(64, 48, 9);
        let mut tiles = Vec::new();
        let s = mask_tile_diff_into(&a, &b, 16, &mut tiles);
        let mut bands = DirtyBands::default();
        bands.rebuild(&tiles, &s, 16, 48, 0);
        let cap = bands.spans.capacity();
        for _ in 0..3 {
            bands.rebuild(&tiles, &s, 16, 48, 0);
            assert_eq!(bands.spans.capacity(), cap);
        }
    }

    #[test]
    #[should_panic(expected = "mask dimensions must match")]
    fn mismatched_mask_dims_rejected() {
        mask_diff_count(&BitMask::new(4, 4), &BitMask::new(4, 5));
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn mismatched_dims_rejected() {
        mask_tile_diff_into(&BitMask::new(4, 4), &BitMask::new(4, 5), 2, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "tile size must be positive")]
    fn zero_tile_rejected() {
        mask_tile_diff_into(&BitMask::new(4, 4), &BitMask::new(4, 4), 0, &mut Vec::new());
    }
}
