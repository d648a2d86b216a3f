//! Connected-component labelling.
//!
//! The labeller is run-based: one pass extracts each row's foreground runs
//! and unions every run with the previous-row runs it touches, then a
//! resolve pass numbers the union-find roots in row-major discovery order
//! and sums each component's statistics over its runs. The extraction also
//! counts live roots (one per run, less one per merge of two different
//! roots) and sums every run's statistics in run order, the order the
//! resolve pass sums a component's runs in. So when one root remains, those
//! sums are the only component's statistics bit for bit, and
//! [`largest_component_packed_lazy`] skips the resolve pass and the rebuild:
//! the mask is its own blob.

use crate::bitmask::{BitMask, WORD_BITS};
use crate::image::{Bitmap, Image};
use hdc_geometry::Vec2;
use std::collections::VecDeque;

/// Pixel connectivity for component labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Connectivity {
    /// Edge-adjacent neighbours only.
    Four,
    /// Edge- and corner-adjacent neighbours.
    Eight,
}

impl Connectivity {
    fn offsets(self) -> &'static [(i64, i64)] {
        match self {
            Connectivity::Four => &[(1, 0), (-1, 0), (0, 1), (0, -1)],
            Connectivity::Eight => &[
                (1, 0),
                (-1, 0),
                (0, 1),
                (0, -1),
                (1, 1),
                (1, -1),
                (-1, 1),
                (-1, -1),
            ],
        }
    }

    /// How far apart two runs on adjacent rows may start/end and still
    /// touch: 8-connectivity also joins runs that only meet diagonally.
    fn margin(self) -> u32 {
        match self {
            Connectivity::Four => 0,
            Connectivity::Eight => 1,
        }
    }
}

/// A labelled connected component of foreground pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// 1-based label as written into the label image.
    pub label: u32,
    /// Number of pixels.
    pub area: usize,
    /// Pixel-centroid of the component.
    pub centroid: Vec2,
    /// Inclusive bounding box `(min_x, min_y, max_x, max_y)`.
    pub bbox: (u32, u32, u32, u32),
}

impl Component {
    /// No pixels yet: the start of a sum over runs.
    const EMPTY: Component = Component {
        label: 1,
        area: 0,
        centroid: Vec2::ZERO,
        bbox: (u32::MAX, u32::MAX, 0, 0),
    };

    /// Adds the run `s..=e` of row `y` to the area, the coordinate sums
    /// held in `centroid` and the bounding box.
    #[inline]
    fn add_run(&mut self, y: u32, s: u32, e: u32) {
        let len = (e - s + 1) as usize;
        self.area += len;
        // Σ x over the run is an arithmetic series; len·(s+e) is always even.
        self.centroid += Vec2::new((s + e) as f64 * len as f64 / 2.0, y as f64 * len as f64);
        self.bbox.0 = self.bbox.0.min(s);
        self.bbox.1 = self.bbox.1.min(y);
        self.bbox.2 = self.bbox.2.max(e);
        self.bbox.3 = self.bbox.3.max(y);
    }

    /// Bounding-box width in pixels.
    pub fn width(&self) -> u32 {
        self.bbox.2 - self.bbox.0 + 1
    }

    /// Bounding-box height in pixels.
    pub fn height(&self) -> u32 {
        self.bbox.3 - self.bbox.1 + 1
    }
}

/// Reusable buffers for component labelling, so the per-frame segmentation
/// step performs no heap allocation in steady state.
///
/// The labeller is run-based: one sequential pass extracts horizontal
/// foreground runs, a union-find over run indices merges runs that touch
/// across rows, and statistics come from run arithmetic. On a bit-packed
/// mask an empty row costs one OR over its words and a zero word one
/// compare, so the cost is the number of rows plus the words and runs of
/// the rows that hold foreground: a silhouette pays for the rows it spans,
/// not for the frame's pixel count.
#[derive(Debug, Clone)]
pub struct LabelScratch {
    /// Foreground runs `(row, start, end)` (inclusive), in row-major order.
    runs: Vec<(u32, u32, u32)>,
    /// Union-find parent per run.
    parent: Vec<u32>,
    /// 0-based component index per run (filled by the resolve pass).
    run_comp: Vec<u32>,
    /// Per-label statistics, rebuilt each call.
    comps: Vec<Component>,
    /// Union-find roots left: one per run, less one per merge of two
    /// different roots.
    live: usize,
    /// Area, coordinate sums and bounding box of every run so far, summed
    /// in run order: the only component's statistics when `live` is 1.
    all: Component,
}

impl LabelScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        LabelScratch {
            runs: Vec::new(),
            parent: Vec::new(),
            run_comp: Vec::new(),
            comps: Vec::new(),
            live: 0,
            all: Component::EMPTY,
        }
    }

    /// The components from the most recent labelling, ordered by label.
    pub fn components(&self) -> &[Component] {
        &self.comps
    }

    /// Empties the runs for a new labelling.
    fn clear_runs(&mut self) {
        self.runs.clear();
        self.parent.clear();
        self.live = 0;
        self.all = Component::EMPTY;
    }

    /// Appends the run `(y, s, e)`, adds it to the running statistics and
    /// unions it with every previous-row run it touches (`margin` 1 widens
    /// the overlap test for 8-connectivity). The cursor `p` only advances
    /// past runs that end strictly before this run starts, so a wide run
    /// above can still merge with the next run here. Shared by the byte and
    /// packed extractors, so both produce the identical union-find
    /// structure.
    #[inline]
    fn push_run(&mut self, y: u32, s: u32, e: u32, margin: u32, p: &mut usize, prev_hi: usize) {
        let ri = self.runs.len() as u32;
        self.runs.push((y, s, e));
        self.parent.push(ri);
        self.live += 1;
        self.all.add_run(y, s, e);
        while *p < prev_hi && self.runs[*p].2 + margin < s {
            *p += 1;
        }
        let mut q = *p;
        while q < prev_hi && self.runs[q].1 <= e + margin {
            if union_runs(&mut self.parent, ri, q as u32) {
                self.live -= 1;
            }
            q += 1;
        }
    }
}

impl Default for LabelScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Union-find root with path halving. Roots are always the component's
/// first (row-major) run, because `union_runs` keeps the smaller index as
/// the root.
fn find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        parent[i as usize] = parent[parent[i as usize] as usize];
        i = parent[i as usize];
    }
    i
}

/// Unions the sets of runs `a` and `b`; `true` when they were two sets.
fn union_runs(parent: &mut [u32], a: u32, b: u32) -> bool {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra < rb {
        parent[rb as usize] = ra;
    } else if rb < ra {
        parent[ra as usize] = rb;
    }
    ra != rb
}

/// Resolves union-find roots to component indices in first-run order
/// (= row-major discovery order) and accumulates per-component statistics
/// from run arithmetic.
///
/// Statistics are exact: every coordinate sum is a sum of integers, which
/// f64 accumulates exactly at these image sizes regardless of order, so the
/// results are bit-identical to the per-pixel BFS oracle.
fn resolve_runs(scratch: &mut LabelScratch) {
    let runs = &scratch.runs;
    let parent = &mut scratch.parent;
    let run_comp = &mut scratch.run_comp;
    run_comp.clear();
    run_comp.resize(runs.len(), 0);
    scratch.comps.clear();
    for ri in 0..runs.len() {
        let root = find(parent, ri as u32) as usize;
        let ci = if root == ri {
            let ci = scratch.comps.len() as u32;
            scratch.comps.push(Component {
                label: ci + 1,
                ..Component::EMPTY
            });
            ci
        } else {
            run_comp[root] // roots are minimal, so already resolved
        };
        run_comp[ri] = ci;
        let (y, s, e) = runs[ri];
        scratch.comps[ci as usize].add_run(y, s, e);
    }
    for c in &mut scratch.comps {
        c.centroid /= c.area as f64;
    }
}

/// Core run-based labelling: extracts foreground runs, unions runs that
/// touch across adjacent rows and resolves per-component statistics into
/// `scratch`. Component numbering matches a row-major flood fill: labels are
/// assigned in discovery order of each component's first (topmost, then
/// leftmost) pixel.
fn label_into(mask: &Bitmap, conn: Connectivity, scratch: &mut LabelScratch) {
    let w = mask.width() as usize;
    let h = mask.height() as usize;
    let px = mask.pixels();
    scratch.clear_runs();
    // 8-connectivity also joins runs that only touch diagonally: widen the
    // overlap test by one pixel on each side.
    let margin = conn.margin();

    let (mut prev_lo, mut prev_hi) = (0usize, 0usize);
    for y in 0..h {
        let row = &px[y * w..(y + 1) * w];
        let row_lo = scratch.runs.len();
        let mut p = prev_lo; // cursor over the previous row's runs
        let mut x = 0usize;
        while x < w {
            // Skip background in 32-pixel blocks (the `any` over a fixed
            // chunk vectorises), then byte-wise to the run start.
            while x + 32 <= w && !row[x..x + 32].iter().any(|&b| b) {
                x += 32;
            }
            if x >= w {
                break;
            }
            if !row[x] {
                x += 1;
                continue;
            }
            let s = x as u32;
            while x + 32 <= w && row[x..x + 32].iter().all(|&b| b) {
                x += 32;
            }
            while x < w && row[x] {
                x += 1;
            }
            let e = (x - 1) as u32;
            scratch.push_run(y as u32, s, e, margin, &mut p, prev_hi);
        }
        prev_lo = row_lo;
        prev_hi = scratch.runs.len();
    }
    resolve_runs(scratch);
}

/// The run extraction and union step of [`label_into`] on a bit-packed
/// mask, with no resolve pass: foreground runs come straight from the mask
/// words via trailing-zeros/trailing-ones scans — an empty row is skipped
/// after one OR over its words, a zero word skips 64 background pixels in
/// one compare, and run ends inside a word are found without touching
/// individual pixels. Run order and the union-find structure are identical
/// to the byte extractor's, so the two paths label bit-identically.
fn runs_packed(mask: &BitMask, conn: Connectivity, scratch: &mut LabelScratch) {
    let w = mask.width();
    let h = mask.height() as usize;
    let wpr = mask.words_per_row();
    let words = mask.words();
    scratch.clear_runs();
    let margin = conn.margin();

    let (mut prev_lo, mut prev_hi) = (0usize, 0usize);
    for y in 0..h {
        let row = &words[y * wpr..(y + 1) * wpr];
        let row_lo = scratch.runs.len();
        if row.iter().fold(0, |acc, &w| acc | w) == 0 {
            // no runs here, so the next row has no previous-row runs to join
            prev_lo = row_lo;
            prev_hi = row_lo;
            continue;
        }
        let mut p = prev_lo; // cursor over the previous row's runs
                             // Start of a run that is still open at the current word boundary.
        let mut open: Option<u32> = None;
        for (j, &w0) in row.iter().enumerate() {
            let base = (j * WORD_BITS) as u32;
            let mut word = w0;
            if let Some(s) = open {
                let ones = word.trailing_ones();
                if ones == WORD_BITS as u32 {
                    continue; // run spans the whole word, still open
                }
                scratch.push_run(y as u32, s, base + ones - 1, margin, &mut p, prev_hi);
                open = None;
                word &= !((1u64 << ones) - 1);
            }
            while word != 0 {
                let tz = word.trailing_zeros();
                let ones = (word >> tz).trailing_ones();
                if tz + ones == WORD_BITS as u32 {
                    open = Some(base + tz); // run reaches the word's MSB
                    break;
                }
                scratch.push_run(
                    y as u32,
                    base + tz,
                    base + tz + ones - 1,
                    margin,
                    &mut p,
                    prev_hi,
                );
                word &= !(((1u64 << ones) - 1) << tz);
            }
        }
        if let Some(s) = open {
            // The tail invariant keeps bits ≥ width zero, so a run open at
            // the last word boundary ends exactly at the image edge.
            scratch.push_run(y as u32, s, w - 1, margin, &mut p, prev_hi);
        }
        prev_lo = row_lo;
        prev_hi = scratch.runs.len();
    }
}

/// Labels all foreground components with flood fill over the raw row-major
/// pixel slice.
///
/// Returns the label image (0 = background, labels start at 1) and per-label
/// statistics ordered by label. Labels are assigned in row-major discovery
/// order, exactly like [`label_components_bfs`]; component statistics are
/// accumulated in row-major pixel order.
///
/// # Example
/// ```
/// use hdc_raster::{Bitmap, label_components, Connectivity};
/// let mut mask = Bitmap::new(5, 5);
/// mask.set(0, 0, true);
/// mask.set(4, 4, true);
/// let (_labels, comps) = label_components(&mask, Connectivity::Four);
/// assert_eq!(comps.len(), 2);
/// ```
pub fn label_components(mask: &Bitmap, conn: Connectivity) -> (Image<u32>, Vec<Component>) {
    let mut scratch = LabelScratch::new();
    label_into(mask, conn, &mut scratch);
    let w = mask.width() as usize;
    let mut labels = vec![0u32; w * mask.height() as usize];
    for (ri, &(y, s, e)) in scratch.runs.iter().enumerate() {
        let base = y as usize * w;
        labels[base + s as usize..=base + e as usize].fill(scratch.run_comp[ri] + 1);
    }
    (
        Image::from_raw(mask.width(), mask.height(), labels),
        scratch.comps,
    )
}

/// Reference implementation of [`label_components`]: breadth-first flood fill
/// through the bounds-checked pixel accessors. Kept as the test oracle and
/// the honest "before" baseline for the committed benchmark.
pub fn label_components_bfs(mask: &Bitmap, conn: Connectivity) -> (Image<u32>, Vec<Component>) {
    let w = mask.width();
    let h = mask.height();
    let mut labels: Image<u32> = Image::new(w, h);
    let mut comps = Vec::new();
    let mut next = 1u32;
    let mut queue: VecDeque<(u32, u32)> = VecDeque::new();

    for y in 0..h {
        for x in 0..w {
            if mask.get(x, y) != Some(true) || labels.get(x, y) != Some(0) {
                continue;
            }
            // flood fill a new component
            let label = next;
            next += 1;
            labels.set(x, y, label);
            queue.push_back((x, y));
            let mut area = 0usize;
            let mut sum = Vec2::ZERO;
            let mut bbox = (x, y, x, y);
            while let Some((cx, cy)) = queue.pop_front() {
                area += 1;
                sum += Vec2::new(cx as f64, cy as f64);
                bbox.0 = bbox.0.min(cx);
                bbox.1 = bbox.1.min(cy);
                bbox.2 = bbox.2.max(cx);
                bbox.3 = bbox.3.max(cy);
                for (dx, dy) in conn.offsets() {
                    let nx = cx as i64 + dx;
                    let ny = cy as i64 + dy;
                    if nx < 0 || ny < 0 {
                        continue;
                    }
                    let (nx, ny) = (nx as u32, ny as u32);
                    if mask.get(nx, ny) == Some(true) && labels.get(nx, ny) == Some(0) {
                        labels.set(nx, ny, label);
                        queue.push_back((nx, ny));
                    }
                }
            }
            comps.push(Component {
                label,
                area,
                centroid: sum / area as f64,
                bbox,
            });
        }
    }
    (labels, comps)
}

/// Extracts the largest foreground component as a fresh mask.
///
/// Returns `None` when the mask has no foreground at all. This implements the
/// pipeline's assumption that the signaller is the dominant blob in frame.
pub fn largest_component(mask: &Bitmap, conn: Connectivity) -> Option<(Bitmap, Component)> {
    let mut out = Bitmap::new(mask.width(), mask.height());
    let comp = largest_component_with(mask, conn, &mut out, &mut LabelScratch::new())?;
    Some((out, comp))
}

/// [`largest_component`] with caller-provided output mask and scratch
/// buffers; the allocation-free form used by the steady-state frame loop.
///
/// `out` is re-dimensioned to match `mask` and every pixel is overwritten.
/// Ties on area resolve to the highest label, like [`largest_component`].
pub fn largest_component_with(
    mask: &Bitmap,
    conn: Connectivity,
    out: &mut Bitmap,
    scratch: &mut LabelScratch,
) -> Option<Component> {
    label_into(mask, conn, scratch);
    let biggest = scratch.comps.iter().max_by_key(|c| c.area)?.clone();
    out.reset_dimensions(mask.width(), mask.height());
    let w = mask.width() as usize;
    let dst = out.pixels_mut();
    dst.fill(false);
    let target = biggest.label - 1;
    for (ri, &(y, s, e)) in scratch.runs.iter().enumerate() {
        if scratch.run_comp[ri] == target {
            let base = y as usize * w;
            dst[base + s as usize..=base + e as usize].fill(true);
        }
    }
    Some(biggest)
}

/// [`label_components`] on a bit-packed mask. Labels, statistics and their
/// order are bit-identical to the byte and BFS forms.
pub fn label_components_packed(mask: &BitMask, conn: Connectivity) -> (Image<u32>, Vec<Component>) {
    let mut scratch = LabelScratch::new();
    runs_packed(mask, conn, &mut scratch);
    resolve_runs(&mut scratch);
    let w = mask.width() as usize;
    let mut labels = vec![0u32; w * mask.height() as usize];
    for (ri, &(y, s, e)) in scratch.runs.iter().enumerate() {
        let base = y as usize * w;
        labels[base + s as usize..=base + e as usize].fill(scratch.run_comp[ri] + 1);
    }
    (
        Image::from_raw(mask.width(), mask.height(), labels),
        scratch.comps,
    )
}

/// [`largest_component_with`] on a bit-packed mask that copies only when it
/// must. When the mask has one component, every set bit of `mask` belongs
/// to it, so `mask` already is the isolated blob: `out` is left untouched
/// and the flag is `false`. That component's statistics were summed as its
/// runs were extracted, in run order as the resolve pass sums them, so no
/// resolve pass runs. Otherwise the components are resolved, the largest is
/// rebuilt into `out` with whole-word run stores and the flag is `true`;
/// ties on area resolve to the highest label, like the byte form.
pub fn largest_component_packed_lazy(
    mask: &BitMask,
    conn: Connectivity,
    out: &mut BitMask,
    scratch: &mut LabelScratch,
) -> Option<(Component, bool)> {
    runs_packed(mask, conn, scratch);
    if scratch.live == 1 {
        let mut only = scratch.all.clone();
        only.centroid /= only.area as f64;
        scratch.comps.clear();
        scratch.comps.push(only.clone());
        return Some((only, false));
    }
    resolve_runs(scratch);
    let biggest = scratch.comps.iter().max_by_key(|c| c.area)?.clone();
    rebuild_packed(mask, &biggest, out, scratch);
    Some((biggest, true))
}

/// Rebuilds component `comp` of the labelling in `scratch` into `out`, at
/// `mask`'s dimensions, with whole-word run stores.
fn rebuild_packed(mask: &BitMask, comp: &Component, out: &mut BitMask, scratch: &LabelScratch) {
    out.reset_dimensions(mask.width(), mask.height());
    out.fill(false);
    let target = comp.label - 1;
    for (ri, &(y, s, e)) in scratch.runs.iter().enumerate() {
        if scratch.run_comp[ri] == target {
            out.set_run(y, s, e);
        }
    }
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
    fn single_blob() {
        let m = mask_from_rows(&["....", ".##.", ".##.", "...."]);
        let (labels, comps) = label_components(&m, Connectivity::Four);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].area, 4);
        assert_eq!(comps[0].centroid, Vec2::new(1.5, 1.5));
        assert_eq!(comps[0].bbox, (1, 1, 2, 2));
        assert_eq!(labels.get(1, 1), Some(1));
        assert_eq!(labels.get(0, 0), Some(0));
    }

    #[test]
    fn diagonal_blobs_depend_on_connectivity() {
        let m = mask_from_rows(&["#.", ".#"]);
        let (_, four) = label_components(&m, Connectivity::Four);
        assert_eq!(four.len(), 2);
        let (_, eight) = label_components(&m, Connectivity::Eight);
        assert_eq!(eight.len(), 1);
    }

    #[test]
    fn largest_selected() {
        let m = mask_from_rows(&["##....", "##....", "......", "....#."]);
        let (mask, comp) = largest_component(&m, Connectivity::Four).unwrap();
        assert_eq!(comp.area, 4);
        assert_eq!(mask.count_foreground(), 4);
        assert_eq!(mask.get(4, 3), Some(false), "small blob removed");
    }

    #[test]
    fn empty_mask_has_no_largest() {
        let m = Bitmap::new(3, 3);
        assert!(largest_component(&m, Connectivity::Eight).is_none());
    }

    fn speckled(w: u32, h: u32, salt: u64) -> Bitmap {
        // Deterministic pseudo-random mask with blobs at several scales.
        let mut m = Bitmap::new(w, h);
        let mut state = salt | 1;
        for y in 0..h {
            for x in 0..w {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = (state >> 60) < 6;
                let blob = (x / 7 + y / 5) % 3 == 0;
                m.set(x, y, noise ^ blob);
            }
        }
        m
    }

    #[test]
    fn fast_labelling_matches_bfs_oracle() {
        for (w, h, salt) in [(17u32, 13u32, 1u64), (40, 31, 7), (64, 48, 99)] {
            let m = speckled(w, h, salt);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let (labels, comps) = label_components(&m, conn);
                let (labels_bfs, comps_bfs) = label_components_bfs(&m, conn);
                assert_eq!(labels, labels_bfs, "label image ({w}×{h}, {conn:?})");
                assert_eq!(comps.len(), comps_bfs.len());
                for (a, b) in comps.iter().zip(&comps_bfs) {
                    assert_eq!(a.label, b.label);
                    assert_eq!(a.area, b.area);
                    assert_eq!(a.bbox, b.bbox);
                    assert!(
                        (a.centroid.x - b.centroid.x).abs() < 1e-9
                            && (a.centroid.y - b.centroid.y).abs() < 1e-9,
                        "centroid {:?} vs {:?}",
                        a.centroid,
                        b.centroid
                    );
                }
            }
        }
    }

    #[test]
    fn packed_labelling_matches_byte_path() {
        // Widths straddling the word boundary so runs open and close across
        // words, plus 1-px-tall and 1-px-wide degenerate masks.
        for (w, h, salt) in [
            (17u32, 13u32, 1u64),
            (63, 5, 2),
            (64, 48, 99),
            (65, 9, 3),
            (130, 21, 7),
            (200, 1, 11),
            (1, 40, 13),
        ] {
            assert_packed_labels_like_bytes(&speckled(w, h, salt));
        }
        // Empty leading, interior and trailing rows, which the packed
        // labeller skips whole. Each pair of blobs overlaps in x across
        // exactly one empty row, so a skip that kept the last non-empty
        // row's runs as the previous row would wrongly merge them.
        let wide = ".".repeat(70);
        let blob_a = format!("{}{}", "#".repeat(66), "....");
        let blob_b = format!("{}{}", ".".repeat(60), "#".repeat(10));
        for rows in [
            vec![&wide, &wide, &blob_a, &wide, &blob_b, &wide, &wide],
            vec![&blob_a, &wide, &blob_a, &wide, &blob_b],
            vec![
                &blob_b, &wide, &wide, &blob_a, &wide, &blob_b, &blob_b, &wide,
            ],
            vec![&wide, &wide, &wide],
        ] {
            let rows: Vec<&str> = rows.iter().map(|r| r.as_str()).collect();
            assert_packed_labels_like_bytes(&mask_from_rows(&rows));
        }
        let mut banded = speckled(130, 40, 17);
        for y in [0, 1, 9, 10, 11, 20, 39] {
            for x in 0..130 {
                banded.set(x, y, false);
            }
        }
        assert_packed_labels_like_bytes(&banded);
    }

    /// The packed labelling of `m` equals the byte labelling, label image
    /// and components, under both connectivities.
    fn assert_packed_labels_like_bytes(m: &Bitmap) {
        let (w, h) = (m.width(), m.height());
        let packed = BitMask::from_bitmap(m);
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let (labels, comps) = label_components(m, conn);
            let (labels_p, comps_p) = label_components_packed(&packed, conn);
            assert_eq!(labels, labels_p, "label image ({w}×{h}, {conn:?})");
            assert_eq!(comps, comps_p, "components ({w}×{h}, {conn:?})");
        }
    }

    #[test]
    fn packed_labelling_handles_full_rows() {
        // All-foreground rows exercise the run-spans-whole-word carry and
        // the close-at-image-edge path for both ×64 and non-×64 widths.
        for w in [64u32, 128, 65, 190] {
            let m = {
                let mut m = Bitmap::new(w, 3);
                m.pixels_mut().fill(true);
                m
            };
            let packed = BitMask::from_bitmap(&m);
            let (_, comps) = label_components_packed(&packed, Connectivity::Four);
            assert_eq!(comps.len(), 1, "width {w}");
            assert_eq!(comps[0].area, (w * 3) as usize);
            assert_eq!(comps[0].bbox, (0, 0, w - 1, 2));
        }
    }

    #[test]
    fn packed_largest_component_matches_byte_path() {
        let mut out = Bitmap::new(1, 1);
        let mut out_p = BitMask::new(1, 1);
        let mut scratch = LabelScratch::new();
        let mut scratch_p = LabelScratch::new();
        for (w, h, salt) in [(33u32, 21u32, 3u64), (130, 17, 5), (64, 11, 8)] {
            let m = speckled(w, h, salt);
            let packed = BitMask::from_bitmap(&m);
            let byte = largest_component_with(&m, Connectivity::Eight, &mut out, &mut scratch);
            let (fast, copied) = largest_component_packed_lazy(
                &packed,
                Connectivity::Eight,
                &mut out_p,
                &mut scratch_p,
            )
            .expect("speckled masks have foreground");
            assert_eq!(byte, Some(fast), "component ({w}×{h})");
            let blob = if copied { &out_p } else { &packed };
            assert_eq!(out, blob.to_bitmap(), "blob mask ({w}×{h})");
        }
    }

    #[test]
    fn largest_component_with_reuses_buffers() {
        let mut out = Bitmap::new(1, 1);
        let mut scratch = LabelScratch::new();
        for salt in [3u64, 5, 8] {
            let m = speckled(33, 21, salt);
            let fast = largest_component_with(&m, Connectivity::Eight, &mut out, &mut scratch);
            let slow = largest_component(&m, Connectivity::Eight);
            match (fast, slow) {
                (Some(fc), Some((sm, sc))) => {
                    assert_eq!(fc.area, sc.area);
                    assert_eq!(fc.bbox, sc.bbox);
                    assert_eq!(out, sm);
                }
                (None, None) => {}
                other => panic!("fast/slow disagree: {other:?}"),
            }
        }
    }

    /// The lazy packed form against the BFS oracle on `m`: the same largest
    /// component (the highest label among equal areas), copied exactly when
    /// the mask has more than one component, and the same isolated blob.
    fn assert_lazy_like_bfs(m: &Bitmap, conn: Connectivity) {
        let (labels, comps) = label_components_bfs(m, conn);
        let packed = BitMask::from_bitmap(m);
        let mut out = BitMask::new(1, 1);
        let mut scratch = LabelScratch::new();
        let lazy = largest_component_packed_lazy(&packed, conn, &mut out, &mut scratch);
        let Some(best) = comps.iter().max_by_key(|c| c.area) else {
            assert_eq!(lazy, None, "{conn:?}: empty mask");
            return;
        };
        let (comp, copied) = lazy.unwrap_or_else(|| panic!("{conn:?}: no component"));
        assert_eq!(&comp, best, "{conn:?}: largest component");
        assert_eq!(copied, comps.len() > 1, "{conn:?}: copied");
        let blob = if copied { &out } else { &packed };
        for (x, y, v) in m.iter() {
            assert_eq!(
                blob.get(x, y),
                Some(v && labels.get(x, y) == Some(best.label)),
                "{conn:?}: blob pixel ({x}, {y})"
            );
        }
    }

    #[test]
    fn lazy_largest_matches_bfs_on_edge_shapes() {
        let shapes: [&[&str]; 9] = [
            // a ring: its bottom run meets two runs that already share a root
            &["......", ".####.", ".#..#.", ".#..#.", ".####.", "......"],
            // a ring around an island
            &["#####", "#...#", "#.#.#", "#...#", "#####"],
            // a U closed only in its last row
            &["#...#", "#...#", "#...#", "#####"],
            // a U closed in its last row beside a larger blob
            &["#.#..###", "#.#..###", "###..###"],
            // a spiral
            &[
                "#######", "#.....#", "#.###.#", "#.#.#.#", "#.#...#", "#.#####",
            ],
            // diagonal-only joins: one component under Eight, four under Four
            &["#...", ".#..", "..#.", "...#"],
            &["#.#.#", ".#.#.", "#.#.#"],
            // two equal-area components
            &["##..##", "##..##"],
            &["#..", "...", "..#"],
        ];
        for rows in shapes {
            let shape = mask_from_rows(rows);
            // at the origin and straddling a word boundary of a wider mask
            for x0 in [0u32, 61] {
                let mut m = Bitmap::new(x0 + shape.width() + 2, shape.height() + 1);
                for (x, y, v) in shape.iter() {
                    m.set(x0 + x, y, v);
                }
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    assert_lazy_like_bfs(&m, conn);
                }
            }
        }
    }

    #[test]
    fn component_dimensions() {
        let m = mask_from_rows(&["###", "..."]);
        let (_, comps) = label_components(&m, Connectivity::Four);
        assert_eq!(comps[0].width(), 3);
        assert_eq!(comps[0].height(), 1);
    }
}
