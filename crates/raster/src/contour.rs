//! Moore-neighbour contour tracing.
//!
//! The recognition pipeline converts the signaller's silhouette boundary into
//! a centroid-distance time series (per the paper's SAX-on-shapes approach),
//! so an ordered outer boundary is required — a bag of edge pixels is not
//! enough. Moore-neighbour tracing with Jacob's stopping criterion yields the
//! boundary as a closed, ordered pixel sequence.
//!
//! The walk is one dependent chain: each step probes the neighbourhood
//! clockwise from the backtrack direction until it finds foreground. The
//! new backtrack depends only on the direction just taken, so it is read
//! from a table (`BACKTRACK`); each probe of the zero-padded mask tests an
//! axis with one unsigned compare. The probe loop stays a branchy loop on
//! purpose: its branches let the CPU run ahead along smooth edges, where a
//! branch-free walk over a neighbour byte was measured slower.

use crate::bitmask::{BitMask, WORD_BITS};
use crate::image::Bitmap;
use hdc_geometry::Vec2;

/// One point of a traced contour, in pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContourPoint {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

impl ContourPoint {
    /// Converts to a float vector (pixel centre).
    pub fn to_vec2(self) -> Vec2 {
        Vec2::new(self.x as f64, self.y as f64)
    }
}

/// Clockwise Moore neighbourhood starting west: W, NW, N, NE, E, SE, S, SW.
const MOORE: [(i64, i64); 8] = [
    (-1, 0),
    (-1, -1),
    (0, -1),
    (1, -1),
    (1, 0),
    (1, 1),
    (0, 1),
    (-1, 1),
];

/// The walk's new backtrack after a step in direction `d`: the direction
/// from the pixel just entered to the background pixel probed before it,
/// `MOORE[d - 1] - MOORE[d]`. It depends on `d` alone.
const BACKTRACK: [usize; 8] = [6, 6, 0, 0, 2, 2, 4, 4];

/// Traces the outer boundary of the first (row-major) foreground blob.
///
/// Returns the ordered, closed boundary as pixel coordinates, or `None` when
/// the mask is entirely background. An isolated single pixel yields a
/// one-point contour.
///
/// The caller is expected to have isolated the blob of interest first (see
/// [`crate::largest_component`]); if several blobs exist, the one whose
/// top-most/left-most pixel comes first in row-major order is traced.
///
/// # Example
/// ```
/// use hdc_raster::{Bitmap, trace_outer_contour};
/// let mut m = Bitmap::new(5, 5);
/// for y in 1..4 { for x in 1..4 { m.set(x, y, true); } }
/// let c = trace_outer_contour(&m).unwrap();
/// assert_eq!(c.len(), 8); // 3×3 square boundary
/// ```
pub fn trace_outer_contour(mask: &Bitmap) -> Option<Vec<ContourPoint>> {
    let mut contour = Vec::new();
    trace_outer_contour_into(mask, &mut contour).then_some(contour)
}

/// [`trace_outer_contour`] into a caller-provided buffer (cleared first); the
/// allocation-free form used by the steady-state frame loop.
///
/// Returns `false` (with `out` left empty) when the mask is entirely
/// background.
pub fn trace_outer_contour_into(mask: &Bitmap, out: &mut Vec<ContourPoint>) -> bool {
    // Row-major scan for the start pixel; everything before it is background,
    // so its west neighbour is guaranteed background. Skip background in
    // 32-pixel blocks (the `any` over a fixed chunk vectorises).
    let px = mask.pixels();
    let n = px.len();
    let mut i = 0usize;
    while i + 32 <= n && !px[i..i + 32].iter().any(|&b| b) {
        i += 32;
    }
    while i < n && !px[i] {
        i += 1;
    }
    if i == n {
        out.clear();
        return false;
    }
    let w = mask.width() as usize;
    let start = ((i % w) as i64, (i / w) as i64);
    moore_walk(|x, y| mask.get_padded(x, y), start, mask.pixel_count(), out);
    true
}

/// [`trace_outer_contour_into`] on a bit-packed mask: the start-pixel scan
/// compares 64 pixels per word (zero words skip in one branch, the first set
/// bit comes from `trailing_zeros`), then the same Moore walk runs over the
/// packed accessor. The traced contour is bit-identical to the byte form's.
pub fn trace_outer_contour_packed_into(mask: &BitMask, out: &mut Vec<ContourPoint>) -> bool {
    let wpr = mask.words_per_row();
    let words = mask.words();
    // The tail invariant keeps padding bits zero, so the first set bit in
    // the word array is exactly the row-major first foreground pixel.
    let Some((j, &word)) = words.iter().enumerate().find(|(_, w)| **w != 0) else {
        out.clear();
        return false;
    };
    let y = (j / wpr) as i64;
    let x = ((j % wpr) * WORD_BITS) as i64 + i64::from(word.trailing_zeros());
    moore_walk(
        |x, y| mask.get_padded(x, y),
        (x, y),
        (mask.width() * mask.height()) as usize,
        out,
    );
    true
}

/// The Moore-neighbour boundary walk shared by the byte and packed tracers:
/// starts at `start` (whose west neighbour must be background — guaranteed
/// by a row-major start scan), probes the neighbourhood through `fg`, and
/// stops by Jacob's criterion. `out` is cleared first and receives the
/// ordered, closed boundary.
fn moore_walk<F: Fn(i64, i64) -> bool>(
    fg: F,
    start: (i64, i64),
    pixel_count: usize,
    out: &mut Vec<ContourPoint>,
) {
    out.clear();
    let (sx, sy) = start;
    out.push(ContourPoint {
        x: sx as u32,
        y: sy as u32,
    });
    // Backtrack begins at the west neighbour (index 0 in MOORE).
    let mut cur = (sx, sy);
    let mut backtrack_idx = 0usize;
    // Termination (Jacob's criterion, transition form): stop when the move
    // out of the current pixel reproduces the very first move's resulting
    // state `(pixel, backtrack)` — i.e. the walk has started repeating.
    let mut first_move_state: Option<((i64, i64), usize)> = None;
    let max_steps = 4 * pixel_count + 8;

    for _ in 0..max_steps {
        // Scan clockwise from just after the backtrack direction.
        let mut found = None;
        for k in 1..=8 {
            let d = (backtrack_idx + k) % 8;
            let (dx, dy) = MOORE[d];
            let n = (cur.0 + dx, cur.1 + dy);
            if fg(n.0, n.1) {
                found = Some((n, d));
                break;
            }
        }
        let Some((next, d)) = found else {
            // isolated pixel
            return;
        };
        let new_state = (next, BACKTRACK[d]);
        match first_move_state {
            None => first_move_state = Some(new_state),
            Some(first) if first == new_state => break,
            Some(_) => {}
        }

        cur = next;
        backtrack_idx = new_state.1;
        out.push(ContourPoint {
            x: cur.0 as u32,
            y: cur.1 as u32,
        });
    }
    // The loop closes back at the start; drop the duplicated start point if present.
    if out.len() > 1 && out.last() == out.first() {
        out.pop();
    }
}

/// Centroid of the contour points.
pub fn contour_centroid(contour: &[ContourPoint]) -> Option<Vec2> {
    if contour.is_empty() {
        return None;
    }
    Some(contour.iter().map(|p| p.to_vec2()).sum::<Vec2>() / contour.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw;
    use crate::image::GrayImage;
    use crate::threshold::binarize;

    /// Perimeter of a closed contour (Euclidean, √2 for diagonal steps).
    fn contour_perimeter(contour: &[ContourPoint]) -> f64 {
        (0..contour.len())
            .map(|i| {
                let b = contour[(i + 1) % contour.len()];
                contour[i].to_vec2().distance(b.to_vec2())
            })
            .sum()
    }

    fn disk_mask(r: f64) -> Bitmap {
        let size = (2.0 * r + 10.0) as u32;
        let mut img = GrayImage::new(size, size);
        draw::fill_disk(
            &mut img,
            Vec2::new(size as f64 / 2.0, size as f64 / 2.0),
            r,
            255,
        );
        binarize(&img, 128)
    }

    #[test]
    fn empty_mask_yields_none() {
        assert!(trace_outer_contour(&Bitmap::new(4, 4)).is_none());
    }

    #[test]
    fn single_pixel_contour() {
        let mut m = Bitmap::new(3, 3);
        m.set(1, 1, true);
        let c = trace_outer_contour(&m).unwrap();
        assert_eq!(c, vec![ContourPoint { x: 1, y: 1 }]);
    }

    #[test]
    fn square_boundary_is_closed_ring() {
        let mut m = Bitmap::new(6, 6);
        for y in 1..5 {
            for x in 1..5 {
                m.set(x, y, true);
            }
        }
        let c = trace_outer_contour(&m).unwrap();
        // 4×4 square: boundary has 12 pixels
        assert_eq!(c.len(), 12);
        // all contour points are foreground and touch background
        for p in &c {
            assert_eq!(m.get(p.x, p.y), Some(true));
        }
        // consecutive points are Moore-adjacent
        for i in 0..c.len() {
            let a = c[i];
            let b = c[(i + 1) % c.len()];
            let dx = (a.x as i64 - b.x as i64).abs();
            let dy = (a.y as i64 - b.y as i64).abs();
            assert!(
                dx <= 1 && dy <= 1 && (dx + dy) > 0,
                "gap between {a:?} and {b:?}"
            );
        }
    }

    #[test]
    fn disk_contour_matches_circumference() {
        let c = trace_outer_contour(&disk_mask(20.0)).unwrap();
        let per = contour_perimeter(&c);
        let expected = std::f64::consts::TAU * 20.0;
        assert!(
            (per - expected).abs() / expected < 0.15,
            "perimeter {per} vs circle {expected}"
        );
    }

    #[test]
    fn contour_centroid_near_disk_center() {
        let mask = disk_mask(15.0);
        let c = trace_outer_contour(&mask).unwrap();
        let centroid = contour_centroid(&c).unwrap();
        let center = Vec2::new(mask.width() as f64 / 2.0, mask.height() as f64 / 2.0);
        assert!(
            centroid.distance(center) < 1.5,
            "centroid {centroid} vs {center}"
        );
    }

    #[test]
    fn blob_touching_border_traces_without_panic() {
        let mut m = Bitmap::new(5, 5);
        for y in 0..5 {
            for x in 0..3 {
                m.set(x, y, true);
            }
        }
        let c = trace_outer_contour(&m).unwrap();
        assert!(c.len() >= 12);
    }

    #[test]
    fn concave_shape_traced_fully() {
        // A "U" shape: contour must walk into the cavity
        let mut m = Bitmap::new(7, 7);
        for y in 1..6 {
            for x in 1..6 {
                m.set(x, y, true);
            }
        }
        for y in 1..5 {
            m.set(3, y, false); // carve the slot
        }
        let c = trace_outer_contour(&m).unwrap();
        // Boundary must include pixels on both sides of the slot at its bottom
        assert!(c.iter().any(|p| p.x == 2 && p.y == 1));
        assert!(c.iter().any(|p| p.x == 4 && p.y == 1));
        assert!(c.len() > 16);
    }

    #[test]
    fn contour_buffer_reuse_matches_allocating_form() {
        let mut buf = Vec::new();
        for r in [6.0, 20.0, 11.0] {
            let m = disk_mask(r);
            assert!(trace_outer_contour_into(&m, &mut buf));
            assert_eq!(Some(buf.clone()), trace_outer_contour(&m), "radius {r}");
        }
        assert!(!trace_outer_contour_into(&Bitmap::new(4, 4), &mut buf));
        assert!(buf.is_empty(), "empty mask clears the buffer");
    }

    #[test]
    fn packed_trace_matches_byte_trace() {
        let mut byte_buf = Vec::new();
        let mut packed_buf = Vec::new();
        for r in [6.0, 20.0, 35.0] {
            let m = disk_mask(r);
            let packed = BitMask::from_bitmap(&m);
            assert!(trace_outer_contour_into(&m, &mut byte_buf));
            assert!(trace_outer_contour_packed_into(&packed, &mut packed_buf));
            assert_eq!(byte_buf, packed_buf, "radius {r}");
        }
        // Start pixel deep into a later word, blob crossing word boundaries.
        let mut m = Bitmap::new(150, 9);
        for y in 3..8 {
            for x in 60..70 {
                m.set(x, y, true);
            }
        }
        let packed = BitMask::from_bitmap(&m);
        assert!(trace_outer_contour_into(&m, &mut byte_buf));
        assert!(trace_outer_contour_packed_into(&packed, &mut packed_buf));
        assert_eq!(byte_buf, packed_buf);
        // Empty mask clears the buffer and reports false.
        assert!(!trace_outer_contour_packed_into(
            &BitMask::new(70, 4),
            &mut packed_buf
        ));
        assert!(packed_buf.is_empty());
    }

    #[test]
    fn backtrack_table_is_the_moore_geometry() {
        // the background pixel probed before direction d is MOORE[d - 1]
        for (d, &backtrack) in BACKTRACK.iter().enumerate() {
            let (px, py) = MOORE[(d + 7) % 8];
            let (nx, ny) = MOORE[d];
            assert_eq!(MOORE[backtrack], (px - nx, py - ny), "direction {d}");
        }
    }

    #[test]
    fn packed_trace_matches_byte_trace_at_every_border() {
        // Blobs touching every border and corner, at widths around the
        // word size and one or two rows tall, where every probe of the
        // walk's padded neighbourhood leaves the mask on some side.
        let mut byte_buf = Vec::new();
        let mut packed_buf = Vec::new();
        for w in [63u32, 64, 65, 128] {
            for h in [1u32, 2] {
                let full = |_: u32, _: u32| true;
                let corners = |x: u32, y: u32| (x == 0 || x == w - 1) && (y == 0 || y == h - 1);
                let right_half = |x: u32, _: u32| x >= w / 2;
                let last_column = |x: u32, _: u32| x == w - 1;
                let staircase = |x: u32, y: u32| !(x + y).is_multiple_of(3);
                let shapes: [&dyn Fn(u32, u32) -> bool; 5] =
                    [&full, &corners, &right_half, &last_column, &staircase];
                for (i, shape) in shapes.iter().enumerate() {
                    let mut m = Bitmap::new(w, h);
                    for y in 0..h {
                        for x in 0..w {
                            m.set(x, y, shape(x, y));
                        }
                    }
                    let packed = BitMask::from_bitmap(&m);
                    let found = trace_outer_contour_into(&m, &mut byte_buf);
                    assert_eq!(
                        found,
                        trace_outer_contour_packed_into(&packed, &mut packed_buf),
                        "{w}×{h} shape {i}"
                    );
                    assert_eq!(byte_buf, packed_buf, "{w}×{h} shape {i}");
                }
            }
        }
    }

    #[test]
    fn one_pixel_wide_line_traced() {
        let mut m = Bitmap::new(8, 3);
        for x in 1..7 {
            m.set(x, 1, true);
        }
        let c = trace_outer_contour(&m).unwrap();
        // the trace goes out and back along the line: 2*(6-1) points
        assert_eq!(c.len(), 10);
    }
}
