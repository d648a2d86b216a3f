//! Rasterisation of the primitives the silhouette renderer needs.
//!
//! **Definitions.** A pixel is a unit square sampled at its centre
//! `(x + 0.5, y + 0.5)`. A disk covers the centres within `radius` of its
//! centre. A tapered capsule `a`→`b` covers a centre `p` when `p` lies
//! within `r(t)` of `a + (b - a)·t`, where `t` is `p`'s projection onto the
//! segment clamped to `[0, 1]` and `r(t)` interpolates the two radii. Both
//! tests are evaluated in `f64` exactly as written, and that per-pixel
//! evaluation *is* the definition: every other form here must reproduce it
//! bit for bit.
//!
//! **Spans.** Scanning every pixel of a primitive's bounding box wastes most
//! of its tests on pixels far from any edge. The span rasteriser solves,
//! once per row, the x-interval each convex piece of the primitive covers,
//! and fills it as one run. It evaluates the per-pixel definition only on
//! pixels within a float-error margin of an interval end, where rounding
//! could decide the answer. The margins are sized from the coordinates'
//! magnitude, so they exceed the rounding of both the definition and the
//! interval solve by orders of magnitude; every pixel farther inside is
//! covered, and every pixel farther outside is not.
//!
//! **Convex pieces.** A disk is convex, so it spans one interval per row.
//! A tapered capsule is not: where a flank meets the thinner end's disk
//! there is a small concave kink, and one row can cross it in two runs.
//! The capsule is therefore the union of three convex pieces, each solved
//! on its own:
//! * the disk at `a`, clipped to `t ≤ 0`;
//! * the disk at `b`, clipped to `t ≥ 1`;
//! * the trapezoid between them, `|perpendicular offset| ≤ r(t)` for
//!   `0 ≤ t ≤ 1`, which is four half-planes.
//!
//! A segment shorter than `1e-6` px is the disk at `a`, as the definition
//! says. Inputs outside this domain (negative or non-finite radii,
//! non-finite coordinates, magnitudes beyond `1e64` px, or a side so nearly
//! parallel to the rows that solving it overflows) are scanned pixel by
//! pixel over the same clipped bounding box, so every input draws exactly
//! what the definition says.
//!
//! **Sinks.** The rasteriser writes runs into a [`SpanSink`]. [`Paint`]
//! writes a grey value into an [`Image`] row; [`BitMask`] ORs the run into
//! its packed words, so a binary silhouette can be rasterised straight into
//! the segmented mask with no grey frame in between. [`fill_disk`] and
//! [`fill_tapered_capsule`] are [`disk`] and [`tapered_capsule`] into a
//! [`Paint`].

use crate::bitmask::BitMask;
use crate::image::Image;
use hdc_geometry::{Polygon, Vec2};

/// A raster target the span rasteriser writes runs of covered pixels into.
pub trait SpanSink {
    /// Width and height in pixels.
    fn size(&self) -> (u32, u32);

    /// Marks pixels `x0..=x1` of row `y` as covered. The rasteriser only
    /// passes runs inside [`SpanSink::size`] with `x0 <= x1`.
    fn fill_span(&mut self, y: u32, x0: u32, x1: u32);
}

/// The grey-row sink: writes `value` into every covered pixel of `image`.
#[derive(Debug)]
pub struct Paint<'a, T> {
    image: &'a mut Image<T>,
    value: T,
}

impl<'a, T> Paint<'a, T> {
    /// A sink painting `value` into `image`.
    pub fn new(image: &'a mut Image<T>, value: T) -> Self {
        Paint { image, value }
    }
}

impl<T: Copy + Default> SpanSink for Paint<'_, T> {
    fn size(&self) -> (u32, u32) {
        (self.image.width(), self.image.height())
    }

    #[inline]
    fn fill_span(&mut self, y: u32, x0: u32, x1: u32) {
        let row = y as usize * self.image.width() as usize;
        self.image.pixels_mut()[row + x0 as usize..=row + x1 as usize].fill(self.value);
    }
}

/// The mask sink: sets every covered pixel. Runs never cross the width, so
/// the tail invariant holds.
impl SpanSink for BitMask {
    fn size(&self) -> (u32, u32) {
        (self.width(), self.height())
    }

    #[inline]
    fn fill_span(&mut self, y: u32, x0: u32, x1: u32) {
        self.set_run(y, x0, x1);
    }
}

/// Fills a solid disk centred at `center` with the given pixel `value`.
///
/// Pixels are treated as unit squares sampled at their centres.
///
/// # Example
/// ```
/// use hdc_raster::{GrayImage, draw};
/// use hdc_geometry::Vec2;
/// let mut img = GrayImage::new(16, 16);
/// draw::fill_disk(&mut img, Vec2::new(8.0, 8.0), 3.0, 255);
/// assert_eq!(img.get(8, 8), Some(255));
/// assert_eq!(img.get(0, 0), Some(0));
/// ```
pub fn fill_disk<T: Copy + Default>(img: &mut Image<T>, center: Vec2, radius: f64, value: T) {
    disk(&mut Paint::new(img, value), center, radius);
}

/// Fills a tapered capsule: segment `a`→`b` with linearly interpolated radii.
///
/// This is the projected image of a 3-D capsule limb: the end nearer the
/// camera appears thicker. Radii are in pixels.
pub fn fill_tapered_capsule<T: Copy + Default>(
    img: &mut Image<T>,
    a: Vec2,
    radius_a: f64,
    b: Vec2,
    radius_b: f64,
    value: T,
) {
    tapered_capsule(&mut Paint::new(img, value), a, radius_a, b, radius_b);
}

/// Rasterises the disk of [`fill_disk`] into `sink`, one run per row.
///
/// # Example
/// ```
/// use hdc_raster::{BitMask, draw};
/// use hdc_geometry::Vec2;
/// let mut mask = BitMask::new(70, 16);
/// draw::disk(&mut mask, Vec2::new(66.0, 8.0), 3.0);
/// assert_eq!(mask.get(66, 8), Some(true));
/// assert_eq!(mask.get(0, 0), Some(false));
/// ```
pub fn disk<S: SpanSink + ?Sized>(sink: &mut S, center: Vec2, radius: f64) {
    if radius <= 0.0 {
        return;
    }
    let Some(bounds) = PixelBox::clip(
        sink.size(),
        center - Vec2::splat(radius),
        center + Vec2::splat(radius),
    ) else {
        return;
    };
    let r_sq = radius * radius;
    let covers = |p: Vec2| (p - center).norm_sq() <= r_sq;
    let in_domain = center.is_finite() && radius.is_finite();
    let scale = center.x.abs().max(center.y.abs()) + radius + 2.0;
    let Some(margins) = Margins::of(scale, 1.0, 0.0).filter(|_| in_domain) else {
        return bounds.scan(sink, covers);
    };
    for y in bounds.y0..=bounds.y1 {
        if let Some((outer, inner)) = margins.disk_row(center, radius, y as f64 + 0.5) {
            bounds.emit(sink, y, outer, || inner, covers);
        }
    }
}

/// Rasterises the tapered capsule of [`fill_tapered_capsule`] into `sink`,
/// as the union of its three convex pieces (see the module docs).
pub fn tapered_capsule<S: SpanSink + ?Sized>(
    sink: &mut S,
    a: Vec2,
    radius_a: f64,
    b: Vec2,
    radius_b: f64,
) {
    let r_max = radius_a.max(radius_b).max(0.0);
    let Some(bounds) = PixelBox::clip(
        sink.size(),
        a.min(b) - Vec2::splat(r_max),
        a.max(b) + Vec2::splat(r_max),
    ) else {
        return;
    };
    let ab = b - a;
    let len_sq = ab.norm_sq();
    let covers = |p: Vec2| {
        let t = if len_sq <= 1e-12 {
            0.0
        } else {
            ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0)
        };
        let closest = a + ab * t;
        let r = radius_a + (radius_b - radius_a) * t;
        (p - closest).norm_sq() <= r * r
    };
    let in_domain = [a.x, a.y, b.x, b.y, radius_a, radius_b]
        .iter()
        .all(|v| v.is_finite())
        && radius_a >= 0.0
        && radius_b >= 0.0;
    let scale = a.x.abs().max(a.y.abs()).max(b.x.abs()).max(b.y.abs()) + r_max + 2.0;
    let degenerate = len_sq <= 1e-12;
    let len = if degenerate { 1.0 } else { len_sq.sqrt() };
    let Some(margins) = Margins::of(scale, len, (radius_b - radius_a).abs()).filter(|_| in_domain)
    else {
        return bounds.scan(sink, covers);
    };
    if degenerate {
        // the definition's degenerate case: the disk at `a`
        for y in bounds.y0..=bounds.y1 {
            if let Some((outer, inner)) = margins.disk_row(a, radius_a, y as f64 + 0.5) {
                bounds.emit(sink, y, outer, || inner, covers);
            }
        }
        return;
    }
    // the far end exactly as the definition computes it at t = 1
    let b_end = a + ab * 1.0;
    let radius_b_end = radius_a + (radius_b - radius_a) * 1.0;
    // On the row at v = y + 0.5 - a.y, with u = x - a.x: t·len_sq =
    // abx·u + aby·v, the signed offset from the axis is (abx·v - aby·u) / len,
    // and r(t) = radius_a + taper·(abx·u + aby·v). Each piece's sides are
    // linear constraints k·u ≤ c0 + c1·v.
    let taper = (radius_b - radius_a) / len_sq;
    let tau = margins.tau;
    let t_at_most = |theta: f64| Constraint::new(a.x, ab.x, theta * len_sq, -ab.y);
    let t_at_least = |theta: f64| Constraint::new(a.x, -ab.x, -theta * len_sq, ab.y);
    // ±offset ≤ r(t) + slack
    let flanks = |slack: f64| {
        [
            Constraint::new(
                a.x,
                -ab.y / len - taper * ab.x,
                radius_a + slack,
                taper * ab.y - ab.x / len,
            ),
            Constraint::new(
                a.x,
                ab.y / len - taper * ab.x,
                radius_a + slack,
                taper * ab.y + ab.x / len,
            ),
        ]
    };
    let [upper_out, lower_out] = flanks(margins.offset);
    let [upper_in, lower_in] = flanks(-margins.offset);
    let trapezoid_outer = [upper_out, lower_out, t_at_least(-tau), t_at_most(1.0 + tau)];
    let trapezoid_inner = [upper_in, lower_in, t_at_least(tau), t_at_most(1.0 - tau)];
    let (a_outer, a_inner) = (t_at_most(tau), t_at_most(-tau));
    let (b_outer, b_inner) = (t_at_least(1.0 - tau), t_at_least(1.0 + tau));
    let solved = trapezoid_outer
        .iter()
        .chain(&trapezoid_inner)
        .chain([&a_outer, &a_inner, &b_outer, &b_inner])
        .all(Constraint::is_solved);
    if !solved {
        // a slope so small its solve overflows
        return bounds.scan(sink, covers);
    }
    for y in bounds.y0..=bounds.y1 {
        let yc = y as f64 + 0.5;
        let v = yc - a.y;

        // the disk at `a`, for t ≤ 0
        if let Some((outer, inner)) = margins.disk_row(a, radius_a, yc) {
            let (outer, inner) = (outer.meet(a_outer.at(v)), || inner.meet(a_inner.at(v)));
            bounds.emit(sink, y, outer, inner, covers);
        }
        // the disk at `b`, for t ≥ 1
        if let Some((outer, inner)) = margins.disk_row(b_end, radius_b_end, yc) {
            let (outer, inner) = (outer.meet(b_outer.at(v)), || inner.meet(b_inner.at(v)));
            bounds.emit(sink, y, outer, inner, covers);
        }
        // the trapezoid between them
        let all = |sides: &[Constraint; 4]| {
            sides
                .iter()
                .fold(Interval::ALL, |i, side| i.meet(side.at(v)))
        };
        bounds.emit(
            sink,
            y,
            all(&trapezoid_outer),
            || all(&trapezoid_inner),
            covers,
        );
    }
}

/// The float-error margins around an interval end, sized from the largest
/// coordinate magnitude `scale` (every coordinate, radius and covered pixel
/// centre is within it). The definition's rounding is a few ulps of
/// `scale²` in squared distance and of `scale / len` in `t`; the margins
/// are more than a thousand times that.
#[derive(Debug, Clone, Copy)]
struct Margins {
    /// In squared distance: a disk row's covered half-width is solved from
    /// `r² - dy² ± sq`.
    sq: f64,
    /// In the segment parameter `t`, around the pieces' clip lines.
    tau: f64,
    /// In distance from a trapezoid flank.
    offset: f64,
}

impl Margins {
    /// Margins for coordinates up to `scale`, a segment of length `len` and
    /// a radius difference `taper`. `None` beyond `1e64` px, where a row's
    /// interval solve could overflow.
    fn of(scale: f64, len: f64, taper: f64) -> Option<Margins> {
        let sq = 1e-10 * scale * scale;
        let tau = 1e-12 * (1.0 + scale / len);
        let offset = sq.sqrt() + tau * (taper + len);
        (scale < 1e64).then_some(Margins { sq, tau, offset })
    }

    /// The outer and inner x-intervals of the disk at `center` on the row of
    /// pixel centres at height `yc`; `None` when the row misses the disk.
    #[inline]
    fn disk_row(&self, center: Vec2, radius: f64, yc: f64) -> Option<(Interval, Interval)> {
        let dy = yc - center.y;
        let rem = radius * radius - dy * dy;
        let around = |sq: f64| {
            let half = sq.sqrt();
            Interval {
                lo: center.x - half,
                hi: center.x + half,
            }
        };
        let outer = rem + self.sq;
        let inner = rem - self.sq;
        (outer >= 0.0).then(|| {
            let inner = if inner >= 0.0 {
                around(inner)
            } else {
                Interval::EMPTY
            };
            (around(outer), inner)
        })
    }
}

/// A closed interval of pixel-centre x-coordinates on one row.
#[derive(Debug, Clone, Copy)]
struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    const ALL: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };
    const EMPTY: Interval = Interval {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    #[inline]
    fn meet(self, other: Interval) -> Interval {
        // never NaN, so plain comparisons serve for max and min
        Interval {
            lo: if other.lo > self.lo {
                other.lo
            } else {
                self.lo
            },
            hi: if other.hi < self.hi {
                other.hi
            } else {
                self.hi
            },
        }
    }
}

/// One side of a convex piece: the linear constraint `k·u ≤ c0 + c1·v`
/// on the row at `v`, with `u = x - x_origin`. Its slope `k` is the same on
/// every row, so it is solved once per primitive into a bound
/// `x ≤ α + β·v` (`k > 0`) or `x ≥ α + β·v` (`k < 0`); with `k = 0` it
/// keeps or drops whole rows. The solve's rounding is a few ulps of the
/// constraint's terms, far inside the margins.
#[derive(Debug, Clone, Copy)]
struct Constraint {
    k: f64,
    c0: f64,
    c1: f64,
    alpha: f64,
    beta: f64,
}

impl Constraint {
    fn new(x_origin: f64, k: f64, c0: f64, c1: f64) -> Constraint {
        Constraint {
            k,
            c0,
            c1,
            alpha: c0 / k + x_origin,
            beta: c1 / k,
        }
    }

    /// Whether the solve stayed finite (a zero slope needs none).
    fn is_solved(&self) -> bool {
        self.k == 0.0 || (self.alpha.is_finite() && self.beta.is_finite())
    }

    /// The x-interval the constraint allows on the row at `v`.
    #[inline]
    fn at(&self, v: f64) -> Interval {
        if self.k > 0.0 {
            Interval {
                lo: f64::NEG_INFINITY,
                hi: self.alpha + self.beta * v,
            }
        } else if self.k < 0.0 {
            Interval {
                lo: self.alpha + self.beta * v,
                hi: f64::INFINITY,
            }
        } else if self.c0 + self.c1 * v >= 0.0 {
            Interval::ALL
        } else {
            Interval::EMPTY
        }
    }
}

/// The clipped pixel box the per-pixel definition scans.
#[derive(Debug, Clone, Copy)]
struct PixelBox {
    x0: u32,
    x1: u32,
    y0: u32,
    y1: u32,
}

impl PixelBox {
    /// The pixels of `[lo, hi]` clipped to a `size` target; `None` when
    /// nothing is left.
    fn clip((width, height): (u32, u32), lo: Vec2, hi: Vec2) -> Option<PixelBox> {
        if width == 0 || height == 0 {
            return None;
        }
        let x0 = lo.x.floor().max(0.0) as u32;
        let y0 = lo.y.floor().max(0.0) as u32;
        let x1 = (hi.x.ceil().min(width as f64 - 1.0)).max(0.0) as u32;
        let y1 = (hi.y.ceil().min(height as f64 - 1.0)).max(0.0) as u32;
        (x0 <= x1 && y0 <= y1).then_some(PixelBox { x0, x1, y0, y1 })
    }

    /// The per-pixel definition over the whole box.
    fn scan<S: SpanSink + ?Sized>(&self, sink: &mut S, covers: impl Fn(Vec2) -> bool) {
        for y in self.y0..=self.y1 {
            self.test(sink, y, self.x0, self.x1, &covers);
        }
    }

    /// Tests pixels `x0..=x1` of row `y` one by one.
    #[inline]
    fn test<S: SpanSink + ?Sized>(
        &self,
        sink: &mut S,
        y: u32,
        x0: u32,
        x1: u32,
        covers: &impl Fn(Vec2) -> bool,
    ) {
        for x in x0..=x1 {
            if covers(Vec2::new(x as f64 + 0.5, y as f64 + 0.5)) {
                sink.fill_span(y, x, x);
            }
        }
    }

    /// The pixels of a row whose centres lie in `interval`, within the box.
    #[inline]
    fn pixels(&self, interval: Interval) -> Option<(u32, u32)> {
        // Clamped to just outside the box, the ends round to integers
        // exactly by truncation, with no call to a library floor.
        let (below, above) = (self.x0 as f64 - 1.0, self.x1 as f64 + 1.0);
        let clamp = |x: f64| {
            let x = if x > below { x } else { below };
            if x < above {
                x
            } else {
                above
            }
        };
        let (lo, hi) = (clamp(interval.lo - 0.5), clamp(interval.hi - 0.5));
        let (lo_t, hi_t) = (lo as i64, hi as i64);
        let first = (lo_t + i64::from((lo_t as f64) < lo)).max(i64::from(self.x0));
        let last = (hi_t - i64::from((hi_t as f64) > hi)).min(i64::from(self.x1));
        (first <= last).then_some((first as u32, last as u32))
    }

    /// Emits one piece on row `y`: fills the pixels of `inner` untested and
    /// tests the rest of `outer` with the definition. `inner` must hold only
    /// covered pixels, and `outer` every covered pixel of the piece; `inner`
    /// is solved only when `outer` holds a pixel.
    #[inline]
    fn emit<S: SpanSink + ?Sized>(
        &self,
        sink: &mut S,
        y: u32,
        outer: Interval,
        inner: impl FnOnce() -> Interval,
        covers: impl Fn(Vec2) -> bool,
    ) {
        let Some((o0, o1)) = self.pixels(outer) else {
            return;
        };
        match self.pixels(inner().meet(outer)) {
            Some((i0, i1)) => {
                if o0 < i0 {
                    self.test(sink, y, o0, i0 - 1, &covers);
                }
                sink.fill_span(y, i0, i1);
                if i1 < o1 {
                    self.test(sink, y, i1 + 1, o1, &covers);
                }
            }
            None => self.test(sink, y, o0, o1, &covers),
        }
    }
}

/// Scanline-fills a polygon (even-odd rule).
pub fn fill_polygon<T: Copy + Default>(img: &mut Image<T>, poly: &Polygon, value: T) {
    let Some(bb) = poly.aabb() else { return };
    let y0 = bb.min().y.floor().max(0.0) as u32;
    let y1 = (bb.max().y.ceil().min(img.height() as f64 - 1.0)).max(0.0) as u32;
    let verts = poly.vertices();
    let n = verts.len();
    if n < 3 {
        return;
    }
    for y in y0..=y1 {
        let yc = y as f64 + 0.5;
        let mut xs: Vec<f64> = Vec::new();
        for i in 0..n {
            let p = verts[i];
            let q = verts[(i + 1) % n];
            if (p.y > yc) != (q.y > yc) {
                let t = (yc - p.y) / (q.y - p.y);
                xs.push(p.x + t * (q.x - p.x));
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in xs.chunks_exact(2) {
            let xa = pair[0].ceil().max(0.0) as u32;
            let xb = pair[1].floor().min(img.width() as f64 - 1.0).max(0.0) as u32;
            for x in xa..=xb {
                if (x as f64 + 0.5) >= pair[0] && (x as f64 + 0.5) <= pair[1] {
                    img.set(x, y, value);
                }
            }
        }
    }
}

/// Draws a 1-pixel line with Bresenham's algorithm.
pub fn draw_line<T: Copy + Default>(img: &mut Image<T>, a: Vec2, b: Vec2, value: T) {
    let mut x0 = a.x.round() as i64;
    let mut y0 = a.y.round() as i64;
    let x1 = b.x.round() as i64;
    let y1 = b.y.round() as i64;
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    loop {
        if x0 >= 0 && y0 >= 0 {
            img.set(x0 as u32, y0 as u32, value);
        }
        if x0 == x1 && y0 == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x0 += sx;
        }
        if e2 <= dx {
            err += dx;
            y0 += sy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::GrayImage;

    #[test]
    fn disk_area_close_to_pi_r_squared() {
        let mut img = GrayImage::new(100, 100);
        fill_disk(&mut img, Vec2::new(50.0, 50.0), 20.0, 255);
        let area = img.pixels().iter().filter(|p| **p > 0).count() as f64;
        let expected = std::f64::consts::PI * 400.0;
        assert!(
            (area - expected).abs() / expected < 0.05,
            "area {area} vs {expected}"
        );
    }

    #[test]
    fn disk_clips_at_border() {
        let mut img = GrayImage::new(10, 10);
        fill_disk(&mut img, Vec2::new(0.0, 0.0), 5.0, 255);
        assert_eq!(img.get(0, 0), Some(255));
        // no panic, nothing outside written
    }

    #[test]
    fn zero_radius_disk_draws_nothing() {
        let mut img = GrayImage::new(10, 10);
        fill_disk(&mut img, Vec2::new(5.0, 5.0), 0.0, 255);
        assert!(img.pixels().iter().all(|p| *p == 0));
    }

    #[test]
    fn capsule_covers_both_ends() {
        let mut img = GrayImage::new(60, 30);
        fill_tapered_capsule(
            &mut img,
            Vec2::new(10.0, 15.0),
            5.0,
            Vec2::new(50.0, 15.0),
            2.0,
            255,
        );
        assert_eq!(img.get(10, 15), Some(255));
        assert_eq!(img.get(50, 15), Some(255));
        assert_eq!(img.get(30, 15), Some(255));
        // taper: thicker end covers (10,19), thin end does not cover (50,19)
        assert_eq!(img.get(10, 19), Some(255));
        assert_eq!(img.get(50, 19), Some(0));
    }

    #[test]
    fn degenerate_capsule_is_disk() {
        let mut img = GrayImage::new(20, 20);
        fill_tapered_capsule(
            &mut img,
            Vec2::new(10.0, 10.0),
            4.0,
            Vec2::new(10.0, 10.0),
            4.0,
            255,
        );
        assert_eq!(img.get(10, 10), Some(255));
        assert!(img.pixels().iter().filter(|p| **p > 0).count() > 30);
    }

    #[test]
    fn polygon_fill_rectangle() {
        let mut img = GrayImage::new(20, 20);
        let rect = Polygon::rectangle(Vec2::new(5.0, 5.0), Vec2::new(15.0, 10.0));
        fill_polygon(&mut img, &rect, 255);
        assert_eq!(img.get(10, 7), Some(255));
        assert_eq!(img.get(4, 7), Some(0));
        assert_eq!(img.get(10, 12), Some(0));
        let count = img.pixels().iter().filter(|p| **p > 0).count();
        assert!((40..=60).contains(&count), "count {count}");
    }

    #[test]
    fn line_endpoints_set() {
        let mut img = GrayImage::new(20, 20);
        draw_line(&mut img, Vec2::new(2.0, 3.0), Vec2::new(17.0, 12.0), 255);
        assert_eq!(img.get(2, 3), Some(255));
        assert_eq!(img.get(17, 12), Some(255));
        assert!(img.pixels().iter().filter(|p| **p > 0).count() >= 15);
    }

    #[test]
    fn tiny_polygon_is_ignored() {
        let mut img = GrayImage::new(10, 10);
        fill_polygon(&mut img, &Polygon::new(vec![Vec2::new(1.0, 1.0)]), 255);
        assert!(img.pixels().iter().all(|p| *p == 0));
    }
}
