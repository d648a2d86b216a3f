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
//! interval solve by orders of magnitude. They bound each piece on a row
//! between two regions: an *outer* interval, which holds every covered
//! pixel centre strictly inside it, and a convex *inner* region, which
//! holds only covered centres. Inner ⊆ covered ⊆ outer.
//!
//! **A row of a piece.** Only the outer interval is solved (an end disk's
//! takes the row's one square root). Its ends round to pixels by adding
//! `1.5·2⁵²`, which leaves the nearest integer in the sum's low bits: pixel
//! `x` is kept when `round(lo) ≤ x < round(hi)`, which is `lo < x + 0.5 <
//! hi` except at a tie, where a centre lies exactly on an outer end — and
//! no covered centre does. The run's end pixels are then tested against the
//! inner region (for an end disk `(x − cx)² ≤ r² − dy² − sq`, for the
//! sides `x` against their inner bounds), from each end inwards, and every
//! pixel that fails is tested with the definition; once both ends hold, the
//! pixels between them are in the convex inner region and are filled
//! untested. A side's slope has the same sign on every row, so each side is
//! sorted once per primitive into a lower bound, an upper bound or a row
//! gate.
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
use hdc_geometry::Vec2;

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
    let pieces = [
        Sides::sort(&[upper_out, lower_out, t_at_least(-tau), t_at_most(1.0 + tau)]),
        Sides::sort(&[upper_in, lower_in, t_at_least(tau), t_at_most(1.0 - tau)]),
        Sides::sort(&[t_at_most(tau)]),
        Sides::sort(&[t_at_most(-tau)]),
        Sides::sort(&[t_at_least(1.0 - tau)]),
        Sides::sort(&[t_at_least(1.0 + tau)]),
    ];
    let [Some(trapezoid_outer), Some(trapezoid_inner), Some(a_outer), Some(a_inner), Some(b_outer), Some(b_inner)] =
        pieces
    else {
        // a slope so small its solve overflows
        return bounds.scan(sink, covers);
    };
    for y in bounds.y0..=bounds.y1 {
        let yc = y as f64 + 0.5;
        let v = yc - a.y;

        // the disk at `a`, for t ≤ 0
        if let Some((outer, inner)) = margins.disk_row(a, radius_a, yc) {
            let outer = outer.meet(a_outer.at(v));
            bounds.emit(sink, y, outer, || inner.within(a_inner.at(v)), covers);
        }
        // the disk at `b`, for t ≥ 1
        if let Some((outer, inner)) = margins.disk_row(b_end, radius_b_end, yc) {
            let outer = outer.meet(b_outer.at(v));
            bounds.emit(sink, y, outer, || inner.within(b_inner.at(v)), covers);
        }
        // the trapezoid between them
        bounds.emit(
            sink,
            y,
            trapezoid_outer.at(v),
            || Inner::band(trapezoid_inner.at(v)),
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
    /// In squared distance: a disk row's outer half-width is solved from
    /// `r² - dy² + sq`, and its inner test is `(x - cx)² ≤ r² - dy² - sq`.
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

    /// The outer x-interval and the inner region of the disk at `center` on
    /// the row of pixel centres at height `yc`; `None` when the row misses
    /// the disk. Only the outer interval takes a square root: the inner
    /// region is tested pixel by pixel.
    #[inline]
    fn disk_row(&self, center: Vec2, radius: f64, yc: f64) -> Option<(Interval, Inner)> {
        let dy = yc - center.y;
        let rem = radius * radius - dy * dy;
        let outer = rem + self.sq;
        (outer >= 0.0).then(|| {
            let half = outer.sqrt();
            let inner = Inner {
                cx: center.x,
                rem: rem - self.sq,
                ..Inner::band(Interval::ALL)
            };
            (
                Interval {
                    lo: center.x - half,
                    hi: center.x + half,
                },
                inner,
            )
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

/// The certainly-covered region of a piece on one row: the pixel centres
/// `x` with `lo ≤ x ≤ hi` and `(x - cx)² ≤ rem`. It is convex, so when both
/// ends of a run hold, every pixel between them does.
#[derive(Debug, Clone, Copy)]
struct Inner {
    lo: f64,
    hi: f64,
    cx: f64,
    rem: f64,
}

impl Inner {
    /// The pixel centres of `band`, with no disk.
    #[inline]
    fn band(band: Interval) -> Inner {
        Inner {
            lo: band.lo,
            hi: band.hi,
            cx: 0.0,
            rem: f64::INFINITY,
        }
    }

    /// This region cut to `band`.
    #[inline]
    fn within(self, band: Interval) -> Inner {
        let Interval { lo, hi } = Interval {
            lo: self.lo,
            hi: self.hi,
        }
        .meet(band);
        Inner { lo, hi, ..self }
    }

    /// Whether the pixel centre `x` lies in the region.
    #[inline]
    fn holds(&self, x: f64) -> bool {
        let d = x - self.cx;
        x >= self.lo && x <= self.hi && d * d <= self.rem
    }
}

/// One side of a convex piece: the linear constraint `k·u ≤ c0 + c1·v`
/// on the row at `v`, with `u = x - x_origin`.
#[derive(Debug, Clone, Copy)]
struct Constraint {
    x_origin: f64,
    k: f64,
    c0: f64,
    c1: f64,
}

impl Constraint {
    fn new(x_origin: f64, k: f64, c0: f64, c1: f64) -> Constraint {
        Constraint {
            x_origin,
            k,
            c0,
            c1,
        }
    }
}

/// The sides of one convex piece, sorted once per primitive by the sign of
/// their slope `k`, which is the same on every row: `k < 0` gives a lower
/// bound `x ≥ α + β·v`, `k > 0` an upper bound `x ≤ α + β·v`, and `k = 0` a
/// row gate that keeps the row while `c0 + c1·v ≥ 0`. The solve's rounding
/// is a few ulps of the constraint's terms, far inside the margins.
#[derive(Debug, Clone, Copy)]
struct Sides {
    /// `(α, β)` of the lower bounds in `lines[..lower]` and of the upper
    /// bounds in `lines[lower..upper]`; `(c0, c1)` of the gates in
    /// `lines[upper..len]`.
    lines: [(f64, f64); 4],
    lower: usize,
    upper: usize,
    len: usize,
}

impl Sides {
    /// Sorts and solves up to four sides; `None` when a solve overflows (a
    /// slope so small that its bound leaves the finite range), which sends
    /// the primitive to the per-pixel scan.
    fn sort(sides: &[Constraint]) -> Option<Sides> {
        let mut out = Sides {
            lines: [(0.0, 0.0); 4],
            lower: 0,
            upper: 0,
            len: 0,
        };
        let solve = |c: &Constraint| (c.c0 / c.k + c.x_origin, c.c1 / c.k);
        for c in sides.iter().filter(|c| c.k < 0.0) {
            out.lines[out.len] = solve(c);
            out.len += 1;
        }
        out.lower = out.len;
        for c in sides.iter().filter(|c| c.k > 0.0) {
            out.lines[out.len] = solve(c);
            out.len += 1;
        }
        out.upper = out.len;
        for c in sides.iter().filter(|c| c.k == 0.0) {
            out.lines[out.len] = (c.c0, c.c1);
            out.len += 1;
        }
        // a NaN slope would fit none of the three kinds
        let solved = out.len == sides.len()
            && out.lines[..out.upper]
                .iter()
                .all(|(alpha, beta)| alpha.is_finite() && beta.is_finite());
        solved.then_some(out)
    }

    /// The x-interval the sides allow on the row at `v`.
    #[inline]
    fn at(&self, v: f64) -> Interval {
        let mut i = Interval::ALL;
        for &(alpha, beta) in &self.lines[..self.lower] {
            let x = alpha + beta * v;
            if x > i.lo {
                i.lo = x;
            }
        }
        for &(alpha, beta) in &self.lines[self.lower..self.upper] {
            let x = alpha + beta * v;
            if x < i.hi {
                i.hi = x;
            }
        }
        let open = self.lines[self.upper..self.len]
            .iter()
            .all(|&(c0, c1)| c0 + c1 * v >= 0.0);
        if open {
            i
        } else {
            Interval::EMPTY
        }
    }
}

/// Adding `1.5·2⁵²` to an `f64` of magnitude below `2⁵¹` rounds it to the
/// nearest integer (ties to even), whose value the sum's bits then hold as
/// an offset from this constant's bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

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
            for x in self.x0..=self.x1 {
                test(sink, x, y, &covers);
            }
        }
    }

    /// The pixels of a row whose centres may lie in the outer `interval`,
    /// within the box. Pixel `x` is kept when `lo < x + 0.5 < hi`, which is
    /// `round(lo) ≤ x < round(hi)` up to ties; a tie puts a centre exactly
    /// on an outer end, which the margins keep every covered centre
    /// strictly inside.
    #[inline]
    fn pixels(&self, interval: Interval) -> Option<(u32, u32)> {
        // Clamped to just outside the box, the ends are small enough for
        // the rounding constant.
        let (below, above) = (f64::from(self.x0) - 1.0, f64::from(self.x1) + 2.0);
        let round = |x: f64| {
            let x = if x > below { x } else { below };
            let x = if x < above { x } else { above };
            (x + ROUND).to_bits() as i64 - ROUND.to_bits() as i64
        };
        let first = round(interval.lo).max(i64::from(self.x0));
        let last = (round(interval.hi) - 1).min(i64::from(self.x1));
        (first <= last).then_some((first as u32, last as u32))
    }

    /// Emits one piece on row `y`. The pixels of the `outer` interval are
    /// tested with the definition from each end inwards until one's centre
    /// lies in the `inner` region; the run between the two is then filled
    /// untested, since the region is convex. `outer` must hold every covered
    /// pixel of the piece and `inner` only covered pixels; `inner` is built
    /// only when `outer` holds a pixel.
    #[inline]
    fn emit<S: SpanSink + ?Sized>(
        &self,
        sink: &mut S,
        y: u32,
        outer: Interval,
        inner: impl FnOnce() -> Inner,
        covers: impl Fn(Vec2) -> bool,
    ) {
        let Some((mut x0, mut x1)) = self.pixels(outer) else {
            return;
        };
        let inner = inner();
        let centre = |x: u32| f64::from(x) + 0.5;
        while !inner.holds(centre(x0)) {
            test(sink, x0, y, &covers);
            if x0 == x1 {
                return;
            }
            x0 += 1;
        }
        // stops at the latest at `x0`, which holds
        while !inner.holds(centre(x1)) {
            test(sink, x1, y, &covers);
            x1 -= 1;
        }
        sink.fill_span(y, x0, x1);
    }
}

/// Fills pixel `(x, y)` when the definition `covers` its centre.
#[inline]
fn test<S: SpanSink + ?Sized>(sink: &mut S, x: u32, y: u32, covers: &impl Fn(Vec2) -> bool) {
    if covers(Vec2::new(x as f64 + 0.5, y as f64 + 0.5)) {
        sink.fill_span(y, x, x);
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
}
