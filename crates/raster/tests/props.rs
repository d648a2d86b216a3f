//! Property-based tests for the raster substrate.

use hdc_geometry::Vec2;
use hdc_raster::contour::{
    contour_perimeter, trace_outer_contour, trace_outer_contour_into,
    trace_outer_contour_packed_into,
};
use hdc_raster::diff;
use hdc_raster::io::{decode_pgm, encode_pgm};
use hdc_raster::morphology::{
    close, close_packed_into, dilate, dilate_packed, dilate_reference, erode, erode_packed,
    erode_reference, open, open_packed_into,
};
use hdc_raster::threshold::{binarize, binarize_packed_into, otsu_threshold};
use hdc_raster::{
    draw, label_components, label_components_bfs, label_components_packed, largest_component,
    largest_component_packed_lazy, largest_component_packed_with, largest_component_with, BitMask,
    Bitmap, Component, Connectivity, GrayImage, LabelScratch,
};
use proptest::prelude::*;

fn small_gray() -> impl Strategy<Value = GrayImage> {
    (2u32..24, 2u32..24).prop_flat_map(|(w, h)| {
        prop::collection::vec(any::<u8>(), (w * h) as usize).prop_map(move |data| {
            let mut img = GrayImage::new(w, h);
            img.pixels_mut().copy_from_slice(&data);
            img
        })
    })
}

fn small_mask() -> impl Strategy<Value = Bitmap> {
    small_gray().prop_map(|g| g.map(|p| p > 128))
}

proptest! {
    #[test]
    fn pgm_roundtrip_any_image(img in small_gray()) {
        let back = decode_pgm(&encode_pgm(&img)).unwrap();
        prop_assert_eq!(back, img);
    }

    #[test]
    fn binarize_counts_consistent(img in small_gray(), t in any::<u8>()) {
        let b = binarize(&img, t);
        let count = img.pixels().iter().filter(|p| **p > t).count();
        prop_assert_eq!(b.count_foreground(), count);
    }

    #[test]
    fn otsu_in_range(img in small_gray()) {
        let _t = otsu_threshold(&img); // must not panic for any image
    }

    #[test]
    fn erosion_subset_dilation_superset(m in small_mask()) {
        let e = erode(&m);
        let d = dilate(&m);
        for (x, y, v) in e.iter() {
            if v { prop_assert_eq!(m.get(x, y), Some(true)); }
        }
        for (x, y, v) in m.iter() {
            if v { prop_assert_eq!(d.get(x, y), Some(true)); }
        }
    }

    #[test]
    fn open_close_idempotent_on_result(m in small_mask()) {
        let o = open(&m);
        prop_assert_eq!(open(&o).count_foreground(), o.count_foreground());
        let c = close(&m);
        prop_assert_eq!(close(&c).count_foreground(), c.count_foreground());
    }

    #[test]
    fn component_areas_sum_to_foreground(m in small_mask()) {
        let (_, comps) = label_components(&m, Connectivity::Eight);
        let sum: usize = comps.iter().map(|c| c.area).sum();
        prop_assert_eq!(sum, m.count_foreground());
    }

    #[test]
    fn largest_component_is_max(m in small_mask()) {
        if let Some((mask, comp)) = largest_component(&m, Connectivity::Four) {
            let (_, comps) = label_components(&m, Connectivity::Four);
            let max_area = comps.iter().map(|c| c.area).max().unwrap();
            prop_assert_eq!(comp.area, max_area);
            prop_assert_eq!(mask.count_foreground(), comp.area);
        } else {
            prop_assert_eq!(m.count_foreground(), 0);
        }
    }

    #[test]
    fn run_labelling_matches_bfs_oracle(m in small_mask(), eight in any::<bool>()) {
        // The run-based union-find labeller must agree with the retained BFS
        // oracle on everything: the label image exactly, and every
        // component's label, area, bbox and centroid.
        let conn = if eight { Connectivity::Eight } else { Connectivity::Four };
        let (labels, comps) = label_components(&m, conn);
        let (labels_bfs, comps_bfs) = label_components_bfs(&m, conn);
        prop_assert_eq!(labels, labels_bfs);
        prop_assert_eq!(comps.len(), comps_bfs.len());
        for (c, r) in comps.iter().zip(&comps_bfs) {
            prop_assert_eq!(c.label, r.label);
            prop_assert_eq!(c.area, r.area);
            prop_assert_eq!(c.bbox, r.bbox);
            prop_assert!((c.centroid - r.centroid).norm() < 1e-9,
                "centroid {} vs {}", c.centroid, r.centroid);
        }
    }

    #[test]
    fn largest_blob_matches_bfs_oracle(m in small_mask()) {
        // The pipeline's blob-isolation step against the BFS reference:
        // same largest blob (area, bbox, centroid) and same isolated mask.
        match largest_component(&m, Connectivity::Eight) {
            Some((mask, comp)) => {
                let (labels, comps) = label_components_bfs(&m, Connectivity::Eight);
                let best = comps.iter().max_by_key(|c| c.area).unwrap();
                prop_assert_eq!(comp.area, best.area);
                prop_assert_eq!(comp.bbox, best.bbox);
                prop_assert!((comp.centroid - best.centroid).norm() < 1e-9);
                for (x, y, v) in mask.iter() {
                    prop_assert_eq!(v, labels.get(x, y) == Some(best.label));
                }
            }
            None => prop_assert_eq!(m.count_foreground(), 0),
        }
    }

    #[test]
    fn row_slice_morphology_matches_padded_reference(m in small_mask()) {
        prop_assert_eq!(erode(&m), erode_reference(&m));
        prop_assert_eq!(dilate(&m), dilate_reference(&m));
    }

    #[test]
    fn contour_points_are_foreground_and_adjacent(m in small_mask()) {
        if let Some(c) = trace_outer_contour(&m) {
            for p in &c {
                prop_assert_eq!(m.get(p.x, p.y), Some(true));
            }
            for i in 0..c.len().saturating_sub(1) {
                let dx = (c[i].x as i64 - c[i + 1].x as i64).abs();
                let dy = (c[i].y as i64 - c[i + 1].y as i64).abs();
                prop_assert!(dx <= 1 && dy <= 1);
            }
        }
    }

    #[test]
    fn disk_contour_perimeter_scales(r in 5.0f64..25.0) {
        let size = (2.0 * r + 8.0) as u32;
        let mut img = GrayImage::new(size, size);
        draw::fill_disk(&mut img, Vec2::new(size as f64 / 2.0, size as f64 / 2.0), r, 255);
        let mask = binarize(&img, 128);
        let contour = trace_outer_contour(&mask).unwrap();
        let per = contour_perimeter(&contour);
        let circ = std::f64::consts::TAU * r;
        prop_assert!((per - circ).abs() / circ < 0.2, "perimeter {} vs {}", per, circ);
    }
}

/// Dimensions for the packed-kernel equivalence properties: widths biased
/// to straddle the 64-pixel word boundary, plus 1-px-tall and 1-px-wide
/// degenerate shapes.
fn packed_dims() -> impl Strategy<Value = (u32, u32)> {
    prop_oneof![
        (60u32..70, 1u32..8),    // around one word
        (120u32..134, 1u32..6),  // around two words
        (1u32..24, 1u32..24),    // small, incl. 1-px-wide
        (30u32..80, Just(1u32)), // 1-px-tall
    ]
}

fn wide_gray() -> impl Strategy<Value = GrayImage> {
    packed_dims().prop_flat_map(|(w, h)| {
        prop::collection::vec(any::<u8>(), (w * h) as usize).prop_map(move |data| {
            let mut img = GrayImage::new(w, h);
            img.pixels_mut().copy_from_slice(&data);
            img
        })
    })
}

/// The production (hybrid) binariser: each 64-pixel chunk compared into
/// 0/1 bytes and gathered straight into one mask word.
fn hybrid_binarize(img: &GrayImage, t: u8) -> BitMask {
    let mut packed = BitMask::new(1, 1);
    binarize_packed_into(img, t, &mut packed);
    packed
}

fn wide_mask() -> impl Strategy<Value = Bitmap> {
    wide_gray().prop_map(|g| g.map(|p| p > 128))
}

fn wide_mask_pair() -> impl Strategy<Value = (Bitmap, Bitmap)> {
    packed_dims().prop_flat_map(|(w, h)| {
        let n = (w * h) as usize;
        (
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(da, db)| {
                let mut a = Bitmap::new(w, h);
                a.pixels_mut().copy_from_slice(&da);
                let mut b = Bitmap::new(w, h);
                b.pixels_mut().copy_from_slice(&db);
                (a, b)
            })
    })
}

proptest! {
    #[test]
    fn packed_binarize_matches_byte_oracle(img in wide_gray(), t in any::<u8>()) {
        let packed = hybrid_binarize(&img, t);
        prop_assert_eq!(packed.to_bitmap(), binarize(&img, t));
        // Tail invariant: popcount equals the per-pixel foreground count.
        prop_assert_eq!(packed.count_ones(), binarize(&img, t).count_foreground());
    }

    #[test]
    fn packed_pack_unpack_roundtrip(m in wide_mask()) {
        let packed = BitMask::from_bitmap(&m);
        prop_assert_eq!(packed.to_bitmap(), m);
    }

    #[test]
    fn packed_morphology_matches_byte_oracle(m in wide_mask()) {
        let packed = BitMask::from_bitmap(&m);
        prop_assert_eq!(erode_packed(&packed).to_bitmap(), erode(&m));
        prop_assert_eq!(dilate_packed(&packed).to_bitmap(), dilate(&m));
        let mut tmp = BitMask::new(1, 1);
        let mut out = BitMask::new(1, 1);
        open_packed_into(&packed, &mut tmp, &mut out);
        prop_assert_eq!(out.to_bitmap(), open(&m));
        close_packed_into(&packed, &mut tmp, &mut out);
        prop_assert_eq!(out.to_bitmap(), close(&m));
    }

    #[test]
    fn packed_labelling_matches_byte_oracle(m in wide_mask(), eight in any::<bool>()) {
        let conn = if eight { Connectivity::Eight } else { Connectivity::Four };
        let packed = BitMask::from_bitmap(&m);
        let (labels, comps) = label_components(&m, conn);
        let (labels_p, comps_p) = label_components_packed(&packed, conn);
        prop_assert_eq!(labels, labels_p);
        prop_assert_eq!(comps, comps_p);
    }

    #[test]
    fn packed_largest_blob_matches_byte_oracle(m in wide_mask()) {
        let packed = BitMask::from_bitmap(&m);
        let mut out = Bitmap::new(1, 1);
        let mut out_p = BitMask::new(1, 1);
        let mut scratch = LabelScratch::new();
        let mut scratch_p = LabelScratch::new();
        let byte = largest_component_with(&m, Connectivity::Eight, &mut out, &mut scratch);
        let fast = largest_component_packed_with(
            &packed, Connectivity::Eight, &mut out_p, &mut scratch_p);
        prop_assert_eq!(&byte, &fast);
        if byte.is_some() {
            prop_assert_eq!(out, out_p.to_bitmap());
        }
        // the lazy form copies only a mask with more than one component;
        // otherwise the mask itself is the blob and `out` stays untouched
        let mut lazy_out = BitMask::new(1, 1);
        let lazy = largest_component_packed_lazy(
            &packed, Connectivity::Eight, &mut lazy_out, &mut scratch_p);
        prop_assert_eq!(lazy.as_ref().map(|(c, _)| c), fast.as_ref());
        if let Some((comp, copied)) = lazy {
            prop_assert_eq!(copied, label_components_packed(&packed, Connectivity::Eight).1.len() > 1);
            prop_assert_eq!(if copied { &lazy_out } else { &packed }, &out_p);
            if !copied {
                prop_assert_eq!(&lazy_out, &BitMask::new(1, 1));
            }
            // an isolated blob is one component: read where it is
            let mut again_out = BitMask::new(1, 1);
            let again = largest_component_packed_lazy(
                &out_p, Connectivity::Eight, &mut again_out, &mut scratch_p);
            prop_assert_eq!(again, Some((Component { label: 1, ..comp }, false)));
        }
    }

    #[test]
    fn packed_contour_matches_byte_oracle(m in wide_mask()) {
        let packed = BitMask::from_bitmap(&m);
        let mut byte_buf = Vec::new();
        let mut packed_buf = Vec::new();
        let found = trace_outer_contour_into(&m, &mut byte_buf);
        prop_assert_eq!(found, trace_outer_contour_packed_into(&packed, &mut packed_buf));
        prop_assert_eq!(byte_buf, packed_buf);
    }

    #[test]
    fn packed_tile_diff_matches_popcount_oracle((a, b) in wide_mask_pair(), tile in 1u32..9) {
        let pa = BitMask::from_bitmap(&a);
        let pb = BitMask::from_bitmap(&b);
        // Whole-mask popcount diff vs the per-pixel definition.
        let want: u64 = a.pixels().iter().zip(b.pixels())
            .filter(|(x, y)| x != y).count() as u64;
        prop_assert_eq!(diff::mask_diff_count(&pa, &pb), want);
        // Tiled popcount diff: totals and every tile against a naive oracle.
        let mut tiles = Vec::new();
        let summary = diff::mask_tile_diff_into(&pa, &pb, tile, &mut tiles);
        prop_assert_eq!(summary.total, want);
        prop_assert_eq!(summary.max, tiles.iter().copied().max().unwrap_or(0));
        for ty in 0..summary.tiles_y {
            for tx in 0..summary.tiles_x {
                let mut cell = 0u64;
                for y in (ty * tile)..((ty + 1) * tile).min(a.height()) {
                    for x in (tx * tile)..((tx + 1) * tile).min(a.width()) {
                        if a.get(x, y) != b.get(x, y) {
                            cell += 1;
                        }
                    }
                }
                prop_assert_eq!(tiles[(ty * summary.tiles_x + tx) as usize], cell);
            }
        }
    }
}

/// A frame pair for the band-patch properties: `cur` equals `prev` outside
/// the dirty band `[lo, hi)` and is arbitrary inside it — exactly the
/// precondition the incremental recognition ladder establishes before it
/// calls the band kernels. Bands range from 1 px tall to the whole frame
/// and may touch either image edge (halo clipping).
fn patch_case() -> impl Strategy<Value = (GrayImage, GrayImage, u32, u32)> {
    packed_dims().prop_flat_map(|(w, h)| {
        let n = (w * h) as usize;
        (
            prop::collection::vec(any::<u8>(), n),
            prop::collection::vec(any::<u8>(), n),
            0..h,
        )
            .prop_flat_map(move |(da, db, lo)| {
                ((lo + 1)..=h).prop_map(move |hi| {
                    let mut prev = GrayImage::new(w, h);
                    prev.pixels_mut().copy_from_slice(&da);
                    let mut cur = prev.clone();
                    let (s, e) = ((lo * w) as usize, (hi * w) as usize);
                    cur.pixels_mut()[s..e].copy_from_slice(&db[s..e]);
                    (prev.clone(), cur, lo, hi)
                })
            })
    })
}

proptest! {
    #[test]
    fn band_patched_binarise_matches_whole_frame(
        (prev, cur, lo, hi) in patch_case(), t in any::<u8>()
    ) {
        // Copying the band rows of the current frame's fresh packed mask
        // into a cache of the previous frame's mask (the incremental gate's
        // patch) must land on the whole-frame mask of the current one.
        let oracle = BitMask::from_bitmap(&binarize(&cur, t));
        let mut packed = BitMask::from_bitmap(&binarize(&prev, t));
        packed.copy_rows_from(&hybrid_binarize(&cur, t), lo, hi);
        prop_assert_eq!(&packed, &oracle);
    }

    #[test]
    fn dirty_bands_cover_every_mask_difference((a, b) in wide_mask_pair(), tile in 1u32..9) {
        let pa = BitMask::from_bitmap(&a);
        let pb = BitMask::from_bitmap(&b);
        let mut tiles = Vec::new();
        let summary = diff::mask_tile_diff_into(&pa, &pb, tile, &mut tiles);
        let mut bands = diff::DirtyBands::default();
        bands.rebuild(&tiles, &summary, tile, a.height(), 0);
        // Spans are sorted, non-adjacent (adjacent ones merge) and in range.
        let mut prev_hi = None;
        let mut total = 0u32;
        for &(lo, hi) in bands.spans() {
            prop_assert!(lo < hi && hi <= a.height());
            if let Some(p) = prev_hi {
                prop_assert!(lo > p, "spans must be disjoint and merged");
            }
            prev_hi = Some(hi);
            total += hi - lo;
        }
        prop_assert_eq!(total, bands.dirty_rows());
        // The incremental-path invariant: patching the cached mask's rows on
        // exactly these spans reproduces the new mask bit-for-bit.
        let mut cached = pa.clone();
        for &(lo, hi) in bands.spans() {
            for y in lo..hi {
                let src: Vec<u64> = pb.row(y).to_vec();
                cached.row_mut(y).copy_from_slice(&src);
            }
        }
        prop_assert_eq!(&cached, &pb);
    }
}

fn gray_pair() -> impl Strategy<Value = (GrayImage, GrayImage)> {
    (2u32..24, 2u32..24).prop_flat_map(|(w, h)| {
        let n = (w * h) as usize;
        (
            prop::collection::vec(any::<u8>(), n),
            prop::collection::vec(any::<u8>(), n),
        )
            .prop_map(move |(da, db)| {
                let mut a = GrayImage::new(w, h);
                a.pixels_mut().copy_from_slice(&da);
                let mut b = GrayImage::new(w, h);
                b.pixels_mut().copy_from_slice(&db);
                (a, b)
            })
    })
}

proptest! {
    // Sum of absolute differences on binarised frames: the mask tile diff
    // the incremental gate runs, against whole-frame and per-pixel oracles.
    #[test]
    fn tiled_sad_matches_whole_frame_oracle((a, b) in gray_pair(), tile in 1u32..9) {
        let (ma, mb) = (hybrid_binarize(&a, 128), hybrid_binarize(&b, 128));
        let mut tiles = Vec::new();
        let summary = diff::mask_tile_diff_into(&ma, &mb, tile, &mut tiles);
        prop_assert_eq!(summary.total, diff::mask_diff_count(&ma, &mb));
        prop_assert_eq!(summary.total, tiles.iter().sum::<u64>());
        prop_assert_eq!(summary.max, tiles.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(tiles.len(), summary.tile_count());
    }

    #[test]
    fn each_tile_matches_a_naive_per_tile_oracle(
        (a, b) in gray_pair(), tile in 1u32..9, t in any::<u8>()
    ) {
        let (ma, mb) = (hybrid_binarize(&a, t), hybrid_binarize(&b, t));
        let mut tiles = Vec::new();
        let summary = diff::mask_tile_diff_into(&ma, &mb, tile, &mut tiles);
        for ty in 0..summary.tiles_y {
            for tx in 0..summary.tiles_x {
                let mut want = 0u64;
                for y in (ty * tile)..((ty + 1) * tile).min(a.height()) {
                    for x in (tx * tile)..((tx + 1) * tile).min(a.width()) {
                        let (pa, pb) = (a.get(x, y).unwrap(), b.get(x, y).unwrap());
                        want += u64::from((pa > t) != (pb > t));
                    }
                }
                prop_assert_eq!(tiles[(ty * summary.tiles_x + tx) as usize], want);
            }
        }
    }

    #[test]
    fn sad_is_symmetric_and_zero_on_self((a, b) in gray_pair()) {
        let (ma, mb) = (hybrid_binarize(&a, 128), hybrid_binarize(&b, 128));
        prop_assert_eq!(diff::mask_diff_count(&ma, &mb), diff::mask_diff_count(&mb, &ma));
        prop_assert_eq!(diff::mask_diff_count(&ma, &ma), 0);
        prop_assert_eq!(diff::mask_diff_count(&mb, &mb), 0);
    }
}

// --- the span rasteriser against the per-pixel definition ---

/// The per-pixel loop `draw::fill_disk` ran before the span rasteriser: the
/// definition every sink must reproduce bit for bit.
fn oracle_disk(img: &mut GrayImage, center: Vec2, radius: f64, value: u8) {
    if radius <= 0.0 {
        return;
    }
    let x0 = ((center.x - radius).floor().max(0.0)) as u32;
    let x1 = ((center.x + radius).ceil().min(img.width() as f64 - 1.0)).max(0.0) as u32;
    let y0 = ((center.y - radius).floor().max(0.0)) as u32;
    let y1 = ((center.y + radius).ceil().min(img.height() as f64 - 1.0)).max(0.0) as u32;
    let r_sq = radius * radius;
    for y in y0..=y1 {
        for x in x0..=x1 {
            let p = Vec2::new(x as f64 + 0.5, y as f64 + 0.5);
            if (p - center).norm_sq() <= r_sq {
                img.set(x, y, value);
            }
        }
    }
}

/// The per-pixel loop `draw::fill_tapered_capsule` ran before the span
/// rasteriser.
fn oracle_capsule(img: &mut GrayImage, a: Vec2, radius_a: f64, b: Vec2, radius_b: f64, value: u8) {
    let r_max = radius_a.max(radius_b).max(0.0);
    let lo = a.min(b) - Vec2::splat(r_max);
    let hi = a.max(b) + Vec2::splat(r_max);
    let x0 = lo.x.floor().max(0.0) as u32;
    let y0 = lo.y.floor().max(0.0) as u32;
    let x1 = (hi.x.ceil().min(img.width() as f64 - 1.0)).max(0.0) as u32;
    let y1 = (hi.y.ceil().min(img.height() as f64 - 1.0)).max(0.0) as u32;
    let ab = b - a;
    let len_sq = ab.norm_sq();
    for y in y0..=y1 {
        for x in x0..=x1 {
            let p = Vec2::new(x as f64 + 0.5, y as f64 + 0.5);
            let t = if len_sq <= 1e-12 {
                0.0
            } else {
                ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0)
            };
            let closest = a + ab * t;
            let r = radius_a + (radius_b - radius_a) * t;
            if (p - closest).norm_sq() <= r * r {
                img.set(x, y, value);
            }
        }
    }
}

/// A coordinate along an axis of `extent` pixels from a `(kind, f)` draw:
/// mostly anywhere from well off one edge to well off the other, often on
/// the quarter-pixel grid (so edges run through pixel centres), sometimes
/// non-finite or huge.
fn place(kind: u8, f: f64, extent: u32) -> f64 {
    let x = f * (extent as f64 + 60.0) - 30.0;
    match kind % 10 {
        0..=5 => x,
        6..=8 => (x * 4.0).round() / 4.0,
        _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e70, -1e9][kind as usize % 5],
    }
}

/// A radius from a `(kind, f)` draw: mostly up to 30 px, often on the
/// quarter-pixel grid, sometimes zero, negative, tiny, non-finite or huge.
fn radius(kind: u8, f: f64) -> f64 {
    match kind % 10 {
        0..=4 => f * 30.0,
        5..=7 => (f * 120.0).round() / 4.0,
        8 => -f * 10.0,
        _ => [0.0, f64::NAN, f64::INFINITY, 1e-9, 1e70][kind as usize % 5],
    }
}

/// Frame sizes for the rasteriser: widths around one and two mask words
/// (exercising the tail invariant) and tiny frames.
fn raster_dims() -> impl Strategy<Value = (u32, u32)> {
    prop_oneof![
        (60u32..70, 1u32..48),
        (120u32..134, 1u32..32),
        (1u32..24, 1u32..24),
    ]
}

/// Draws one primitive with the per-pixel oracle, the grey sink (over a
/// non-empty frame, so only covered pixels may change) and the mask sink,
/// and checks all three agree bit for bit.
fn assert_sinks_match_oracle(
    (w, h): (u32, u32),
    background: u8,
    oracle: impl Fn(&mut GrayImage),
    grey: impl Fn(&mut GrayImage),
    mask: impl Fn(&mut BitMask),
) -> Result<(), TestCaseError> {
    let mut want = GrayImage::new(w, h);
    // a background pattern both paths must leave alone outside the shape
    for (i, p) in want.pixels_mut().iter_mut().enumerate() {
        *p = if i % 7 == 0 { background } else { 0 };
    }
    let mut got = want.clone();
    oracle(&mut want);
    grey(&mut got);
    prop_assert_eq!(&got, &want);

    let mut silhouette = GrayImage::new(w, h);
    oracle(&mut silhouette);
    let mut packed = BitMask::new(w, h);
    mask(&mut packed);
    prop_assert_eq!(&packed, &hybrid_binarize(&silhouette, 128));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn span_disk_matches_per_pixel_definition(
        dims in raster_dims(),
        (kx, fx, ky, fy) in (any::<u8>(), 0.0f64..1.0, any::<u8>(), 0.0f64..1.0),
        (kr, fr) in (any::<u8>(), 0.0f64..1.0),
        background in any::<u8>(),
    ) {
        let center = Vec2::new(place(kx, fx, dims.0), place(ky, fy, dims.1));
        let r = radius(kr, fr);
        assert_sinks_match_oracle(
            dims,
            background,
            |img| oracle_disk(img, center, r, 255),
            |img| draw::fill_disk(img, center, r, 255),
            |mask| draw::disk(mask, center, r),
        )?;
    }

    #[test]
    fn span_capsule_matches_per_pixel_definition(
        dims in raster_dims(),
        (kx, fx, ky, fy) in (any::<u8>(), 0.0f64..1.0, any::<u8>(), 0.0f64..1.0),
        (shape, dx, dy) in (any::<u8>(), -1.0f64..1.0, -1.0f64..1.0),
        (ka, fa, kb, fb) in (any::<u8>(), 0.0f64..1.0, any::<u8>(), 0.0f64..1.0),
        background in any::<u8>(),
    ) {
        let a = Vec2::new(place(kx, fx, dims.0), place(ky, fy, dims.1));
        let b = match shape % 8 {
            // degenerate: one point, or a segment shorter than the cut-off
            0 => a,
            1 => a + Vec2::new(dx, dy) * 1e-6,
            // short and axis-aligned segments
            2 => a + Vec2::new(dx, dy) * 4.0,
            3 => a + Vec2::new(dx * 40.0, 0.0),
            4 => a + Vec2::new(0.0, dy * 40.0),
            // anywhere, including off-frame and non-finite
            _ => Vec2::new(
                place(shape, dx.abs(), dims.0),
                place(shape.wrapping_mul(7), dy.abs(), dims.1),
            ),
        };
        let (ra, rb) = (radius(ka, fa), radius(kb, fb));
        assert_sinks_match_oracle(
            dims,
            background,
            |img| oracle_capsule(img, a, ra, b, rb, 255),
            |img| draw::fill_tapered_capsule(img, a, ra, b, rb, 255),
            |mask| draw::tapered_capsule(mask, a, ra, b, rb),
        )?;
    }

    #[test]
    fn span_capsule_tapers_both_ways(
        (fx, fy, angle) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..std::f64::consts::TAU),
        length in 0.0f64..40.0,
        (thin, thick) in (0.0f64..4.0, 4.0f64..12.0),
        thin_first in any::<bool>(),
    ) {
        // the concave kink where a flank meets the thinner end's disk can
        // cross a row twice; both orders of the ends must match
        let dims = (70, 48);
        let a = Vec2::new(5.0 + fx * 60.0, 5.0 + fy * 38.0);
        let b = a + Vec2::new(angle.cos(), angle.sin()) * length;
        let (ra, rb) = if thin_first { (thin, thick) } else { (thick, thin) };
        assert_sinks_match_oracle(
            dims,
            0,
            |img| oracle_capsule(img, a, ra, b, rb, 255),
            |img| draw::fill_tapered_capsule(img, a, ra, b, rb, 255),
            |mask| draw::tapered_capsule(mask, a, ra, b, rb),
        )?;
    }
}

#[test]
fn span_capsules_match_where_edges_cross_pixel_centres_exactly() {
    // 3-4-5 segments on the quarter-pixel grid put piece boundaries exactly
    // on pixel centres; only the float-error margins keep the untested
    // interior in step with the definition there (each case fails with the
    // margins set to zero)
    let cases = [
        ((-3.5, 19.75), 7.75, (2.5, 27.75), 1.5, (64, 58)),
        ((25.5, 10.5), 7.5, (19.5, 2.5), 0.0, (70, 47)),
        ((15.5, 14.0), 1.0, (9.5, 22.0), 6.0, (70, 30)),
        ((1.5, 27.75), 1.25, (7.5, 19.75), 2.5, (70, 52)),
        ((30.5, 1.25), 7.0, (24.5, -6.75), 9.5, (130, 26)),
        ((15.75, 23.25), 5.0, (18.75, 19.25), 0.0, (130, 32)),
        ((32.5, 1.5), 5.5, (38.5, 9.5), 0.5, (200, 5)),
        ((25.5, 4.75), 2.25, (28.5, 8.75), 2.25, (65, 11)),
    ];
    for ((ax, ay), ra, (bx, by), rb, dims) in cases {
        let (a, b) = (Vec2::new(ax, ay), Vec2::new(bx, by));
        assert_sinks_match_oracle(
            dims,
            0,
            |img| oracle_capsule(img, a, ra, b, rb, 255),
            |img| draw::fill_tapered_capsule(img, a, ra, b, rb, 255),
            |mask| draw::tapered_capsule(mask, a, ra, b, rb),
        )
        .unwrap_or_else(|e| panic!("capsule {a:?} {ra} {b:?} {rb}: {e:?}"));
    }
}

#[test]
fn a_tapered_capsule_row_can_hold_two_runs() {
    // ra = 2, rb = 6: row 28 crosses the flank, leaves the shape at the
    // kink, and re-enters the thin end's disk
    let (a, b) = (Vec2::new(32.5, 26.5), Vec2::new(15.5, 23.0));
    let mut want = GrayImage::new(64, 40);
    oracle_capsule(&mut want, a, 2.0, b, 6.0, 255);
    let row: Vec<bool> = (0..64).map(|x| want.get(x, 28) == Some(255)).collect();
    let runs = row.windows(2).filter(|w| !w[0] && w[1]).count() + usize::from(row[0]);
    assert_eq!(runs, 2, "row 28 must hold two runs");

    let mut got = GrayImage::new(64, 40);
    draw::fill_tapered_capsule(&mut got, a, 2.0, b, 6.0, 255);
    assert_eq!(got, want);
    let mut mask = BitMask::new(64, 40);
    draw::tapered_capsule(&mut mask, a, 2.0, b, 6.0);
    assert_eq!(mask, hybrid_binarize(&want, 128));
}
