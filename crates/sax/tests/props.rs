//! Property-based tests for SAX invariants.

use hdc_sax::{
    breakpoints, min_rotated_mindist, mindist, normal_quantile, IndexMatchRef, QueryScratch,
    SaxEncoder, SaxIndex, SaxParams, SaxWord,
};
use hdc_timeseries::{euclidean, rotate_left, TimeSeries};
use proptest::prelude::*;

fn series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, len)
}

fn params() -> impl Strategy<Value = SaxParams> {
    (2usize..24, 2u8..12).prop_map(|(w, a)| SaxParams::new(w, a).unwrap())
}

/// `pattern` repeated to length `n`: its rotations by multiples of the
/// pattern's length are the same series, so rotation distances tie exactly.
fn periodic(pattern: &[f64], n: usize) -> Vec<f64> {
    pattern.iter().copied().cycle().take(n).collect()
}

/// `best_two_with` equals the naive oracle bit for bit: label, distance,
/// shift and runner-up.
fn assert_best_two_like_reference(idx: &SaxIndex, q: &[f64], scratch: &mut QueryScratch) {
    let fast = idx
        .best_two_with(q, scratch)
        .map(|(m, r)| (IndexMatchRef::into_owned(m), r.map(f64::to_bits)));
    let slow = idx
        .best_two_reference(q)
        .map(|(m, r)| (m, r.map(f64::to_bits)));
    assert_eq!(fast, slow);
}

/// A pseudo-random series that reads the same backwards
/// (`v[i] == v[(n - i) % n]`): two of them are as far apart at shift `s`
/// as at `n - s`, up to summation rounding.
fn mirrored(n: usize, mut state: u64) -> Vec<f64> {
    let half: Vec<f64> = (0..=n / 2)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect();
    (0..n).map(|i| half[i.min(n - i)]).collect()
}

#[test]
fn best_two_on_the_fft_path_is_the_reference_on_mirrored_shapes() {
    // near-tied rotations whose FFT estimates order them at random
    let mut idx = SaxIndex::new(SaxParams::default(), 128);
    for t in 0..3u64 {
        idx.insert(format!("m{t}"), &mirrored(128, 1000 + t));
    }
    let mut scratch = QueryScratch::new();
    for seed in 0..60u64 {
        assert_best_two_like_reference(&idx, &mirrored(128, seed), &mut scratch);
    }
}

#[test]
fn best_two_on_the_fft_path_is_the_reference_on_periodic_shapes() {
    // 128-sample series take the FFT path; periodic templates and queries
    // make every rotation match tie across shifts.
    let mut idx = SaxIndex::new(SaxParams::default(), 128);
    let shapes: Vec<Vec<f64>> = [4usize, 8, 16, 32]
        .iter()
        .map(|&p| {
            let pattern: Vec<f64> = (0..p).map(|i| (i as f64 * 2.3 + p as f64).cos()).collect();
            periodic(&pattern, 128)
        })
        .collect();
    for (i, shape) in shapes.iter().enumerate() {
        idx.insert(format!("p{i}"), shape);
    }
    idx.insert("flat", &[1.0; 128]);
    let mut scratch = QueryScratch::new();
    for shape in &shapes {
        for s in [0, 1, 3, 17, 64] {
            assert_best_two_like_reference(&idx, &rotate_left(shape, s), &mut scratch);
        }
    }
    assert_best_two_like_reference(&idx, &[2.0; 128], &mut scratch);
    assert_best_two_like_reference(&idx, &periodic(&[1.0, -1.0], 300), &mut scratch);
}

proptest! {
    #[test]
    fn best_two_on_the_fft_path_is_the_reference(
        db in prop::collection::vec(series(128..129), 1..6),
        q in series(128..129),
        shift in 0usize..128,
    ) {
        let mut idx = SaxIndex::new(SaxParams::default(), 128);
        for (i, v) in db.iter().enumerate() {
            idx.insert(format!("t{}", i % 3), v);
        }
        let mut scratch = QueryScratch::new();
        assert_best_two_like_reference(&idx, &q, &mut scratch);
        assert_best_two_like_reference(&idx, &rotate_left(&db[0], shift), &mut scratch);
    }

    #[test]
    fn quantile_monotone(p1 in 0.001f64..0.999, p2 in 0.001f64..0.999) {
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(normal_quantile(lo) <= normal_quantile(hi) + 1e-12);
    }

    #[test]
    fn breakpoints_strictly_ascending(a in 2u8..=26) {
        let b = breakpoints(a);
        prop_assert_eq!(b.len(), (a - 1) as usize);
        for w in b.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn encoding_has_requested_length(v in series(1..128), p in params()) {
        let enc = SaxEncoder::new(p);
        let w = enc.encode(&v);
        prop_assert_eq!(w.len(), p.segments());
        prop_assert_eq!(w.alphabet(), p.alphabet());
    }

    #[test]
    fn encoding_is_scale_invariant(v in series(4..64), p in params(), scale in 0.1f64..50.0, offset in -100.0f64..100.0) {
        let enc = SaxEncoder::new(p);
        let scaled: Vec<f64> = v.iter().map(|x| x * scale + offset).collect();
        prop_assert_eq!(enc.encode(&v), enc.encode(&scaled));
    }

    #[test]
    fn word_display_parse_roundtrip(v in series(4..64), p in params()) {
        let enc = SaxEncoder::new(p);
        let w = enc.encode(&v);
        let parsed: SaxWord = w.to_string().parse().unwrap();
        prop_assert_eq!(parsed.symbols(), w.symbols());
    }

    #[test]
    fn mindist_is_symmetric_and_self_zero(v1 in series(32..33), v2 in series(32..33), p in params()) {
        let enc = SaxEncoder::new(p);
        let w1 = enc.encode(&v1);
        let w2 = enc.encode(&v2);
        let d12 = mindist(&w1, &w2, 32);
        let d21 = mindist(&w2, &w1, 32);
        prop_assert!((d12 - d21).abs() < 1e-12);
        prop_assert_eq!(mindist(&w1, &w1, 32), 0.0);
    }

    #[test]
    fn mindist_lower_bounds_euclidean(v1 in series(32..33), v2 in series(32..33), p in params()) {
        let z1 = TimeSeries::new(v1).znormalized().into_values();
        let z2 = TimeSeries::new(v2).znormalized().into_values();
        let enc = SaxEncoder::new(p);
        let w1 = enc.encode(&z1);
        let w2 = enc.encode(&z2);
        let lb = mindist(&w1, &w2, 32);
        let d = euclidean(&z1, &z2).unwrap();
        prop_assert!(lb <= d + 1e-9, "MINDIST {} must lower-bound {}", lb, d);
    }

    #[test]
    fn rotated_mindist_bounded_by_plain(v1 in series(24..25), v2 in series(24..25), p in params()) {
        let enc = SaxEncoder::new(p);
        let w1 = enc.encode(&v1);
        let w2 = enc.encode(&v2);
        let plain = mindist(&w1, &w2, 24);
        let (rot, shift) = min_rotated_mindist(&w1, &w2, 24);
        prop_assert!(rot <= plain + 1e-12);
        prop_assert!(shift < w2.len());
    }

    #[test]
    fn index_self_query_is_exact(v in series(16..96)) {
        let mut idx = SaxIndex::new(SaxParams::default(), 64);
        idx.insert("self", &v);
        let m = idx.best_match(&v).unwrap();
        prop_assert_eq!(m.label.as_str(), "self");
        prop_assert!(m.distance < 1e-9);
    }

    #[test]
    fn index_rotation_invariance(v in series(64..65), shift in 0usize..64) {
        // use a non-degenerate series: skip near-constant draws
        let ts = TimeSeries::new(v.clone());
        prop_assume!(ts.std_dev() > 1e-6);
        let mut idx = SaxIndex::new(SaxParams::default(), 64);
        idx.insert("shape", &v);
        let rotated = rotate_left(&v, shift);
        let m = idx.best_match(&rotated).unwrap();
        prop_assert!(m.distance < 1e-6, "rotation should be free, got {}", m.distance);
    }

    #[test]
    fn index_agrees_with_exhaustive_reference_on_random_databases(
        db in prop::collection::vec(series(48..49), 1..8),
        q in series(48..49),
    ) {
        // the FFT lookup must agree with the naive oracle on any database:
        // same label, same distance, same runner-up gap
        let mut idx = SaxIndex::new(SaxParams::default(), 48);
        for (i, v) in db.iter().enumerate() {
            idx.insert(format!("t{i}"), v);
        }
        let fast = idx.best_match(&q).unwrap();
        let slow = idx.best_two_reference(&q).unwrap().0;
        prop_assert_eq!(&fast.label, &slow.label);
        prop_assert!((fast.distance - slow.distance).abs() < 1e-9,
            "FFT {} vs naive {}", fast.distance, slow.distance);

        let (fast_best, fast_ru) = idx.best_two(&q).unwrap();
        let (slow_best, slow_ru) = idx.best_two_reference(&q).unwrap();
        prop_assert_eq!(&fast_best.label, &slow_best.label);
        prop_assert!((fast_best.distance - slow_best.distance).abs() < 1e-9);
        match (fast_ru, slow_ru) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9,
                "runner-up {} vs {}", a, b),
            (a, b) => prop_assert!(false, "runner-up presence differs: {:?} vs {:?}", a, b),
        }
    }

    #[test]
    fn index_prefers_true_nearest(v1 in series(48..49), v2 in series(48..49)) {
        let z1 = TimeSeries::new(v1.clone()).znormalized();
        let z2 = TimeSeries::new(v2.clone()).znormalized();
        prop_assume!(z1.std_dev() > 1e-6 && z2.std_dev() > 1e-6);
        // ensure the two templates are distinguishable
        let d = euclidean(z1.values(), z2.values()).unwrap();
        prop_assume!(d > 1.0);
        let mut idx = SaxIndex::new(SaxParams::default(), 48);
        idx.insert("one", &v1);
        idx.insert("two", &v2);
        let m1 = idx.best_match(&v1).unwrap();
        let m2 = idx.best_match(&v2).unwrap();
        prop_assert_eq!(m1.label.as_str(), "one");
        prop_assert_eq!(m2.label.as_str(), "two");
    }
}
