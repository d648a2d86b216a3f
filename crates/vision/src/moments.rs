//! Image moments and Hu invariants (baseline classifier features).

use hdc_raster::Bitmap;

/// Raw, central and normalised moments of a binary mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawMoments {
    /// Zeroth moment (area).
    pub m00: f64,
    /// Centroid x.
    pub cx: f64,
    /// Centroid y.
    pub cy: f64,
}

/// Computes area and centroid of a mask, or `None` when empty.
pub fn raw_moments(mask: &Bitmap) -> Option<RawMoments> {
    let mut m00 = 0.0;
    let mut m10 = 0.0;
    let mut m01 = 0.0;
    for (x, y, v) in mask.iter() {
        if v {
            m00 += 1.0;
            m10 += x as f64;
            m01 += y as f64;
        }
    }
    if m00 == 0.0 {
        return None;
    }
    Some(RawMoments {
        m00,
        cx: m10 / m00,
        cy: m01 / m00,
    })
}

/// Central moments `mu_pq` up to order 3, indexed `[p][q]`.
///
/// Returns `None` for an empty mask.
pub fn central_moments(mask: &Bitmap) -> Option<[[f64; 4]; 4]> {
    let rm = raw_moments(mask)?;
    let mut mu = [[0.0; 4]; 4];
    for (x, y, v) in mask.iter() {
        if v {
            let dx = x as f64 - rm.cx;
            let dy = y as f64 - rm.cy;
            let mut xp = 1.0;
            for row in mu.iter_mut() {
                let mut yq = 1.0;
                for cell in row.iter_mut() {
                    *cell += xp * yq;
                    yq *= dy;
                }
                xp *= dx;
            }
        }
    }
    Some(mu)
}

/// Hu's seven rotation/scale/translation-invariant moments.
///
/// Returns `None` for an empty mask. These are the classic cheap shape
/// descriptors the baseline classifier uses — invariant like the paper's SAX
/// signature, but global rather than boundary-ordered (so they separate less
/// articulated shapes less well; experiment E11 quantifies that).
pub fn hu_moments(mask: &Bitmap) -> Option<[f64; 7]> {
    let mu = central_moments(mask)?;
    let mu00 = mu[0][0];
    if mu00 <= 0.0 {
        return None;
    }
    // normalised central moments
    let eta = |p: usize, q: usize| mu[p][q] / mu00.powf(1.0 + (p + q) as f64 / 2.0);
    let (n20, n02, n11) = (eta(2, 0), eta(0, 2), eta(1, 1));
    let (n30, n03, n21, n12) = (eta(3, 0), eta(0, 3), eta(2, 1), eta(1, 2));

    let h1 = n20 + n02;
    let h2 = (n20 - n02).powi(2) + 4.0 * n11 * n11;
    let h3 = (n30 - 3.0 * n12).powi(2) + (3.0 * n21 - n03).powi(2);
    let h4 = (n30 + n12).powi(2) + (n21 + n03).powi(2);
    let h5 = (n30 - 3.0 * n12) * (n30 + n12) * ((n30 + n12).powi(2) - 3.0 * (n21 + n03).powi(2))
        + (3.0 * n21 - n03) * (n21 + n03) * (3.0 * (n30 + n12).powi(2) - (n21 + n03).powi(2));
    let h6 = (n20 - n02) * ((n30 + n12).powi(2) - (n21 + n03).powi(2))
        + 4.0 * n11 * (n30 + n12) * (n21 + n03);
    let h7 = (3.0 * n21 - n03) * (n30 + n12) * ((n30 + n12).powi(2) - 3.0 * (n21 + n03).powi(2))
        - (n30 - 3.0 * n12) * (n21 + n03) * (3.0 * (n30 + n12).powi(2) - (n21 + n03).powi(2));

    Some([h1, h2, h3, h4, h5, h6, h7])
}

/// Signed-log transform used to compare Hu vectors across magnitudes:
/// `sgn(h) * log10(|h|)`, with a floor for zeros.
pub fn hu_log(hu: &[f64; 7]) -> [f64; 7] {
    let mut out = [0.0; 7];
    for (o, h) in out.iter_mut().zip(hu) {
        let a = h.abs().max(1e-30);
        *o = h.signum() * a.log10();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_geometry::Vec2;
    use hdc_raster::threshold::binarize;
    use hdc_raster::{draw, GrayImage};

    fn disk_at(cx: f64, cy: f64, r: f64, size: u32) -> Bitmap {
        let mut img = GrayImage::new(size, size);
        draw::fill_disk(&mut img, Vec2::new(cx, cy), r, 255);
        binarize(&img, 128)
    }

    fn bar(size: u32, horizontal: bool) -> Bitmap {
        let mut img = GrayImage::new(size, size);
        let c = size as f64 / 2.0;
        let (a, b) = if horizontal {
            (Vec2::new(c - 20.0, c), Vec2::new(c + 20.0, c))
        } else {
            (Vec2::new(c, c - 20.0), Vec2::new(c, c + 20.0))
        };
        draw::fill_tapered_capsule(&mut img, a, 5.0, b, 5.0, 255);
        binarize(&img, 128)
    }

    #[test]
    fn raw_moments_centroid() {
        let m = disk_at(30.0, 40.0, 10.0, 80);
        let rm = raw_moments(&m).unwrap();
        assert!((rm.cx - 29.5).abs() < 1.0);
        assert!((rm.cy - 39.5).abs() < 1.0);
        assert!(rm.m00 > 250.0);
        assert!(raw_moments(&Bitmap::new(4, 4)).is_none());
    }

    #[test]
    fn central_moments_first_order_vanish() {
        let m = disk_at(25.0, 25.0, 12.0, 50);
        let mu = central_moments(&m).unwrap();
        assert!(mu[1][0].abs() < 1e-6);
        assert!(mu[0][1].abs() < 1e-6);
        assert!(mu[0][0] > 0.0);
    }

    #[test]
    fn hu_translation_invariant() {
        let a = hu_moments(&disk_at(20.0, 20.0, 10.0, 64)).unwrap();
        let b = hu_moments(&disk_at(40.0, 40.0, 10.0, 64)).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn hu_scale_invariant() {
        let a = hu_moments(&disk_at(32.0, 32.0, 8.0, 64)).unwrap();
        let b = hu_moments(&disk_at(32.0, 32.0, 20.0, 64)).unwrap();
        assert!((a[0] - b[0]).abs() < 0.01, "h1: {} vs {}", a[0], b[0]);
    }

    #[test]
    fn hu_rotation_invariant() {
        let h = hu_moments(&bar(64, true)).unwrap();
        let v = hu_moments(&bar(64, false)).unwrap();
        for (a, b) in h.iter().zip(&v) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn hu_distinguishes_disk_from_bar() {
        let d = hu_moments(&disk_at(32.0, 32.0, 12.0, 64)).unwrap();
        let b = hu_moments(&bar(64, true)).unwrap();
        assert!((d[0] - b[0]).abs() > 0.05, "h1 separates elongation");
    }

    #[test]
    fn hu_log_handles_zero() {
        let l = hu_log(&[0.0; 7]);
        assert!(l.iter().all(|v| v.is_finite()));
        let l2 = hu_log(&[1e-3, -1e-3, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((l2[0] + 3.0).abs() < 1e-9);
        assert!((l2[1] - 3.0).abs() < 1e-9);
    }
}
