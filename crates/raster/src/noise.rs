//! Sensor-noise models for synthetic frames.
//!
//! Real orchard frames suffer sensor noise and foliage speckle; these
//! injectors let the experiments measure recognition robustness instead of
//! only clean-frame behaviour.

use crate::image::GrayImage;
use rand::Rng;

/// Adds zero-mean Gaussian noise (approximated by the sum of uniforms via the
/// central limit theorem) with standard deviation `sigma` intensity levels.
///
/// # Example
/// ```
/// use hdc_raster::{GrayImage, noise};
/// use rand::{rngs::SmallRng, SeedableRng};
/// let mut img = GrayImage::filled(8, 8, 128);
/// let mut rng = SmallRng::seed_from_u64(7);
/// noise::add_gaussian(&mut img, 10.0, &mut rng);
/// assert!(img.pixels().iter().any(|p| *p != 128));
/// ```
pub fn add_gaussian<R: Rng>(img: &mut GrayImage, sigma: f64, rng: &mut R) {
    if sigma <= 0.0 {
        return;
    }
    for p in img.pixels_mut() {
        // Irwin–Hall(12) minus 6 has mean 0, variance 1.
        let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
        let v = *p as f64 + z * sigma;
        *p = v.round().clamp(0.0, 255.0) as u8;
    }
}

/// Salt-and-pepper noise: each pixel independently becomes 0 or 255 with
/// probability `p/2` each.
///
/// # Panics
/// Panics if `p` is outside `[0, 1]`.
pub fn add_salt_pepper<R: Rng>(img: &mut GrayImage, p: f64, rng: &mut R) {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    for px in img.pixels_mut() {
        let u: f64 = rng.gen();
        if u < p / 2.0 {
            *px = 0;
        } else if u < p {
            *px = 255;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_preserves_mean_roughly() {
        let mut img = GrayImage::filled(64, 64, 128);
        let mut rng = SmallRng::seed_from_u64(1);
        add_gaussian(&mut img, 8.0, &mut rng);
        let mean = img.mean();
        assert!((mean - 128.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut img = GrayImage::filled(8, 8, 50);
        let mut rng = SmallRng::seed_from_u64(2);
        add_gaussian(&mut img, 0.0, &mut rng);
        assert!(img.pixels().iter().all(|p| *p == 50));
    }

    #[test]
    fn salt_pepper_hits_expected_fraction() {
        let mut img = GrayImage::filled(100, 100, 128);
        let mut rng = SmallRng::seed_from_u64(3);
        add_salt_pepper(&mut img, 0.1, &mut rng);
        let changed = img.pixels().iter().filter(|p| **p != 128).count();
        assert!((800..1200).contains(&changed), "changed {changed}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let mut img = GrayImage::new(2, 2);
        let mut rng = SmallRng::seed_from_u64(5);
        add_salt_pepper(&mut img, 1.5, &mut rng);
    }
}
