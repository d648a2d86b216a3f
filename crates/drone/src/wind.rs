//! Wind disturbance model.
//!
//! Section III: the standard patterns "only vary if the drone is somehow
//! defective or, for instance, caught in wind gusts". The wind model lets
//! the experiments inject exactly that disturbance and measure when pattern
//! legibility breaks down.

use hdc_geometry::Vec3;
use rand::Rng;

/// Mean wind plus sinusoidal gusting with random phase noise — a cheap
/// stand-in for a Dryden-style turbulence model that still produces
/// correlated, bounded gusts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindModel {
    /// Steady wind vector, m/s.
    pub mean: Vec3,
    /// Peak gust amplitude added on top of the mean, m/s.
    pub gust_amplitude: f64,
    /// Gust period, seconds.
    pub gust_period: f64,
}

impl WindModel {
    /// Dead calm.
    pub fn calm() -> Self {
        WindModel {
            mean: Vec3::ZERO,
            gust_amplitude: 0.0,
            gust_period: 1.0,
        }
    }

    /// A steady breeze along `direction` (normalised internally) at
    /// `speed` m/s with `gust_amplitude` m/s gusts.
    pub fn breeze(direction: Vec3, speed: f64, gust_amplitude: f64) -> Self {
        let dir = direction.normalized().unwrap_or(Vec3::X);
        WindModel {
            mean: dir * speed,
            gust_amplitude,
            gust_period: 4.0,
        }
    }

    /// Samples the wind at time `t`; `rng` adds phase jitter so two runs
    /// differ while the spectrum stays bounded.
    pub fn sample<R: Rng>(&self, t: f64, rng: &mut R) -> Vec3 {
        if self.gust_amplitude <= 0.0 {
            return self.mean;
        }
        let phase = std::f64::consts::TAU * t / self.gust_period;
        let jitter: f64 = rng.gen_range(-0.3..0.3);
        let gust = (phase + jitter).sin() * self.gust_amplitude;
        let dir = self.mean.normalized().unwrap_or(Vec3::X);
        self.mean + dir * gust
    }

    /// The worst-case wind speed this model can produce.
    pub fn max_speed(&self) -> f64 {
        self.mean.norm() + self.gust_amplitude
    }
}

impl Default for WindModel {
    fn default() -> Self {
        WindModel::calm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn calm_is_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        let w = WindModel::calm();
        assert_eq!(w.sample(3.0, &mut rng), Vec3::ZERO);
        assert_eq!(w.max_speed(), 0.0);
    }

    #[test]
    fn breeze_points_downwind() {
        let w = WindModel::breeze(Vec3::new(0.0, 2.0, 0.0), 3.0, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let s = w.sample(0.0, &mut rng);
        assert!((s.y - 3.0).abs() < 1e-9);
        assert!(s.x.abs() < 1e-9);
    }

    #[test]
    fn gusts_bounded_by_max_speed() {
        let w = WindModel::breeze(Vec3::X, 4.0, 2.0);
        let mut rng = SmallRng::seed_from_u64(3);
        for i in 0..500 {
            let s = w.sample(i as f64 * 0.1, &mut rng);
            assert!(s.norm() <= w.max_speed() + 1e-9);
        }
    }

    #[test]
    fn gusts_actually_vary() {
        let w = WindModel::breeze(Vec3::X, 4.0, 2.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let a = w.sample(0.0, &mut rng);
        let b = w.sample(1.0, &mut rng);
        assert!((a - b).norm() > 0.1);
    }

    #[test]
    fn zero_direction_defaults_east() {
        let w = WindModel::breeze(Vec3::ZERO, 2.0, 0.0);
        assert!((w.mean.x - 2.0).abs() < 1e-9);
    }
}
