//! Human actors moving through the orchard.

use hdc_core::Role;
use hdc_geometry::Vec2;
use rand::Rng;

/// A human working in (or visiting) the orchard.
#[derive(Debug, Clone, PartialEq)]
pub struct HumanActor {
    /// Actor id.
    pub id: u32,
    /// Their role (training level).
    pub role: Role,
    /// Current ground position.
    pub position: Vec2,
    /// Current walking target.
    target: Vec2,
    /// Walking speed, m/s.
    pub speed: f64,
    /// Whether this person would consent to an area request right now.
    pub will_consent: bool,
}

impl HumanActor {
    /// Creates an actor at a position.
    pub fn new(id: u32, role: Role, position: Vec2) -> Self {
        HumanActor {
            id,
            role,
            position,
            target: position,
            speed: 1.2,
            will_consent: true,
        }
    }

    /// Whether the actor has reached its current target.
    pub fn is_idle(&self) -> bool {
        self.position.distance(self.target) < 0.2
    }

    /// Picks a random target within the given bounds.
    pub fn replan<R: Rng>(&mut self, lo: Vec2, hi: Vec2, rng: &mut R) {
        self.target = Vec2::new(rng.gen_range(lo.x..=hi.x), rng.gen_range(lo.y..=hi.y));
        // workers change their mind about consenting now and then
        self.will_consent = rng.gen::<f64>() < 0.8;
    }

    /// Advances the walk by `dt` seconds.
    pub fn step(&mut self, dt: f64) {
        let to_target = self.target - self.position;
        let dist = to_target.norm();
        if dist < 1e-9 {
            return;
        }
        let step = (self.speed * dt).min(dist);
        self.position += to_target / dist * step;
    }

    /// Whether the actor blocks access to a point (is within `radius` of it).
    pub fn blocks(&self, point: Vec2, radius: f64) -> bool {
        self.position.distance(point) <= radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn walks_toward_target() {
        let mut h = HumanActor::new(0, Role::Worker, Vec2::ZERO);
        h.target = Vec2::new(10.0, 0.0);
        assert!(!h.is_idle());
        h.step(1.0);
        assert!((h.position.x - 1.2).abs() < 1e-9);
        for _ in 0..20 {
            h.step(1.0);
        }
        assert!(h.is_idle());
        assert!((h.position.x - 10.0).abs() < 1e-9, "does not overshoot");
    }

    #[test]
    fn replan_stays_in_bounds() {
        let mut h = HumanActor::new(1, Role::Visitor, Vec2::ZERO);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            h.replan(Vec2::new(-5.0, -5.0), Vec2::new(5.0, 5.0), &mut rng);
            for _ in 0..100 {
                h.step(0.5);
            }
            assert!(h.position.x >= -5.0 - 1e-9 && h.position.x <= 5.0 + 1e-9);
            assert!(h.position.y >= -5.0 - 1e-9 && h.position.y <= 5.0 + 1e-9);
        }
    }

    #[test]
    fn blocking_radius() {
        let h = HumanActor::new(2, Role::Supervisor, Vec2::new(1.0, 1.0));
        assert!(h.blocks(Vec2::new(1.5, 1.0), 1.0));
        assert!(!h.blocks(Vec2::new(3.0, 1.0), 1.0));
    }

    #[test]
    fn stationary_actor_is_stable() {
        let mut h = HumanActor::new(3, Role::Worker, Vec2::new(2.0, 2.0));
        h.step(10.0);
        assert_eq!(h.position, Vec2::new(2.0, 2.0));
        assert!(h.is_idle());
    }
}
