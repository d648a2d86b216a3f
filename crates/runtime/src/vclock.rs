//! Virtual time for deterministic schedulers.
//!
//! Wall clocks poison determinism: any decision that reads one (a deadline
//! check, a timeout, a latency percentile) varies run to run and machine to
//! machine, which is fatal to golden-trace testing. The serving layer
//! therefore runs entirely on *virtual* time — integer microseconds advanced
//! explicitly by the scheduler from seeded arrival offsets and a fixed cost
//! model — and [`VirtualClock`] is the little type that enforces the two
//! rules that make virtual time trustworthy:
//!
//! * **monotonicity** — time never goes backwards ([`VirtualClock::advance_to`]
//!   panics on regression, turning scheduler ordering bugs into loud test
//!   failures instead of silently reordered traces);
//! * **explicitness** — there is no ambient "now"; every advance is a visible
//!   call site, so the decision path provably never consults the host clock.

/// Virtual microseconds: the time unit of every deterministic scheduler in
/// the workspace.
pub type Micros = u64;

/// A monotone virtual clock counting integer microseconds from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VirtualClock {
    now_us: Micros,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> Micros {
        self.now_us
    }

    /// Advances to the absolute time `t_us`. Advancing to the current time
    /// is a no-op (schedulers routinely process several events at one
    /// instant).
    ///
    /// # Panics
    /// Panics if `t_us` is in the past — a virtual clock that regresses
    /// means the caller processed events out of order.
    pub fn advance_to(&mut self, t_us: Micros) {
        assert!(
            t_us >= self.now_us,
            "virtual clock regression: {} -> {t_us}",
            self.now_us
        );
        self.now_us = t_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance_to(5);
        c.advance_to(5); // same instant is fine
        c.advance_to(8);
        assert_eq!(c.now_us(), 8);
    }

    #[test]
    #[should_panic(expected = "regression")]
    fn regression_panics() {
        let mut c = VirtualClock::new();
        c.advance_to(10);
        c.advance_to(9);
    }
}
