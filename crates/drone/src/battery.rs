//! Battery / energy model.
//!
//! The paper flags "power requirements with respect to illumination
//! distance" as an open issue for the LED ring; the energy model lets the
//! experiments account for signalling and flight power together.

/// A simple energy-integral battery model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryModel {
    capacity_wh: f64,
    remaining_wh: f64,
    /// Power draw while hovering, watts.
    pub hover_power_w: f64,
    /// Additional power per (m/s)² of airspeed, watts.
    pub drag_power_coeff: f64,
    /// Power draw of the LED ring at full brightness, watts.
    pub led_power_w: f64,
}

impl BatteryModel {
    /// A full battery of the given capacity (watt-hours).
    ///
    /// # Panics
    /// Panics if `capacity_wh` is not positive.
    pub fn new(capacity_wh: f64) -> Self {
        assert!(capacity_wh > 0.0, "battery capacity must be positive");
        BatteryModel {
            capacity_wh,
            remaining_wh: capacity_wh,
            hover_power_w: 350.0,
            drag_power_coeff: 1.2,
            led_power_w: 6.0,
        }
    }

    /// Remaining energy, Wh.
    pub fn remaining_wh(&self) -> f64 {
        self.remaining_wh
    }

    /// State of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        self.remaining_wh / self.capacity_wh
    }

    /// Whether the pack is below the 15 % return-home reserve.
    pub fn below_reserve(&self) -> bool {
        self.state_of_charge() < 0.15
    }

    /// Whether the pack is empty.
    pub fn is_empty(&self) -> bool {
        self.remaining_wh <= 0.0
    }

    /// Drains the pack for `dt` seconds of flight at `airspeed` m/s with the
    /// LEDs at `led_brightness` (0–1). Rotors-off consumes only LED power.
    ///
    /// Returns the energy consumed in Wh.
    pub fn drain(&mut self, dt: f64, airspeed: f64, rotors_on: bool, led_brightness: f64) -> f64 {
        let flight_w = if rotors_on {
            self.hover_power_w + self.drag_power_coeff * airspeed * airspeed
        } else {
            0.0
        };
        let power_w = flight_w + self.led_power_w * led_brightness.clamp(0.0, 1.0);
        let wh = power_w * dt / 3600.0;
        self.remaining_wh = (self.remaining_wh - wh).max(0.0);
        wh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_at_start() {
        let b = BatteryModel::new(71.0);
        assert_eq!(b.state_of_charge(), 1.0);
        assert!(!b.below_reserve());
        assert!(!b.is_empty());
    }

    #[test]
    fn drain_integrates_power() {
        let mut b = BatteryModel::new(1000.0);
        let wh = b.drain(3600.0, 0.0, true, 0.0);
        assert!((wh - b.hover_power_w).abs() < 1e-9);
        assert!((b.remaining_wh() - (1000.0 - b.hover_power_w)).abs() < 1e-9);
    }

    #[test]
    fn moving_costs_more_than_hovering() {
        let mut hover = BatteryModel::new(100.0);
        let mut fast = BatteryModel::new(100.0);
        hover.drain(600.0, 0.0, true, 0.0);
        fast.drain(600.0, 10.0, true, 0.0);
        assert!(fast.remaining_wh() < hover.remaining_wh());
    }

    #[test]
    fn rotors_off_only_leds() {
        let mut b = BatteryModel::new(100.0);
        let wh = b.drain(3600.0, 5.0, false, 1.0);
        assert!((wh - b.led_power_w).abs() < 1e-9);
    }

    #[test]
    fn reserve_and_empty() {
        let mut b = BatteryModel::new(1.0);
        b.drain(8.0 * 3600.0 * 1.0 / 350.0 * 350.0, 0.0, true, 0.0); // drain a lot
        assert!(b.is_empty() || b.below_reserve());
        b.drain(1e9, 0.0, true, 0.0);
        assert!(b.is_empty());
        assert_eq!(b.remaining_wh(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        BatteryModel::new(0.0);
    }
}
