//! Temporal decision filtering.
//!
//! A single frame can alias — a mid-gesture arm position may match a static
//! sign for one frame (see experiment E16's interaction with the wave-off).
//! Production recognisers therefore debounce: a sign is *believed* only
//! after it has persisted. [`DecisionFilter`] is that debounce, shared by
//! the collaboration session and available to downstream users of the
//! pipeline.

use hdc_figure::MarshallingSign;

/// Majority-persistence filter over per-frame decisions.
///
/// A sign is confirmed once it has been reported by `required` consecutive
/// frames. Any different observation (including "no decision") resets the
/// run.
///
/// # Example
/// ```
/// use hdc_figure::MarshallingSign::{No, Yes};
/// use hdc_vision::DecisionFilter;
/// let mut f = DecisionFilter::new(2);
/// assert_eq!(f.push(Some(Yes)), None);      // first sighting
/// assert_eq!(f.push(Some(Yes)), Some(Yes)); // confirmed
/// assert_eq!(f.push(Some(No)), None);       // run broken
/// assert_eq!(f.push(None), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionFilter {
    required: u32,
    current: Option<MarshallingSign>,
    run: u32,
}

impl DecisionFilter {
    /// Creates a filter requiring `required` consecutive agreeing frames.
    ///
    /// # Panics
    /// Panics if `required` is zero.
    pub fn new(required: u32) -> Self {
        assert!(required > 0, "at least one agreeing frame is required");
        DecisionFilter {
            required,
            current: None,
            run: 0,
        }
    }

    /// The number of agreeing frames required.
    pub fn required(&self) -> u32 {
        self.required
    }

    /// Feeds one frame's decision; returns the confirmed sign once the
    /// persistence requirement is met (and on every further agreeing frame).
    pub fn push(&mut self, decision: Option<MarshallingSign>) -> Option<MarshallingSign> {
        if decision.is_some() && decision == self.current {
            self.run += 1;
        } else {
            self.current = decision;
            self.run = u32::from(decision.is_some());
        }
        if self.run >= self.required {
            self.current
        } else {
            None
        }
    }

    /// Clears any in-progress run (e.g. when the scene changes).
    pub fn reset(&mut self) {
        self.current = None;
        self.run = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MarshallingSign::{No, Yes};

    #[test]
    fn confirms_after_n_frames() {
        let mut f = DecisionFilter::new(3);
        assert_eq!(f.push(Some(No)), None);
        assert_eq!(f.push(Some(No)), None);
        assert_eq!(f.push(Some(No)), Some(No));
        // stays confirmed while the run continues
        assert_eq!(f.push(Some(No)), Some(No));
        assert_eq!(f.push(Some(No)), Some(No));
    }

    #[test]
    fn different_label_resets() {
        let mut f = DecisionFilter::new(2);
        f.push(Some(Yes));
        assert_eq!(f.push(Some(No)), None, "run broken by different label");
        assert_eq!(f.push(Some(No)), Some(No));
    }

    #[test]
    fn none_resets() {
        let mut f = DecisionFilter::new(2);
        f.push(Some(Yes));
        assert_eq!(f.push(None), None);
        assert_eq!(f.push(Some(Yes)), None, "run restarted");
        assert_eq!(f.push(Some(Yes)), Some(Yes));
    }

    #[test]
    fn single_frame_mode() {
        let mut f = DecisionFilter::new(1);
        assert_eq!(f.push(Some(Yes)), Some(Yes));
        assert_eq!(f.push(None), None);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = DecisionFilter::new(2);
        f.push(Some(Yes));
        f.reset();
        assert_eq!(f, DecisionFilter::new(2));
        assert_eq!(f.push(Some(Yes)), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_required_rejected() {
        DecisionFilter::new(0);
    }
}
