//! The mission scheduler's discrete-event queue.
//!
//! Since the workspace grew a shared deterministic event heap
//! (`hdc_runtime::EventHeap`), this queue is a thin façade over it: the
//! mission layer schedules in float seconds and gets them back exactly as
//! scheduled (the original `f64` rides in the payload; the heap orders by
//! its integer-microsecond key), so mission statistics — and their golden
//! digests — are bit-identical to the pre-consolidation queue.

use hdc_runtime::EventHeap;

/// A scheduled simulation event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScheduledEvent {
    /// Begin travelling to the trap with this id.
    VisitTrap(u32),
    /// Human actor `id` re-plans its patrol.
    HumanReplan(u32),
    /// Mission progress checkpoint (battery / abort checks).
    Checkpoint,
}

/// A deterministic time-ordered event queue: earliest first, ties broken by
/// insertion order.
///
/// # Example
/// ```
/// use hdc_orchard::{EventQueue, ScheduledEvent};
/// let mut q = EventQueue::new();
/// q.schedule(2.0, ScheduledEvent::Checkpoint);
/// q.schedule(1.0, ScheduledEvent::VisitTrap(0));
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(t, 1.0);
/// assert_eq!(e, ScheduledEvent::VisitTrap(0));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Option<EventHeap<(f64, ScheduledEvent)>>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    fn heap_mut(&mut self) -> &mut EventHeap<(f64, ScheduledEvent)> {
        // salt 0: the mission queue schedules everything under one session
        // id and rank, so ordering is (time, insertion) — the tie word never
        // differs between entries at one instant
        self.heap.get_or_insert_with(|| EventHeap::new(0))
    }

    /// Schedules an event at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is not finite.
    pub fn schedule(&mut self, time: f64, event: ScheduledEvent) {
        assert!(time.is_finite(), "event time must be finite");
        self.heap_mut().schedule_at_s(time, 0, 0, (time, event));
    }

    /// Removes and returns the earliest event, with the exact time it was
    /// scheduled at (no microsecond rounding on the way out).
    pub fn pop(&mut self) -> Option<(f64, ScheduledEvent)> {
        self.heap.as_mut()?.pop().map(|s| s.event)
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap
            .as_ref()
            .and_then(|h| h.peek_time())
            .map(hdc_runtime::micros_to_secs)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.as_ref().map_or(0, EventHeap::len)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ScheduledEvent::Checkpoint);
        q.schedule(1.0, ScheduledEvent::VisitTrap(1));
        q.schedule(3.0, ScheduledEvent::VisitTrap(2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_broken_by_insertion() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ScheduledEvent::VisitTrap(1));
        q.schedule(1.0, ScheduledEvent::VisitTrap(2));
        assert_eq!(q.pop().unwrap().1, ScheduledEvent::VisitTrap(1));
        assert_eq!(q.pop().unwrap().1, ScheduledEvent::VisitTrap(2));
    }

    #[test]
    fn scheduled_times_come_back_exactly() {
        // the heap keys by integer microseconds, but callers must see their
        // own float back (mission durations feed golden digests)
        let t = 12.300_000_000_4;
        let mut q = EventQueue::new();
        q.schedule(t, ScheduledEvent::Checkpoint);
        assert_eq!(q.pop().unwrap().0, t);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(2.0, ScheduledEvent::Checkpoint);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_time_rejected() {
        EventQueue::new().schedule(f64::NAN, ScheduledEvent::Checkpoint);
    }
}
