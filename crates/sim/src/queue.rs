//! The event-loop surface: event handlers.
//!
//! There is one event loop, the hierarchical [`TimerWheel`]: events pop in
//! ascending `(time, schedule order)`, so simultaneous events fire in the
//! order they were scheduled (FIFO), popping an event advances the clock,
//! and time never moves backwards. A component that consumes events
//! implements [`EventHandler`] and is driven by
//! [`TimerWheel::run_until`].

use cellrel_types::SimTime;

use crate::wheel::TimerWheel;

/// A component that consumes events and may schedule follow-ups.
pub trait EventHandler<E> {
    /// Handle one event that fired at time `at`.
    fn handle(&mut self, at: SimTime, event: E, queue: &mut TimerWheel<E>);
}

/// Another name for [`TimerWheel`]: the `sim.queue_events_per_s` probe in
/// `benchmark/` builds a queue by this name.
///
/// ```
/// use cellrel_sim::{EventQueue, TimerWheel};
/// use cellrel_types::{SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = TimerWheel::new();
/// q.schedule_after(SimDuration::from_secs(10), "b");
/// q.schedule_after(SimDuration::from_secs(5), "a");
/// let tok = q.schedule_after(SimDuration::from_secs(7), "cancelled");
/// q.cancel(tok);
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(10), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub type EventQueue<E> = TimerWheel<E>;

// The loop contract, observed from outside the wheel.
#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_types::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimerWheel::new();
        q.schedule_at(SimTime::from_secs(3), 3u32);
        q.schedule_at(SimTime::from_secs(1), 1u32);
        q.schedule_at(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = TimerWheel::new();
        for i in 0..10u32 {
            q.schedule_at(SimTime::from_secs(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut q = TimerWheel::new();
        let t1 = q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        assert!(q.cancel(t1));
        assert!(!q.cancel(t1), "double-cancel must return false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = TimerWheel::new();
        let t = q.schedule_at(SimTime::from_secs(1), ());
        q.pop();
        assert!(!q.cancel(t), "cancelling a fired event must return false");
        let t2 = q.schedule_at(SimTime::from_secs(2), ());
        assert!(!q.cancel(t), "a reused slot must not honour the old token");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(t2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = TimerWheel::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(5), ());
    }

    #[test]
    fn run_until_respects_horizon() {
        struct Counter(u64);
        impl EventHandler<u32> for Counter {
            fn handle(&mut self, _at: SimTime, _ev: u32, _q: &mut TimerWheel<u32>) {
                self.0 += 1;
            }
        }
        let mut q = TimerWheel::new();
        for s in 1..=10 {
            q.schedule_at(SimTime::from_secs(s), s as u32);
        }
        let mut c = Counter(0);
        let n = q.run_until(&mut c, SimTime::from_secs(5));
        assert_eq!(n, 5);
        assert_eq!(c.0, 5);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        struct Chain {
            fired: Vec<u64>,
        }
        impl EventHandler<u64> for Chain {
            fn handle(&mut self, at: SimTime, ev: u64, q: &mut TimerWheel<u64>) {
                self.fired.push(ev);
                if ev < 5 {
                    q.schedule_at(at + SimDuration::from_secs(1), ev + 1);
                }
            }
        }
        let mut q = TimerWheel::new();
        q.schedule_at(SimTime::from_secs(0), 1);
        let mut h = Chain { fired: vec![] };
        q.run_to_completion(&mut h);
        assert_eq!(h.fired, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    /// A recurring timer that is always rescheduled before it fires must
    /// not grow the wheel: 200 k cancels behind 100 live events leave it
    /// the size of a few hundred nodes, not 200 k.
    #[test]
    fn cancel_churn_keeps_memory_bounded() {
        let mut q = TimerWheel::new();
        for i in 0..100u32 {
            q.schedule_at(SimTime::from_secs(1_000_000 + u64::from(i)), i);
        }
        for round in 0..200_000u64 {
            let tok = q.schedule_at(SimTime::from_secs(500_000 + round), 0u32);
            assert!(q.cancel(tok));
        }
        assert_eq!(q.len(), 100);
        assert!(
            q.approx_bytes() < 64 * 1024,
            "{} bytes for 100 live events — tombstones leak",
            q.approx_bytes()
        );
        assert_eq!(q.pop(), Some((SimTime::from_secs(1_000_000), 0u32)));
    }

    /// Cancelling two thirds of the events triggers the tombstone purge;
    /// the survivors still pop in order.
    #[test]
    fn compaction_preserves_semantics() {
        let mut q = TimerWheel::new();
        let mut keep = Vec::new();
        let mut cancel = Vec::new();
        for i in 0..500u64 {
            let tok = q.schedule_at(SimTime::from_secs(1 + i), i);
            if i % 3 == 0 {
                keep.push(i);
            } else {
                cancel.push(tok);
            }
        }
        for tok in cancel {
            assert!(q.cancel(tok));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, keep);
    }
}
