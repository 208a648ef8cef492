//! The vanilla Data_Stall detector.
//!
//! Android evaluates the kernel's stall predicate on a fixed cadence (the
//! one-minute window of §2.1) and raises `Data_Stall` when it trips. The
//! fixed cadence is precisely why vanilla Android's duration measurements
//! are coarse (±1 minute) — the limitation Android-MOD's probing component
//! removes (§2.2).

use crate::stack::NetStack;
use cellrel_types::{SimDuration, SimTime};

/// Default evaluation cadence (Android polls the predicate roughly once a
/// minute).
pub(crate) const DEFAULT_POLL_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// The stall detector: cadence + edge detection.
#[derive(Debug, Clone)]
pub struct DataStallDetector {
    interval: SimDuration,
    /// Whether the last evaluation saw a stall (edge detection).
    stalled: bool,
    /// When the current stall was first *detected* (not when it began).
    detected_at: Option<SimTime>,
}

impl Default for DataStallDetector {
    fn default() -> Self {
        Self::new(DEFAULT_POLL_INTERVAL)
    }
}

impl DataStallDetector {
    /// Detector with a custom poll interval.
    pub(crate) fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero());
        DataStallDetector {
            interval,
            stalled: false,
            detected_at: None,
        }
    }

    /// The evaluation cadence.
    pub(crate) fn poll_interval(&self) -> SimDuration {
        self.interval
    }

    /// Whether a stall is currently flagged.
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// When the current stall was detected.
    #[cfg(test)]
    pub(crate) fn detected_at(&self) -> Option<SimTime> {
        self.detected_at
    }

    /// Evaluate the predicate now. Returns `Some(true)` on a rising edge
    /// (new stall detected), `Some(false)` on a falling edge (stall
    /// cleared), `None` when nothing changed.
    pub(crate) fn poll(&mut self, now: SimTime, stack: &mut NetStack) -> Option<bool> {
        let stalled = stack.stall_detected(now);
        match (self.stalled, stalled) {
            (false, true) => {
                self.stalled = true;
                self.detected_at = Some(now);
                Some(true)
            }
            (true, false) => {
                self.stalled = false;
                self.detected_at = None;
                Some(false)
            }
            _ => None,
        }
    }

    /// Clear the detector state (after recovery resets counters).
    pub(crate) fn reset(&mut self) {
        self.stalled = false;
        self.detected_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkCondition;

    #[test]
    fn detects_rising_and_falling_edges() {
        let mut det = DataStallDetector::default();
        let mut stack = NetStack::new();
        stack.set_link(LinkCondition::NetworkBlackhole);
        let t0 = SimTime::from_secs(10);
        stack.app_exchange(t0, 50);

        assert_eq!(
            det.poll(t0 + SimDuration::from_secs(60), &mut stack),
            Some(true)
        );
        assert!(det.is_stalled());
        assert_eq!(det.detected_at(), Some(t0 + SimDuration::from_secs(60)));

        // Steady state: no new edge.
        stack.app_exchange(t0 + SimDuration::from_secs(90), 20);
        assert_eq!(det.poll(t0 + SimDuration::from_secs(120), &mut stack), None);

        // Heal the link; inbound traffic clears the predicate.
        stack.set_link(LinkCondition::Healthy);
        stack.app_exchange(t0 + SimDuration::from_secs(130), 5);
        assert_eq!(
            det.poll(t0 + SimDuration::from_secs(180), &mut stack),
            Some(false)
        );
        assert!(!det.is_stalled());
    }

    #[test]
    fn healthy_stack_never_edges() {
        let mut det = DataStallDetector::default();
        let mut stack = NetStack::new();
        for s in 0..10 {
            stack.app_exchange(SimTime::from_secs(s * 30), 20);
            assert_eq!(det.poll(SimTime::from_secs(s * 30 + 1), &mut stack), None);
        }
    }

    #[test]
    fn reset_clears_flag() {
        let mut det = DataStallDetector::default();
        let mut stack = NetStack::new();
        stack.set_link(LinkCondition::NetworkBlackhole);
        stack.app_exchange(SimTime::from_secs(1), 50);
        det.poll(SimTime::from_secs(2), &mut stack);
        assert!(det.is_stalled());
        det.reset();
        assert!(!det.is_stalled());
        assert_eq!(det.detected_at(), None);
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        DataStallDetector::new(SimDuration::ZERO);
    }
}
