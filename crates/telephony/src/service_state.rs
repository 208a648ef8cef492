//! `ServiceStateTracker` — Out_of_Service detection.
//!
//! `Out_of_Service` (§1, §2.1): "the data connection has been established,
//! but the mobile device cannot receive cellular data". The tracker watches
//! the effective service condition and measures outage spans.

use cellrel_types::{ServiceState, SimDuration, SimTime};

/// Tracks the device's service state over time and measures
/// `Out_of_Service` episodes.
#[derive(Debug, Clone)]
pub struct ServiceStateTracker {
    state: ServiceState,
    outage_started: Option<SimTime>,
}

impl Default for ServiceStateTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceStateTracker {
    /// A tracker starting in service.
    pub(crate) fn new() -> Self {
        ServiceStateTracker {
            state: ServiceState::InService,
            outage_started: None,
        }
    }

    /// Current service state.
    pub fn state(&self) -> ServiceState {
        self.state
    }

    /// Whether an outage is in progress.
    pub(crate) fn in_outage(&self) -> bool {
        self.outage_started.is_some()
    }

    /// Update the service state; returns the finished outage duration when a
    /// transition closes an Out_of_Service episode.
    pub(crate) fn update(&mut self, now: SimTime, new_state: ServiceState) -> Option<SimDuration> {
        if new_state == self.state {
            return None;
        }
        let mut finished = None;
        // Entering an outage.
        if new_state == ServiceState::OutOfService && self.outage_started.is_none() {
            self.outage_started = Some(now);
        }
        // Leaving an outage (to anything but OutOfService; PowerOff ends the
        // *measured* outage because the user action supersedes it).
        if self.state == ServiceState::OutOfService {
            finished = self.outage_started.take().map(|start| now.since(start));
        }
        self.state = new_state;
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn starts_in_service() {
        let sst = ServiceStateTracker::new();
        assert_eq!(sst.state(), ServiceState::InService);
        assert!(!sst.in_outage());
    }

    #[test]
    fn measures_outage_span() {
        let mut sst = ServiceStateTracker::new();
        assert_eq!(sst.update(t(10), ServiceState::OutOfService), None);
        assert!(sst.in_outage());
        let d = sst.update(t(95), ServiceState::InService);
        assert_eq!(d, Some(SimDuration::from_secs(85)));
        assert!(!sst.in_outage());
    }

    #[test]
    fn repeated_same_state_is_noop() {
        let mut sst = ServiceStateTracker::new();
        sst.update(t(10), ServiceState::OutOfService);
        assert_eq!(sst.update(t(20), ServiceState::OutOfService), None);
        let d = sst.update(t(30), ServiceState::InService);
        assert_eq!(d, Some(SimDuration::from_secs(20)));
    }

    #[test]
    fn power_off_closes_outage() {
        let mut sst = ServiceStateTracker::new();
        sst.update(t(10), ServiceState::OutOfService);
        let d = sst.update(t(40), ServiceState::PowerOff);
        assert_eq!(d, Some(SimDuration::from_secs(30)));
        assert_eq!(sst.state(), ServiceState::PowerOff);
        assert!(!sst.in_outage());
    }

    #[test]
    fn multiple_outages_accumulate() {
        let mut sst = ServiceStateTracker::new();
        let finished: Vec<SimDuration> = [
            (0, ServiceState::OutOfService),
            (10, ServiceState::InService),
            (100, ServiceState::OutOfService),
            (130, ServiceState::InService),
        ]
        .into_iter()
        .filter_map(|(s, state)| sst.update(t(s), state))
        .collect();
        assert_eq!(finished.len(), 2);
        let total = finished.iter().fold(SimDuration::ZERO, |acc, &d| acc + d);
        assert_eq!(total, SimDuration::from_secs(40));
    }

    #[test]
    fn emergency_only_is_not_an_outage_end_to_outage() {
        let mut sst = ServiceStateTracker::new();
        sst.update(t(0), ServiceState::EmergencyOnly);
        assert!(!sst.in_outage());
        sst.update(t(5), ServiceState::OutOfService);
        assert!(sst.in_outage());
    }
}
