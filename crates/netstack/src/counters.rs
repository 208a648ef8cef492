//! Kernel-style TCP segment accounting and the Data_Stall predicate.

use cellrel_types::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Android's Data_Stall thresholds (§2.1): more than 10 outbound TCP
/// segments with zero inbound segments within the last minute.
pub const STALL_MIN_SENT: usize = 10;

/// The detection window.
pub const STALL_WINDOW: SimDuration = SimDuration::from_secs(60);

/// Sliding-window TCP segment accounting, as the kernel network stack keeps
/// it. Timestamps outside the window are pruned on every operation, so
/// memory stays bounded by the per-window traffic volume.
#[derive(Debug, Clone, Default)]
pub struct TcpAccounting {
    sent: VecDeque<SimTime>,
    received: VecDeque<SimTime>,
}

impl TcpAccounting {
    /// Fresh, empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn prune(&mut self, now: SimTime) {
        let cutoff = window_start(now);
        while self.sent.front().is_some_and(|&t| t < cutoff) {
            self.sent.pop_front();
        }
        while self.received.front().is_some_and(|&t| t < cutoff) {
            self.received.pop_front();
        }
    }

    /// Record `n` outbound segments at `now`.
    pub fn record_sent(&mut self, now: SimTime, n: usize) {
        debug_assert!(
            self.sent.back().map_or(true, |&t| t <= now),
            "sent segments recorded out of time order"
        );
        self.prune(now);
        // Only the count within the window matters; cap retained timestamps
        // at a comfortable multiple of the threshold.
        for _ in 0..n.min(4 * STALL_MIN_SENT) {
            self.sent.push_back(now);
        }
    }

    /// Record `n` inbound segments at `now`.
    pub fn record_received(&mut self, now: SimTime, n: usize) {
        debug_assert!(
            self.received.back().map_or(true, |&t| t <= now),
            "received segments recorded out of time order"
        );
        self.prune(now);
        for _ in 0..n.min(4 * STALL_MIN_SENT) {
            self.received.push_back(now);
        }
    }

    /// Outbound segments within the last window.
    #[cfg(test)]
    pub(crate) fn sent_in_window(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.sent.len()
    }

    /// Inbound segments within the last window.
    #[cfg(test)]
    pub(crate) fn received_in_window(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.received.len()
    }

    /// Android's Data_Stall predicate over the current window.
    pub fn stall_detected(&mut self, now: SimTime) -> bool {
        self.prune(now);
        self.sent.len() > STALL_MIN_SENT && self.received.is_empty()
    }

    /// `(sent, received)` within the window ending at `now`, without
    /// mutating the queues — the read-only view campaign invariants use to
    /// audit the stack without perturbing its pruning behaviour. Both
    /// queues are in time order (`prune` relies on it too), so each count
    /// is one binary search for the window's start.
    pub fn counts_in_window(&self, now: SimTime) -> (usize, usize) {
        let cutoff = window_start(now);
        let in_window = |q: &VecDeque<SimTime>| q.len() - q.partition_point(|&t| t < cutoff);
        (in_window(&self.sent), in_window(&self.received))
    }

    /// Reset all counters (connection cleanup does this).
    pub(crate) fn reset(&mut self) {
        self.sent.clear();
        self.received.clear();
    }
}

/// The oldest instant still inside the window ending at `now`; before one
/// full window has elapsed, the start of time.
fn window_start(now: SimTime) -> SimTime {
    SimTime::ZERO + now.since(SimTime::ZERO).saturating_sub(STALL_WINDOW)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quiet_stack_never_stalls() {
        let mut tcp = TcpAccounting::new();
        assert!(!tcp.stall_detected(SimTime::from_secs(100)));
    }

    #[test]
    fn healthy_traffic_is_not_a_stall() {
        let mut tcp = TcpAccounting::new();
        let t = SimTime::from_secs(10);
        tcp.record_sent(t, 20);
        tcp.record_received(t + SimDuration::from_millis(50), 20);
        assert!(!tcp.stall_detected(t + SimDuration::from_secs(1)));
    }

    #[test]
    fn blackhole_traffic_trips_the_predicate() {
        let mut tcp = TcpAccounting::new();
        let t = SimTime::from_secs(10);
        tcp.record_sent(t, 11);
        assert!(tcp.stall_detected(t + SimDuration::from_secs(30)));
    }

    #[test]
    fn exactly_ten_sent_is_not_enough() {
        // The rule is *over* 10 outbound segments.
        let mut tcp = TcpAccounting::new();
        let t = SimTime::from_secs(10);
        tcp.record_sent(t, 10);
        assert!(!tcp.stall_detected(t));
        tcp.record_sent(t, 1);
        assert!(tcp.stall_detected(t));
    }

    #[test]
    fn a_single_inbound_segment_clears_the_stall() {
        let mut tcp = TcpAccounting::new();
        let t = SimTime::from_secs(10);
        tcp.record_sent(t, 30);
        assert!(tcp.stall_detected(t));
        tcp.record_received(t + SimDuration::from_secs(1), 1);
        assert!(!tcp.stall_detected(t + SimDuration::from_secs(1)));
    }

    #[test]
    fn window_expiry_forgets_old_traffic() {
        let mut tcp = TcpAccounting::new();
        let t = SimTime::from_secs(10);
        tcp.record_sent(t, 30);
        assert!(tcp.stall_detected(t + SimDuration::from_secs(59)));
        // 61 s later the sends fell out of the window.
        assert!(!tcp.stall_detected(t + SimDuration::from_secs(61)));
        assert_eq!(tcp.sent_in_window(t + SimDuration::from_secs(61)), 0);
    }

    #[test]
    fn old_inbound_does_not_mask_a_new_stall() {
        let mut tcp = TcpAccounting::new();
        tcp.record_received(SimTime::from_secs(0), 5);
        let t = SimTime::from_secs(120);
        tcp.record_sent(t, 15);
        assert!(tcp.stall_detected(t + SimDuration::from_secs(5)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut tcp = TcpAccounting::new();
        let t = SimTime::from_secs(5);
        tcp.record_sent(t, 15);
        tcp.reset();
        assert!(!tcp.stall_detected(t));
        assert_eq!(tcp.sent_in_window(t), 0);
    }

    #[test]
    fn counts_in_window_matches_mutating_queries() {
        let mut tcp = TcpAccounting::new();
        let t = SimTime::from_secs(10);
        tcp.record_sent(t, 12);
        tcp.record_received(t + SimDuration::from_secs(2), 3);
        let later = t + SimDuration::from_secs(30);
        assert_eq!(tcp.counts_in_window(later), (12, 3));
        assert_eq!(tcp.sent_in_window(later), 12);
        assert_eq!(tcp.received_in_window(later), 3);
        // Past the window the read-only view agrees it all expired — and
        // must not have pruned anything itself.
        let expired = t + SimDuration::from_secs(120);
        assert_eq!(tcp.counts_in_window(expired), (0, 0));
        assert_eq!(tcp.counts_in_window(later), (12, 3));
    }

    #[test]
    fn memory_is_bounded() {
        let mut tcp = TcpAccounting::new();
        let t = SimTime::from_secs(5);
        tcp.record_sent(t, 1_000_000);
        assert!(tcp.sent_in_window(t) <= 4 * STALL_MIN_SENT);
        assert!(tcp.stall_detected(t));
    }

    proptest! {
        #[test]
        fn counts_in_window_is_the_filter_count(
            steps in prop::collection::vec(
                (any::<bool>(), 0u64..40_000, any::<bool>(), 1usize..15),
                0..60,
            ),
            probe in 0usize..3,
            pick in 0usize..60,
            later_ms in 0u64..120_000,
        ) {
            let mut tcp = TcpAccounting::new();
            let mut t = 0u64;
            let mut stamps = Vec::new();
            for &(repeat, gap, inbound, n) in &steps {
                // Non-decreasing per queue, with runs of equal timestamps.
                if !repeat {
                    t += gap;
                }
                stamps.push(t);
                if inbound {
                    tcp.record_received(SimTime::from_millis(t), n);
                } else {
                    tcp.record_sent(SimTime::from_millis(t), n);
                }
            }
            let now_ms = match probe {
                // Before one full window: the cutoff saturates to zero.
                0 => later_ms / 2,
                // The cutoff lands exactly on a stored timestamp.
                1 if !stamps.is_empty() => {
                    stamps[pick % stamps.len()] + STALL_WINDOW.as_millis()
                }
                _ => t + later_ms,
            };
            let now = SimTime::from_millis(now_ms);
            let cutoff = window_start(now);
            let filtered = |q: &VecDeque<SimTime>| q.iter().filter(|&&s| s >= cutoff).count();
            prop_assert_eq!(
                tcp.counts_in_window(now),
                (filtered(&tcp.sent), filtered(&tcp.received))
            );
        }
    }
}
