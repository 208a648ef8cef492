//! The [`NetStack`] facade: per-device network state.

use crate::counters::TcpAccounting;
use crate::link::LinkCondition;
use crate::probe::{run_probe, ProbeOutcome};
use cellrel_sim::SimRng;
use cellrel_types::{SimDuration, SimTime};

/// A device's network stack: TCP accounting plus the current link condition.
#[derive(Debug, Clone, Default)]
pub struct NetStack {
    tcp: TcpAccounting,
    link: LinkCondition,
    /// Number of configured DNS servers (Android typically carries 2).
    dns_servers: u8,
}

impl NetStack {
    /// A healthy stack with two DNS servers.
    pub fn new() -> Self {
        NetStack {
            tcp: TcpAccounting::new(),
            link: LinkCondition::Healthy,
            dns_servers: 2,
        }
    }

    /// Current link condition.
    pub fn link(&self) -> LinkCondition {
        self.link
    }

    /// Set the link condition (telephony flips this when the simulated
    /// world injects a stall; recovery flips it back).
    pub fn set_link(&mut self, link: LinkCondition) {
        self.link = link;
    }

    /// Number of configured DNS servers.
    pub fn dns_server_count(&self) -> u8 {
        self.dns_servers
    }

    /// Application traffic: `out` outbound segments at `now`. Whether the
    /// matching inbound segments arrive depends on the link condition.
    pub fn app_exchange(&mut self, now: SimTime, out: usize) {
        self.tcp.record_sent(now, out);
        if self.link.delivers_inbound() {
            // Responses land within the same accounting window.
            self.tcp
                .record_received(now + SimDuration::from_millis(60), out);
        }
    }

    /// The kernel's Data_Stall predicate right now.
    pub fn stall_detected(&mut self, now: SimTime) -> bool {
        self.tcp.stall_detected(now)
    }

    /// `(sent, received)` within the window ending at `now`, without
    /// mutating the accounting (campaign invariants audit through this).
    pub fn counts_in_window(&self, now: SimTime) -> (usize, usize) {
        self.tcp.counts_in_window(now)
    }

    /// Run one probing round with the given timeouts.
    pub fn probe(
        &self,
        icmp_timeout: SimDuration,
        dns_timeout: SimDuration,
        rng: &mut SimRng,
    ) -> ProbeOutcome {
        run_probe(self.link, icmp_timeout, dns_timeout, rng)
    }

    /// Reset TCP accounting (connection cleanup).
    pub fn reset_counters(&mut self) {
        self.tcp.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeVerdict, DEFAULT_DNS_TIMEOUT, DEFAULT_ICMP_TIMEOUT};

    #[test]
    fn healthy_traffic_no_stall() {
        let mut s = NetStack::new();
        let t = SimTime::from_secs(10);
        s.app_exchange(t, 50);
        assert!(!s.stall_detected(t + SimDuration::from_secs(1)));
    }

    #[test]
    fn blackhole_produces_stall_and_probe_confirms() {
        let mut s = NetStack::new();
        s.set_link(LinkCondition::NetworkBlackhole);
        let t = SimTime::from_secs(10);
        s.app_exchange(t, 50);
        assert!(s.stall_detected(t + SimDuration::from_secs(5)));
        let mut rng = SimRng::new(1);
        let o = s.probe(DEFAULT_ICMP_TIMEOUT, DEFAULT_DNS_TIMEOUT, &mut rng);
        assert_eq!(o.verdict, ProbeVerdict::NetworkStall);
    }

    #[test]
    fn recovery_clears_stall_after_window() {
        let mut s = NetStack::new();
        s.set_link(LinkCondition::NetworkBlackhole);
        let t = SimTime::from_secs(10);
        s.app_exchange(t, 50);
        assert!(s.stall_detected(t));
        // Link recovers; new exchange delivers inbound, clearing the stall.
        s.set_link(LinkCondition::Healthy);
        let t2 = t + SimDuration::from_secs(10);
        s.app_exchange(t2, 5);
        assert!(!s.stall_detected(t2 + SimDuration::from_secs(1)));
    }

    #[test]
    fn reset_counters_clears_predicate() {
        let mut s = NetStack::new();
        s.set_link(LinkCondition::NetworkBlackhole);
        let t = SimTime::from_secs(10);
        s.app_exchange(t, 50);
        s.reset_counters();
        assert!(!s.stall_detected(t));
    }

    #[test]
    fn stack_reports_dns_servers() {
        assert_eq!(NetStack::new().dns_server_count(), 2);
    }
}
