//! The network-state probing primitive (§2.2).
//!
//! One probing round sends, simultaneously:
//!
//! * an ICMP echo to 127.0.0.1 (timeout: 1 s per the ICMP RFC guidance);
//! * an ICMP echo to each assigned DNS server;
//! * a DNS query for the dedicated test server's name (timeout: 5 s per the
//!   DNS RFC guidance).
//!
//! The outcome pattern yields a [`ProbeVerdict`]. The whole round costs at
//! most the DNS timeout; the monitor layer loops rounds to measure stall
//! durations with ≤ one-round error.

use crate::link::LinkCondition;
use cellrel_sim::SimRng;
use cellrel_types::SimDuration;

/// Default ICMP echo timeout (1 second, §2.2).
pub(crate) const DEFAULT_ICMP_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Default DNS query timeout (5 seconds, §2.2).
pub(crate) const DEFAULT_DNS_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Classification of one probing round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeVerdict {
    /// Everything answered: the data path works (stall over, or it never
    /// was a network problem).
    Healthy,
    /// Loopback fine, remote ICMP and DNS dead: genuine network-side stall.
    NetworkStall,
    /// Loopback timed out: the problem is on the device (firewall, proxy,
    /// modem driver) — a false positive for the study.
    SystemSide,
    /// IP path fine but DNS queries time out: resolution-service outage —
    /// also a false positive.
    DnsServiceDown,
}

impl ProbeVerdict {
    /// Whether this verdict marks the suspected stall a false positive.
    pub const fn is_false_positive(self) -> bool {
        matches!(
            self,
            ProbeVerdict::SystemSide | ProbeVerdict::DnsServiceDown
        )
    }
}

/// Result of one probing round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOutcome {
    /// The classification.
    pub verdict: ProbeVerdict,
    /// Wall time the round consumed (bounded by the DNS timeout).
    pub elapsed: SimDuration,
}

/// Execute one probing round against the given link condition.
///
/// `icmp_timeout` / `dns_timeout` support the monitor's multiplicative
/// backoff for long stalls; `rng` supplies realistic sub-timeout latencies
/// for the probes that do answer.
pub fn run_probe(
    link: LinkCondition,
    icmp_timeout: SimDuration,
    dns_timeout: SimDuration,
    rng: &mut SimRng,
) -> ProbeOutcome {
    // Sub-timeout response latencies: loopback is microseconds; remote
    // probes take tens of milliseconds.
    let lo_rtt = SimDuration::from_millis(rng.range_u64(1, 5));
    let remote_rtt = SimDuration::from_millis(rng.range_u64(20, 180));

    if !link.loopback_ok() {
        // The loopback echo must run to its timeout to conclude anything.
        return ProbeOutcome {
            verdict: ProbeVerdict::SystemSide,
            elapsed: icmp_timeout,
        };
    }

    let dns_answers = link.dns_ok();
    let icmp_dns_answers = link.icmp_to_dns_ok();

    if dns_answers {
        // All probes answer: the round ends when the slowest answer lands.
        return ProbeOutcome {
            verdict: ProbeVerdict::Healthy,
            elapsed: lo_rtt.max(remote_rtt),
        };
    }

    if icmp_dns_answers {
        // DNS timed out but the server pings: resolution-service outage.
        return ProbeOutcome {
            verdict: ProbeVerdict::DnsServiceDown,
            elapsed: dns_timeout,
        };
    }

    // Neither DNS nor ICMP-to-DNS answered: network-side stall. The round
    // runs until the DNS timeout (the longest timer).
    ProbeOutcome {
        verdict: ProbeVerdict::NetworkStall,
        elapsed: dns_timeout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(link: LinkCondition, seed: u64) -> ProbeOutcome {
        let mut rng = SimRng::new(seed);
        run_probe(link, DEFAULT_ICMP_TIMEOUT, DEFAULT_DNS_TIMEOUT, &mut rng)
    }

    #[test]
    fn healthy_link_is_fast_and_healthy() {
        let o = probe(LinkCondition::Healthy, 1);
        assert_eq!(o.verdict, ProbeVerdict::Healthy);
        assert!(o.elapsed < SimDuration::from_secs(1));
    }

    #[test]
    fn blackhole_is_network_stall_at_dns_timeout() {
        let o = probe(LinkCondition::NetworkBlackhole, 2);
        assert_eq!(o.verdict, ProbeVerdict::NetworkStall);
        assert_eq!(o.elapsed, DEFAULT_DNS_TIMEOUT);
        assert!(!o.verdict.is_false_positive());
    }

    #[test]
    fn system_side_classes_resolve_at_icmp_timeout() {
        for link in [
            LinkCondition::FirewallMisconfig,
            LinkCondition::BrokenProxy,
            LinkCondition::ModemDriverFault,
        ] {
            let o = probe(link, 3);
            assert_eq!(o.verdict, ProbeVerdict::SystemSide, "{link}");
            assert_eq!(o.elapsed, DEFAULT_ICMP_TIMEOUT);
            assert!(o.verdict.is_false_positive());
        }
    }

    #[test]
    fn dns_outage_detected() {
        let o = probe(LinkCondition::DnsOutage, 4);
        assert_eq!(o.verdict, ProbeVerdict::DnsServiceDown);
        assert_eq!(o.elapsed, DEFAULT_DNS_TIMEOUT);
        assert!(o.verdict.is_false_positive());
    }

    #[test]
    fn backed_off_timeouts_are_respected() {
        let mut rng = SimRng::new(5);
        let o = run_probe(
            LinkCondition::NetworkBlackhole,
            SimDuration::from_secs(4),
            SimDuration::from_secs(20),
            &mut rng,
        );
        assert_eq!(o.elapsed, SimDuration::from_secs(20));
        let o = run_probe(
            LinkCondition::FirewallMisconfig,
            SimDuration::from_secs(4),
            SimDuration::from_secs(20),
            &mut rng,
        );
        assert_eq!(o.elapsed, SimDuration::from_secs(4));
    }

    #[test]
    fn round_is_bounded_by_dns_timeout() {
        // "The above probing process needs at most five seconds" (§2.2).
        for link in LinkCondition::ALL {
            let o = probe(link, 6);
            assert!(o.elapsed <= DEFAULT_DNS_TIMEOUT, "{link}: {}", o.elapsed);
        }
    }
}
