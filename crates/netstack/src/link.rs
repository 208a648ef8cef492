//! Link conditions — the fault-injection surface of the network stack.
//!
//! A suspected Data_Stall can have five underlying conditions (§2.2); the
//! probing component's job is to tell them apart. Each condition determines
//! which probes succeed:
//!
//! | condition         | ICMP lo | ICMP→DNS | DNS query | verdict |
//! |-------------------|---------|----------|-----------|---------|
//! | Healthy           | ok      | ok       | ok        | healthy (stall over / FP) |
//! | NetworkBlackhole  | ok      | timeout  | timeout   | network-side true stall |
//! | FirewallMisconfig | timeout | —        | —         | system-side FP |
//! | BrokenProxy       | timeout | —        | —         | system-side FP |
//! | ModemDriverFault  | timeout | —        | —         | system-side FP |
//! | DnsOutage         | ok      | ok       | timeout   | DNS-service FP |

use std::fmt;

/// The true condition of the device's data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkCondition {
    /// Normal operation: traffic flows both ways.
    #[default]
    Healthy,
    /// The cellular data path silently drops everything — the true
    /// Data_Stall condition.
    NetworkBlackhole,
    /// Local firewall misconfiguration blocks even loopback.
    FirewallMisconfig,
    /// A broken proxy setting swallows traffic on-device.
    BrokenProxy,
    /// The modem driver wedged; the kernel can't even reach loopback
    /// reliably through the affected netfilter hooks.
    ModemDriverFault,
    /// Upstream DNS resolution is down but the IP path works.
    DnsOutage,
}

impl LinkCondition {
    /// All conditions.
    pub const ALL: [LinkCondition; 6] = [
        LinkCondition::Healthy,
        LinkCondition::NetworkBlackhole,
        LinkCondition::FirewallMisconfig,
        LinkCondition::BrokenProxy,
        LinkCondition::ModemDriverFault,
        LinkCondition::DnsOutage,
    ];

    /// Does inbound TCP traffic arrive under this condition?
    pub const fn delivers_inbound(self) -> bool {
        matches!(self, LinkCondition::Healthy | LinkCondition::DnsOutage)
    }

    /// Does an ICMP echo to 127.0.0.1 come back?
    pub(crate) const fn loopback_ok(self) -> bool {
        !matches!(
            self,
            LinkCondition::FirewallMisconfig
                | LinkCondition::BrokenProxy
                | LinkCondition::ModemDriverFault
        )
    }

    /// Does an ICMP echo to the DNS server come back?
    pub(crate) const fn icmp_to_dns_ok(self) -> bool {
        matches!(self, LinkCondition::Healthy | LinkCondition::DnsOutage)
    }

    /// Does a DNS query resolve?
    pub(crate) const fn dns_ok(self) -> bool {
        matches!(self, LinkCondition::Healthy)
    }

    /// Is this a condition the study counts as a *system-side* problem
    /// (device misconfiguration rather than the cellular network)?
    pub const fn is_system_side(self) -> bool {
        matches!(
            self,
            LinkCondition::FirewallMisconfig
                | LinkCondition::BrokenProxy
                | LinkCondition::ModemDriverFault
        )
    }
}

impl fmt::Display for LinkCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LinkCondition::Healthy => "healthy",
            LinkCondition::NetworkBlackhole => "network-blackhole",
            LinkCondition::FirewallMisconfig => "firewall-misconfig",
            LinkCondition::BrokenProxy => "broken-proxy",
            LinkCondition::ModemDriverFault => "modem-driver-fault",
            LinkCondition::DnsOutage => "dns-outage",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_passes_everything() {
        let l = LinkCondition::Healthy;
        assert!(l.delivers_inbound() && l.loopback_ok() && l.icmp_to_dns_ok() && l.dns_ok());
    }

    #[test]
    fn blackhole_blocks_remote_but_not_loopback() {
        let l = LinkCondition::NetworkBlackhole;
        assert!(l.loopback_ok());
        assert!(!l.icmp_to_dns_ok());
        assert!(!l.dns_ok());
        assert!(!l.delivers_inbound());
        assert!(!l.is_system_side());
    }

    #[test]
    fn system_side_conditions_fail_loopback() {
        for l in [
            LinkCondition::FirewallMisconfig,
            LinkCondition::BrokenProxy,
            LinkCondition::ModemDriverFault,
        ] {
            assert!(!l.loopback_ok(), "{l}");
            assert!(l.is_system_side(), "{l}");
        }
    }

    #[test]
    fn dns_outage_is_distinguishable() {
        let l = LinkCondition::DnsOutage;
        assert!(l.loopback_ok());
        assert!(l.icmp_to_dns_ok());
        assert!(!l.dns_ok());
        assert!(!l.is_system_side());
    }
}
