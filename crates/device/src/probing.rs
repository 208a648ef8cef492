//! The stall-duration probe session (§2.2).
//!
//! Once a Data_Stall is suspected, Android-MOD runs probing rounds until the
//! stall clears:
//!
//! * each round: ICMP to loopback (1 s timeout) concurrent with ICMP + DNS
//!   to the assigned DNS servers (5 s timeout) — at most 5 s per round;
//! * the measured duration is the sum of round durations, so the error is
//!   at most one round (≤5 s ≪ the 1-minute error of vanilla Android);
//! * past 1200 s of stall, the timeouts double each round to bound network
//!   overhead;
//! * once either timeout exceeds one minute, the component reverts to the
//!   vanilla detection mechanism (minute-granularity estimate).
//!
//! The first round also classifies the episode: system-side and
//! DNS-outage verdicts are false positives and the episode is dropped.

use crate::link::LinkCondition;
use crate::probe::{run_probe, ProbeVerdict, DEFAULT_DNS_TIMEOUT, DEFAULT_ICMP_TIMEOUT};
use cellrel_sim::SimRng;
use cellrel_types::SimDuration;

/// Stall length past which timeouts start doubling.
const BACKOFF_THRESHOLD: SimDuration = SimDuration::from_secs(1200);
/// Timeout ceiling: beyond one minute, revert to vanilla estimation.
const REVERT_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Result of measuring one stall episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallMeasurement {
    /// The first round's classification of the episode.
    pub verdict: ProbeVerdict,
    /// The measured stall duration (None when the episode was classified a
    /// false positive and therefore discarded).
    pub measured: Option<SimDuration>,
    /// Probe rounds executed.
    pub rounds: u32,
    /// Whether the session fell back to vanilla minute-granularity
    /// estimation.
    pub reverted_to_vanilla: bool,
    /// Approximate probe bytes sent on the network (for overhead accounting;
    /// one round ≈ 2 ICMP echoes + a DNS query per server ≈ 300 B).
    pub probe_bytes: u64,
}

/// Probe-session timing configuration. The defaults are the paper's; the
/// ablations (`repro ablations`) sweep them to show the accuracy/overhead trade-off the
/// paper's choices sit on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeConfig {
    /// ICMP echo timeout per round.
    pub icmp_timeout: SimDuration,
    /// DNS query timeout per round (also the round-length bound).
    pub dns_timeout: SimDuration,
    /// Stall length past which timeouts start doubling.
    pub backoff_threshold: SimDuration,
    /// Timeout ceiling: beyond this, revert to vanilla estimation.
    pub revert_timeout: SimDuration,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            icmp_timeout: DEFAULT_ICMP_TIMEOUT,
            dns_timeout: DEFAULT_DNS_TIMEOUT,
            backoff_threshold: BACKOFF_THRESHOLD,
            revert_timeout: REVERT_TIMEOUT,
        }
    }
}

/// A probe session measuring one stall episode of known ground-truth
/// duration (from stall detection to heal).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeSession;

/// Bytes per probing round (2 DNS servers: 2 ICMP + 2 DNS + loopback ICMP).
const BYTES_PER_ROUND: u64 = 300;

impl ProbeSession {
    /// Run the session with the paper's timing configuration.
    pub fn measure(
        &self,
        true_duration: SimDuration,
        condition: LinkCondition,
        rng: &mut SimRng,
    ) -> StallMeasurement {
        self.measure_with(true_duration, condition, &ProbeConfig::default(), rng)
    }

    /// Run the session with explicit timing parameters: the stall's
    /// ground-truth remaining duration after detection is `true_duration`;
    /// `condition` is the underlying link condition while stalled.
    pub fn measure_with(
        &self,
        true_duration: SimDuration,
        condition: LinkCondition,
        cfg: &ProbeConfig,
        rng: &mut SimRng,
    ) -> StallMeasurement {
        // First round classifies the episode.
        let first = run_probe(condition, cfg.icmp_timeout, cfg.dns_timeout, rng);
        if first.verdict.is_false_positive() {
            return StallMeasurement {
                verdict: first.verdict,
                measured: None,
                rounds: 1,
                reverted_to_vanilla: false,
                probe_bytes: BYTES_PER_ROUND,
            };
        }
        // A condition that immediately probes healthy: stall already over;
        // measured duration is one round's elapsed time.
        if first.verdict == ProbeVerdict::Healthy {
            return StallMeasurement {
                verdict: ProbeVerdict::Healthy,
                measured: Some(first.elapsed.min(true_duration)),
                rounds: 1,
                reverted_to_vanilla: false,
                probe_bytes: BYTES_PER_ROUND,
            };
        }

        let mut elapsed = first.elapsed;
        let mut rounds = 1u32;
        let mut icmp_t = cfg.icmp_timeout;
        let mut dns_t = cfg.dns_timeout;

        loop {
            if elapsed >= true_duration {
                // The previous round straddled the heal: this round answers.
                let healthy = run_probe(LinkCondition::Healthy, icmp_t, dns_t, rng);
                rounds += 1;
                elapsed += healthy.elapsed;
                return StallMeasurement {
                    verdict: ProbeVerdict::NetworkStall,
                    measured: Some(elapsed),
                    rounds,
                    reverted_to_vanilla: false,
                    probe_bytes: rounds as u64 * BYTES_PER_ROUND,
                };
            }

            // Backoff once the stall exceeds the threshold.
            if elapsed > cfg.backoff_threshold {
                icmp_t = icmp_t.saturating_mul(2);
                dns_t = dns_t.saturating_mul(2);
                if icmp_t > cfg.revert_timeout || dns_t > cfg.revert_timeout {
                    // Revert to vanilla: minute-granularity estimate of the
                    // ground truth, rounding up like the 1-minute detector.
                    let minutes = true_duration.as_millis().div_ceil(60_000);
                    return StallMeasurement {
                        verdict: ProbeVerdict::NetworkStall,
                        measured: Some(SimDuration::from_secs(minutes * 60)),
                        rounds,
                        reverted_to_vanilla: true,
                        probe_bytes: rounds as u64 * BYTES_PER_ROUND,
                    };
                }
            }

            let round = run_probe(condition, icmp_t, dns_t, rng);
            rounds += 1;
            elapsed += round.elapsed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(secs: u64, condition: LinkCondition, seed: u64) -> StallMeasurement {
        let mut rng = SimRng::new(seed);
        ProbeSession.measure(SimDuration::from_secs(secs), condition, &mut rng)
    }

    #[test]
    fn short_stall_measured_within_five_seconds_error() {
        // §2.2: "our measurement error is at most five seconds".
        for secs in [3u64, 17, 42, 130, 299] {
            let m = measure(secs, LinkCondition::NetworkBlackhole, secs);
            let measured = m.measured.expect("network stall must be measured");
            let err = measured.as_secs_f64() - secs as f64;
            assert!(
                (0.0..=5.5).contains(&err),
                "{secs}s stall measured as {measured} (err {err})"
            );
            assert!(!m.reverted_to_vanilla);
            assert_eq!(m.verdict, ProbeVerdict::NetworkStall);
        }
    }

    #[test]
    fn system_side_stall_is_discarded() {
        for cond in [
            LinkCondition::FirewallMisconfig,
            LinkCondition::BrokenProxy,
            LinkCondition::ModemDriverFault,
        ] {
            let m = measure(100, cond, 1);
            assert_eq!(m.verdict, ProbeVerdict::SystemSide);
            assert_eq!(m.measured, None);
            assert_eq!(m.rounds, 1);
        }
    }

    #[test]
    fn dns_outage_is_discarded() {
        let m = measure(100, LinkCondition::DnsOutage, 2);
        assert_eq!(m.verdict, ProbeVerdict::DnsServiceDown);
        assert_eq!(m.measured, None);
    }

    #[test]
    fn already_healed_stall_is_near_zero() {
        let m = measure(0, LinkCondition::Healthy, 3);
        assert_eq!(m.verdict, ProbeVerdict::Healthy);
        assert_eq!(m.measured, Some(SimDuration::ZERO));
    }

    #[test]
    fn long_stall_triggers_backoff_then_revert() {
        // 4000 s stall: rounds at 5 s reach 1200 s, then double 10/20/40/80 —
        // the 80 s DNS timeout exceeds 60 s and the session reverts.
        let m = measure(4000, LinkCondition::NetworkBlackhole, 4);
        assert!(m.reverted_to_vanilla, "long stall must revert: {m:?}");
        let measured = m.measured.expect("still measured");
        // Vanilla estimate is minute-granular and ≥ the true duration.
        assert_eq!(measured.as_secs() % 60, 0);
        assert!(measured >= SimDuration::from_secs(4000));
        assert!(measured <= SimDuration::from_secs(4060));
    }

    #[test]
    fn backoff_reduces_round_count_for_long_stalls() {
        let m_short = measure(1000, LinkCondition::NetworkBlackhole, 5);
        // ~1000 s at ~5 s/round ≈ 200 rounds, no backoff yet.
        assert!(!m_short.reverted_to_vanilla);
        assert!(
            m_short.rounds > 150 && m_short.rounds < 260,
            "{}",
            m_short.rounds
        );

        let m_long = measure(4000, LinkCondition::NetworkBlackhole, 6);
        // Reverting caps the round count near the 1200 s mark.
        assert!(
            m_long.rounds < 300,
            "backoff failed to bound rounds: {}",
            m_long.rounds
        );
    }

    #[test]
    fn longer_dns_timeouts_trade_accuracy_for_overhead() {
        // The paper's 5 s round bound is a design point: longer rounds cut
        // probe traffic but widen the measurement error, shorter rounds do
        // the reverse. Sweep and check both monotonicities.
        let mut rng = SimRng::new(77);
        let mut last_rounds = u32::MAX;
        let mut last_err = 0.0;
        for dns_secs in [2u64, 5, 15] {
            let cfg = ProbeConfig {
                dns_timeout: SimDuration::from_secs(dns_secs),
                ..ProbeConfig::default()
            };
            let mut rounds = 0u32;
            let mut err = 0.0;
            for _ in 0..200 {
                let truth = rng.range_f64(60.0, 300.0);
                let m = ProbeSession.measure_with(
                    SimDuration::from_secs_f64(truth),
                    LinkCondition::NetworkBlackhole,
                    &cfg,
                    &mut rng,
                );
                rounds += m.rounds;
                err += (m.measured.expect("measured").as_secs_f64() - truth).abs();
            }
            assert!(rounds < last_rounds, "rounds must fall as timeouts grow");
            assert!(err >= last_err, "error must grow as timeouts grow");
            last_rounds = rounds;
            last_err = err;
        }
    }

    #[test]
    fn probe_bytes_scale_with_rounds() {
        let m = measure(50, LinkCondition::NetworkBlackhole, 7);
        assert_eq!(m.probe_bytes, m.rounds as u64 * 300);
    }

    #[test]
    fn monthly_network_budget_holds_for_typical_user() {
        // §2.2: network usage per month < 100 KB for typical users. A
        // typical user sees a handful of stalls per month (~33 failures
        // over 8 months, ~40 % stalls → ~2 stalls/month, mostly short).
        let mut rng = SimRng::new(8);
        let mut bytes = 0;
        for _ in 0..3 {
            let secs = rng.lognormal(1.9, 1.1).max(0.5);
            let m = ProbeSession.measure(
                SimDuration::from_secs_f64(secs),
                LinkCondition::NetworkBlackhole,
                &mut rng,
            );
            bytes += m.probe_bytes;
        }
        assert!(bytes < 100_000, "monthly probe bytes {bytes}");
    }
}
