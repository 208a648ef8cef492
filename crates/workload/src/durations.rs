//! Per-kind failure-duration samplers, calibrated to §3.1 and Fig. 4/10.
//!
//! Targets (the paper's published distribution facts):
//!
//! * overall mean duration ≈ 188 s, with 70.8 % of failures < 30 s and a
//!   maximum of 91 770 s (25.5 h, neglected remote BSes);
//! * Data_Stall accounts for ~94 % of total failure duration while being
//!   only ~40 % of failures — stalls carry the heavy tail;
//! * most stalls self-heal fast (Fig. 10: 60 % within 10 s, >80 % within
//!   300 s).

use cellrel_sim::SimRng;
use cellrel_types::{FailureKind, SimDuration};

/// Hard cap on any failure duration (the paper's observed maximum).
pub(crate) const MAX_DURATION_SECS: f64 = 91_770.0;

/// Sample a duration (seconds) for a failure of the given kind.
pub(crate) fn sample_duration_secs(
    kind: FailureKind,
    rng: &mut SimRng,
    disrepair_region: bool,
) -> f64 {
    let secs = match kind {
        FailureKind::DataSetupError => {
            // Setup-error episodes resolve with retries within seconds to a
            // couple of minutes (the retry schedule's early steps dominate).
            rng.lognormal(2.7, 0.9) // median ~15 s
        }
        FailureKind::DataStall => sample_stall_duration_secs(rng),
        FailureKind::OutOfService => {
            if disrepair_region {
                // Remote, neglected BSes: the long-outage class whose tail
                // reaches the paper's 25.5-hour extreme.
                rng.lognormal(6.3, 1.1) // median ~9 min
            } else {
                rng.lognormal(3.6, 1.0) // median ~37 s
            }
        }
        FailureKind::SmsSendFail | FailureKind::VoiceSetupFail => rng.lognormal(1.0, 0.7),
    };
    secs.clamp(0.2, MAX_DURATION_SECS)
}

/// Stall durations: fast-healing body (Fig. 10) plus the heavy tail that
/// makes stalls 94 % of total failure time.
pub(crate) fn sample_stall_duration_secs(rng: &mut SimRng) -> f64 {
    if rng.chance(0.80) {
        // Fig. 10 body: most stalls clear in seconds.
        rng.lognormal(1.85, 1.15)
    } else {
        // Tail: stubborn stalls, minutes to many hours — this is what makes
        // Data_Stall 94 % of total failure duration at 42 % of counts.
        rng.pareto(250.0, 1.02).min(MAX_DURATION_SECS)
    }
}

/// Natural-heal times used by the TIMP fit and the micro simulation's
/// world-heal process — the Fig. 10 distribution proper (auto-recovery
/// only, no tail from recovery-less episodes).
pub fn sample_auto_heal_secs(rng: &mut SimRng) -> f64 {
    if rng.chance(0.9) {
        rng.lognormal(1.9, 1.1)
    } else {
        rng.pareto(30.0, 1.1).min(MAX_DURATION_SECS)
    }
}

/// Convenience: sample as a [`SimDuration`].
pub(crate) fn sample_duration(
    kind: FailureKind,
    rng: &mut SimRng,
    disrepair_region: bool,
) -> SimDuration {
    SimDuration::from_secs_f64(sample_duration_secs(kind, rng, disrepair_region))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_mix_sample(n: usize, seed: u64) -> Vec<(FailureKind, f64)> {
        // §3.1 mix: 48 % setup errors, 42 % stalls, 9 % OOS, 1 % legacy.
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| {
                let kind = match rng.weighted_index(&[0.48, 0.42, 0.09, 0.008, 0.002]) {
                    0 => FailureKind::DataSetupError,
                    1 => FailureKind::DataStall,
                    2 => FailureKind::OutOfService,
                    3 => FailureKind::SmsSendFail,
                    _ => FailureKind::VoiceSetupFail,
                };
                let remote = rng.chance(0.02);
                let d = sample_duration_secs(kind, &mut rng, remote);
                (kind, d)
            })
            .collect()
    }

    #[test]
    fn overall_mean_and_quantiles_match_fig4() {
        let sample = kind_mix_sample(200_000, 1);
        let n = sample.len() as f64;
        let mean = sample.iter().map(|(_, d)| d).sum::<f64>() / n;
        let under_30 = sample.iter().filter(|(_, d)| *d < 30.0).count() as f64 / n;
        // Paper: mean 188 s, 70.8 % under 30 s. Heavy-tailed means wander,
        // so accept a generous band around the target.
        assert!((80.0..350.0).contains(&mean), "mean duration {mean}");
        assert!((0.6..0.82).contains(&under_30), "P(<30 s) = {under_30}");
    }

    #[test]
    fn stalls_dominate_total_duration() {
        let sample = kind_mix_sample(200_000, 2);
        let total: f64 = sample.iter().map(|(_, d)| d).sum();
        let stall: f64 = sample
            .iter()
            .filter(|(k, _)| *k == FailureKind::DataStall)
            .map(|(_, d)| d)
            .sum();
        let share = stall / total;
        // Paper: 94 %. Accept the neighbourhood.
        assert!(share > 0.80, "stall duration share {share}");
    }

    #[test]
    fn durations_never_exceed_cap() {
        let mut rng = SimRng::new(3);
        for _ in 0..100_000 {
            let d = sample_stall_duration_secs(&mut rng);
            assert!(d <= MAX_DURATION_SECS && d > 0.0);
        }
    }

    #[test]
    fn auto_heal_matches_fig10() {
        let mut rng = SimRng::new(4);
        let xs: Vec<f64> = (0..100_000)
            .map(|_| sample_auto_heal_secs(&mut rng))
            .collect();
        let n = xs.len() as f64;
        let by10 = xs.iter().filter(|&&d| d <= 10.0).count() as f64 / n;
        let by300 = xs.iter().filter(|&&d| d < 300.0).count() as f64 / n;
        assert!((0.52..0.68).contains(&by10), "60 % target, got {by10}");
        assert!(by300 > 0.8, ">80 % target, got {by300}");
    }

    #[test]
    fn oos_in_disrepair_regions_is_much_longer() {
        let mut rng = SimRng::new(5);
        let normal: f64 = (0..5000)
            .map(|_| sample_duration_secs(FailureKind::OutOfService, &mut rng, false))
            .sum::<f64>()
            / 5000.0;
        let remote: f64 = (0..5000)
            .map(|_| sample_duration_secs(FailureKind::OutOfService, &mut rng, true))
            .sum::<f64>()
            / 5000.0;
        assert!(remote > normal * 10.0, "remote {remote} vs normal {normal}");
    }

    #[test]
    fn setup_errors_are_short() {
        let mut rng = SimRng::new(6);
        let mean: f64 = (0..20_000)
            .map(|_| sample_duration_secs(FailureKind::DataSetupError, &mut rng, false))
            .sum::<f64>()
            / 20_000.0;
        assert!(mean < 40.0, "setup-error mean {mean}");
    }
}
