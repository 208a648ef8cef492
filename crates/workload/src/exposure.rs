//! Signal-level exposure and normalized failure prevalence (Figs. 15–17).
//!
//! Fig. 15's key finding: **normalized** prevalence (prevalence divided by
//! the time spent at each signal level) decreases monotonically from
//! level 0 to level 4, then *spikes* at level 5 — because level-5 readings
//! cluster at densely deployed transport hubs where interference and
//! mobility-management pressure dominate.
//!
//! The workload uses two tables:
//!
//! * [`level_exposure`] — the fraction of camped time a fleet spends at
//!   each signal level (provided to the paper's authors by Xiaomi's
//!   nationwide measurement; synthesised here);
//! * `NORMALIZED_PREVALENCE` — the per-level failure likelihood (the
//!   Fig. 15 series shape).
//!
//! The joint product gives the probability a recorded failure carries a
//! given level; the analysis layer divides counts by exposure to recover
//! the normalized series — exactly the paper's methodology.

use cellrel_sim::{SimRng, WeightedIndex};
use cellrel_types::{Rat, SignalLevel};

/// Fraction of camped time spent at each signal level (levels 0..=5).
/// Most fleets sit at mid-to-good levels; level 0 and level 5 are both
/// comparatively rare exposures.
pub(crate) const LEVEL_EXPOSURE: [f64; 6] = [0.04, 0.09, 0.18, 0.30, 0.27, 0.12];

/// The Fig. 15 normalized-prevalence shape: strictly decreasing levels 0→4,
/// then the level-5 spike that rises above every level except 0.
pub(crate) const NORMALIZED_PREVALENCE: [f64; 6] = [0.34, 0.205, 0.155, 0.115, 0.085, 0.24];

/// Fig. 16: per-RAT normalized prevalence for 4G and 5G. 5G is uniformly
/// riskier (immature modules, §3.2) and its level-0 entry is the policy
/// disaster zone.
pub fn normalized_prevalence_by_rat(rat: Rat, level: SignalLevel) -> f64 {
    let base = NORMALIZED_PREVALENCE[level.index()];
    match rat {
        // 5G is uniformly riskier, and disproportionately so at the weak
        // end: 2020-era NR coverage edges (the blind-preference disaster
        // zone) dominate its failure profile.
        Rat::G5 => {
            const G5_FACTOR: [f64; 6] = [1.95, 1.75, 1.50, 1.30, 1.15, 1.35];
            base * G5_FACTOR[level.index()]
        }
        Rat::G4 => base,
        Rat::G3 => base * 0.62, // the idle-3G effect
        Rat::G2 => base * 0.95,
    }
}

/// Exposure share at a level.
pub fn level_exposure(level: SignalLevel) -> f64 {
    LEVEL_EXPOSURE[level.index()]
}

/// A sampler over the signal level *of a failure*: P(level | failure) ∝
/// exposure(level) × normalized_prevalence(level, rat).
#[derive(Debug, Clone)]
pub(crate) struct FailureLevelSampler {
    samplers: [WeightedIndex; 4],
}

impl FailureLevelSampler {
    /// Build per-RAT samplers.
    pub(crate) fn new() -> Self {
        let build = |rat: Rat| {
            let weights: Vec<f64> = SignalLevel::ALL
                .iter()
                .map(|&l| level_exposure(l) * normalized_prevalence_by_rat(rat, l))
                .collect();
            WeightedIndex::new(&weights)
        };
        FailureLevelSampler {
            samplers: [
                build(Rat::G2),
                build(Rat::G3),
                build(Rat::G4),
                build(Rat::G5),
            ],
        }
    }

    /// Draw the signal level of a failure occurring on `rat`.
    pub(crate) fn sample(&self, rat: Rat, rng: &mut SimRng) -> SignalLevel {
        SignalLevel::ALL[self.samplers[rat.index()].sample(rng)]
    }
}

// --------------------------------------------------------------------------
// Fig. 17: RAT-transition risk increases.
// --------------------------------------------------------------------------

/// The increase in normalized failure prevalence caused by a RAT transition
/// from `(from_rat, level i)` to `(to_rat, level j)` — the quantity the six
/// heat maps of Fig. 17 plot.
///
/// The paper's observed pattern: transitions landing on level-0 targets are
/// the dangerous ones, and the danger grows with how *good* the signal was
/// before the switch (the 4G L4 → 5G L0 cell is the darkest at +0.37).
pub(crate) fn transition_risk_increase(
    from_rat: Rat,
    from_level: SignalLevel,
    to_rat: Rat,
    to_level: SignalLevel,
) -> f64 {
    if from_rat == to_rat {
        return 0.0;
    }
    // Baseline change from the per-level landscape.
    let base = normalized_prevalence_by_rat(to_rat, to_level)
        - normalized_prevalence_by_rat(from_rat, from_level);
    // Transition shock: landing at level 0 after having usable signal.
    let shock = if to_level == SignalLevel::L0 {
        let source_quality = from_level.value() as f64 / 5.0;
        let upgrade = u8::from(to_rat > from_rat) as f64;
        0.10 + 0.16 * source_quality + 0.04 * upgrade
    } else {
        0.0
    };
    base.max(-0.2) * 0.22 + shock
}

/// One synthetic transition observation: whether a failure followed the
/// transition within the observation window.
pub fn sample_transition_failure(
    from_rat: Rat,
    from_level: SignalLevel,
    to_rat: Rat,
    to_level: SignalLevel,
    rng: &mut SimRng,
) -> bool {
    let baseline = normalized_prevalence_by_rat(to_rat, to_level) * 0.5;
    let p = baseline + transition_risk_increase(from_rat, from_level, to_rat, to_level).max(0.0);
    rng.chance(p.clamp(0.0, 0.97))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposure_sums_to_one() {
        let total: f64 = LEVEL_EXPOSURE.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig15_shape_decreasing_then_spike() {
        // Strictly decreasing 0..4.
        for w in NORMALIZED_PREVALENCE[..5].windows(2) {
            assert!(w[0] > w[1]);
        }
        // Level 5 above each of 1..4, but below level 0.
        let l5 = NORMALIZED_PREVALENCE[5];
        for &v in &NORMALIZED_PREVALENCE[1..5] {
            assert!(l5 > v, "level-5 spike must exceed levels 1–4");
        }
        assert!(l5 < NORMALIZED_PREVALENCE[0]);
    }

    #[test]
    fn fig16_5g_riskier_and_3g_idler_than_4g() {
        for l in SignalLevel::ALL {
            assert!(
                normalized_prevalence_by_rat(Rat::G5, l) > normalized_prevalence_by_rat(Rat::G4, l)
            );
            assert!(
                normalized_prevalence_by_rat(Rat::G3, l) < normalized_prevalence_by_rat(Rat::G4, l)
            );
        }
    }

    #[test]
    fn sampler_biases_toward_high_exposure_levels() {
        let s = FailureLevelSampler::new();
        let mut rng = SimRng::new(1);
        let mut counts = [0u32; 6];
        for _ in 0..50_000 {
            counts[s.sample(Rat::G4, &mut rng).index()] += 1;
        }
        // Level 3 has the largest exposure×prevalence product among 2..4;
        // level 0 is rare in absolute terms despite its prevalence.
        assert!(counts[3] > counts[0], "{counts:?}");
        // All levels occur.
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn fig17f_worst_cell_is_4g_good_to_5g_dead() {
        // 4G level-4 → 5G level-0 must be the worst 4G→5G transition, with
        // an increase in the neighbourhood of the paper's +0.37.
        let worst = transition_risk_increase(Rat::G4, SignalLevel::L4, Rat::G5, SignalLevel::L0);
        assert!((0.25..0.5).contains(&worst), "worst-cell increase {worst}");
        for i in SignalLevel::ALL {
            for j in SignalLevel::ALL {
                let v = transition_risk_increase(Rat::G4, i, Rat::G5, j);
                assert!(v <= worst + 1e-9, "({i},{j}) = {v} exceeds the L4→L0 cell");
            }
        }
    }

    #[test]
    fn level0_landings_are_the_dangerous_pattern() {
        // Fig. 17's common pattern: failures spike when the *target* level
        // is 0, across all RAT pairs.
        for (from, to) in [
            (Rat::G2, Rat::G3),
            (Rat::G2, Rat::G4),
            (Rat::G3, Rat::G4),
            (Rat::G3, Rat::G5),
            (Rat::G2, Rat::G5),
            (Rat::G4, Rat::G5),
        ] {
            let to_l0 = transition_risk_increase(from, SignalLevel::L3, to, SignalLevel::L0);
            let to_l3 = transition_risk_increase(from, SignalLevel::L3, to, SignalLevel::L3);
            assert!(to_l0 > to_l3, "{from}→{to}: L0 {to_l0} vs L3 {to_l3}");
        }
    }

    #[test]
    fn same_rat_transitions_are_neutral() {
        assert_eq!(
            transition_risk_increase(Rat::G4, SignalLevel::L2, Rat::G4, SignalLevel::L0),
            0.0
        );
    }

    #[test]
    fn transition_sampling_reflects_risk() {
        let mut rng = SimRng::new(2);
        let n = 20_000;
        let risky = (0..n)
            .filter(|_| {
                sample_transition_failure(
                    Rat::G4,
                    SignalLevel::L4,
                    Rat::G5,
                    SignalLevel::L0,
                    &mut rng,
                )
            })
            .count();
        let safe = (0..n)
            .filter(|_| {
                sample_transition_failure(
                    Rat::G4,
                    SignalLevel::L4,
                    Rat::G5,
                    SignalLevel::L4,
                    &mut rng,
                )
            })
            .count();
        assert!(risky > safe * 2, "risky {risky} vs safe {safe} out of {n}");
    }
}
