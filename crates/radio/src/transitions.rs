//! Next-transition RAT sampling for fleet-scale simulation.
//!
//! The per-second radio sampling of the full device stack is far too
//! expensive for 10⁶-device fleets: almost every sample observes "still on
//! 4G". This module models a device's serving RAT as a **semi-Markov jump
//! process** instead, so a fleet driver only does work when the RAT can
//! actually change:
//!
//! * the device *dwells* on its current RAT for an exponential holding
//!   time, then
//! * *jumps* to a RAT drawn ∝ the device's long-run usage mix
//!   (independently of the current RAT, self-jumps allowed).
//!
//! Because the jump target is drawn from the stationary mix itself and the
//! mean holding time is RAT-independent, the process's long-run time share
//! on each RAT equals the configured mix *exactly* — the same marginal the
//! macro study samples per failure (§3.3 / Fig. 14), now with a time axis
//! a discrete-event scheduler can skip along.

use cellrel_sim::{SimRng, WeightedIndex};
use cellrel_types::Rat;

/// A semi-Markov RAT occupancy process: exponential dwell, jump ∝ mix.
#[derive(Debug, Clone)]
pub struct RatTransitionModel {
    rats: [Rat; 4],
    mix: WeightedIndex,
    mean_dwell_ms: f64,
}

impl RatTransitionModel {
    /// Build a process whose long-run time share on `rats[i]` is
    /// `weights[i]` (normalised) and whose mean holding time between jump
    /// opportunities is `mean_dwell_ms`.
    ///
    /// # Panics
    /// Panics if all weights are zero or the mean dwell is not positive.
    pub fn new(rats: [Rat; 4], weights: [f64; 4], mean_dwell_ms: f64) -> Self {
        assert!(mean_dwell_ms > 0.0, "mean dwell must be positive");
        RatTransitionModel {
            rats,
            mix: WeightedIndex::new(&weights),
            mean_dwell_ms,
        }
    }

    /// Sample the stationary distribution — the serving RAT at time zero.
    pub fn initial(&self, rng: &mut SimRng) -> Rat {
        self.rats[self.mix.sample(rng)]
    }

    /// Sample the next jump: `(holding time in ms, RAT after the jump)`.
    /// The holding time is at least 1 ms so a scheduler never re-arms a
    /// timer at the current instant.
    pub fn next(&self, rng: &mut SimRng) -> (u64, Rat) {
        let dwell = self.exp_dwell(rng);
        let rat = self.rats[self.mix.sample(rng)];
        (dwell, rat)
    }

    /// Sample only the holding time (ms, ≥ 1).
    pub fn exp_dwell(&self, rng: &mut SimRng) -> u64 {
        (rng.exp(self.mean_dwell_ms).round() as u64).max(1)
    }

    /// The configured long-run time share of `rat` (0 if absent).
    #[cfg(test)]
    pub(crate) fn time_share(&self, rat: Rat) -> f64 {
        self.rats
            .iter()
            .position(|&r| r == rat)
            .map_or(0.0, |i| self.mix.probability(i))
    }

    /// Mean holding time between jump opportunities, in ms.
    #[cfg(test)]
    pub(crate) fn mean_dwell_ms(&self) -> f64 {
        self.mean_dwell_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATS: [Rat; 4] = [Rat::G2, Rat::G3, Rat::G4, Rat::G5];

    fn model() -> RatTransitionModel {
        RatTransitionModel::new(RATS, [0.05, 0.03, 0.52, 0.40], 3_600_000.0)
    }

    #[test]
    fn long_run_time_share_matches_mix() {
        let m = model();
        let mut rng = SimRng::new(9);
        let mut rat = m.initial(&mut rng);
        let mut occupancy = [0u64; 4];
        // 40 000 jumps ≈ 4.5 simulated years at a 1 h mean dwell.
        for _ in 0..40_000 {
            let (dwell, next) = m.next(&mut rng);
            occupancy[rat.index()] += dwell;
            rat = next;
        }
        let total: u64 = occupancy.iter().sum();
        for (i, r) in RATS.iter().enumerate() {
            let share = occupancy[i] as f64 / total as f64;
            let expect = m.time_share(*r);
            assert!(
                (share - expect).abs() < 0.02,
                "{r:?}: time share {share} vs mix {expect}"
            );
        }
    }

    #[test]
    fn zero_weight_rat_is_never_served() {
        // A non-5G device: G5 weight 0 — the process must never land there.
        let m = RatTransitionModel::new(RATS, [0.12, 0.06, 0.82, 0.0], 600_000.0);
        let mut rng = SimRng::new(4);
        assert_eq!(m.time_share(Rat::G5), 0.0);
        for _ in 0..2_000 {
            let (_, rat) = m.next(&mut rng);
            assert_ne!(rat, Rat::G5);
        }
    }

    #[test]
    fn dwell_is_positive_with_configured_mean() {
        let m = model();
        let mut rng = SimRng::new(5);
        let mut sum = 0.0;
        for _ in 0..20_000 {
            let d = m.exp_dwell(&mut rng);
            assert!(d >= 1);
            sum += d as f64;
        }
        let mean = sum / 20_000.0;
        let expect = m.mean_dwell_ms();
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "dwell mean {mean} vs {expect}"
        );
    }

    #[test]
    fn sampling_is_deterministic() {
        let m = model();
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(m.next(&mut a), m.next(&mut b));
        }
    }
}
