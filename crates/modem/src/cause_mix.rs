//! The calibrated Table-2 cause sampler for macro-scale studies.
//!
//! The micro pipeline ([`crate::setup`]) derives causes mechanistically; the
//! population study instead needs millions of `Data_Setup_Error` causes per
//! second, so it samples directly from the paper's published decomposition:
//! the top-10 codes with their Table 2 shares (46.7 % total) plus a long
//! tail over the remaining true-failure codes.

use cellrel_sim::{SimRng, WeightedIndex};
use cellrel_types::DataFailCause;

/// A reusable sampler over `Data_Setup_Error` causes calibrated to Table 2.
#[derive(Debug, Clone)]
pub struct CauseMix {
    causes: Vec<DataFailCause>,
    weights: WeightedIndex,
}

impl CauseMix {
    /// Build the paper-calibrated mix.
    pub fn table2() -> Self {
        let mut causes = Vec::new();
        let mut weights = Vec::new();
        let mut top_total = 0.0;
        for (cause, share) in DataFailCause::TABLE2_TOP10 {
            causes.push(cause);
            weights.push(share);
            top_total += share;
        }
        // Long tail: the remaining 53.3 % spread over the other 334 codes —
        // the named non-top-10 true failures first, then anonymous
        // `Other(...)` codes standing in for the rest of Android's
        // catalogue — with geometric decay. The tail must be *thin enough*
        // that none of its codes outranks the paper's rank 10 (1.6 %).
        let mut tail: Vec<DataFailCause> = DataFailCause::NAMED
            .iter()
            .copied()
            .filter(|c| {
                c.is_true_failure() && !DataFailCause::TABLE2_TOP10.iter().any(|(t, _)| t == c)
            })
            .collect();
        let total_tail = DataFailCause::ANDROID_TOTAL_CODES - 10;
        for i in tail.len()..total_tail {
            tail.push(DataFailCause::Other(0x3000 + i as u16));
        }
        let tail_mass = 1.0 - top_total;
        let decay = 0.98f64;
        let norm: f64 = (0..tail.len()).map(|i| decay.powi(i as i32)).sum();
        for (i, cause) in tail.iter().enumerate() {
            causes.push(*cause);
            weights.push(tail_mass * decay.powi(i as i32) / norm);
        }
        CauseMix {
            causes,
            weights: WeightedIndex::new(&weights),
        }
    }

    /// Draw one cause.
    pub fn sample(&self, rng: &mut SimRng) -> DataFailCause {
        self.causes[self.weights.sample(rng)]
    }

    /// The probability assigned to a specific cause.
    #[cfg(test)]
    pub(crate) fn probability_of(&self, cause: DataFailCause) -> f64 {
        self.causes
            .iter()
            .position(|&c| c == cause)
            .map(|i| self.weights.probability(i))
            .unwrap_or(0.0)
    }

    /// Number of distinct causes in the mix.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.causes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top10_shares_match_table2() {
        let mix = CauseMix::table2();
        for (cause, share) in DataFailCause::TABLE2_TOP10 {
            let p = mix.probability_of(cause);
            assert!((p - share).abs() < 1e-9, "{cause}: {p} vs {share}");
        }
    }

    #[test]
    fn all_causes_are_true_failures() {
        let mix = CauseMix::table2();
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            assert!(mix.sample(&mut rng).is_true_failure());
        }
    }

    #[test]
    fn empirical_mix_matches_table2() {
        let mix = CauseMix::table2();
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let gprs = (0..n)
            .filter(|_| mix.sample(&mut rng) == DataFailCause::GprsRegistrationFail)
            .count();
        let share = gprs as f64 / n as f64;
        assert!((share - 0.128).abs() < 0.01, "GPRS share {share}");
    }

    #[test]
    fn tail_exists_and_sums_correctly() {
        let mix = CauseMix::table2();
        assert!(mix.len() > 20, "tail too small: {}", mix.len());
        let top: f64 = DataFailCause::TABLE2_TOP10
            .iter()
            .map(|(c, _)| mix.probability_of(*c))
            .sum();
        assert!((top - 0.467).abs() < 1e-9);
    }
}
