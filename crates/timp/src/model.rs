//! The TIMP model of the Data_Stall recovery process.
//!
//! Fig. 18: five states — S₀ (stall detected), S₁..S₃ (the three recovery
//! operations started), S_e (recovered). The transition S_i → S_e happens
//! with a probability that depends on *elapsed time* (devices self-heal as
//! time passes — Fig. 10), which is exactly what makes the process
//! time-inhomogeneous: a plain Markov chain cannot express it.
//!
//! The model combines:
//!
//! * the **natural-recovery CDF** `F(t)` estimated from measured stall
//!   durations (the probability the stall has self-healed by elapsed time
//!   `t` since detection), and
//! * the **operation effects**: executing recovery operation *k* fixes the
//!   stall instantly with probability `s_k`, at execution cost `O_k`
//!   (`O₁ < O₂ < O₃`).
//!
//! After operations `1..=i` have run, the probability of being recovered by
//! time `t` is `P_i(t) = 1 − (1 − F(t)) · Π_{k≤i} (1 − s_k)`. The expected
//! overall recovery time for a probation triple `(Pro₀, Pro₁, Pro₂)` follows
//! Eq. 1's recursion, evaluated as a proper expectation over the
//! recovery-time distribution.
//!
//! Evaluation is closed-form over the empirical CDF: with
//! `G(t) = ∫₀ᵗ u·dF(u)` precomputed as prefix sums of the sorted samples,
//! each window's contribution is `mult · (G(b) − G(a))` plus shift terms, so
//! one evaluation costs a few binary searches — the annealer runs thousands
//! of evaluations per optimisation.

/// The fitted TIMP model.
#[derive(Debug, Clone)]
pub struct TimpModel {
    /// Sorted natural-recovery durations (seconds).
    sorted: Vec<f64>,
    /// `prefix[i]` = sum of the first `i` sorted durations.
    prefix: Vec<f64>,
    /// Probability each recovery operation fixes the stall when executed.
    op_success: [f64; 3],
    /// Execution cost of each operation, seconds.
    op_cost: [f64; 3],
    /// Maximum stall duration observed (`t_m` in the paper).
    t_max: f64,
}

impl TimpModel {
    /// Fit the model from measured stall durations (seconds, the time until
    /// *natural* recovery), with the recovery-operation parameters.
    ///
    /// # Panics
    /// Panics on empty samples or out-of-range probabilities.
    pub fn from_durations(samples: &[f64], op_success: [f64; 3], op_cost: [f64; 3]) -> Self {
        assert!(!samples.is_empty(), "TimpModel needs duration samples");
        assert!(op_success.iter().all(|p| (0.0..=1.0).contains(p)));
        assert!(op_cost.iter().all(|&c| c >= 0.0));
        let mut sorted: Vec<f64> = samples
            .iter()
            .copied()
            .filter(|d| d.is_finite() && *d >= 0.0)
            .collect();
        assert!(!sorted.is_empty(), "TimpModel needs duration samples");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
        let t_max = *sorted.last().expect("non-empty");
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for &d in &sorted {
            acc += d;
            prefix.push(acc);
        }
        TimpModel {
            sorted,
            prefix,
            op_success,
            op_cost,
            t_max,
        }
    }

    /// The observed maximum duration `t_m`.
    pub fn t_max(&self) -> f64 {
        self.t_max
    }

    /// Natural-recovery CDF `F(t)` (empirical step function).
    pub(crate) fn natural_cdf(&self, t: f64) -> f64 {
        self.sorted.partition_point(|&d| d <= t) as f64 / self.sorted.len() as f64
    }

    /// Partial first moment `G(t) = ∫₀ᵗ u·dF(u)` — the mean contribution of
    /// samples ≤ `t`.
    fn partial_moment(&self, t: f64) -> f64 {
        let k = self.sorted.partition_point(|&d| d <= t);
        self.prefix[k] / self.sorted.len() as f64
    }

    /// `P_{i→e}(t)`: probability of having recovered by elapsed time `t`
    /// after operations `1..=i` have executed.
    #[cfg(test)]
    pub(crate) fn p_recovered(&self, ops_executed: usize, t: f64) -> f64 {
        let mult: f64 = self.op_success[..ops_executed.min(3)]
            .iter()
            .map(|s| 1.0 - s)
            .product();
        1.0 - (1.0 - self.natural_cdf(t)) * mult
    }

    /// Expected overall recovery time `T_recovery = T₀` (Eq. 1) for the
    /// probation triple, in seconds.
    ///
    /// Mass recovering naturally inside window *i* contributes its recovery
    /// instant (plus any accumulated operation-execution shift); mass
    /// surviving to a probation boundary pays the next operation's cost and
    /// may be fixed instantly by it; mass surviving everything recovers by
    /// `t_m` (stage 3's integral upper bound in the paper).
    pub fn expected_recovery_time(&self, probations: [f64; 3]) -> f64 {
        assert!(
            probations.iter().all(|&p| p > 0.0),
            "probations must be positive"
        );
        let boundaries = [
            probations[0],
            probations[0] + probations[1],
            probations[0] + probations[1] + probations[2],
        ];

        let mut expectation = 0.0;
        let mut mult = 1.0; // Π (1 − s_k) over executed ops
        let mut cost_shift = 0.0; // accumulated op execution time
        let mut window_start = 0.0f64;

        for stage in 0..4usize {
            let end = boundaries
                .get(stage)
                .map_or(self.t_max, |b| b.min(self.t_max));
            let a = window_start.min(end);
            // Natural recovery inside [a, end]: contributes its instant plus
            // the shift accrued so far.
            let df = (self.natural_cdf(end) - self.natural_cdf(a)).max(0.0);
            let dg = (self.partial_moment(end) - self.partial_moment(a)).max(0.0);
            expectation += mult * (dg + cost_shift * df);

            if stage < 3 {
                // Execute operation `stage+1` on the surviving mass at `end`.
                let p_before = 1.0 - (1.0 - self.natural_cdf(end)) * mult;
                cost_shift += self.op_cost[stage];
                mult *= 1.0 - self.op_success[stage];
                let p_after = 1.0 - (1.0 - self.natural_cdf(end)) * mult;
                expectation += (p_after - p_before).max(0.0) * (end + cost_shift);
            }
            window_start = end;
        }

        // Residual mass (ops all failed, natural heal at the horizon) is
        // charged the full horizon, as in the paper's T₃ upper bound.
        let p_final = 1.0 - (1.0 - self.natural_cdf(self.t_max)) * mult;
        expectation += (1.0 - p_final).max(0.0) * (self.t_max + cost_shift);
        expectation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_sim::SimRng;

    /// Fig. 10-like duration sample: 60 % ≤ 10 s, >80 % < 300 s, heavy tail.
    fn paper_like_durations(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| {
                if rng.chance(0.9) {
                    rng.lognormal(1.9, 1.1)
                } else {
                    rng.pareto(30.0, 1.1).min(90_000.0)
                }
            })
            .collect()
    }

    fn model() -> TimpModel {
        TimpModel::from_durations(
            &paper_like_durations(20_000, 1),
            [0.75, 0.90, 0.97],
            [12.0, 30.0, 60.0],
        )
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        let m = model();
        let mut last = 0.0;
        let mut t = 0.0;
        while t < m.t_max() * 1.1 {
            let f = m.natural_cdf(t);
            assert!(f >= last - 1e-12, "CDF must be monotone");
            assert!((0.0..=1.0).contains(&f));
            last = f;
            t += m.t_max() / 100.0;
        }
        assert!((m.natural_cdf(m.t_max() * 1.05) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_calibration_matches_fig10_shape() {
        let m = model();
        let by10 = m.natural_cdf(10.0);
        let by300 = m.natural_cdf(300.0);
        assert!((0.5..0.72).contains(&by10), "P(heal ≤ 10 s) = {by10}");
        assert!(by300 > 0.8, "P(heal ≤ 300 s) = {by300}");
    }

    #[test]
    fn partial_moment_converges_to_mean() {
        let m = TimpModel::from_durations(&[1.0, 2.0, 3.0, 4.0], [0.5; 3], [1.0, 2.0, 3.0]);
        assert!((m.partial_moment(10.0) - 2.5).abs() < 1e-12);
        assert!((m.partial_moment(2.0) - 0.75).abs() < 1e-12);
        assert_eq!(m.partial_moment(0.5), 0.0);
    }

    #[test]
    fn ops_raise_recovery_probability() {
        let m = model();
        let t = 30.0;
        assert!(m.p_recovered(1, t) > m.p_recovered(0, t));
        assert!(m.p_recovered(2, t) > m.p_recovered(1, t));
        assert!(m.p_recovered(3, t) > m.p_recovered(2, t));
        assert!(m.p_recovered(3, t) <= 1.0);
    }

    #[test]
    fn shorter_probations_beat_vanilla() {
        // The paper's core claim: (21, 6, 16) yields a smaller expected
        // recovery time than (60, 60, 60).
        let m = model();
        let t_vanilla = m.expected_recovery_time([60.0, 60.0, 60.0]);
        let t_timp = m.expected_recovery_time([21.0, 6.0, 16.0]);
        assert!(
            t_timp < t_vanilla,
            "timp {t_timp:.1}s vs vanilla {t_vanilla:.1}s"
        );
        // Both land in the tens-of-seconds regime (the paper: 27.8 vs 38).
        assert!(t_timp > 1.0 && t_vanilla < 400.0);
    }

    #[test]
    fn absurdly_long_probations_are_worse() {
        let m = model();
        let t_ok = m.expected_recovery_time([30.0, 30.0, 30.0]);
        let t_lazy = m.expected_recovery_time([3000.0, 3000.0, 3000.0]);
        assert!(t_lazy > t_ok, "lazy {t_lazy:.1} vs ok {t_ok:.1}");
    }

    #[test]
    fn overly_eager_probations_pay_op_costs() {
        // Firing stage 1 after 1 s interrupts stalls that would have healed
        // by themselves in 2–3 s and pays O₁ for ~all of them — with cheap
        // ops, eager can still edge out moderate, so make ops expensive to
        // surface the trade-off the annealer balances.
        let samples = paper_like_durations(20_000, 2);
        let m = TimpModel::from_durations(&samples, [0.75, 0.90, 0.97], [20.0, 40.0, 80.0]);
        let t_eager = m.expected_recovery_time([1.0, 1.0, 1.0]);
        let t_moderate = m.expected_recovery_time([20.0, 10.0, 15.0]);
        assert!(
            t_eager > t_moderate,
            "eager {t_eager:.1} vs moderate {t_moderate:.1}"
        );
    }

    #[test]
    fn deterministic_durations_give_exact_expectation() {
        // All stalls heal at exactly 5 s; ops never succeed. Expected
        // recovery ≈ 5 s regardless of probations ≥ 5.
        let m = TimpModel::from_durations(&[5.0; 100], [0.0, 0.0, 0.0], [0.1, 0.2, 0.3]);
        let t = m.expected_recovery_time([10.0, 10.0, 10.0]);
        assert!((t - 5.0).abs() < 0.6, "expected ~5 s, got {t}");
    }

    #[test]
    fn perfect_first_op_caps_time_near_probation() {
        // Stalls never self-heal within the horizon (all heal at 1000 s),
        // but op 1 always fixes: expected ≈ Pro₀ + O₁.
        let m = TimpModel::from_durations(&[1000.0; 50], [1.0, 1.0, 1.0], [2.0, 4.0, 8.0]);
        let t = m.expected_recovery_time([15.0, 10.0, 10.0]);
        assert!((t - 17.0).abs() < 1.0, "expected ~17 s, got {t}");
    }

    #[test]
    fn evaluation_is_fast_enough_for_annealing() {
        let m = model();
        // 10k evaluations should be effectively instant with the
        // closed-form evaluator (this is what the annealer does).
        for i in 0..10_000u64 {
            let p0 = 1.0 + (i % 60) as f64;
            let _ = m.expected_recovery_time([p0, 10.0, 20.0]);
        }
    }

    #[test]
    #[should_panic(expected = "duration samples")]
    fn empty_samples_rejected() {
        TimpModel::from_durations(&[], [0.5; 3], [1.0, 2.0, 3.0]);
    }
}
