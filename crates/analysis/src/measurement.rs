//! §2.2's measurement-accuracy argument, quantified.
//!
//! Vanilla Android estimates a stall's duration at the one-minute
//! granularity of its detection loop; "in most (>80 %) cases a Data_Stall
//! failure lasts for <300 seconds, so the incurred measurement error is
//! non-trivial relative to the Data_Stall duration". Android-MOD's probing
//! measures with at most one probing round (≤5 s) of error. This experiment
//! runs both estimators over the same stall population and reports the
//! error distributions — the quantitative case for building the probing
//! component at all.

use crate::render::Table;
use cellrel_device::{LinkCondition, ProbeSession};
use cellrel_sim::SimRng;
use cellrel_types::SimDuration;
use cellrel_workload::durations::sample_auto_heal_secs;

/// Result of the estimator comparison.
#[derive(Debug, Clone)]
pub struct MeasurementComparison {
    /// Stalls evaluated.
    pub samples: usize,
    /// Mean absolute error of the vanilla minute-granular estimator, seconds.
    pub vanilla_mae_secs: f64,
    /// Mean absolute error of the probing estimator, seconds.
    pub probing_mae_secs: f64,
    /// Worst-case probing error observed, seconds (paper: ≤5 s outside the
    /// backoff regime).
    pub probing_max_error_secs: f64,
    /// Mean relative error of vanilla on sub-minute stalls (the regime the
    /// paper highlights: most stalls are short, so minute rounding is huge).
    pub vanilla_rel_error_short: f64,
    /// Mean relative error of probing on the same sub-minute stalls.
    pub probing_rel_error_short: f64,
}

/// Vanilla Android's estimate: the stall is observed by a one-minute
/// detection loop, so durations are rounded up to whole minutes.
fn vanilla_estimate_secs(true_secs: f64) -> f64 {
    (true_secs / 60.0).ceil().max(1.0) * 60.0
}

/// Run the comparison over `n` stalls drawn from the Fig. 10 distribution.
pub fn compare_estimators(n: usize, rng: &mut SimRng) -> MeasurementComparison {
    assert!(n > 0);
    let probe = ProbeSession;
    let mut v_abs = 0.0;
    let mut p_abs = 0.0;
    let mut p_max: f64 = 0.0;
    let mut v_rel_short = 0.0;
    let mut p_rel_short = 0.0;
    let mut short = 0usize;

    for _ in 0..n {
        let true_secs = sample_auto_heal_secs(rng).min(1100.0); // stay below backoff
        let vanilla = vanilla_estimate_secs(true_secs);
        let measured = probe
            .measure(
                SimDuration::from_secs_f64(true_secs),
                LinkCondition::NetworkBlackhole,
                rng,
            )
            .measured
            .expect("network stalls are measured")
            .as_secs_f64();

        let v_err = (vanilla - true_secs).abs();
        let p_err = (measured - true_secs).abs();
        v_abs += v_err;
        p_abs += p_err;
        p_max = p_max.max(p_err);
        if true_secs < 60.0 {
            short += 1;
            v_rel_short += v_err / true_secs;
            p_rel_short += p_err / true_secs;
        }
    }

    MeasurementComparison {
        samples: n,
        vanilla_mae_secs: v_abs / n as f64,
        probing_mae_secs: p_abs / n as f64,
        probing_max_error_secs: p_max,
        vanilla_rel_error_short: v_rel_short / short.max(1) as f64,
        probing_rel_error_short: p_rel_short / short.max(1) as f64,
    }
}

impl MeasurementComparison {
    /// Render the comparison.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "§2.2 — stall-duration estimator accuracy (vanilla vs Android-MOD probing)",
            &["metric", "vanilla (1-min loop)", "probing"],
        );
        t.row(vec![
            "mean |error|".into(),
            format!("{:.1} s", self.vanilla_mae_secs),
            format!("{:.1} s", self.probing_mae_secs),
        ]);
        t.row(vec![
            "mean relative error, stalls < 60 s".into(),
            format!("{:.0}%", self.vanilla_rel_error_short * 100.0),
            format!("{:.0}%", self.probing_rel_error_short * 100.0),
        ]);
        t.row(vec![
            "max |error| observed".into(),
            "≤ 60 s by construction".into(),
            format!("{:.1} s (paper: ≤5 s)", self.probing_max_error_secs),
        ]);
        format!(
            "{}\n({} stalls from the Fig. 10 distribution; probing error is one\n\
             round ≤5 s, vanilla rounds every stall up to whole minutes)\n",
            t.render(),
            self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probing_beats_vanilla_by_an_order_of_magnitude() {
        let mut rng = SimRng::new(22);
        let c = compare_estimators(3_000, &mut rng);
        assert!(
            c.probing_mae_secs * 5.0 < c.vanilla_mae_secs,
            "probing {} vs vanilla {}",
            c.probing_mae_secs,
            c.vanilla_mae_secs
        );
        // The paper's ≤5 s bound (plus sub-second probe latency jitter).
        assert!(
            c.probing_max_error_secs <= 5.6,
            "probing max error {}",
            c.probing_max_error_secs
        );
        // Sub-minute stalls: vanilla's relative error is enormous.
        assert!(c.vanilla_rel_error_short > 2.0);
        assert!(c.probing_rel_error_short < 1.0);
        assert!(c.render().contains("estimator accuracy"));
    }

    #[test]
    fn vanilla_estimate_rounds_up_to_minutes() {
        assert_eq!(vanilla_estimate_secs(1.0), 60.0);
        assert_eq!(vanilla_estimate_secs(59.9), 60.0);
        assert_eq!(vanilla_estimate_secs(60.1), 120.0);
        assert_eq!(vanilla_estimate_secs(299.0), 300.0);
    }
}
