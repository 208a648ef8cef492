//! Figure 17 (a–f) — the increase in normalized failure prevalence caused
//! by RAT transitions.
//!
//! Six heat maps, one per ordered RAT pair (2G→3G, 2G→4G, 2G→5G, 3G→4G,
//! 3G→5G, 4G→5G), each a 6×6 grid over (source level i, target level j).
//! The paper's headline cell: 4G level-4 → 5G level-0 increases normalized
//! prevalence by +0.37, and all four 4G level-1..4 → 5G level-0 transitions
//! are "undesirable".

use cellrel_sim::SimRng;
use cellrel_types::{Rat, SignalLevel};
use cellrel_workload::exposure;

/// The six RAT pairs of Fig. 17, in the paper's panel order (a–f).
pub(crate) const PAIRS: [(Rat, Rat); 6] = [
    (Rat::G2, Rat::G3),
    (Rat::G2, Rat::G4),
    (Rat::G2, Rat::G5),
    (Rat::G3, Rat::G4),
    (Rat::G3, Rat::G5),
    (Rat::G4, Rat::G5),
];

/// One 6×6 transition matrix: `delta[i][j]` is the measured increase in
/// normalized prevalence for the transition `from level-i` → `to level-j`.
#[derive(Debug, Clone)]
pub struct TransitionMatrix {
    /// Source RAT.
    pub from: Rat,
    /// Target RAT.
    pub to: Rat,
    /// The measured increases.
    pub delta: [[f64; 6]; 6],
}

/// Figure 17 result: the six matrices.
#[derive(Debug, Clone)]
pub struct TransitionFigure {
    /// The panels, ordered per `PAIRS`.
    pub matrices: Vec<TransitionMatrix>,
}

/// Estimate the six matrices by Monte-Carlo over the calibrated transition
/// model: for each cell, observe `samples` synthetic transitions, measure
/// post-transition failure frequency, and subtract the no-transition
/// baseline at the same target state.
pub fn compute(samples: u32, rng: &mut SimRng) -> TransitionFigure {
    let mut matrices = Vec::with_capacity(6);
    for (from, to) in PAIRS {
        let mut delta = [[0f64; 6]; 6];
        for (i, &li) in SignalLevel::ALL.iter().enumerate() {
            for (j, &lj) in SignalLevel::ALL.iter().enumerate() {
                let mut failures = 0u32;
                for _ in 0..samples {
                    if exposure::sample_transition_failure(from, li, to, lj, rng) {
                        failures += 1;
                    }
                }
                let observed = failures as f64 / samples as f64;
                // Baseline: failure likelihood at the target state without a
                // transition (the same baseline the sampler uses).
                let baseline = exposure::normalized_prevalence_by_rat(to, lj) * 0.5;
                delta[i][j] = observed - baseline;
            }
        }
        matrices.push(TransitionMatrix { from, to, delta });
    }
    TransitionFigure { matrices }
}

impl TransitionFigure {
    /// The panel for a RAT pair.
    #[cfg(test)]
    pub(crate) fn panel(&self, from: Rat, to: Rat) -> Option<&TransitionMatrix> {
        self.matrices.iter().find(|m| m.from == from && m.to == to)
    }

    /// Render all six panels as text heat maps.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig. 17 — ΔnormPrev for RAT transitions ==\n");
        for m in &self.matrices {
            out.push_str(&format!(
                "-- {} → {} (rows: from-level, cols: to-level) --\n",
                m.from, m.to
            ));
            out.push_str("      j=0     j=1     j=2     j=3     j=4     j=5\n");
            for (i, row) in m.delta.iter().enumerate() {
                out.push_str(&format!("i={i} "));
                for v in row {
                    out.push_str(&format!(" {v:+.3} "));
                }
                out.push('\n');
            }
        }
        out.push_str("paper: level-0 landings are the dark column; 4G L4→5G L0 ≈ +0.37\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure() -> TransitionFigure {
        let mut rng = SimRng::new(17);
        compute(4000, &mut rng)
    }

    #[test]
    fn six_panels_in_paper_order() {
        let f = figure();
        assert_eq!(f.matrices.len(), 6);
        assert!(f.panel(Rat::G4, Rat::G5).is_some());
        assert!(f.panel(Rat::G5, Rat::G4).is_none());
    }

    #[test]
    fn fig17f_dark_cells_recovered() {
        let f = figure();
        let m = f.panel(Rat::G4, Rat::G5).expect("panel f");
        // The four undesirable transitions: 4G L1..=L4 → 5G L0.
        for i in 1..=4 {
            let v = m.delta[i][0];
            assert!(v > 0.12, "4G L{i} → 5G L0 increase {v} too small");
        }
        // The headline cell is the worst and near +0.37.
        let worst = m.delta[4][0];
        assert!((0.2..0.5).contains(&worst), "L4→L0 = {worst}");
        for i in 0..6 {
            for j in 1..6 {
                assert!(
                    m.delta[i][j] < worst,
                    "cell ({i},{j}) = {} exceeds the L4→L0 cell {worst}",
                    m.delta[i][j]
                );
            }
        }
    }

    #[test]
    fn level0_column_is_dark_in_every_panel() {
        let f = figure();
        for m in &f.matrices {
            // Average over source levels: the j=0 column exceeds the j=3 one.
            let col = |j: usize| m.delta.iter().map(|r| r[j]).sum::<f64>() / 6.0;
            assert!(
                col(0) > col(3) + 0.05,
                "{} → {}: col0 {} vs col3 {}",
                m.from,
                m.to,
                col(0),
                col(3)
            );
        }
    }

    #[test]
    fn render_contains_all_panels() {
        let s = figure().render();
        assert!(s.contains("4G → 5G"));
        assert!(s.contains("2G → 3G"));
    }
}
