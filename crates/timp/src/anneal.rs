//! Simulated annealing over probation triples (§4.2).
//!
//! "We use the annealing algorithm to search for the global minimum" of the
//! expected recovery time over (Pro₀, Pro₁, Pro₂). The search space is
//! integer seconds in `[1, 120]³`; the annealer perturbs one coordinate at a
//! time with a geometric cooling schedule and is fully deterministic given a
//! seed.

use crate::model::TimpModel;
use cellrel_sim::SimRng;

/// Annealing parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealConfig {
    /// Iterations.
    pub iterations: u32,
    /// Initial temperature (in seconds of expected-time slack accepted).
    pub t_initial: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    /// Probation bounds (seconds).
    pub min_probation: u64,
    /// Upper probation bound (seconds).
    pub max_probation: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 6000,
            t_initial: 8.0,
            cooling: 0.9988,
            min_probation: 1,
            max_probation: 120,
            seed: 0xA11EA1,
        }
    }
}

/// Result of the annealing search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealResult {
    /// The best probation triple found (seconds).
    pub probations: [u64; 3],
    /// Its expected recovery time (seconds).
    pub expected_time: f64,
    /// The vanilla (60/60/60) expected recovery time, for comparison.
    pub vanilla_time: f64,
    /// Accepted moves during the search (search diagnostics).
    pub accepted_moves: u32,
}

impl AnnealResult {
    /// Relative improvement of the optimised trigger over vanilla.
    pub fn improvement(&self) -> f64 {
        if self.vanilla_time <= 0.0 {
            0.0
        } else {
            1.0 - self.expected_time / self.vanilla_time
        }
    }
}

fn energy(model: &TimpModel, p: [u64; 3]) -> f64 {
    model.expected_recovery_time([p[0] as f64, p[1] as f64, p[2] as f64])
}

/// Run the annealing search against a fitted model.
pub fn anneal_probations(model: &TimpModel, cfg: &AnnealConfig) -> AnnealResult {
    assert!(cfg.min_probation >= 1 && cfg.min_probation < cfg.max_probation);
    let mut rng = SimRng::new(cfg.seed);

    let mut current = [30u64, 30, 30];
    let mut current_e = energy(model, current);
    let mut best = current;
    let mut best_e = current_e;
    let mut temp = cfg.t_initial;
    let mut accepted = 0u32;

    for _ in 0..cfg.iterations {
        // Neighbour: perturb one coordinate by ±1..=8 seconds.
        let mut cand = current;
        let coord = rng.index(3);
        let step = 1 + rng.range_u64(0, 8);
        let v = if rng.chance(0.5) {
            cand[coord].saturating_add(step)
        } else {
            cand[coord].saturating_sub(step)
        };
        cand[coord] = v.clamp(cfg.min_probation, cfg.max_probation);

        let cand_e = energy(model, cand);
        let delta = cand_e - current_e;
        if delta <= 0.0 || rng.chance((-delta / temp.max(1e-9)).exp()) {
            current = cand;
            current_e = cand_e;
            accepted += 1;
            if current_e < best_e {
                best = current;
                best_e = current_e;
            }
        }
        temp *= cfg.cooling;
    }

    AnnealResult {
        probations: best,
        expected_time: best_e,
        vanilla_time: energy(model, [60, 60, 60]),
        accepted_moves: accepted,
    }
}

/// Exhaustive coarse grid search (step 5 s) — a slow oracle the tests use to
/// validate the annealer's optimum.
#[cfg(test)]
pub(crate) fn grid_search(model: &TimpModel, max: u64) -> ([u64; 3], f64) {
    let mut best = [5u64, 5, 5];
    let mut best_e = f64::INFINITY;
    let mut p0 = 5;
    while p0 <= max {
        let mut p1 = 5;
        while p1 <= max {
            let mut p2 = 5;
            while p2 <= max {
                let e = energy(model, [p0, p1, p2]);
                if e < best_e {
                    best_e = e;
                    best = [p0, p1, p2];
                }
                p2 += 5;
            }
            p1 += 5;
        }
        p0 += 5;
    }
    (best, best_e)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            &paper_like_durations(8000, 3),
            [0.75, 0.90, 0.97],
            [12.0, 30.0, 60.0],
        )
    }

    #[test]
    fn annealing_beats_vanilla() {
        let m = model();
        let result = anneal_probations(&m, &AnnealConfig::default());
        assert!(
            result.expected_time < result.vanilla_time,
            "anneal {:.1}s vs vanilla {:.1}s",
            result.expected_time,
            result.vanilla_time
        );
        assert!(
            result.improvement() > 0.05,
            "improvement {}",
            result.improvement()
        );
        // The optimum uses much shorter probations than one minute, like the
        // paper's (21, 6, 16).
        assert!(
            result.probations.iter().all(|&p| p < 60),
            "{:?}",
            result.probations
        );
    }

    #[test]
    fn annealing_is_deterministic() {
        let m = model();
        let a = anneal_probations(&m, &AnnealConfig::default());
        let b = anneal_probations(&m, &AnnealConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn annealing_approaches_grid_oracle() {
        let m = model();
        let (grid_best, grid_e) = grid_search(&m, 60);
        let result = anneal_probations(&m, &AnnealConfig::default());
        assert!(
            result.expected_time <= grid_e * 1.05 + 0.5,
            "anneal {:.2} ({:?}) vs grid {:.2} ({:?})",
            result.expected_time,
            result.probations,
            grid_e,
            grid_best
        );
    }

    #[test]
    fn bounds_are_respected() {
        let m = model();
        let cfg = AnnealConfig {
            min_probation: 10,
            max_probation: 40,
            ..Default::default()
        };
        let result = anneal_probations(&m, &cfg);
        assert!(result.probations.iter().all(|&p| (10..=40).contains(&p)));
    }

    #[test]
    fn accepted_moves_are_counted() {
        let m = model();
        let result = anneal_probations(&m, &AnnealConfig::default());
        assert!(result.accepted_moves > 0);
    }
}
