//! The §4.1 guideline experiments.
//!
//! The paper closes its analysis with actionable guidance for ISPs and
//! vendors. Each guideline rests on a quantitative claim our models encode;
//! this module runs the sweeps that back them:
//!
//! * **BS deployment density** ("carefully control their BS deployment
//!   density in such areas"): sweep a site's neighbour density and watch
//!   the setup-failure probability of an *excellent-signal* cell climb —
//!   the Fig. 15 anomaly as a dose-response curve.
//! * **Cross-ISP frequency coordination** ("cross-ISP infrastructure
//!   sharing"): sweep the minimum carrier gap to the nearest other-ISP
//!   neighbour and watch adjacent-channel interference fall off.
//! * **Idle-3G offload** ("making better use of these relatively 'idle'
//!   infrastructure components"): shift a fraction of 4G demand onto the
//!   idle 3G carrier and watch total overload rejections drop until 3G
//!   saturates — an interior optimum, not a monotone win.

use cellrel_device::{BaseStation, Environment, Pos, RiskFactors};
use cellrel_sim::{auto_threads, run_sharded};
use cellrel_types::{BsId, Isp, Rat, RatSet, SignalLevel};

/// Evaluate `point` for every index in `0..n`, sharded over the auto
/// thread count. Each point is a pure function of its index, so the
/// concatenated result is identical to the sequential map.
fn sweep_points<T: Send>(n: usize, point: impl Fn(usize) -> T + Sync) -> Vec<T> {
    run_sharded(n, auto_threads(), |range| {
        range.map(&point).collect::<Vec<T>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

fn hub_site(neighbors: u32, gap_mhz: f64, load: f64) -> BaseStation {
    BaseStation {
        id: BsId::gsm_cn(0, 1, 1),
        isp: Isp::B,
        rats: RatSet::up_to(Rat::G5),
        freq_mhz: 2370.0,
        pos: Pos::new(0.0, 0.0),
        env: Environment::TransportHub,
        tx_power_dbm: 43.0,
        load,
        neighbor_count: neighbors,
        min_cross_isp_gap_mhz: gap_mhz,
        in_disrepair: false,
    }
}

/// One point of the density sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityPoint {
    /// Neighbouring sites within interference range.
    pub neighbors: u32,
    /// Setup-failure probability at level-5 signal.
    pub l5_failure_prob: f64,
    /// Setup-failure probability at level-3 signal (control).
    pub l3_failure_prob: f64,
}

/// Sweep deployment density at a transport hub (cross-ISP gap fixed close,
/// as the paper observes at hubs).
pub fn density_sweep(max_neighbors: u32, step: u32) -> Vec<DensityPoint> {
    assert!(step > 0);
    let ns: Vec<u32> = (0..=max_neighbors).step_by(step as usize).collect();
    sweep_points(ns.len(), |idx| {
        let n = ns[idx];
        let bs = hub_site(n, 5.0, 0.85);
        let l5 = RiskFactors::assess(&bs, Rat::G4, SignalLevel::L5).setup_failure_prob();
        let l3 = RiskFactors::assess(&bs, Rat::G4, SignalLevel::L3).setup_failure_prob();
        DensityPoint {
            neighbors: n,
            l5_failure_prob: l5,
            l3_failure_prob: l3,
        }
    })
}

/// One point of the frequency-coordination sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapPoint {
    /// Minimum carrier gap to the nearest other-ISP neighbour, MHz.
    pub gap_mhz: f64,
    /// Interference coupling (0..1).
    pub interference: f64,
    /// Setup-failure probability at level-5.
    pub l5_failure_prob: f64,
}

/// Sweep cross-ISP carrier separation at a dense hub.
pub fn cross_isp_gap_sweep(gaps_mhz: &[f64]) -> Vec<GapPoint> {
    sweep_points(gaps_mhz.len(), |idx| {
        let gap = gaps_mhz[idx];
        let bs = hub_site(40, gap, 0.85);
        let risk = RiskFactors::assess(&bs, Rat::G4, SignalLevel::L5);
        GapPoint {
            gap_mhz: gap,
            interference: risk.interference,
            l5_failure_prob: risk.setup_failure_prob(),
        }
    })
}

/// One point of the idle-3G offload sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadPoint {
    /// Fraction of 4G demand shifted onto the 3G carrier.
    pub offload_fraction: f64,
    /// Overload-rejection probability on the 4G carrier.
    pub g4_rejection: f64,
    /// Overload-rejection probability on the 3G carrier.
    pub g3_rejection: f64,
    /// Traffic-weighted total rejection probability.
    pub total_rejection: f64,
}

/// Shift a fraction of 4G demand to 3G on a busy urban site and compute the
/// overload-rejection landscape. Demand follows the per-RAT model of
/// `cellrel_device`'s `load` module (4G carries 1.0 relative demand, 3G 0.35).
pub fn idle_3g_offload_sweep(site_load: f64, steps: u32) -> Vec<OffloadPoint> {
    assert!(steps > 0);
    // Per-carrier rejection with explicit demand factors, mirroring
    // `BaseStation::overload_rejection_prob`.
    let rejection = |demand_factor: f64| {
        let l = (site_load * demand_factor).clamp(0.0, 1.0);
        let excess = (l - 0.7).max(0.0) / 0.3;
        (0.35 * excess * excess).min(0.35)
    };
    sweep_points(steps as usize + 1, |i| {
        let f = i as f64 / steps as f64; // offload fraction 0..1
        let d4 = 1.0 - 0.65 * f; // demand leaving 4G
        let d3 = 0.35 + 0.65 * f; // arriving at 3G
        let g4 = rejection(d4);
        let g3 = rejection(d3);
        // Weight rejections by where the traffic actually is.
        let total = (g4 * d4 + g3 * d3) / (d4 + d3);
        OffloadPoint {
            offload_fraction: f,
            g4_rejection: g4,
            g3_rejection: g3,
            total_rejection: total,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_drives_the_excellent_signal_anomaly() {
        let sweep = density_sweep(60, 10);
        assert!(sweep.len() >= 6);
        // L5 failure probability rises monotonically with density…
        for w in sweep.windows(2) {
            assert!(
                w[1].l5_failure_prob >= w[0].l5_failure_prob,
                "density sweep not monotone"
            );
        }
        // …and at high density an excellent-signal cell is worse than a
        // mid-signal cell at low density (the paper's inversion).
        let dense_l5 = sweep.last().expect("non-empty").l5_failure_prob;
        let sparse_l3 = sweep[0].l3_failure_prob;
        assert!(
            dense_l5 > sparse_l3,
            "dense L5 {dense_l5} vs sparse L3 {sparse_l3}"
        );
    }

    #[test]
    fn carrier_separation_reduces_interference() {
        let sweep = cross_isp_gap_sweep(&[0.0, 5.0, 15.0, 40.0, 100.0, 300.0]);
        for w in sweep.windows(2) {
            assert!(w[1].interference <= w[0].interference);
            assert!(w[1].l5_failure_prob <= w[0].l5_failure_prob);
        }
        // Coordinated spectrum (wide gap) roughly halves the hub's L5
        // failure probability relative to overlapping carriers.
        let first = sweep.first().expect("non-empty");
        let last = sweep.last().expect("non-empty");
        assert!(last.l5_failure_prob < first.l5_failure_prob * 0.8);
    }

    #[test]
    fn offload_has_an_interior_optimum() {
        let sweep = idle_3g_offload_sweep(0.95, 20);
        let best = sweep
            .iter()
            .min_by(|a, b| {
                a.total_rejection
                    .partial_cmp(&b.total_rejection)
                    .expect("finite")
            })
            .expect("non-empty");
        let zero = &sweep[0];
        let full = sweep.last().expect("non-empty");
        // Some offload beats none (the idle-3G guidance)…
        assert!(
            best.total_rejection < zero.total_rejection,
            "offload never helps: best {} vs none {}",
            best.total_rejection,
            zero.total_rejection
        );
        // …but dumping everything onto 3G overshoots.
        assert!(best.total_rejection < full.total_rejection);
        assert!(best.offload_fraction > 0.0 && best.offload_fraction < 1.0);
    }

    #[test]
    fn sweeps_are_deterministic_and_ordered() {
        assert_eq!(density_sweep(60, 10), density_sweep(60, 10));
        let gaps = [0.0, 5.0, 40.0];
        assert_eq!(cross_isp_gap_sweep(&gaps), cross_isp_gap_sweep(&gaps));
        assert_eq!(
            idle_3g_offload_sweep(0.9, 12),
            idle_3g_offload_sweep(0.9, 12)
        );
        // Sharded evaluation must preserve point order.
        let sweep = density_sweep(60, 10);
        let ns: Vec<u32> = sweep.iter().map(|p| p.neighbors).collect();
        assert_eq!(ns, vec![0, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn balanced_load_rejects_nothing() {
        let sweep = idle_3g_offload_sweep(0.5, 10);
        // A half-loaded site never exceeds the 0.7 utilisation knee.
        assert!(sweep.iter().all(|p| p.total_rejection == 0.0));
    }
}
