//! Interference and per-cell failure risk.
//!
//! §3.3 explains the excellent-RSS anomaly: around public transport hubs,
//! ISPs deploy densely and their frequency bands sit close together
//! (ISP-B's > ISP-C's > ISP-A's, occasionally overlapping), so devices see
//! level-5 signal *and* suffer adjacent-channel interference plus heavy
//! LTE mobility-management pressure (`EMM_ACCESS_BARRED`,
//! `INVALID_EMM_STATE`). [`RiskFactors`] distils a candidate cell into the
//! probabilities the modem and EMM layers consume.

use crate::bs::BaseStation;
use cellrel_types::{Rat, SignalLevel};

/// Failure-risk decomposition for one candidate cell at one signal level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskFactors {
    /// Baseline setup-failure risk from the signal level alone (worse signal,
    /// higher risk; strictly decreasing in level).
    pub signal_risk: f64,
    /// Interference coupling 0..1 from deployment density and cross-ISP
    /// frequency proximity.
    pub interference: f64,
    /// Probability of a *rational* overload rejection (false positive class).
    pub overload_prob: f64,
    /// Mobility-management pressure 0..1 (density-driven EMM complexity).
    pub emm_pressure: f64,
    /// Whether the site is in disrepair (extreme outage durations).
    pub disrepair: bool,
}

/// Baseline setup-failure risk per signal level — strictly decreasing from
/// level 0 to level 5. The Fig. 15 *spike* at level 5 is NOT encoded here; it
/// emerges from interference+EMM pressure at the dense sites where level-5
/// readings occur.
pub(crate) fn signal_base_risk(level: SignalLevel) -> f64 {
    const RISK: [f64; SignalLevel::COUNT] = [0.32, 0.115, 0.075, 0.048, 0.030, 0.022];
    RISK[level.index()]
}

/// Interference coupling of a site: density saturating at ~30 neighbours,
/// modulated by how close the nearest other-ISP carrier sits in frequency
/// (exponential with a 25 MHz scale).
pub(crate) fn interference_factor(bs: &BaseStation) -> f64 {
    let density = (bs.neighbor_count as f64 / 30.0).min(1.0);
    let freq = if bs.min_cross_isp_gap_mhz.is_finite() {
        (-bs.min_cross_isp_gap_mhz / 25.0).exp()
    } else {
        0.0
    };
    (density * (0.45 + 0.55 * freq)).clamp(0.0, 1.0)
}

/// Mobility-management pressure of a site: grows with deployment density
/// (more handover candidates, more tracking-area churn, more barring).
pub(crate) fn emm_pressure(bs: &BaseStation) -> f64 {
    let density = (bs.neighbor_count as f64 / 20.0).min(1.0);
    let mobility = if bs.env.is_high_mobility() { 1.0 } else { 0.45 };
    (density * mobility).clamp(0.0, 1.0)
}

impl RiskFactors {
    /// Assemble the risk factors for a device attaching to `bs` over `rat`
    /// with the observed `level`.
    pub fn assess(bs: &BaseStation, rat: Rat, level: SignalLevel) -> RiskFactors {
        RiskFactors {
            signal_risk: signal_base_risk(level),
            interference: interference_factor(bs),
            overload_prob: bs.overload_rejection_prob(rat),
            emm_pressure: emm_pressure(bs),
            disrepair: bs.in_disrepair,
        }
    }

    /// Probability that a data-call setup attempt on this cell *truly* fails
    /// (excluding rational overload rejections, which are separate).
    ///
    /// Interference and EMM pressure multiply the signal baseline — at a
    /// dense hub a level-5 cell can end up riskier than a quiet level-2 cell,
    /// which is exactly the Fig. 15 inversion.
    pub fn setup_failure_prob(&self) -> f64 {
        let amplified = self.signal_risk * (1.0 + 2.2 * self.interference);
        let emm = 0.06 * self.emm_pressure;
        let disrepair = if self.disrepair { 0.25 } else { 0.0 };
        (amplified + emm + disrepair).clamp(0.0, 0.95)
    }

    /// Multiplier on the ambient Data_Stall hazard while camped on this cell.
    pub fn stall_rate_multiplier(&self) -> f64 {
        let base = 1.0 + 1.8 * self.interference + 0.8 * self.signal_risk / 0.32;
        if self.disrepair {
            base * 3.0
        } else {
            base
        }
    }

    /// Probability that an established connection drops into Out_of_Service
    /// per camped hour.
    pub fn out_of_service_hazard(&self) -> f64 {
        let base = 0.004 + 0.02 * self.signal_risk + 0.01 * self.interference;
        if self.disrepair {
            base * 8.0
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;
    use crate::geometry::Pos;
    use cellrel_types::{BsId, Isp, RatSet};

    fn bs(env: Environment, neighbors: u32, gap: f64, load: f64) -> BaseStation {
        BaseStation {
            id: BsId::gsm_cn(0, 1, 1),
            isp: Isp::B,
            rats: RatSet::up_to(Rat::G5),
            freq_mhz: 2370.0,
            pos: Pos::new(0.0, 0.0),
            env,
            tx_power_dbm: 46.0,
            load,
            neighbor_count: neighbors,
            min_cross_isp_gap_mhz: gap,
            in_disrepair: false,
        }
    }

    #[test]
    fn base_risk_strictly_decreasing() {
        let risks: Vec<f64> = SignalLevel::ALL
            .iter()
            .map(|&l| signal_base_risk(l))
            .collect();
        assert!(risks.windows(2).all(|w| w[0] > w[1]), "{risks:?}");
    }

    #[test]
    fn isolated_bs_has_no_interference() {
        let b = bs(Environment::Rural, 0, f64::INFINITY, 0.2);
        assert_eq!(interference_factor(&b), 0.0);
        assert_eq!(emm_pressure(&b), 0.0);
    }

    #[test]
    fn hub_level5_riskier_than_quiet_level2() {
        // The Fig. 15 inversion: excellent signal at a dense hub with close
        // cross-ISP frequencies beats a mid-signal quiet suburban cell.
        let hub = bs(Environment::TransportHub, 40, 3.0, 0.9);
        let quiet = bs(Environment::Suburban, 2, 200.0, 0.4);
        let hub_risk = RiskFactors::assess(&hub, Rat::G4, SignalLevel::L5);
        let quiet_risk = RiskFactors::assess(&quiet, Rat::G4, SignalLevel::L2);
        assert!(
            hub_risk.setup_failure_prob() > quiet_risk.setup_failure_prob(),
            "hub L5 {} vs quiet L2 {}",
            hub_risk.setup_failure_prob(),
            quiet_risk.setup_failure_prob()
        );
    }

    #[test]
    fn same_site_risk_decreases_with_level() {
        let b = bs(Environment::Urban, 6, 150.0, 0.5);
        let mut last = f64::INFINITY;
        for level in SignalLevel::ALL {
            let p = RiskFactors::assess(&b, Rat::G4, level).setup_failure_prob();
            assert!(p < last, "risk must fall with level on a fixed site");
            last = p;
        }
    }

    #[test]
    fn disrepair_amplifies_everything() {
        let mut b = bs(Environment::Remote, 0, f64::INFINITY, 0.1);
        let healthy = RiskFactors::assess(&b, Rat::G4, SignalLevel::L3);
        b.in_disrepair = true;
        let broken = RiskFactors::assess(&b, Rat::G4, SignalLevel::L3);
        assert!(broken.setup_failure_prob() > healthy.setup_failure_prob());
        assert!(broken.stall_rate_multiplier() > healthy.stall_rate_multiplier());
        assert!(broken.out_of_service_hazard() > healthy.out_of_service_hazard());
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let b = bs(Environment::TransportHub, 200, 0.0, 1.0);
        let r = RiskFactors::assess(&b, Rat::G5, SignalLevel::L0);
        assert!(r.setup_failure_prob() <= 0.95);
        assert!(r.interference <= 1.0 && r.emm_pressure <= 1.0);
        assert!(r.overload_prob <= 1.0);
    }
}
