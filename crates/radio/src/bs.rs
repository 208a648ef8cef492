//! The base-station record.

use crate::environment::Environment;
use crate::geometry::Pos;
use cellrel_types::{BsId, Isp, Rat, RatSet};

/// Dense index of a base station inside a [`crate::RadioEnvironment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BsIndex(pub u32);

/// One base station of the synthetic deployment.
#[derive(Debug, Clone)]
pub struct BaseStation {
    /// Protocol-level identity (what devices record in traces).
    pub id: BsId,
    /// Owning ISP.
    pub isp: Isp,
    /// RAT generations this site radiates. Multi-RAT sites are common
    /// (the paper's support shares sum to >100 %).
    pub rats: RatSet,
    /// Carrier frequency in MHz (per-ISP band with per-site offset).
    pub freq_mhz: f64,
    /// Site position, km.
    pub pos: Pos,
    /// Deployment environment class.
    pub env: Environment,
    /// Effective isotropic transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Current utilisation 0..1 (ambient load; drives overload rejections).
    pub load: f64,
    /// Number of other BSes within interference range — populated by the
    /// deployment generator; the Fig. 15 anomaly scales with this.
    pub neighbor_count: u32,
    /// Smallest carrier-frequency gap (MHz) to any different-ISP neighbour;
    /// `f64::INFINITY` when isolated. Small gaps ⇒ adjacent-channel
    /// interference (§3.3).
    pub min_cross_isp_gap_mhz: f64,
    /// True for the "long neglected and in disrepair" sites that produce
    /// extreme-duration outages (§3.1).
    pub in_disrepair: bool,
}

impl BaseStation {
    /// Effective utilisation as seen by a device attaching over `rat`,
    /// applying the per-RAT demand model (the idle-3G effect).
    pub(crate) fn load_for(&self, rat: Rat) -> f64 {
        (self.load * crate::load::rat_demand_factor(rat)).clamp(0.0, 1.0)
    }

    /// Probability the BS rejects a setup right now purely because it is
    /// overloaded (a *rational* rejection → false positive in the study).
    pub(crate) fn overload_rejection_prob(&self, rat: Rat) -> f64 {
        let l = self.load_for(rat);
        // Rejections only materialise once utilisation is high; quadratic
        // onset above 70 %.
        let excess = (l - 0.7).max(0.0) / 0.3;
        (0.35 * excess * excess).min(0.35)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bs(load: f64) -> BaseStation {
        BaseStation {
            id: BsId::gsm_cn(0, 1, 1),
            isp: Isp::A,
            rats: RatSet::up_to(Rat::G4),
            freq_mhz: 1880.0,
            pos: Pos::new(0.0, 0.0),
            env: Environment::Urban,
            tx_power_dbm: 46.0,
            load,
            neighbor_count: 3,
            min_cross_isp_gap_mhz: 100.0,
            in_disrepair: false,
        }
    }

    #[test]
    fn idle_bs_never_rejects() {
        let bs = sample_bs(0.2);
        for rat in Rat::ALL {
            assert_eq!(bs.overload_rejection_prob(rat), 0.0);
        }
    }

    #[test]
    fn overloaded_bs_rejects_sometimes() {
        let bs = sample_bs(1.0);
        assert!(bs.overload_rejection_prob(Rat::G4) > 0.2);
        assert!(bs.overload_rejection_prob(Rat::G4) <= 0.35);
    }

    #[test]
    fn three_g_sees_less_load() {
        let bs = sample_bs(0.9);
        assert!(bs.load_for(Rat::G3) < bs.load_for(Rat::G4));
        assert!(bs.load_for(Rat::G3) < bs.load_for(Rat::G2));
    }
}
