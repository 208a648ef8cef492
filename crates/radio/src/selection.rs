//! Cell views and best-cell selection.
//!
//! A scan produces one [`CellView`] per RAT the device can use — the best
//! (highest-RSS) candidate cell for that RAT. RAT *selection policy* (which
//! of these views to camp on) belongs to the telephony layer; the radio
//! layer only reports what is out there.

use crate::bs::BsIndex;
use cellrel_types::{Rat, RssDbm, SignalLevel};

/// One candidate serving cell: the best cell found for a given RAT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellView {
    /// Which base station.
    pub bs: BsIndex,
    /// The RAT this view is for.
    pub rat: Rat,
    /// Measured RSS.
    pub rss: RssDbm,
    /// Bucketed signal level.
    pub level: SignalLevel,
}

impl CellView {
    /// Build a view, bucketing the RSS.
    pub fn new(bs: BsIndex, rat: Rat, rss: RssDbm) -> CellView {
        CellView {
            bs,
            rat,
            rss,
            level: SignalLevel::from_rss(rss, rat),
        }
    }

    /// Estimated achievable downlink rate in Mbps for this view: the RAT's
    /// peak scaled by a per-level efficiency. This is the model behind the
    /// paper's §4.2 observation that a level-0 5G link almost never beats a
    /// healthy 4G link.
    #[cfg(test)]
    pub(crate) fn estimated_rate_mbps(&self) -> f64 {
        self.rat.peak_rate_mbps() * level_efficiency(self.level)
    }
}

/// Link efficiency per signal level: fraction of the RAT's peak rate a
/// device can realistically draw.
#[cfg(test)]
pub(crate) fn level_efficiency(level: SignalLevel) -> f64 {
    const EFF: [f64; SignalLevel::COUNT] = [0.004, 0.05, 0.15, 0.35, 0.62, 0.85];
    EFF[level.index()]
}

/// From a flat candidate list, keep the best (max-RSS) view per RAT,
/// returned in ascending RAT order.
pub(crate) fn best_per_rat(candidates: &[CellView]) -> Vec<CellView> {
    let mut best: [Option<CellView>; 4] = [None; 4];
    for &c in candidates {
        let slot = &mut best[c.rat.index()];
        match slot {
            Some(cur) if cur.rss.dbm() >= c.rss.dbm() => {}
            _ => *slot = Some(c),
        }
    }
    best.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(bs: u32, rat: Rat, dbm: f64) -> CellView {
        CellView::new(BsIndex(bs), rat, RssDbm(dbm))
    }

    #[test]
    fn view_buckets_level() {
        let v = view(0, Rat::G4, -90.0);
        assert_eq!(v.level, SignalLevel::L4);
    }

    #[test]
    fn best_per_rat_picks_strongest() {
        let cands = [
            view(0, Rat::G4, -100.0),
            view(1, Rat::G4, -90.0),
            view(2, Rat::G5, -120.0),
        ];
        let best = best_per_rat(&cands);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].bs, BsIndex(1));
        assert_eq!(best[0].rat, Rat::G4);
        assert_eq!(best[1].rat, Rat::G5);
    }

    #[test]
    fn best_per_rat_empty() {
        assert!(best_per_rat(&[]).is_empty());
    }

    #[test]
    fn rate_model_5g_level0_below_4g_level4() {
        // §4.2: 4G level-1..4 → 5G level-0 transitions almost always *lose*
        // data rate; the rate model must reflect that.
        let g5_l0 = view(0, Rat::G5, -130.0);
        assert_eq!(g5_l0.level, SignalLevel::L0);
        let g4_l4 = view(1, Rat::G4, -90.0);
        assert!(g5_l0.estimated_rate_mbps() < g4_l4.estimated_rate_mbps());
        // But a healthy 5G link does beat 4G.
        let g5_l4 = view(2, Rat::G5, -90.0);
        assert!(g5_l4.estimated_rate_mbps() > g4_l4.estimated_rate_mbps());
    }

    #[test]
    fn efficiency_monotone() {
        let effs: Vec<f64> = SignalLevel::ALL
            .iter()
            .map(|&l| level_efficiency(l))
            .collect();
        assert!(effs.windows(2).all(|w| w[0] < w[1]));
    }
}
