//! RAT selection policies.
//!
//! This is where the paper's headline software defect lives and where its
//! first deployed fix goes:
//!
//! * `VanillaAndroid9` — no 5G support; prefers the highest available
//!   legacy generation.
//! * `VanillaAndroid10` — "5G is blindly preferred to the other RATs"
//!   (§3.2): a level-0 5G cell beats a level-4 4G cell. This is the defect
//!   that inflates failures on 5G phones.
//! * `StabilityCompatible` — the paper's §4.2 fix: avoid transitions whose
//!   target signal level is 0 when any usable alternative exists (the four
//!   disastrous 4G→5G cases of Fig. 17f, generalised to all RATs per the
//!   "failures tend to occur when there is level-0 RSS after transition"
//!   pattern), with mild stickiness to the serving RAT to avoid churn.
//! * `DualConnectivity` — 3GPP TS 37.340 4G/5G dual connectivity: keeps a
//!   master + slave control-plane pair so transitions between 4G and 5G are
//!   faster and less disruptive; a wrapper over any inner policy.

use crate::selection::CellView;
use cellrel_types::{Rat, SignalLevel};
use std::fmt;

/// A RAT selection policy: given the scan's best-cell-per-RAT views and the
/// currently serving RAT, pick the cell to camp on.
pub(crate) trait RatSelectionPolicy {
    /// Human-readable policy name.
    #[cfg(test)]
    fn name(&self) -> &'static str;

    /// Choose a view. `None` means no usable candidate.
    fn select<'a>(&self, views: &'a [CellView], current: Option<Rat>) -> Option<&'a CellView>;

    /// Whether the policy maintains 4G/5G dual connectivity (shortens
    /// transition disruption).
    fn dual_connectivity(&self) -> bool {
        false
    }
}

/// Identifies a policy in configs and result tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RatPolicyKind {
    /// Android 9 baseline.
    Android9,
    /// Android 10 with blind 5G preference.
    Android10,
    /// Android 11 — §6: examined by the authors after the study window;
    /// "the majority of cellular reliability problems we have revealed …
    /// remain in Android 11, especially the aggressive RAT transition
    /// policy and the lagging Data_Stall recovery mechanism".
    Android11,
    /// The paper's stability-compatible policy (with dual connectivity).
    StabilityCompatible,
    /// Ablation: the stability-compatible policy *without* 4G/5G dual
    /// connectivity (transitions pay the full disruption cost).
    StabilityNoDualConnectivity,
    /// Ablation: stability-compatible with a custom minimum-usable level
    /// threshold (the paper's rule is "avoid level-0 targets" = L1).
    StabilityThreshold(SignalLevel),
}

impl RatPolicyKind {
    /// Instantiate the policy.
    pub(crate) fn build(self) -> Box<dyn RatSelectionPolicy> {
        match self {
            RatPolicyKind::Android9 => Box::new(VanillaAndroid9),
            RatPolicyKind::Android10 => Box::new(VanillaAndroid10),
            RatPolicyKind::Android11 => Box::new(VanillaAndroid11),
            RatPolicyKind::StabilityCompatible => {
                Box::new(DualConnectivity::new(StabilityCompatible::default()))
            }
            RatPolicyKind::StabilityNoDualConnectivity => Box::new(StabilityCompatible::default()),
            RatPolicyKind::StabilityThreshold(level) => {
                Box::new(DualConnectivity::new(StabilityCompatible {
                    min_upgrade_level: level,
                }))
            }
        }
    }
}

impl fmt::Display for RatPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RatPolicyKind::Android9 => "vanilla-android-9",
            RatPolicyKind::Android10 => "vanilla-android-10",
            RatPolicyKind::Android11 => "vanilla-android-11",
            RatPolicyKind::StabilityCompatible => "stability-compatible",
            RatPolicyKind::StabilityNoDualConnectivity => "stability-no-dc",
            RatPolicyKind::StabilityThreshold(_) => "stability-threshold",
        })
    }
}

/// Android 9: no 5G stack; prefer the highest of 4G/3G/2G that is present
/// at all (vanilla Android pays no attention to the signal level here).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VanillaAndroid9;

impl RatSelectionPolicy for VanillaAndroid9 {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "vanilla-android-9"
    }

    fn select<'a>(&self, views: &'a [CellView], _current: Option<Rat>) -> Option<&'a CellView> {
        views
            .iter()
            .filter(|v| v.rat != Rat::G5)
            .max_by_key(|v| v.rat)
    }
}

/// Android 10: blind 5G preference — any detectable 5G cell wins over
/// everything, regardless of signal level (§3.2).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VanillaAndroid10;

impl RatSelectionPolicy for VanillaAndroid10 {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "vanilla-android-10"
    }

    fn select<'a>(&self, views: &'a [CellView], _current: Option<Rat>) -> Option<&'a CellView> {
        views.iter().max_by_key(|v| v.rat)
    }
}

/// Android 11 (§6): the blind 5G preference survives, with one cosmetic
/// refinement — among equal-generation candidates it at least picks the
/// stronger cell. The defining defect (a level-0 5G cell beating a healthy
/// 4G cell) is unchanged, which is the paper's point.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VanillaAndroid11;

impl RatSelectionPolicy for VanillaAndroid11 {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "vanilla-android-11"
    }

    fn select<'a>(&self, views: &'a [CellView], _current: Option<Rat>) -> Option<&'a CellView> {
        views
            .iter()
            .max_by(|a, b| (a.rat, a.level).cmp(&(b.rat, b.level)))
    }
}

/// The stability-compatible policy of §4.2.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StabilityCompatible {
    /// Minimum target level for an *upgrade* transition to be taken when a
    /// usable alternative exists. The paper's rule is "avoid level-0
    /// targets"; expressed as a threshold to let ablations sweep it.
    pub min_upgrade_level: SignalLevel,
}

impl Default for StabilityCompatible {
    fn default() -> Self {
        StabilityCompatible {
            min_upgrade_level: SignalLevel::L1,
        }
    }
}

impl RatSelectionPolicy for StabilityCompatible {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        "stability-compatible"
    }

    fn select<'a>(&self, views: &'a [CellView], current: Option<Rat>) -> Option<&'a CellView> {
        if views.is_empty() {
            return None;
        }
        // Usable candidates: signal level at or above the threshold.
        let usable: Vec<&CellView> = views
            .iter()
            .filter(|v| v.level >= self.min_upgrade_level)
            .collect();

        if usable.is_empty() {
            // Nothing usable anywhere: fall back to the strongest *level*
            // (not the highest generation) — a weak 4G beats a dead 5G.
            return views
                .iter()
                .max_by(|a, b| (a.level, a.rat).cmp(&(b.level, b.rat)));
        }

        // Among usable candidates prefer the highest generation, then level.
        let best = usable
            .iter()
            .copied()
            .max_by_key(|v| (v.rat, v.level))
            .expect("usable is non-empty");

        // Hysteresis: a transition away from a still-usable serving RAT is
        // only taken for a *comfortable* upgrade (generation up AND at
        // least moderate signal). This is the dual-connectivity-era
        // smoothness requirement of §4.2 — without it the policy churns at
        // the coverage edge, which is its own failure source.
        if let Some(cur_rat) = current {
            if best.rat != cur_rat {
                if let Some(cur_view) = usable.iter().copied().find(|v| v.rat == cur_rat) {
                    let comfortable_upgrade = best.rat > cur_rat && best.level >= SignalLevel::L2;
                    if !comfortable_upgrade {
                        return Some(cur_view);
                    }
                }
            }
        }
        Some(best)
    }

    fn dual_connectivity(&self) -> bool {
        false
    }
}

/// 4G/5G dual-connectivity wrapper (3GPP TS 37.340): selection is delegated
/// to the inner policy, but the device keeps a standby control-plane link on
/// the other of {4G, 5G}, making transitions between them cheaper. The
/// device agent queries [`RatSelectionPolicy::dual_connectivity`] to decide
/// whether transitions pay the full disruption cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DualConnectivity<P> {
    inner: P,
}

impl<P: RatSelectionPolicy> DualConnectivity<P> {
    /// Wrap a policy with dual connectivity.
    pub(crate) fn new(inner: P) -> Self {
        DualConnectivity { inner }
    }

    /// Given the selection, the standby RAT to hold (the other of 4G/5G),
    /// if the views offer it.
    #[cfg(test)]
    pub(crate) fn standby_rat(selected: Rat, views: &[CellView]) -> Option<Rat> {
        let other = match selected {
            Rat::G4 => Rat::G5,
            Rat::G5 => Rat::G4,
            _ => return None,
        };
        views.iter().find(|v| v.rat == other).map(|v| v.rat)
    }
}

impl<P: RatSelectionPolicy> RatSelectionPolicy for DualConnectivity<P> {
    #[cfg(test)]
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select<'a>(&self, views: &'a [CellView], current: Option<Rat>) -> Option<&'a CellView> {
        self.inner.select(views, current)
    }

    fn dual_connectivity(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bs::BsIndex;

    fn view(bs: u32, rat: Rat, level: SignalLevel) -> CellView {
        CellView::new(BsIndex(bs), rat, level.representative_rss(rat))
    }

    #[test]
    fn android9_ignores_5g() {
        let views = [
            view(0, Rat::G4, SignalLevel::L2),
            view(1, Rat::G5, SignalLevel::L5),
        ];
        let sel = VanillaAndroid9.select(&views, None).expect("candidate");
        assert_eq!(sel.rat, Rat::G4);
    }

    #[test]
    fn android9_prefers_highest_legacy_generation() {
        let views = [
            view(0, Rat::G2, SignalLevel::L5),
            view(1, Rat::G3, SignalLevel::L4),
            view(2, Rat::G4, SignalLevel::L1),
        ];
        let sel = VanillaAndroid9.select(&views, None).expect("candidate");
        assert_eq!(sel.rat, Rat::G4, "generation beats level in vanilla");
    }

    #[test]
    fn android10_blindly_prefers_5g() {
        // The defect: level-0 5G over level-4 4G.
        let views = [
            view(0, Rat::G4, SignalLevel::L4),
            view(1, Rat::G5, SignalLevel::L0),
        ];
        let sel = VanillaAndroid10.select(&views, None).expect("candidate");
        assert_eq!(sel.rat, Rat::G5);
        assert_eq!(sel.level, SignalLevel::L0);
    }

    #[test]
    fn stability_avoids_level0_5g_when_4g_usable() {
        // The four Fig. 17f cases: 4G level 1..=4 → 5G level 0 are avoided.
        for l in [
            SignalLevel::L1,
            SignalLevel::L2,
            SignalLevel::L3,
            SignalLevel::L4,
        ] {
            let views = [view(0, Rat::G4, l), view(1, Rat::G5, SignalLevel::L0)];
            let sel = StabilityCompatible::default()
                .select(&views, Some(Rat::G4))
                .expect("candidate");
            assert_eq!(sel.rat, Rat::G4, "4G {l} must beat 5G level-0");
        }
    }

    #[test]
    fn stability_still_takes_healthy_5g() {
        let views = [
            view(0, Rat::G4, SignalLevel::L4),
            view(1, Rat::G5, SignalLevel::L3),
        ];
        let sel = StabilityCompatible::default()
            .select(&views, Some(Rat::G4))
            .expect("candidate");
        assert_eq!(
            sel.rat,
            Rat::G5,
            "usable 5G is preferred — no rate sacrifice"
        );
    }

    #[test]
    fn stability_falls_back_to_strongest_when_all_level0() {
        let views = [
            view(0, Rat::G4, SignalLevel::L0),
            view(1, Rat::G5, SignalLevel::L0),
        ];
        let sel = StabilityCompatible::default()
            .select(&views, None)
            .expect("candidate");
        // Both level 0: tie broken by generation.
        assert_eq!(sel.rat, Rat::G5);
    }

    #[test]
    fn stability_generalises_to_legacy_transitions() {
        // 3G level-3 must beat 4G level-0 (Fig. 17d's dark column).
        let views = [
            view(0, Rat::G3, SignalLevel::L3),
            view(1, Rat::G4, SignalLevel::L0),
        ];
        let sel = StabilityCompatible::default()
            .select(&views, Some(Rat::G3))
            .expect("candidate");
        assert_eq!(sel.rat, Rat::G3);
    }

    #[test]
    fn empty_views_select_none() {
        assert!(VanillaAndroid9.select(&[], None).is_none());
        assert!(VanillaAndroid10.select(&[], None).is_none());
        assert!(StabilityCompatible::default().select(&[], None).is_none());
    }

    #[test]
    fn dual_connectivity_wrapper_delegates() {
        let dc = DualConnectivity::new(StabilityCompatible::default());
        assert!(dc.dual_connectivity());
        assert_eq!(dc.name(), "stability-compatible");
        let views = [
            view(0, Rat::G4, SignalLevel::L4),
            view(1, Rat::G5, SignalLevel::L3),
        ];
        let sel = dc.select(&views, None).expect("candidate");
        assert_eq!(sel.rat, Rat::G5);
        assert_eq!(
            DualConnectivity::<StabilityCompatible>::standby_rat(sel.rat, &views),
            Some(Rat::G4)
        );
    }

    #[test]
    fn standby_rat_only_for_4g_5g() {
        let views = [
            view(0, Rat::G3, SignalLevel::L4),
            view(1, Rat::G4, SignalLevel::L3),
        ];
        assert_eq!(
            DualConnectivity::<VanillaAndroid10>::standby_rat(Rat::G3, &views),
            None
        );
    }

    #[test]
    fn policy_kind_builds() {
        for kind in [
            RatPolicyKind::Android9,
            RatPolicyKind::Android10,
            RatPolicyKind::Android11,
            RatPolicyKind::StabilityCompatible,
        ] {
            let p = kind.build();
            assert!(!p.name().is_empty());
        }
        assert!(RatPolicyKind::StabilityCompatible
            .build()
            .dual_connectivity());
        assert!(!RatPolicyKind::Android10.build().dual_connectivity());
    }

    #[test]
    fn android11_keeps_the_blind_5g_defect() {
        // §6: the aggressive RAT transition policy remains in Android 11.
        let views = [
            view(0, Rat::G4, SignalLevel::L4),
            view(1, Rat::G5, SignalLevel::L0),
        ];
        let sel = VanillaAndroid11
            .select(&views, Some(Rat::G4))
            .expect("candidate");
        assert_eq!(sel.rat, Rat::G5);
        assert_eq!(sel.level, SignalLevel::L0);
    }

    #[test]
    fn android11_refines_equal_generation_ties() {
        // Unlike Android 10's arbitrary pick, 11 takes the stronger cell
        // when generations tie.
        let views = [
            view(0, Rat::G5, SignalLevel::L1),
            view(1, Rat::G5, SignalLevel::L4),
        ];
        let sel = VanillaAndroid11.select(&views, None).expect("candidate");
        assert_eq!(sel.level, SignalLevel::L4);
    }
}
