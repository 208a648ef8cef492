//! Multi-APN connection management.
//!
//! Android's `DcTracker` manages one data-connection context per enabled
//! APN — the default internet PDN plus IMS (VoLTE signalling), MMS and
//! supplementary contexts. [`ApnManager`] holds one [`DcTracker`] per
//! enabled APN with a priority order: the internet context is established
//! first (it carries the user's traffic and the study's failures), then the
//! auxiliary contexts.

use crate::dc_tracker::{DcTracker, RetryPolicy, SetupVerdict};
use cellrel_modem::Modem;
use cellrel_radio::RiskFactors;
use cellrel_sim::SimRng;
use cellrel_types::{Apn, SimTime};

/// Priority-ordered APN set for a consumer handset: internet first, then
/// IMS, then MMS.
pub const DEFAULT_APNS: [Apn; 3] = [Apn::Internet, Apn::Ims, Apn::Mms];

/// Per-APN connection management.
#[derive(Debug)]
pub struct ApnManager {
    trackers: Vec<DcTracker>,
}

impl ApnManager {
    /// Manager for the default consumer APN set.
    pub fn new() -> Self {
        Self::with_apns(&DEFAULT_APNS)
    }

    /// Manager for an explicit, priority-ordered APN list.
    pub fn with_apns(apns: &[Apn]) -> Self {
        assert!(!apns.is_empty(), "ApnManager needs at least one APN");
        ApnManager {
            trackers: apns
                .iter()
                .map(|&apn| DcTracker::new(apn, RetryPolicy::default()))
                .collect(),
        }
    }

    /// The tracker for an APN, if managed.
    pub fn tracker(&self, apn: Apn) -> Option<&DcTracker> {
        self.trackers.iter().find(|t| t.apn() == apn)
    }

    /// All managed trackers in priority order.
    pub fn trackers(&self) -> &[DcTracker] {
        &self.trackers
    }

    /// Drive one setup round: attempt every eligible (inactive, retriable)
    /// APN in priority order. Returns the per-APN verdicts of the attempts
    /// actually made this round.
    pub fn attempt_round(
        &mut self,
        modem: &mut Modem,
        risk: &RiskFactors,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<(Apn, SetupVerdict)> {
        let mut verdicts = Vec::new();
        for tracker in &mut self.trackers {
            if modem.call_for(tracker.apn()).is_some() || !tracker.can_attempt() {
                continue;
            }
            let verdict = tracker.attempt_setup(modem, risk, now, rng);
            verdicts.push((tracker.apn(), verdict));
        }
        verdicts
    }

    /// Tear everything down.
    pub fn disconnect_all(&mut self, modem: &mut Modem, now: SimTime) {
        for tracker in &mut self.trackers {
            tracker.disconnect(modem, now);
        }
        // Any bearer not owned by a tracker (shouldn't exist) goes too.
        modem.deactivate();
    }

    /// Number of APNs with an established bearer.
    pub fn active_count(&self, modem: &Modem) -> usize {
        self.trackers
            .iter()
            .filter(|t| modem.call_for(t.apn()).is_some())
            .count()
    }
}

impl Default for ApnManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_modem::FaultProfile;
    use cellrel_radio::{BsIndex, CellView};
    use cellrel_types::{DataFailCause, Rat, RssDbm};

    fn quiet_risk() -> RiskFactors {
        RiskFactors {
            signal_risk: 0.022,
            interference: 0.0,
            overload_prob: 0.0,
            emm_pressure: 0.0,
            disrepair: false,
        }
    }

    fn camped_modem() -> Modem {
        let mut m = Modem::new();
        m.camp_on(CellView::new(BsIndex(0), Rat::G4, RssDbm(-95.0)));
        m
    }

    #[test]
    fn round_establishes_all_default_apns() {
        let mut mgr = ApnManager::new();
        let mut modem = camped_modem();
        let mut rng = SimRng::new(1);
        let mut now = SimTime::ZERO;
        // A few rounds cover transient failures on a quiet cell.
        for i in 0..20 {
            mgr.attempt_round(&mut modem, &quiet_risk(), now, &mut rng);
            if mgr.active_count(&modem) == 3 {
                break;
            }
            now = SimTime::from_secs(10 * (i + 1));
        }
        assert_eq!(mgr.active_count(&modem), 3);
        assert!(modem.call_for(Apn::Internet).is_some());
        assert!(modem.call_for(Apn::Ims).is_some());
        assert!(modem.call_for(Apn::Mms).is_some());
    }

    #[test]
    fn internet_is_attempted_first() {
        let mut mgr = ApnManager::new();
        let mut modem = camped_modem();
        let mut rng = SimRng::new(2);
        let verdicts = mgr.attempt_round(&mut modem, &quiet_risk(), SimTime::ZERO, &mut rng);
        assert_eq!(verdicts.first().map(|v| v.0), Some(Apn::Internet));
    }

    #[test]
    fn established_apns_are_skipped_in_later_rounds() {
        let mut mgr = ApnManager::new();
        let mut modem = camped_modem();
        let mut rng = SimRng::new(3);
        let mut now = SimTime::ZERO;
        for i in 0..20 {
            mgr.attempt_round(&mut modem, &quiet_risk(), now, &mut rng);
            now = SimTime::from_secs(10 * (i + 1));
        }
        assert_eq!(mgr.active_count(&modem), 3);
        let verdicts = mgr.attempt_round(&mut modem, &quiet_risk(), now, &mut rng);
        assert!(verdicts.is_empty(), "no attempts once everything is up");
    }

    #[test]
    fn permanent_apn_failure_does_not_block_the_others() {
        let mut mgr = ApnManager::new();
        let mut modem = camped_modem();
        // Force every *new* setup to fail permanently, then lift the fault:
        // the first round kills internet permanently; later rounds still
        // bring up IMS and MMS.
        modem.set_fault(FaultProfile::forcing(DataFailCause::MissingUnknownApn));
        let mut rng = SimRng::new(4);
        let verdicts = mgr.attempt_round(&mut modem, &quiet_risk(), SimTime::ZERO, &mut rng);
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts
            .iter()
            .all(|(_, v)| matches!(v, SetupVerdict::GaveUp(_))));

        modem.set_fault(FaultProfile::none());
        let mut now = SimTime::from_secs(10);
        for i in 0..20 {
            mgr.attempt_round(&mut modem, &quiet_risk(), now, &mut rng);
            now = SimTime::from_secs(10 * (i + 2));
        }
        // Trackers recover (Inactive is re-attemptable) and all come up.
        assert_eq!(mgr.active_count(&modem), 3);
    }

    #[test]
    fn disconnect_all_clears_everything() {
        let mut mgr = ApnManager::new();
        let mut modem = camped_modem();
        let mut rng = SimRng::new(5);
        let mut now = SimTime::ZERO;
        for i in 0..20 {
            mgr.attempt_round(&mut modem, &quiet_risk(), now, &mut rng);
            now = SimTime::from_secs(10 * (i + 1));
        }
        mgr.disconnect_all(&mut modem, now);
        assert_eq!(mgr.active_count(&modem), 0);
        assert!(modem.calls().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one APN")]
    fn empty_apn_list_rejected() {
        ApnManager::with_apns(&[]);
    }
}
