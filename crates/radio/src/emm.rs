//! EPS mobility management (EMM) — the registration state machine.
//!
//! Every data-call setup rides on EMM state: the device must be attached
//! (registered) before bearers can be activated, service requests move it
//! from idle to connected, and the network can bar access under congestion.
//! Dense deployments make this machinery "highly complicated and
//! challenging" (§3.3) — which is where `EMM_ACCESS_BARRED` and
//! `INVALID_EMM_STATE` failures come from.
//!
//! The machine here is deliberately faithful in shape (attach / service
//! request / TAU / detach / barring) while abstracting the NAS message
//! encodings away.

use crate::interference::RiskFactors;
use cellrel_sim::SimRng;
use cellrel_types::{DataFailCause, Rat};

/// EMM registration states (EMM-DEREGISTERED / EMM-REGISTERED with the
/// ECM-IDLE / ECM-CONNECTED split folded in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum EmmState {
    /// Not attached to any network.
    Deregistered,
    /// Attach procedure in flight.
    Registering,
    /// Attached, no signalling connection (ECM-IDLE).
    RegisteredIdle,
    /// Attached with an active signalling connection (ECM-CONNECTED).
    Connected,
}

/// The per-device EMM state machine.
#[derive(Debug, Clone)]
pub struct EmmStateMachine {
    state: EmmState,
    /// Consecutive barring events — barring storms escalate.
    barred_streak: u32,
}

impl Default for EmmStateMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl EmmStateMachine {
    /// A fresh, deregistered machine.
    pub fn new() -> Self {
        EmmStateMachine {
            state: EmmState::Deregistered,
            barred_streak: 0,
        }
    }

    /// Current state.
    #[cfg(test)]
    pub(crate) fn state(&self) -> EmmState {
        self.state
    }

    /// Probability the network bars this access attempt, given site risk.
    fn barring_prob(&self, risk: &RiskFactors) -> f64 {
        // Base barring is rare; dense-deployment EMM pressure dominates, and
        // streaks escalate (barring timers under persistent congestion).
        let streak = 1.0 + 0.5 * self.barred_streak.min(4) as f64;
        (0.004 + 0.11 * risk.emm_pressure) * streak
    }

    /// Attempt to attach (register) to the network on `rat`.
    ///
    /// On failure, returns the `DataFailCause` the radio layer would report.
    pub fn attach(
        &mut self,
        rat: Rat,
        risk: &RiskFactors,
        rng: &mut SimRng,
    ) -> Result<(), DataFailCause> {
        if matches!(self.state, EmmState::RegisteredIdle | EmmState::Connected) {
            return Ok(()); // already attached
        }
        self.state = EmmState::Registering;

        if rng.chance(self.barring_prob(risk)) {
            self.barred_streak += 1;
            self.state = EmmState::Deregistered;
            return Err(DataFailCause::EmmAccessBarred);
        }
        self.barred_streak = 0;

        // Registration failure scales with the site's signal risk.
        let reg_fail = (0.4 * risk.signal_risk * (1.0 + risk.interference)).min(0.5);
        if rng.chance(reg_fail) {
            self.state = EmmState::Deregistered;
            return Err(match rat {
                Rat::G2 | Rat::G3 => DataFailCause::GprsRegistrationFail,
                Rat::G4 | Rat::G5 => DataFailCause::RegistrationFail,
            });
        }

        self.state = EmmState::RegisteredIdle;
        Ok(())
    }

    /// Request a signalling connection (idle → connected), the prerequisite
    /// for bearer activation.
    pub fn service_request(
        &mut self,
        risk: &RiskFactors,
        rng: &mut SimRng,
    ) -> Result<(), DataFailCause> {
        match self.state {
            EmmState::Deregistered | EmmState::Registering => {
                // Asking for service while not attached: the INVALID_EMM_STATE
                // class of failure.
                return Err(DataFailCause::InvalidEmmState);
            }
            EmmState::Connected => return Ok(()),
            EmmState::RegisteredIdle => {}
        }

        if rng.chance(self.barring_prob(risk)) {
            self.barred_streak += 1;
            return Err(DataFailCause::EmmAccessBarred);
        }
        self.barred_streak = 0;

        // Under heavy EMM pressure, the network's and device's pictures of
        // the EMM state drift (stale GUTI, missed detach), surfacing as
        // INVALID_EMM_STATE.
        if rng.chance(0.05 * risk.emm_pressure) {
            self.state = EmmState::Deregistered;
            return Err(DataFailCause::InvalidEmmState);
        }

        // Paging / service-request timeout under poor signal.
        if rng.chance((0.25 * risk.signal_risk).min(0.2)) {
            return Err(DataFailCause::EmmT3417Expired);
        }

        self.state = EmmState::Connected;
        Ok(())
    }

    /// Tracking-area update when the device moves between cells. Failure
    /// drops the device to idle and, in the worst case, deregisters it.
    pub fn tracking_area_update(
        &mut self,
        risk: &RiskFactors,
        rng: &mut SimRng,
    ) -> Result<(), DataFailCause> {
        if self.state == EmmState::Deregistered {
            return Err(DataFailCause::EmmDetached);
        }
        let fail = (0.02 + 0.12 * risk.emm_pressure + 0.2 * risk.signal_risk).min(0.45);
        if rng.chance(fail) {
            if rng.chance(0.3) {
                self.state = EmmState::Deregistered;
                return Err(DataFailCause::EmmDetached);
            }
            self.state = EmmState::RegisteredIdle;
            return Err(DataFailCause::InvalidEmmState);
        }
        Ok(())
    }

    /// Release the signalling connection (connected → idle).
    pub fn release(&mut self) {
        if self.state == EmmState::Connected {
            self.state = EmmState::RegisteredIdle;
        }
    }

    /// Detach from the network entirely.
    pub fn detach(&mut self) {
        self.state = EmmState::Deregistered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_risk() -> RiskFactors {
        RiskFactors {
            signal_risk: 0.03,
            interference: 0.0,
            overload_prob: 0.0,
            emm_pressure: 0.0,
            disrepair: false,
        }
    }

    fn hub_risk() -> RiskFactors {
        RiskFactors {
            signal_risk: 0.022,
            interference: 0.9,
            overload_prob: 0.2,
            emm_pressure: 1.0,
            disrepair: false,
        }
    }

    #[test]
    fn attach_then_service_reaches_connected() {
        let mut rng = SimRng::new(1);
        let mut emm = EmmStateMachine::new();
        let risk = quiet_risk();
        // Quiet cell: overwhelmingly succeeds; retry a few times to be safe.
        for _ in 0..10 {
            if emm.attach(Rat::G4, &risk, &mut rng).is_ok() {
                break;
            }
        }
        assert_eq!(emm.state(), EmmState::RegisteredIdle);
        for _ in 0..10 {
            if emm.service_request(&risk, &mut rng).is_ok() {
                break;
            }
        }
        assert_eq!(emm.state(), EmmState::Connected);
    }

    #[test]
    fn service_request_while_deregistered_is_invalid_emm_state() {
        let mut rng = SimRng::new(2);
        let mut emm = EmmStateMachine::new();
        let err = emm.service_request(&quiet_risk(), &mut rng).unwrap_err();
        assert_eq!(err, DataFailCause::InvalidEmmState);
    }

    #[test]
    fn hub_pressure_causes_barring() {
        let mut rng = SimRng::new(3);
        let risk = hub_risk();
        let mut barred = 0;
        let mut total = 0;
        for _ in 0..400 {
            let mut emm = EmmStateMachine::new();
            total += 1;
            if emm.attach(Rat::G4, &risk, &mut rng) == Err(DataFailCause::EmmAccessBarred) {
                barred += 1;
            }
        }
        let frac = barred as f64 / total as f64;
        assert!(
            frac > 0.05,
            "expected noticeable barring at hubs, got {frac}"
        );
    }

    #[test]
    fn quiet_cell_rarely_bars() {
        let mut rng = SimRng::new(4);
        let risk = quiet_risk();
        let barred = (0..400)
            .filter(|_| {
                let mut emm = EmmStateMachine::new();
                emm.attach(Rat::G4, &risk, &mut rng) == Err(DataFailCause::EmmAccessBarred)
            })
            .count();
        assert!(barred < 10, "quiet cell barred {barred}/400");
    }

    #[test]
    fn gprs_cause_on_legacy_rats() {
        let mut rng = SimRng::new(5);
        // Force registration failures with hostile risk.
        let risk = RiskFactors {
            signal_risk: 1.0,
            interference: 1.0,
            overload_prob: 0.0,
            emm_pressure: 0.0,
            disrepair: false,
        };
        let mut saw_gprs = false;
        for _ in 0..100 {
            let mut emm = EmmStateMachine::new();
            if let Err(c) = emm.attach(Rat::G2, &risk, &mut rng) {
                assert_ne!(c, DataFailCause::RegistrationFail);
                if c == DataFailCause::GprsRegistrationFail {
                    saw_gprs = true;
                }
            }
        }
        assert!(saw_gprs);
    }

    #[test]
    fn detach_resets_state() {
        let mut emm = EmmStateMachine::new();
        let mut rng = SimRng::new(6);
        while emm.attach(Rat::G4, &quiet_risk(), &mut rng).is_err() {}
        emm.detach();
        assert_eq!(emm.state(), EmmState::Deregistered);
    }

    #[test]
    fn tau_on_deregistered_fails() {
        let mut emm = EmmStateMachine::new();
        let mut rng = SimRng::new(7);
        assert_eq!(
            emm.tracking_area_update(&quiet_risk(), &mut rng),
            Err(DataFailCause::EmmDetached)
        );
    }

    #[test]
    fn release_returns_to_idle() {
        let mut emm = EmmStateMachine::new();
        let mut rng = SimRng::new(9);
        while emm.attach(Rat::G4, &quiet_risk(), &mut rng).is_err() {}
        while emm.service_request(&quiet_risk(), &mut rng).is_err() {}
        assert_eq!(emm.state(), EmmState::Connected);
        emm.release();
        assert_eq!(emm.state(), EmmState::RegisteredIdle);
    }
}
