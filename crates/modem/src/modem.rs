//! The [`Modem`] device: the stateful boundary Android's telephony stack
//! programs against.

use crate::fault::FaultProfile;
use crate::setup::{run_setup, setup_fail_counter};
use crate::sim_card::SimCardState;
use cellrel_radio::{CellView, EmmStateMachine, RiskFactors};
use cellrel_sim::{SimRng, Telemetry};
use cellrel_types::{Apn, DataFailCause, Rat, SimTime};

/// An established data call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCall {
    /// APN the call serves.
    pub apn: Apn,
    /// The serving cell at establishment.
    pub cell: CellView,
    /// When the call came up.
    pub established_at: SimTime,
}

impl DataCall {
    /// The call's RAT.
    pub fn rat(&self) -> Rat {
        self.cell.rat
    }
}

/// Maximum simultaneous PDP contexts the modem supports (typical baseband
/// limit; exceeding it yields `MAX_PDP_EXCEEDED`).
pub const MAX_PDP_CONTEXTS: usize = 3;

/// The modem: power, SIM, EMM registration, serving cell and the active
/// data calls (one per APN, up to [`MAX_PDP_CONTEXTS`]). The default
/// internet bearer is the study's main concern; IMS/MMS contexts ride
/// alongside as Android's `DcTracker` manages them.
#[derive(Debug, Clone)]
pub struct Modem {
    powered: bool,
    sim: SimCardState,
    emm: EmmStateMachine,
    serving: Option<CellView>,
    calls: Vec<DataCall>,
    /// Dual-connectivity standby: a secondary cell whose control plane is
    /// pre-established (3GPP TS 37.340). Handing over to it is cheap.
    standby: Option<CellView>,
    fault: FaultProfile,
    restart_count: u32,
    tele: Telemetry,
}

impl Default for Modem {
    fn default() -> Self {
        Self::new()
    }
}

impl Modem {
    /// A powered-on modem with a ready SIM and no serving cell.
    pub fn new() -> Self {
        Modem {
            powered: true,
            sim: SimCardState::Ready,
            emm: EmmStateMachine::new(),
            serving: None,
            calls: Vec::new(),
            standby: None,
            fault: FaultProfile::none(),
            restart_count: 0,
            tele: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle (disabled by default; every recording call
    /// is then a no-op branch).
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Replace the fault-injection profile.
    pub fn set_fault(&mut self, fault: FaultProfile) {
        self.fault = fault;
    }

    /// Change the SIM state (drops any call if the SIM becomes unusable).
    pub fn set_sim(&mut self, sim: SimCardState) {
        self.sim = sim;
        if !sim.usable() {
            self.calls.clear();
            self.emm.detach();
        }
    }

    /// Whether the radio is powered.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Power the radio on/off. Powering off tears down everything.
    pub fn set_power(&mut self, on: bool) {
        self.powered = on;
        if !on {
            self.calls.clear();
            self.serving = None;
            self.standby = None;
            self.emm.detach();
        }
    }

    /// Restart the radio component (recovery stage 3): power-cycle without
    /// losing the SIM. Counts restarts for overhead accounting.
    pub fn restart(&mut self) {
        self.set_power(false);
        self.set_power(true);
        self.restart_count += 1;
        self.tele.inc("modem.restart");
    }

    /// How many times the radio was restarted.
    pub fn restart_count(&self) -> u32 {
        self.restart_count
    }

    /// The serving cell, if camped.
    pub fn serving(&self) -> Option<&CellView> {
        self.serving.as_ref()
    }

    /// The default-internet data call, if any (the study's main bearer).
    pub fn call(&self) -> Option<&DataCall> {
        self.call_for(Apn::Internet)
    }

    /// The data call serving a specific APN, if any.
    pub fn call_for(&self, apn: Apn) -> Option<&DataCall> {
        self.calls.iter().find(|c| c.apn == apn)
    }

    /// All active data calls.
    pub fn calls(&self) -> &[DataCall] {
        &self.calls
    }

    /// Access the EMM machine (tests, diagnosis).
    pub fn emm(&self) -> &EmmStateMachine {
        &self.emm
    }

    /// Pre-establish a dual-connectivity standby on `cell` (only meaningful
    /// for 4G/5G secondary cell groups; other RATs are ignored).
    pub fn prepare_standby(&mut self, cell: CellView) {
        if matches!(cell.rat, Rat::G4 | Rat::G5) {
            self.standby = Some(cell);
        }
    }

    /// Drop the standby control plane.
    pub fn clear_standby(&mut self) {
        self.standby = None;
    }

    /// The current standby cell, if any.
    pub fn standby(&self) -> Option<&CellView> {
        self.standby.as_ref()
    }

    /// Camp on a cell (idle reselection). Dropping to a different cell while
    /// a call is active is a handover and must go through [`Modem::handover`].
    pub fn camp_on(&mut self, cell: CellView) {
        debug_assert!(
            self.calls.is_empty(),
            "camp_on with an active call — use handover()"
        );
        self.serving = Some(cell);
    }

    /// Attempt to bring up a data call on the serving cell.
    pub fn setup_data_call(
        &mut self,
        apn: Apn,
        risk: &RiskFactors,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<DataCall, DataFailCause> {
        self.tele.inc("modem.setup.attempt");
        match self.try_setup_data_call(apn, risk, now, rng) {
            Ok(call) => {
                self.tele.inc("modem.setup.ok");
                Ok(call)
            }
            Err(cause) => {
                self.tele.inc(setup_fail_counter(cause));
                Err(cause)
            }
        }
    }

    fn try_setup_data_call(
        &mut self,
        apn: Apn,
        risk: &RiskFactors,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<DataCall, DataFailCause> {
        let cell = self.serving.ok_or(DataFailCause::NoService)?;
        if let Some(existing) = self.call_for(apn) {
            // Android tears down before re-setup; treat as idempotent.
            return Ok(*existing);
        }
        if self.calls.len() >= MAX_PDP_CONTEXTS {
            return Err(DataFailCause::MaxPdpExceeded);
        }
        run_setup(
            cell.rat,
            cell.level,
            risk,
            &mut self.emm,
            self.sim,
            self.powered,
            &self.fault,
            rng,
        )?;
        let call = DataCall {
            apn,
            cell,
            established_at: now,
        };
        self.calls.push(call);
        Ok(call)
    }

    /// Tear *all* data calls down (clean-up, user action, or recovery
    /// stage 1). Returns whether any call existed.
    pub fn deactivate(&mut self) -> bool {
        let had = !self.calls.is_empty();
        self.calls.clear();
        if had {
            self.emm.release();
        }
        had
    }

    /// Detach and re-register (recovery stage 2).
    pub fn reregister(
        &mut self,
        risk: &RiskFactors,
        rng: &mut SimRng,
    ) -> Result<(), DataFailCause> {
        self.calls.clear();
        self.emm.detach();
        let rat = self
            .serving
            .map(|c| c.rat)
            .ok_or(DataFailCause::NoService)?;
        self.emm.attach(rat, risk, rng)
    }

    /// Run a tracking-area update against the serving cell (mobility).
    /// On failure the active call is torn down (the EMM state is stale).
    pub fn tracking_area_update(
        &mut self,
        risk: &RiskFactors,
        rng: &mut SimRng,
    ) -> Result<(), DataFailCause> {
        match self.emm.tracking_area_update(risk, rng) {
            Ok(()) => Ok(()),
            Err(cause) => {
                self.calls.clear();
                Err(cause)
            }
        }
    }

    /// Hand the active call over to a new cell. Inter-RAT handovers carry
    /// the `IRAT_HANDOVER_FAILED` hazard (Table 2 rank 10); a failed
    /// handover drops the call.
    pub fn handover(
        &mut self,
        to: CellView,
        to_risk: &RiskFactors,
        rng: &mut SimRng,
    ) -> Result<(), DataFailCause> {
        let call = *self.calls.first().ok_or(DataFailCause::LostConnection)?;
        let inter_rat = call.rat() != to.rat;
        // A pre-established standby control plane (dual connectivity) makes
        // the transfer a reconfiguration instead of a fresh attach.
        let prepared = self
            .standby
            .is_some_and(|s| s.bs == to.bs && s.rat == to.rat);

        // Base handover failure risk scales with target-cell risk; inter-RAT
        // transfers are substantially more fragile.
        let mut p_fail = 0.3 * to_risk.signal_risk * (1.0 + to_risk.interference);
        if inter_rat {
            p_fail += 0.05 + 0.25 * to_risk.signal_risk;
        }
        if prepared {
            p_fail *= 0.35;
        }
        if rng.chance(p_fail.min(0.8)) {
            self.tele.inc("modem.handover.fail");
            self.calls.clear();
            self.serving = Some(to);
            let cause = if inter_rat {
                DataFailCause::IratHandoverFailed
            } else if rng.chance(0.3) {
                DataFailCause::HandoffPreferenceChanged
            } else {
                DataFailCause::LostConnection
            };
            return Err(cause);
        }

        self.tele.inc("modem.handover.ok");
        self.serving = Some(to);
        // Every surviving bearer rides the new cell.
        for c in &mut self.calls {
            c.cell = to;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_radio::BsIndex;
    use cellrel_types::RssDbm;

    fn cell(rat: Rat, dbm: f64) -> CellView {
        CellView::new(BsIndex(0), rat, RssDbm(dbm))
    }

    fn quiet_risk() -> RiskFactors {
        RiskFactors {
            signal_risk: 0.022,
            interference: 0.0,
            overload_prob: 0.0,
            emm_pressure: 0.0,
            disrepair: false,
        }
    }

    fn bring_up(m: &mut Modem, rng: &mut SimRng) -> DataCall {
        let risk = quiet_risk();
        loop {
            match m.setup_data_call(Apn::Internet, &risk, SimTime::ZERO, rng) {
                Ok(c) => return c,
                Err(_) => continue,
            }
        }
    }

    #[test]
    fn setup_without_cell_is_no_service() {
        let mut m = Modem::new();
        let mut rng = SimRng::new(1);
        let err = m
            .setup_data_call(Apn::Internet, &quiet_risk(), SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert_eq!(err, DataFailCause::NoService);
    }

    #[test]
    fn setup_and_teardown() {
        let mut m = Modem::new();
        let mut rng = SimRng::new(2);
        m.camp_on(cell(Rat::G4, -95.0));
        let call = bring_up(&mut m, &mut rng);
        assert_eq!(call.apn, Apn::Internet);
        assert_eq!(call.rat(), Rat::G4);
        assert!(m.call().is_some());
        assert!(m.deactivate());
        assert!(m.call().is_none());
        assert!(!m.deactivate(), "second deactivate is a no-op");
    }

    #[test]
    fn power_off_kills_call() {
        let mut m = Modem::new();
        let mut rng = SimRng::new(3);
        m.camp_on(cell(Rat::G4, -95.0));
        bring_up(&mut m, &mut rng);
        m.set_power(false);
        assert!(m.call().is_none());
        assert!(m.serving().is_none());
        let err = m
            .setup_data_call(Apn::Internet, &quiet_risk(), SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert_eq!(err, DataFailCause::NoService); // not camped after power-off
    }

    #[test]
    fn restart_counts_and_recovers() {
        let mut m = Modem::new();
        m.restart();
        m.restart();
        assert_eq!(m.restart_count(), 2);
        assert!(m.powered());
    }

    #[test]
    fn sim_removal_drops_call() {
        let mut m = Modem::new();
        let mut rng = SimRng::new(4);
        m.camp_on(cell(Rat::G4, -95.0));
        bring_up(&mut m, &mut rng);
        m.set_sim(SimCardState::Absent);
        assert!(m.call().is_none());
        m.camp_on(cell(Rat::G4, -95.0));
        let err = m
            .setup_data_call(Apn::Internet, &quiet_risk(), SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert_eq!(err, DataFailCause::SimCardChanged);
    }

    #[test]
    fn intra_rat_handover_usually_succeeds() {
        let mut rng = SimRng::new(5);
        let risk = quiet_risk();
        let mut ok = 0;
        for _ in 0..500 {
            let mut m = Modem::new();
            m.camp_on(cell(Rat::G4, -95.0));
            bring_up(&mut m, &mut rng);
            if m.handover(cell(Rat::G4, -100.0), &risk, &mut rng).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 480, "intra-RAT handover ok {ok}/500");
    }

    #[test]
    fn inter_rat_handover_to_weak_cell_often_fails_with_irat_cause() {
        let mut rng = SimRng::new(6);
        let weak_risk = RiskFactors {
            signal_risk: 0.32,
            interference: 0.5,
            overload_prob: 0.0,
            emm_pressure: 0.3,
            disrepair: false,
        };
        let mut irat_fails = 0;
        for _ in 0..500 {
            let mut m = Modem::new();
            m.camp_on(cell(Rat::G4, -95.0));
            bring_up(&mut m, &mut rng);
            if m.handover(cell(Rat::G5, -126.0), &weak_risk, &mut rng)
                == Err(DataFailCause::IratHandoverFailed)
            {
                irat_fails += 1;
                assert!(m.call().is_none(), "failed handover must drop the call");
            }
        }
        assert!(irat_fails > 30, "IRAT failures {irat_fails}/500");
    }

    #[test]
    fn prepared_standby_makes_inter_rat_handover_safer() {
        let mut rng = SimRng::new(60);
        let weak_risk = RiskFactors {
            signal_risk: 0.32,
            interference: 0.5,
            overload_prob: 0.0,
            emm_pressure: 0.3,
            disrepair: false,
        };
        let target = cell(Rat::G5, -120.0);
        let run = |prepare: bool, rng: &mut SimRng| {
            let mut fails = 0;
            for _ in 0..600 {
                let mut m = Modem::new();
                m.camp_on(cell(Rat::G4, -95.0));
                bring_up(&mut m, rng);
                if prepare {
                    m.prepare_standby(target);
                }
                if m.handover(target, &weak_risk, rng).is_err() {
                    fails += 1;
                }
            }
            fails
        };
        let unprepared = run(false, &mut rng);
        let prepared = run(true, &mut rng);
        assert!(
            prepared * 2 < unprepared,
            "prepared {prepared} vs unprepared {unprepared} failures"
        );
    }

    #[test]
    fn standby_only_accepts_4g_5g() {
        let mut m = Modem::new();
        m.prepare_standby(cell(Rat::G3, -90.0));
        assert!(m.standby().is_none());
        m.prepare_standby(cell(Rat::G5, -100.0));
        assert!(m.standby().is_some());
        m.clear_standby();
        assert!(m.standby().is_none());
    }

    #[test]
    fn handover_without_call_errors() {
        let mut m = Modem::new();
        let mut rng = SimRng::new(7);
        assert_eq!(
            m.handover(cell(Rat::G4, -90.0), &quiet_risk(), &mut rng),
            Err(DataFailCause::LostConnection)
        );
    }

    #[test]
    fn reregister_requires_serving_cell() {
        let mut m = Modem::new();
        let mut rng = SimRng::new(8);
        assert_eq!(
            m.reregister(&quiet_risk(), &mut rng),
            Err(DataFailCause::NoService)
        );
        m.camp_on(cell(Rat::G4, -95.0));
        // Retry until attach succeeds on the quiet cell.
        let mut ok = false;
        for _ in 0..20 {
            if m.reregister(&quiet_risk(), &mut rng).is_ok() {
                ok = true;
                break;
            }
        }
        assert!(ok);
    }

    #[test]
    fn setup_is_idempotent_with_active_call() {
        let mut m = Modem::new();
        let mut rng = SimRng::new(9);
        m.camp_on(cell(Rat::G4, -95.0));
        let first = bring_up(&mut m, &mut rng);
        let second = m
            .setup_data_call(
                Apn::Internet,
                &quiet_risk(),
                SimTime::from_secs(5),
                &mut rng,
            )
            .expect("idempotent setup");
        assert_eq!(first, second);
    }
}
