//! `DcTracker` — the component that drives data-call setups, applies the
//! retry schedule, and gives up on permanent causes.
//!
//! Android's `DcTracker` reacts to a `Data_Setup_Error` by scheduling a
//! retry with an APN-profile delay schedule; permanent causes
//! (`MISSING_UNKNOWN_APN`, `OPERATOR_BARRED`, …) stop retrying entirely.

use crate::data_connection::{DataConnectionFsm, DcState};
use crate::interference::RiskFactors;
use crate::modem::Modem;
use cellrel_sim::SimRng;
use cellrel_types::{Apn, DataFailCause, SimDuration};

/// The retry-delay schedule applied after consecutive setup failures.
/// Mirrors the shape of Android's default data-retry configuration:
/// quick first retries, exponential backoff, then a steady-state cap.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    delays: Vec<SimDuration>,
    /// Delay used once the schedule is exhausted.
    steady_state: SimDuration,
    /// Maximum consecutive failures before the tracker goes quiescent
    /// until external prodding (cell change, user action). `None` = retry
    /// forever.
    max_attempts: Option<u32>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            delays: [5u64, 10, 20, 40, 80, 160]
                .iter()
                .map(|&s| SimDuration::from_secs(s))
                .collect(),
            steady_state: SimDuration::from_secs(600),
            max_attempts: None,
        }
    }
}

impl RetryPolicy {
    /// An aggressive schedule for tests (short delays, bounded attempts).
    #[cfg(test)]
    pub(crate) fn fast_for_tests() -> Self {
        RetryPolicy {
            delays: vec![SimDuration::from_secs(1), SimDuration::from_secs(2)],
            steady_state: SimDuration::from_secs(4),
            max_attempts: Some(10),
        }
    }

    /// Delay before retry number `n` (1-based count of *failures so far*).
    pub(crate) fn delay_after(&self, failures: u32) -> SimDuration {
        let idx = (failures as usize).saturating_sub(1);
        self.delays.get(idx).copied().unwrap_or(self.steady_state)
    }

    /// Whether another retry is allowed after `failures` consecutive
    /// failures.
    pub(crate) fn allows_retry(&self, failures: u32) -> bool {
        self.max_attempts.map(|m| failures < m).unwrap_or(true)
    }
}

/// What the tracker wants to happen next after a setup attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SetupVerdict {
    /// Connection is up.
    Connected,
    /// Failed; retry after the given delay.
    RetryAfter(SimDuration, DataFailCause),
    /// Failed permanently; no retry.
    GaveUp(DataFailCause),
}

/// The data-connection tracker: FSM + retry accounting.
#[derive(Debug, Clone)]
pub struct DcTracker {
    fsm: DataConnectionFsm,
    retry: RetryPolicy,
    consecutive_failures: u32,
    apn: Apn,
}

impl DcTracker {
    /// Tracker for the given APN with a retry policy.
    pub fn new(apn: Apn, retry: RetryPolicy) -> Self {
        DcTracker {
            fsm: DataConnectionFsm::new(),
            retry,
            consecutive_failures: 0,
            apn,
        }
    }

    /// The connection FSM (read-only).
    #[cfg(test)]
    pub(crate) fn fsm(&self) -> &DataConnectionFsm {
        &self.fsm
    }

    /// Attach a telemetry handle to the FSM (state-transition counters).
    pub(crate) fn set_telemetry(&mut self, tele: cellrel_sim::Telemetry) {
        self.fsm.set_telemetry(tele);
    }

    /// Current consecutive-failure streak.
    #[cfg(test)]
    pub(crate) fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether a setup attempt is currently legal.
    pub(crate) fn can_attempt(&self) -> bool {
        matches!(self.fsm.state(), DcState::Inactive | DcState::Retrying)
    }

    /// Drive one setup attempt through the modem.
    pub fn attempt_setup(
        &mut self,
        modem: &mut Modem,
        risk: &RiskFactors,
        rng: &mut SimRng,
    ) -> SetupVerdict {
        assert!(self.can_attempt(), "attempt_setup in {}", self.fsm.state());
        self.fsm.begin_setup();
        match modem.setup_data_call(self.apn, risk, rng) {
            Ok(_) => {
                self.fsm.setup_succeeded();
                self.consecutive_failures = 0;
                SetupVerdict::Connected
            }
            Err(cause) => {
                self.consecutive_failures += 1;
                if cause.is_permanent() || !self.retry.allows_retry(self.consecutive_failures) {
                    self.fsm.setup_failed_permanent();
                    SetupVerdict::GaveUp(cause)
                } else {
                    self.fsm.setup_failed_retry();
                    SetupVerdict::RetryAfter(
                        self.retry.delay_after(self.consecutive_failures),
                        cause,
                    )
                }
            }
        }
    }

    /// Tear down an active connection cleanly.
    pub(crate) fn disconnect(&mut self, modem: &mut Modem) {
        if self.fsm.state() == DcState::Active {
            self.fsm.begin_disconnect();
            modem.deactivate();
            self.fsm.disconnect_completed();
        }
    }

    /// The network dropped the active connection.
    pub(crate) fn connection_lost(&mut self, modem: &mut Modem) {
        if self.fsm.state() == DcState::Active {
            modem.deactivate();
            self.fsm.connection_lost();
        }
    }

    /// Reset after a modem restart or external recovery: back to `Inactive`,
    /// streak cleared.
    pub(crate) fn reset(&mut self) {
        self.fsm.force_reset();
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bs::BsIndex;
    use crate::fault::FaultProfile;
    use crate::selection::CellView;
    use cellrel_types::{Rat, RssDbm};

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
    fn successful_setup_connects() {
        let mut tracker = DcTracker::new(Apn::Internet, RetryPolicy::default());
        let mut modem = camped_modem();
        let mut rng = SimRng::new(1);
        // Quiet cell: succeed within a few attempts.
        loop {
            match tracker.attempt_setup(&mut modem, &quiet_risk(), &mut rng) {
                SetupVerdict::Connected => break,
                SetupVerdict::RetryAfter(..) => {}
                SetupVerdict::GaveUp(c) => panic!("gave up: {c}"),
            }
        }
        assert_eq!(tracker.fsm().state(), DcState::Active);
        assert_eq!(tracker.consecutive_failures(), 0);
    }

    #[test]
    fn permanent_cause_gives_up() {
        let mut tracker = DcTracker::new(Apn::Internet, RetryPolicy::default());
        let mut modem = camped_modem();
        modem.set_fault(FaultProfile::forcing(DataFailCause::MissingUnknownApn));
        let mut rng = SimRng::new(2);
        let v = tracker.attempt_setup(&mut modem, &quiet_risk(), &mut rng);
        assert_eq!(v, SetupVerdict::GaveUp(DataFailCause::MissingUnknownApn));
        assert_eq!(tracker.fsm().state(), DcState::Inactive);
        assert!(tracker.can_attempt());
    }

    #[test]
    fn retry_delays_follow_schedule() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.delay_after(1), SimDuration::from_secs(5));
        assert_eq!(policy.delay_after(2), SimDuration::from_secs(10));
        assert_eq!(policy.delay_after(6), SimDuration::from_secs(160));
        assert_eq!(policy.delay_after(7), SimDuration::from_secs(600));
        assert_eq!(policy.delay_after(100), SimDuration::from_secs(600));
    }

    #[test]
    fn transient_failures_schedule_retries() {
        let mut tracker = DcTracker::new(Apn::Internet, RetryPolicy::default());
        let mut modem = camped_modem();
        modem.set_fault(FaultProfile::forcing(DataFailCause::SignalLost));
        let mut rng = SimRng::new(3);
        let v = tracker.attempt_setup(&mut modem, &quiet_risk(), &mut rng);
        assert_eq!(
            v,
            SetupVerdict::RetryAfter(SimDuration::from_secs(5), DataFailCause::SignalLost)
        );
        assert_eq!(tracker.fsm().state(), DcState::Retrying);
        let v = tracker.attempt_setup(&mut modem, &quiet_risk(), &mut rng);
        assert_eq!(
            v,
            SetupVerdict::RetryAfter(SimDuration::from_secs(10), DataFailCause::SignalLost)
        );
        assert_eq!(tracker.consecutive_failures(), 2);
    }

    #[test]
    fn bounded_policy_gives_up_eventually() {
        let mut tracker = DcTracker::new(Apn::Internet, RetryPolicy::fast_for_tests());
        let mut modem = camped_modem();
        modem.set_fault(FaultProfile::forcing(DataFailCause::SignalLost));
        let mut rng = SimRng::new(4);
        let mut gave_up = false;
        for _ in 0..20 {
            match tracker.attempt_setup(&mut modem, &quiet_risk(), &mut rng) {
                SetupVerdict::RetryAfter(..) => {}
                SetupVerdict::GaveUp(_) => {
                    gave_up = true;
                    break;
                }
                SetupVerdict::Connected => unreachable!(),
            }
        }
        assert!(gave_up);
    }

    #[test]
    fn disconnect_and_loss_round_trip() {
        let mut tracker = DcTracker::new(Apn::Internet, RetryPolicy::default());
        let mut modem = camped_modem();
        let mut rng = SimRng::new(5);
        while tracker.attempt_setup(&mut modem, &quiet_risk(), &mut rng) != SetupVerdict::Connected
        {
        }
        tracker.disconnect(&mut modem);
        assert_eq!(tracker.fsm().state(), DcState::Inactive);
        assert!(modem.call().is_none());

        // Reconnect then lose the connection.
        while tracker.attempt_setup(&mut modem, &quiet_risk(), &mut rng) != SetupVerdict::Connected
        {
        }
        tracker.connection_lost(&mut modem);
        assert_eq!(tracker.fsm().state(), DcState::Inactive);
    }

    #[test]
    fn reset_clears_streak() {
        let mut tracker = DcTracker::new(Apn::Internet, RetryPolicy::default());
        let mut modem = camped_modem();
        modem.set_fault(FaultProfile::forcing(DataFailCause::SignalLost));
        let mut rng = SimRng::new(6);
        tracker.attempt_setup(&mut modem, &quiet_risk(), &mut rng);
        assert_eq!(tracker.consecutive_failures(), 1);
        tracker.reset();
        assert_eq!(tracker.consecutive_failures(), 0);
        assert_eq!(tracker.fsm().state(), DcState::Inactive);
    }
}
