//! The `DataConnection` life-cycle state machine (Fig. 1).
//!
//! Android models a cellular data connection with five states; transitions
//! are driven by setup requests, setup results, retry timers and teardowns.
//! This FSM enforces exactly the legal transitions and records its history —
//! invalid transitions are programming errors (the real
//! `DataConnection.java` logs and drops them; we make them loud, since in a
//! simulation they always indicate a driver bug).

use cellrel_sim::Telemetry;
use cellrel_types::{DataFailCause, SimTime};
use std::fmt;

/// States of a data connection (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DcState {
    /// No connection, none being built.
    Inactive,
    /// Setup negotiation in flight.
    Activating,
    /// Setup failed; waiting out the retry delay.
    Retrying,
    /// Connection up; data can flow.
    Active,
    /// Teardown in flight.
    Disconnecting,
}

impl fmt::Display for DcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DcState::Inactive => "Inactive",
            DcState::Activating => "Activating",
            DcState::Retrying => "Retrying",
            DcState::Active => "Active",
            DcState::Disconnecting => "Disconnecting",
        })
    }
}

/// A recorded transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Transition {
    /// When it happened.
    pub at: SimTime,
    /// State before.
    pub from: DcState,
    /// State after.
    pub to: DcState,
    /// Failure cause if the transition was failure-driven.
    pub cause: Option<DataFailCause>,
}

/// The life-cycle FSM with bounded transition history.
#[derive(Debug, Clone)]
pub(crate) struct DataConnectionFsm {
    state: DcState,
    history: Vec<Transition>,
    setup_attempts: u32,
    tele: Telemetry,
}

/// The telemetry counter for entering a state.
fn state_counter(to: DcState) -> &'static str {
    match to {
        DcState::Inactive => "dc.state.inactive",
        DcState::Activating => "dc.state.activating",
        DcState::Retrying => "dc.state.retrying",
        DcState::Active => "dc.state.active",
        DcState::Disconnecting => "dc.state.disconnecting",
    }
}

/// History ring size.
const HISTORY_LIMIT: usize = 128;

impl Default for DataConnectionFsm {
    fn default() -> Self {
        Self::new()
    }
}

impl DataConnectionFsm {
    /// A fresh FSM in `Inactive`.
    pub(crate) fn new() -> Self {
        DataConnectionFsm {
            state: DcState::Inactive,
            history: Vec::new(),
            setup_attempts: 0,
            tele: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; every transition then bumps a
    /// `dc.state.*` counter (disabled handles cost one branch).
    pub(crate) fn set_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Current state.
    pub(crate) fn state(&self) -> DcState {
        self.state
    }

    /// Total setup attempts ever issued.
    #[cfg(test)]
    pub(crate) fn setup_attempts(&self) -> u32 {
        self.setup_attempts
    }

    /// Transition history (bounded, most recent last).
    #[cfg(test)]
    pub(crate) fn history(&self) -> &[Transition] {
        &self.history
    }

    fn transition(&mut self, at: SimTime, to: DcState, cause: Option<DataFailCause>) {
        if self.history.len() == HISTORY_LIMIT {
            self.history.remove(0);
        }
        self.history.push(Transition {
            at,
            from: self.state,
            to,
            cause,
        });
        self.tele.inc("dc.transitions");
        self.tele.inc(state_counter(to));
        self.state = to;
    }

    /// Begin a setup (from `Inactive` or from `Retrying` when the retry
    /// timer fires).
    ///
    /// # Panics
    /// Panics on an illegal source state.
    pub(crate) fn begin_setup(&mut self, at: SimTime) {
        assert!(
            matches!(self.state, DcState::Inactive | DcState::Retrying),
            "begin_setup from {}",
            self.state
        );
        self.setup_attempts += 1;
        self.transition(at, DcState::Activating, None);
    }

    /// Setup succeeded.
    pub(crate) fn setup_succeeded(&mut self, at: SimTime) {
        assert_eq!(
            self.state,
            DcState::Activating,
            "setup_succeeded from {}",
            self.state
        );
        self.transition(at, DcState::Active, None);
    }

    /// Setup failed; will retry.
    pub(crate) fn setup_failed_retry(&mut self, at: SimTime, cause: DataFailCause) {
        assert_eq!(
            self.state,
            DcState::Activating,
            "setup_failed from {}",
            self.state
        );
        self.transition(at, DcState::Retrying, Some(cause));
    }

    /// Setup failed permanently; give up to `Inactive`.
    pub(crate) fn setup_failed_permanent(&mut self, at: SimTime, cause: DataFailCause) {
        assert!(
            matches!(self.state, DcState::Activating | DcState::Retrying),
            "setup_failed_permanent from {}",
            self.state
        );
        self.transition(at, DcState::Inactive, Some(cause));
    }

    /// Begin a teardown of the active connection.
    pub(crate) fn begin_disconnect(&mut self, at: SimTime) {
        assert_eq!(
            self.state,
            DcState::Active,
            "begin_disconnect from {}",
            self.state
        );
        self.transition(at, DcState::Disconnecting, None);
    }

    /// Teardown completed.
    pub(crate) fn disconnect_completed(&mut self, at: SimTime) {
        assert_eq!(
            self.state,
            DcState::Disconnecting,
            "disconnect_completed from {}",
            self.state
        );
        self.transition(at, DcState::Inactive, None);
    }

    /// The connection dropped while `Active` (network-initiated loss).
    pub(crate) fn connection_lost(&mut self, at: SimTime, cause: DataFailCause) {
        assert_eq!(
            self.state,
            DcState::Active,
            "connection_lost from {}",
            self.state
        );
        self.transition(at, DcState::Inactive, Some(cause));
    }

    /// Abandon a pending retry (user disabled data, policy change).
    #[cfg(test)]
    pub(crate) fn cancel_retry(&mut self, at: SimTime) {
        assert_eq!(
            self.state,
            DcState::Retrying,
            "cancel_retry from {}",
            self.state
        );
        self.transition(at, DcState::Inactive, None);
    }

    /// Hard reset to `Inactive` from any state (modem restart).
    pub(crate) fn force_reset(&mut self, at: SimTime) {
        if self.state != DcState::Inactive {
            self.transition(at, DcState::Inactive, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn happy_path_matches_figure1() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup(t(0));
        assert_eq!(fsm.state(), DcState::Activating);
        fsm.setup_succeeded(t(1));
        assert_eq!(fsm.state(), DcState::Active);
        fsm.begin_disconnect(t(100));
        assert_eq!(fsm.state(), DcState::Disconnecting);
        fsm.disconnect_completed(t(101));
        assert_eq!(fsm.state(), DcState::Inactive);
        assert_eq!(fsm.setup_attempts(), 1);
    }

    #[test]
    fn retry_loop() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup(t(0));
        fsm.setup_failed_retry(t(1), DataFailCause::SignalLost);
        assert_eq!(fsm.state(), DcState::Retrying);
        fsm.begin_setup(t(6));
        fsm.setup_failed_retry(t(7), DataFailCause::SignalLost);
        fsm.begin_setup(t(17));
        fsm.setup_succeeded(t(18));
        assert_eq!(fsm.state(), DcState::Active);
        assert_eq!(fsm.setup_attempts(), 3);
    }

    #[test]
    fn permanent_failure_goes_inactive() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup(t(0));
        fsm.setup_failed_permanent(t(1), DataFailCause::MissingUnknownApn);
        assert_eq!(fsm.state(), DcState::Inactive);
        let last = fsm.history().last().expect("history");
        assert_eq!(last.cause, Some(DataFailCause::MissingUnknownApn));
    }

    #[test]
    fn connection_loss_from_active() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup(t(0));
        fsm.setup_succeeded(t(1));
        fsm.connection_lost(t(50), DataFailCause::LostConnection);
        assert_eq!(fsm.state(), DcState::Inactive);
    }

    #[test]
    fn cancel_retry_path() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup(t(0));
        fsm.setup_failed_retry(t(1), DataFailCause::NetworkFailure);
        fsm.cancel_retry(t(2));
        assert_eq!(fsm.state(), DcState::Inactive);
    }

    #[test]
    fn force_reset_from_any_state() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup(t(0));
        fsm.force_reset(t(1));
        assert_eq!(fsm.state(), DcState::Inactive);
        // From inactive it's a no-op (no history entry added).
        let len = fsm.history().len();
        fsm.force_reset(t(2));
        assert_eq!(fsm.history().len(), len);
    }

    #[test]
    #[should_panic(expected = "begin_setup from Active")]
    fn illegal_transition_panics() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup(t(0));
        fsm.setup_succeeded(t(1));
        fsm.begin_setup(t(2));
    }

    #[test]
    fn history_is_bounded() {
        let mut fsm = DataConnectionFsm::new();
        for i in 0..200 {
            fsm.begin_setup(t(2 * i));
            fsm.setup_failed_retry(t(2 * i + 1), DataFailCause::SignalLost);
        }
        assert!(fsm.history().len() <= HISTORY_LIMIT);
        assert_eq!(fsm.setup_attempts(), 200);
    }
}
