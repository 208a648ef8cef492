//! The `DataConnection` life-cycle state machine (Fig. 1).
//!
//! Android models a cellular data connection with five states; transitions
//! are driven by setup requests, setup results, retry timers and teardowns.
//! This FSM enforces exactly the legal transitions — invalid transitions
//! are programming errors (the real
//! `DataConnection.java` logs and drops them; we make them loud, since in a
//! simulation they always indicate a driver bug).

use cellrel_sim::Telemetry;
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

/// The life-cycle FSM. Its only record of past transitions is the
/// `dc.*` telemetry counters.
#[derive(Debug, Clone)]
pub(crate) struct DataConnectionFsm {
    state: DcState,
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

    fn transition(&mut self, to: DcState) {
        self.tele.inc("dc.transitions");
        self.tele.inc(state_counter(to));
        self.state = to;
    }

    /// Begin a setup (from `Inactive` or from `Retrying` when the retry
    /// timer fires).
    ///
    /// # Panics
    /// Panics on an illegal source state.
    pub(crate) fn begin_setup(&mut self) {
        assert!(
            matches!(self.state, DcState::Inactive | DcState::Retrying),
            "begin_setup from {}",
            self.state
        );
        self.transition(DcState::Activating);
    }

    /// Setup succeeded.
    pub(crate) fn setup_succeeded(&mut self) {
        assert_eq!(
            self.state,
            DcState::Activating,
            "setup_succeeded from {}",
            self.state
        );
        self.transition(DcState::Active);
    }

    /// Setup failed; will retry.
    pub(crate) fn setup_failed_retry(&mut self) {
        assert_eq!(
            self.state,
            DcState::Activating,
            "setup_failed from {}",
            self.state
        );
        self.transition(DcState::Retrying);
    }

    /// Setup failed permanently; give up to `Inactive`.
    pub(crate) fn setup_failed_permanent(&mut self) {
        assert!(
            matches!(self.state, DcState::Activating | DcState::Retrying),
            "setup_failed_permanent from {}",
            self.state
        );
        self.transition(DcState::Inactive);
    }

    /// Begin a teardown of the active connection.
    pub(crate) fn begin_disconnect(&mut self) {
        assert_eq!(
            self.state,
            DcState::Active,
            "begin_disconnect from {}",
            self.state
        );
        self.transition(DcState::Disconnecting);
    }

    /// Teardown completed.
    pub(crate) fn disconnect_completed(&mut self) {
        assert_eq!(
            self.state,
            DcState::Disconnecting,
            "disconnect_completed from {}",
            self.state
        );
        self.transition(DcState::Inactive);
    }

    /// The connection dropped while `Active` (network-initiated loss).
    pub(crate) fn connection_lost(&mut self) {
        assert_eq!(
            self.state,
            DcState::Active,
            "connection_lost from {}",
            self.state
        );
        self.transition(DcState::Inactive);
    }

    /// Abandon a pending retry (user disabled data, policy change).
    #[cfg(test)]
    pub(crate) fn cancel_retry(&mut self) {
        assert_eq!(
            self.state,
            DcState::Retrying,
            "cancel_retry from {}",
            self.state
        );
        self.transition(DcState::Inactive);
    }

    /// Hard reset to `Inactive` from any state (modem restart).
    pub(crate) fn force_reset(&mut self) {
        if self.state != DcState::Inactive {
            self.transition(DcState::Inactive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_matches_figure1() {
        let tele = Telemetry::enabled();
        let mut fsm = DataConnectionFsm::new();
        fsm.set_telemetry(tele.clone());
        fsm.begin_setup();
        assert_eq!(fsm.state(), DcState::Activating);
        fsm.setup_succeeded();
        assert_eq!(fsm.state(), DcState::Active);
        fsm.begin_disconnect();
        assert_eq!(fsm.state(), DcState::Disconnecting);
        fsm.disconnect_completed();
        assert_eq!(fsm.state(), DcState::Inactive);
        assert_eq!(tele.snapshot().counter("dc.state.activating"), 1);
    }

    #[test]
    fn retry_loop() {
        let tele = Telemetry::enabled();
        let mut fsm = DataConnectionFsm::new();
        fsm.set_telemetry(tele.clone());
        fsm.begin_setup();
        fsm.setup_failed_retry();
        assert_eq!(fsm.state(), DcState::Retrying);
        fsm.begin_setup();
        fsm.setup_failed_retry();
        fsm.begin_setup();
        fsm.setup_succeeded();
        assert_eq!(fsm.state(), DcState::Active);
        let snap = tele.snapshot();
        assert_eq!(snap.counter("dc.state.activating"), 3);
        assert_eq!(snap.counter("dc.state.retrying"), 2);
    }

    #[test]
    fn permanent_failure_goes_inactive() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup();
        fsm.setup_failed_permanent();
        assert_eq!(fsm.state(), DcState::Inactive);
    }

    #[test]
    fn connection_loss_from_active() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup();
        fsm.setup_succeeded();
        fsm.connection_lost();
        assert_eq!(fsm.state(), DcState::Inactive);
    }

    #[test]
    fn cancel_retry_path() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup();
        fsm.setup_failed_retry();
        fsm.cancel_retry();
        assert_eq!(fsm.state(), DcState::Inactive);
    }

    #[test]
    fn force_reset_from_any_state() {
        let tele = Telemetry::enabled();
        let mut fsm = DataConnectionFsm::new();
        fsm.set_telemetry(tele.clone());
        fsm.begin_setup();
        fsm.force_reset();
        assert_eq!(fsm.state(), DcState::Inactive);
        // From inactive it's a no-op (no transition counted).
        let before = tele.snapshot().counter("dc.transitions");
        fsm.force_reset();
        assert_eq!(tele.snapshot().counter("dc.transitions"), before);
    }

    #[test]
    #[should_panic(expected = "begin_setup from Active")]
    fn illegal_transition_panics() {
        let mut fsm = DataConnectionFsm::new();
        fsm.begin_setup();
        fsm.setup_succeeded();
        fsm.begin_setup();
    }
}
