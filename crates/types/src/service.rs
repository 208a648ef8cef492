//! Android service state, as tracked by `ServiceStateTracker`.
//!
//! The paper's `Out_of_Service` failure kind is defined against this state:
//! a data connection exists but the device cannot actually send/receive
//! cellular data, so Android marks the service state `OUT_OF_SERVICE`.

use std::fmt;

/// The service state a device perceives, mirroring Android's
/// `android.telephony.ServiceState` constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceState {
    /// Normal operation: registered, data flows.
    InService,
    /// Registered or registering but unable to exchange data — the paper's
    /// `Out_of_Service` condition.
    OutOfService,
    /// Only emergency calls are possible.
    EmergencyOnly,
    /// The radio is powered off (airplane mode, modem restart window).
    PowerOff,
}

impl ServiceState {
    /// Whether user data can flow in this state.
    pub const fn data_possible(self) -> bool {
        matches!(self, ServiceState::InService)
    }

    /// Android constant-style name.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            ServiceState::InService => "STATE_IN_SERVICE",
            ServiceState::OutOfService => "STATE_OUT_OF_SERVICE",
            ServiceState::EmergencyOnly => "STATE_EMERGENCY_ONLY",
            ServiceState::PowerOff => "STATE_POWER_OFF",
        }
    }
}

impl fmt::Display for ServiceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_only_in_service() {
        assert!(ServiceState::InService.data_possible());
        assert!(!ServiceState::OutOfService.data_possible());
        assert!(!ServiceState::EmergencyOnly.data_possible());
        assert!(!ServiceState::PowerOff.data_possible());
    }

    #[test]
    fn names() {
        assert_eq!(
            ServiceState::OutOfService.to_string(),
            "STATE_OUT_OF_SERVICE"
        );
    }
}
