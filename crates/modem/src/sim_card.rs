//! SIM card state.
//!
//! Setup requests fail immediately (with `SIM_CARD_CHANGED`-class causes)
//! when no usable SIM is present — one of the instrumentation-level false
//! positives the monitor filters.

use std::fmt;

/// State of the device's SIM card.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum SimCardState {
    /// SIM present and unlocked — normal operation.
    #[default]
    Ready,
    /// No SIM inserted.
    #[cfg(test)]
    Absent,
    /// SIM present but PIN-locked.
    #[cfg(test)]
    PinLocked,
}

impl SimCardState {
    /// Whether data calls are possible with this SIM state.
    pub(crate) const fn usable(self) -> bool {
        matches!(self, SimCardState::Ready)
    }
}

impl fmt::Display for SimCardState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimCardState::Ready => "READY",
            #[cfg(test)]
            SimCardState::Absent => "ABSENT",
            #[cfg(test)]
            SimCardState::PinLocked => "PIN_LOCKED",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_ready_is_usable() {
        assert!(SimCardState::Ready.usable());
        assert!(!SimCardState::Absent.usable());
        assert!(!SimCardState::PinLocked.usable());
    }

    #[test]
    fn default_is_ready() {
        assert_eq!(SimCardState::default(), SimCardState::Ready);
    }
}
