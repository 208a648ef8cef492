//! Instrumentation-level false-positive filtering.
//!
//! §2.2: "when instrumenting the service, we carefully rule out a variety of
//! false failure events (a.k.a., false positives), such as connection
//! disruption by incoming voice calls, service suspension due to
//! insufficient account balance, and manual disconnection of the network",
//! plus setup rejections whose error code marks a rational BS-overload
//! rejection (the 344-code classification).

use cellrel_telephony::TelephonyEvent;
use cellrel_types::FalsePositiveClass;

/// Outcome of filtering one telephony event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDecision {
    /// A true failure: record it.
    Record,
    /// A false positive of the given class: count it, don't record it.
    Reject(FalsePositiveClass),
    /// Not a failure-shaped event at all (context events the monitor uses
    /// for its own bookkeeping).
    NotAFailure,
}

/// The stateless part of the false-positive filter. (Stall classification is
/// stateful — it needs probing — and lives in the probing module; this
/// filter handles everything decidable from the event alone.)
#[derive(Debug, Clone, Copy, Default)]
pub struct FpFilter;

impl FpFilter {
    /// Classify one event.
    pub fn classify(&self, event: &TelephonyEvent) -> FilterDecision {
        match event {
            TelephonyEvent::DataSetupError { cause, .. } => match cause.false_positive() {
                Some(class) => FilterDecision::Reject(class),
                None => FilterDecision::Record,
            },
            TelephonyEvent::OutOfServiceBegan { .. } | TelephonyEvent::OutOfServiceEnded { .. } => {
                FilterDecision::Record
            }
            // Stall events are recorded provisionally; the probe session
            // decides whether they survive.
            TelephonyEvent::DataStallSuspected { .. } | TelephonyEvent::DataStallCleared { .. } => {
                FilterDecision::Record
            }
            TelephonyEvent::SmsSendFailed { .. } | TelephonyEvent::VoiceSetupFailed { .. } => {
                FilterDecision::Record
            }
            TelephonyEvent::VoiceCallInterruption => {
                FilterDecision::Reject(FalsePositiveClass::VoiceCallInterruption)
            }
            TelephonyEvent::ManualReset => {
                FilterDecision::Reject(FalsePositiveClass::UserInitiated)
            }
            TelephonyEvent::DataSetupSuccess { .. }
            | TelephonyEvent::RecoveryActionExecuted { .. }
            | TelephonyEvent::RatChanged { .. } => FilterDecision::NotAFailure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_netstack::LinkCondition;
    use cellrel_types::{Apn, BsId, DataFailCause, InSituInfo, Isp, Rat, SignalLevel};

    fn ctx() -> InSituInfo {
        InSituInfo {
            rat: Rat::G4,
            signal: SignalLevel::L2,
            apn: Apn::Internet,
            bs: Some(BsId::gsm_cn(0, 1, 2)),
            isp: Isp::B,
        }
    }

    #[test]
    fn true_setup_error_is_recorded() {
        let f = FpFilter;
        let ev = TelephonyEvent::DataSetupError {
            cause: DataFailCause::SignalLost,
            ctx: ctx(),
        };
        assert_eq!(f.classify(&ev), FilterDecision::Record);
    }

    #[test]
    fn overload_rejection_is_filtered() {
        let f = FpFilter;
        let ev = TelephonyEvent::DataSetupError {
            cause: DataFailCause::InsufficientResources,
            ctx: ctx(),
        };
        assert_eq!(
            f.classify(&ev),
            FilterDecision::Reject(FalsePositiveClass::BsOverload)
        );
    }

    #[test]
    fn balance_suspension_is_filtered() {
        let f = FpFilter;
        let ev = TelephonyEvent::DataSetupError {
            cause: DataFailCause::AccountBalanceExhausted,
            ctx: ctx(),
        };
        assert_eq!(
            f.classify(&ev),
            FilterDecision::Reject(FalsePositiveClass::AccountSuspended)
        );
    }

    #[test]
    fn voice_and_manual_events_are_filtered() {
        let f = FpFilter;
        assert_eq!(
            f.classify(&TelephonyEvent::VoiceCallInterruption),
            FilterDecision::Reject(FalsePositiveClass::VoiceCallInterruption)
        );
        assert_eq!(
            f.classify(&TelephonyEvent::ManualReset),
            FilterDecision::Reject(FalsePositiveClass::UserInitiated)
        );
    }

    #[test]
    fn stall_events_are_provisionally_recorded() {
        let f = FpFilter;
        let ev = TelephonyEvent::DataStallSuspected {
            ctx: ctx(),
            condition: LinkCondition::FirewallMisconfig,
        };
        // Even a system-side stall passes this filter — only probing can
        // tell, and probing lives downstream.
        assert_eq!(f.classify(&ev), FilterDecision::Record);
    }

    #[test]
    fn non_failures_pass_through() {
        let f = FpFilter;
        assert_eq!(
            f.classify(&TelephonyEvent::DataSetupSuccess { ctx: ctx() }),
            FilterDecision::NotAFailure
        );
        assert_eq!(
            f.classify(&TelephonyEvent::RatChanged {
                from: Some(Rat::G4),
                to: Rat::G5
            }),
            FilterDecision::NotAFailure
        );
    }
}
