//! The telephony notification surface.
//!
//! Vanilla Android exposes only part of this to apps (§2.1); Android-MOD
//! instruments the system services to see *all* of it. [`TelephonyEvent`]
//! is that full event stream — including the noise (voice-call disruptions,
//! manual toggles, overload rejections) the monitor must filter out.

use cellrel_netstack::LinkCondition;
use cellrel_types::{DataFailCause, FailureKind, InSituInfo, Rat, SimDuration, SimTime};

/// An event emitted by the telephony stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelephonyEvent {
    /// A data-call setup attempt failed (true or false positive — carries
    /// the raw cause; filtering is the monitor's job).
    DataSetupError {
        /// The reported cause.
        cause: DataFailCause,
        /// Radio context at failure time.
        ctx: InSituInfo,
    },
    /// A data-call setup succeeded (ends a `Data_Setup_Error` episode).
    DataSetupSuccess {
        /// Radio context.
        ctx: InSituInfo,
    },
    /// The service state dropped to Out_of_Service.
    OutOfServiceBegan {
        /// Radio context.
        ctx: InSituInfo,
    },
    /// Service recovered from Out_of_Service.
    OutOfServiceEnded {
        /// Outage span.
        duration: SimDuration,
        /// Radio context.
        ctx: InSituInfo,
    },
    /// The kernel-side Data_Stall predicate fired.
    DataStallSuspected {
        /// Radio context.
        ctx: InSituInfo,
        /// Ground-truth link condition (what probing would discover).
        condition: LinkCondition,
    },
    /// A previously suspected stall cleared (by auto-recovery, a recovery
    /// action, or user intervention).
    DataStallCleared {
        /// Ground-truth span from *detection* to heal — the quantity the
        /// monitor's probing estimates (pre-detection time is invisible to
        /// the device).
        duration: SimDuration,
        /// Radio context.
        ctx: InSituInfo,
        /// Ground-truth link condition during the stall.
        condition: LinkCondition,
    },
    /// A recovery stage executed (1 = cleanup, 2 = re-register,
    /// 3 = radio restart).
    RecoveryActionExecuted {
        /// Stage number 1..=3.
        stage: u8,
        /// Whether the action fixed the stall.
        fixed: bool,
    },
    /// The user manually reset the data connection (toggled data/airplane).
    ManualReset,
    /// An incoming circuit-switched voice call pre-empted data (CSFB) —
    /// an instrumentation-level false positive source.
    VoiceCallInterruption,
    /// The serving RAT changed.
    RatChanged {
        /// Previous RAT, if any.
        from: Option<Rat>,
        /// New RAT.
        to: Rat,
    },
    /// An SMS send failed (`RIL_SMS_SEND_FAIL_RETRY` class, <1 % bucket).
    SmsSendFailed {
        /// Radio context.
        ctx: InSituInfo,
    },
    /// A voice call setup failed (<1 % bucket).
    VoiceSetupFailed {
        /// Radio context.
        ctx: InSituInfo,
    },
}

impl TelephonyEvent {
    /// The failure kind this event suggests, if it is failure-shaped.
    pub fn failure_kind(&self) -> Option<FailureKind> {
        match self {
            TelephonyEvent::DataSetupError { .. } => Some(FailureKind::DataSetupError),
            TelephonyEvent::OutOfServiceBegan { .. } => Some(FailureKind::OutOfService),
            TelephonyEvent::DataStallSuspected { .. } => Some(FailureKind::DataStall),
            TelephonyEvent::SmsSendFailed { .. } => Some(FailureKind::SmsSendFail),
            TelephonyEvent::VoiceSetupFailed { .. } => Some(FailureKind::VoiceSetupFail),
            _ => None,
        }
    }
}

/// A sink for telephony events — the hook Android-MOD registers (§2.2).
pub trait TelephonyListener {
    /// Called for every event, in timestamp order.
    fn on_event(&mut self, at: SimTime, event: &TelephonyEvent);
}

/// A listener that records everything (tests, tracing).
#[derive(Debug, Default)]
pub struct RecordingListener {
    /// The recorded `(time, event)` log.
    pub log: Vec<(SimTime, TelephonyEvent)>,
}

impl TelephonyListener for RecordingListener {
    fn on_event(&mut self, at: SimTime, event: &TelephonyEvent) {
        self.log.push((at, *event));
    }
}

/// A no-op listener.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullListener;

impl TelephonyListener for NullListener {
    fn on_event(&mut self, _at: SimTime, _event: &TelephonyEvent) {}
}

/// A tee: records the raw event log *and* forwards every event to an inner
/// listener (typically the monitoring service) — useful when an experiment
/// wants both the unfiltered stream and the monitor's filtered view.
#[derive(Debug)]
pub struct RecordingBoth<L> {
    /// The recorded `(time, event)` log.
    pub log: Vec<(SimTime, TelephonyEvent)>,
    /// The wrapped listener.
    pub inner: L,
}

impl<L: TelephonyListener> RecordingBoth<L> {
    /// Wrap a listener.
    pub fn new(inner: L) -> Self {
        RecordingBoth {
            log: Vec::new(),
            inner,
        }
    }
}

impl<L: TelephonyListener> TelephonyListener for RecordingBoth<L> {
    fn on_event(&mut self, at: SimTime, event: &TelephonyEvent) {
        self.log.push((at, *event));
        self.inner.on_event(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_types::{Apn, BsId, Isp, SignalLevel};

    fn ctx() -> InSituInfo {
        InSituInfo {
            rat: Rat::G4,
            signal: SignalLevel::L3,
            apn: Apn::Internet,
            bs: Some(BsId::gsm_cn(0, 1, 2)),
            isp: Isp::A,
        }
    }

    #[test]
    fn failure_kinds_are_mapped() {
        assert_eq!(
            TelephonyEvent::DataSetupError {
                cause: DataFailCause::SignalLost,
                ctx: ctx()
            }
            .failure_kind(),
            Some(FailureKind::DataSetupError)
        );
        assert_eq!(
            TelephonyEvent::DataStallSuspected {
                ctx: ctx(),
                condition: LinkCondition::NetworkBlackhole
            }
            .failure_kind(),
            Some(FailureKind::DataStall)
        );
        assert_eq!(TelephonyEvent::ManualReset.failure_kind(), None);
        assert_eq!(
            TelephonyEvent::RatChanged {
                from: None,
                to: Rat::G5
            }
            .failure_kind(),
            None
        );
    }

    #[test]
    fn recording_listener_records_in_order() {
        let mut l = RecordingListener::default();
        l.on_event(SimTime::from_secs(1), &TelephonyEvent::ManualReset);
        l.on_event(
            SimTime::from_secs(2),
            &TelephonyEvent::SmsSendFailed { ctx: ctx() },
        );
        assert_eq!(l.log.len(), 2);
        assert!(l.log[0].0 < l.log[1].0);
    }
}
