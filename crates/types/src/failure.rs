//! The cellular-failure taxonomy of the study and the in-situ record
//! captured for each failure.
//!
//! The paper's three dominant failure kinds (>99 % of the 2.32 B events):
//!
//! * **`Data_Setup_Error`** — a data connection to a reachable BS cannot be
//!   established; carries a [`DataFailCause`].
//! * **`Out_of_Service`** — a connection exists but no cellular data flows.
//! * **`Data_Stall`** — data flowed, then the connection silently stalls
//!   (>10 outbound TCP segments with zero inbound within a minute).
//!
//! The remainder (<1 %) relates to legacy SMS / voice services; we model it
//! with [`FailureKind::SmsSendFail`] and [`FailureKind::VoiceSetupFail`].
//!
//! Each captured failure is a [`FailureEvent`]: kind + timing + the
//! [`InSituInfo`] Android-MOD records (RAT, signal level, APN, BS identity,
//! error code) that vanilla Android does not expose (§2.1).

use crate::fail_cause::DataFailCause;
use crate::ids::{Apn, BsId, DeviceId, Isp};
use crate::rat::Rat;
use crate::signal::SignalLevel;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// The kind of a cellular failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Cannot establish a data connection with a reachable BS.
    DataSetupError,
    /// Connection established but no cellular data service.
    OutOfService,
    /// Established connection abnormally stalls.
    DataStall,
    /// Short-message send failure (`RIL_SMS_SEND_FAIL_RETRY`); <1 % bucket.
    SmsSendFail,
    /// Circuit-switched voice call setup failure; <1 % bucket.
    VoiceSetupFail,
}

impl FailureKind {
    /// All kinds.
    pub const ALL: [FailureKind; 5] = [
        FailureKind::DataSetupError,
        FailureKind::OutOfService,
        FailureKind::DataStall,
        FailureKind::SmsSendFail,
        FailureKind::VoiceSetupFail,
    ];

    /// The three kinds that make up >99 % of the dataset.
    pub const MAJOR: [FailureKind; 3] = [
        FailureKind::DataSetupError,
        FailureKind::OutOfService,
        FailureKind::DataStall,
    ];

    /// Stable array index.
    pub const fn index(self) -> usize {
        match self {
            FailureKind::DataSetupError => 0,
            FailureKind::OutOfService => 1,
            FailureKind::DataStall => 2,
            FailureKind::SmsSendFail => 3,
            FailureKind::VoiceSetupFail => 4,
        }
    }

    /// Inverse of [`FailureKind::index`] — wire decoders map bytes back to
    /// kinds through this.
    pub const fn from_index(i: usize) -> Option<FailureKind> {
        match i {
            0 => Some(FailureKind::DataSetupError),
            1 => Some(FailureKind::OutOfService),
            2 => Some(FailureKind::DataStall),
            3 => Some(FailureKind::SmsSendFail),
            4 => Some(FailureKind::VoiceSetupFail),
            _ => None,
        }
    }

    /// Paper-style label.
    pub const fn label(self) -> &'static str {
        match self {
            FailureKind::DataSetupError => "Data_Setup_Error",
            FailureKind::OutOfService => "Out_of_Service",
            FailureKind::DataStall => "Data_Stall",
            FailureKind::SmsSendFail => "SMS_Send_Fail",
            FailureKind::VoiceSetupFail => "Voice_Setup_Fail",
        }
    }

    /// Whether this kind is one of the three major data-connection kinds.
    pub const fn is_major(self) -> bool {
        matches!(
            self,
            FailureKind::DataSetupError | FailureKind::OutOfService | FailureKind::DataStall
        )
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The radio/BS context captured at the moment a failure occurs (§2.2):
/// "current RAT, RSS, APNs and BS ID", plus the serving ISP derived from the
/// BS identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InSituInfo {
    /// Radio access technology in use (or being attempted).
    pub rat: Rat,
    /// Discrete signal level at the failure instant.
    pub signal: SignalLevel,
    /// APN the data connection uses.
    pub apn: Apn,
    /// Identity of the serving / target base station, if camped on one.
    pub bs: Option<BsId>,
    /// Serving ISP.
    pub isp: Isp,
}

/// One captured cellular failure: what happened, to whom, when, for how
/// long, and in what radio context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// The device the failure occurred on.
    pub device: DeviceId,
    /// Failure kind.
    pub kind: FailureKind,
    /// Simulation instant the failure began (detection-adjusted for stalls).
    pub start: SimTime,
    /// Measured failure duration. For `Data_Setup_Error` this is the span
    /// until a successful (re)connection; for `Data_Stall` the probed stall
    /// duration; for `Out_of_Service` the outage span.
    pub duration: SimDuration,
    /// Protocol error code (only for `Data_Setup_Error`).
    pub cause: Option<DataFailCause>,
    /// Radio context at the failure instant.
    pub ctx: InSituInfo,
}

impl FailureEvent {
    /// Instant the failure ended.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// True if the attached cause (if any) marks this a false positive.
    /// Events without a cause are never false positives by this check alone;
    /// stall-probing and instrumentation-level filters handle those cases.
    pub fn cause_is_false_positive(&self) -> bool {
        self.cause
            .map(|c| c.false_positive().is_some())
            .unwrap_or(false)
    }
}

/// A receiver of failure events — the one seam between whatever produces
/// them (the macro study's generators, the ingest collector's accepted
/// stream) and whatever folds them (the analytics cube, the stream windows,
/// the fleet accumulators, a capture buffer). A collector hands its sink
/// exactly the records its aggregates are built from, in batch arrival
/// order; a parallel study driver builds one sink per shard and folds them
/// with `cellrel_sim::Merge`, so a sink used there must make `merge` behave
/// like "the other shard's events recorded after mine".
pub trait EventSink {
    /// Record one failure event.
    fn record(&mut self, event: &FailureEvent);
}

/// Capture sink: materialises the stream.
impl EventSink for Vec<FailureEvent> {
    fn record(&mut self, event: &FailureEvent) {
        self.push(*event);
    }
}

/// Discarding sink, for runs with no downstream consumer.
impl EventSink for () {
    fn record(&mut self, _event: &FailureEvent) {}
}

impl fmt::Display for FailureEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} on {} ({} {} via {}, {})",
            self.start,
            self.kind,
            self.device,
            self.ctx.rat,
            self.ctx.signal,
            self.ctx.apn,
            self.ctx.isp
        )?;
        if let Some(c) = self.cause {
            write!(f, " cause={c}")?;
        }
        write!(f, " dur={}", self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ctx() -> InSituInfo {
        InSituInfo {
            rat: Rat::G4,
            signal: SignalLevel::L3,
            apn: Apn::Internet,
            bs: Some(BsId::gsm_cn(0, 100, 42)),
            isp: Isp::A,
        }
    }

    #[test]
    fn major_kinds() {
        assert!(FailureKind::DataStall.is_major());
        assert!(!FailureKind::SmsSendFail.is_major());
        assert_eq!(FailureKind::MAJOR.len(), 3);
    }

    #[test]
    fn indices_unique() {
        let mut seen = [false; 5];
        for k in FailureKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
    }

    #[test]
    fn index_round_trips() {
        for k in FailureKind::ALL {
            assert_eq!(FailureKind::from_index(k.index()), Some(k));
        }
        assert_eq!(FailureKind::from_index(5), None);
    }

    #[test]
    fn event_end_and_fp() {
        let ev = FailureEvent {
            device: DeviceId(1),
            kind: FailureKind::DataSetupError,
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(30),
            cause: Some(DataFailCause::InsufficientResources),
            ctx: sample_ctx(),
        };
        assert_eq!(ev.end(), SimTime::from_secs(130));
        assert!(ev.cause_is_false_positive());

        let true_ev = FailureEvent {
            cause: Some(DataFailCause::SignalLost),
            ..ev
        };
        assert!(!true_ev.cause_is_false_positive());

        let stall = FailureEvent {
            kind: FailureKind::DataStall,
            cause: None,
            ..ev
        };
        assert!(!stall.cause_is_false_positive());
    }

    #[test]
    fn display_includes_cause() {
        let ev = FailureEvent {
            device: DeviceId(7),
            kind: FailureKind::DataSetupError,
            start: SimTime::from_secs(1),
            duration: SimDuration::from_secs(2),
            cause: Some(DataFailCause::PppTimeout),
            ctx: sample_ctx(),
        };
        let s = ev.to_string();
        assert!(s.contains("Data_Setup_Error"));
        assert!(s.contains("PppTimeout"));
    }
}
