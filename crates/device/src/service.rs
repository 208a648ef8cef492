//! The monitoring service — Android-MOD's brain.
//!
//! [`MonitoringService`] registers as the telephony event listener (§2.2's
//! "system service instrumentation"), applies the false-positive filter,
//! measures stall durations with probe sessions, assembles one
//! [`FailureEvent`] per true failure, and keeps the overhead/upload
//! machinery fed. The service's record list is the device's only copy of
//! its dataset: the uploader ships from it and keeps a position, so what
//! reaches the collector is what [`MonitoringService::records`] shows.

use crate::events::{TelephonyEvent, TelephonyListener};
use crate::filter::{FilterDecision, FpFilter};
use crate::link::LinkCondition;
use crate::overhead::OverheadAccounting;
use crate::probing::ProbeSession;
use crate::uploader::{EncodedUpload, Uploader};
use cellrel_ingest::codec::RAW_RECORD_BYTES;
use cellrel_sim::SimRng;
use cellrel_types::{
    DeviceId, FailureEvent, FailureKind, FalsePositiveClass, InSituInfo, SimDuration, SimTime,
};

/// Counters of filtered false positives by class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FpCounters {
    counts: [u64; 7],
}

impl FpCounters {
    fn index(class: FalsePositiveClass) -> usize {
        match class {
            FalsePositiveClass::BsOverload => 0,
            FalsePositiveClass::NormalTeardown => 1,
            FalsePositiveClass::UserInitiated => 2,
            FalsePositiveClass::AccountSuspended => 3,
            FalsePositiveClass::VoiceCallInterruption => 4,
            FalsePositiveClass::SystemSide => 5,
            FalsePositiveClass::DnsServiceDown => 6,
        }
    }

    fn bump(&mut self, class: FalsePositiveClass) {
        self.counts[Self::index(class)] += 1;
    }

    /// Count for one class.
    pub fn get(&self, class: FalsePositiveClass) -> u64 {
        self.counts[Self::index(class)]
    }

    /// Total filtered events.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A pending setup-error episode: records whose duration closes at the next
/// successful setup, oldest first.
#[derive(Debug, Default)]
struct SetupEpisode {
    open_record_indices: Vec<usize>,
}

/// The per-device monitoring service.
#[derive(Debug)]
pub struct MonitoringService {
    device: DeviceId,
    filter: FpFilter,
    probe: ProbeSession,
    rng: SimRng,
    records: Vec<FailureEvent>,
    fp: FpCounters,
    setup_episode: SetupEpisode,
    pending_stall: Option<(SimTime, InSituInfo, LinkCondition)>,
    overhead: OverheadAccounting,
    uploader: Uploader,
    events_seen: u64,
}

impl MonitoringService {
    /// Service for one device with its own random stream (probe latencies).
    pub fn new(device: DeviceId, rng: SimRng) -> Self {
        MonitoringService {
            device,
            filter: FpFilter,
            probe: ProbeSession,
            rng,
            records: Vec::new(),
            fp: FpCounters::default(),
            setup_episode: SetupEpisode::default(),
            pending_stall: None,
            overhead: OverheadAccounting::new(),
            uploader: Uploader::new(device),
            events_seen: 0,
        }
    }

    /// The recorded true failures.
    pub fn records(&self) -> &[FailureEvent] {
        &self.records
    }

    /// Consume the service, returning its records.
    pub fn into_records(self) -> Vec<FailureEvent> {
        self.records
    }

    /// False-positive counters.
    pub fn fp_counters(&self) -> &FpCounters {
        &self.fp
    }

    /// Overhead accounting.
    pub fn overhead(&self) -> &OverheadAccounting {
        &self.overhead
    }

    /// Uploader state.
    pub fn uploader(&self) -> &Uploader {
        &self.uploader
    }

    /// Raw events observed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Records not yet shipped, held-back ones included.
    pub fn pending_records(&self) -> u64 {
        self.records.len() as u64 - self.uploader.uploaded_records()
    }

    /// An upload opportunity. Nothing in the library schedules these: the
    /// harness that owns the device decides when it has connectivity (the
    /// fleet tests flush once, at the end of a run, over WiFi). Ships the
    /// unshipped records up to the oldest one whose setup episode is still
    /// open — that one's duration is not known yet, and it goes out at the
    /// first opportunity after the episode closes. Returns the encoded wire
    /// batch that was shipped, if any, for the caller to deliver to the
    /// collector.
    pub fn upload_opportunity(&mut self, wifi: bool) -> Option<EncodedUpload> {
        let open = &self.setup_episode.open_record_indices;
        let ready = open.first().copied().unwrap_or(self.records.len());
        let up = self.uploader.try_upload(wifi, &self.records[..ready])?;
        self.overhead.on_upload(up.records, up.payload.len() as u64);
        Some(up)
    }

    fn push_record(&mut self, record: FailureEvent) -> usize {
        self.overhead.on_record(RAW_RECORD_BYTES);
        self.overhead.add_failure_window(record.duration);
        self.records.push(record);
        self.records.len() - 1
    }

    fn handle_setup_error(
        &mut self,
        at: SimTime,
        cause: cellrel_types::DataFailCause,
        ctx: InSituInfo,
    ) {
        let idx = self.push_record(FailureEvent {
            device: self.device,
            kind: FailureKind::DataSetupError,
            start: at,
            duration: SimDuration::ZERO, // closed on the next success
            cause: Some(cause),
            ctx,
        });
        self.setup_episode.open_record_indices.push(idx);
    }

    fn close_setup_episode(&mut self, at: SimTime) {
        let mut window = SimDuration::ZERO;
        for idx in self.setup_episode.open_record_indices.drain(..) {
            let rec = &mut self.records[idx];
            rec.duration = at.since(rec.start);
            window += rec.duration;
        }
        self.overhead.add_failure_window(window);
    }

    fn handle_stall_cleared(
        &mut self,
        duration: SimDuration,
        ctx: InSituInfo,
        condition: LinkCondition,
    ) {
        let Some((detected_at, _sus_ctx, sus_condition)) = self.pending_stall.take() else {
            return; // cleared without a matching suspicion: ignore
        };
        // Probe the episode: classification + measured duration.
        let m = self.probe.measure(
            duration,
            sus_condition.min_verdict_condition(condition),
            &mut self.rng,
        );
        self.overhead.on_probe(m.rounds, m.probe_bytes);
        match m.measured {
            None => {
                // Probing classified the episode a false positive.
                let class = if sus_condition.is_system_side() {
                    FalsePositiveClass::SystemSide
                } else {
                    FalsePositiveClass::DnsServiceDown
                };
                self.fp.bump(class);
            }
            Some(measured) => {
                self.push_record(FailureEvent {
                    device: self.device,
                    kind: FailureKind::DataStall,
                    start: detected_at,
                    duration: measured,
                    cause: None,
                    ctx,
                });
            }
        }
    }
}

/// Tiny helper: the probing condition for a stall episode. The condition at
/// suspicion time is what the probe sees; the clear-time condition is only
/// used as a fallback when the suspicion condition was already healthy.
trait MinVerdict {
    fn min_verdict_condition(self, other: LinkCondition) -> LinkCondition;
}

impl MinVerdict for LinkCondition {
    fn min_verdict_condition(self, other: LinkCondition) -> LinkCondition {
        if self == LinkCondition::Healthy {
            other
        } else {
            self
        }
    }
}

impl TelephonyListener for MonitoringService {
    fn on_event(&mut self, at: SimTime, event: &TelephonyEvent) {
        self.events_seen += 1;
        self.overhead.on_event();

        match self.filter.classify(event) {
            FilterDecision::Reject(class) => {
                self.fp.bump(class);
                return;
            }
            FilterDecision::NotAFailure => {
                // Context events still drive bookkeeping below.
            }
            FilterDecision::Record => {}
        }

        match *event {
            TelephonyEvent::DataSetupError { cause, ctx } => {
                self.handle_setup_error(at, cause, ctx);
            }
            TelephonyEvent::DataSetupSuccess { .. } => {
                self.close_setup_episode(at);
            }
            TelephonyEvent::DataStallSuspected { ctx, condition } => {
                self.pending_stall = Some((at, ctx, condition));
            }
            TelephonyEvent::DataStallCleared {
                duration,
                ctx,
                condition,
            } => {
                self.handle_stall_cleared(duration, ctx, condition);
            }
            TelephonyEvent::OutOfServiceBegan { .. } => {
                // Recorded at episode end, when the duration is known.
            }
            TelephonyEvent::OutOfServiceEnded { duration, ctx } => {
                let start = SimTime::ZERO + at.since(SimTime::ZERO).saturating_sub(duration);
                self.push_record(FailureEvent {
                    device: self.device,
                    kind: FailureKind::OutOfService,
                    start,
                    duration,
                    cause: None,
                    ctx,
                });
            }
            TelephonyEvent::SmsSendFailed { ctx } | TelephonyEvent::VoiceSetupFailed { ctx } => {
                let kind = if matches!(event, TelephonyEvent::SmsSendFailed { .. }) {
                    FailureKind::SmsSendFail
                } else {
                    FailureKind::VoiceSetupFail
                };
                self.push_record(FailureEvent {
                    device: self.device,
                    kind,
                    start: at,
                    duration: SimDuration::ZERO,
                    cause: None,
                    ctx,
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_types::{Apn, BsId, DataFailCause, Isp, Rat, SignalLevel};

    fn ctx() -> InSituInfo {
        InSituInfo {
            rat: Rat::G4,
            signal: SignalLevel::L3,
            apn: Apn::Internet,
            bs: Some(BsId::gsm_cn(0, 9, 9)),
            isp: Isp::A,
        }
    }

    fn svc() -> MonitoringService {
        MonitoringService::new(DeviceId(1), SimRng::new(7))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn true_setup_errors_become_records_with_episode_durations() {
        let mut s = svc();
        s.on_event(
            t(10),
            &TelephonyEvent::DataSetupError {
                cause: DataFailCause::SignalLost,
                ctx: ctx(),
            },
        );
        s.on_event(
            t(15),
            &TelephonyEvent::DataSetupError {
                cause: DataFailCause::GprsRegistrationFail,
                ctx: ctx(),
            },
        );
        s.on_event(t(25), &TelephonyEvent::DataSetupSuccess { ctx: ctx() });
        assert_eq!(s.records().len(), 2);
        assert_eq!(s.records()[0].duration, SimDuration::from_secs(15));
        assert_eq!(s.records()[1].duration, SimDuration::from_secs(10));
    }

    #[test]
    fn overload_rejections_are_filtered_not_recorded() {
        let mut s = svc();
        s.on_event(
            t(1),
            &TelephonyEvent::DataSetupError {
                cause: DataFailCause::InsufficientResources,
                ctx: ctx(),
            },
        );
        assert!(s.records().is_empty());
        assert_eq!(s.fp_counters().get(FalsePositiveClass::BsOverload), 1);
    }

    #[test]
    fn network_stall_is_measured_and_recorded() {
        let mut s = svc();
        s.on_event(
            t(100),
            &TelephonyEvent::DataStallSuspected {
                ctx: ctx(),
                condition: LinkCondition::NetworkBlackhole,
            },
        );
        s.on_event(
            t(140),
            &TelephonyEvent::DataStallCleared {
                duration: SimDuration::from_secs(40),
                ctx: ctx(),
                condition: LinkCondition::NetworkBlackhole,
            },
        );
        assert_eq!(s.records().len(), 1);
        let r = &s.records()[0];
        assert_eq!(r.kind, FailureKind::DataStall);
        assert_eq!(r.start, t(100));
        // Probing error ≤ 5 s.
        let err = r.duration.as_secs_f64() - 40.0;
        assert!(
            (0.0..=5.5).contains(&err),
            "measured {} for 40s",
            r.duration
        );
    }

    #[test]
    fn system_side_stall_is_a_false_positive() {
        let mut s = svc();
        s.on_event(
            t(100),
            &TelephonyEvent::DataStallSuspected {
                ctx: ctx(),
                condition: LinkCondition::FirewallMisconfig,
            },
        );
        s.on_event(
            t(400),
            &TelephonyEvent::DataStallCleared {
                duration: SimDuration::from_secs(300),
                ctx: ctx(),
                condition: LinkCondition::FirewallMisconfig,
            },
        );
        assert!(s.records().is_empty());
        assert_eq!(s.fp_counters().get(FalsePositiveClass::SystemSide), 1);
    }

    #[test]
    fn dns_outage_stall_is_a_false_positive() {
        let mut s = svc();
        s.on_event(
            t(100),
            &TelephonyEvent::DataStallSuspected {
                ctx: ctx(),
                condition: LinkCondition::DnsOutage,
            },
        );
        s.on_event(
            t(130),
            &TelephonyEvent::DataStallCleared {
                duration: SimDuration::from_secs(30),
                ctx: ctx(),
                condition: LinkCondition::DnsOutage,
            },
        );
        assert!(s.records().is_empty());
        assert_eq!(s.fp_counters().get(FalsePositiveClass::DnsServiceDown), 1);
    }

    #[test]
    fn cleared_without_suspicion_is_ignored() {
        let mut s = svc();
        s.on_event(
            t(10),
            &TelephonyEvent::DataStallCleared {
                duration: SimDuration::from_secs(5),
                ctx: ctx(),
                condition: LinkCondition::NetworkBlackhole,
            },
        );
        assert!(s.records().is_empty());
    }

    #[test]
    fn oos_episode_recorded_at_end() {
        let mut s = svc();
        s.on_event(t(50), &TelephonyEvent::OutOfServiceBegan { ctx: ctx() });
        assert!(s.records().is_empty());
        s.on_event(
            t(110),
            &TelephonyEvent::OutOfServiceEnded {
                duration: SimDuration::from_secs(60),
                ctx: ctx(),
            },
        );
        assert_eq!(s.records().len(), 1);
        let r = &s.records()[0];
        assert_eq!(r.kind, FailureKind::OutOfService);
        assert_eq!(r.start, t(50));
        assert_eq!(r.duration, SimDuration::from_secs(60));
    }

    #[test]
    fn voice_and_manual_events_counted_as_fp() {
        let mut s = svc();
        s.on_event(t(1), &TelephonyEvent::VoiceCallInterruption);
        s.on_event(t(2), &TelephonyEvent::ManualReset);
        assert_eq!(s.fp_counters().total(), 2);
        assert!(s.records().is_empty());
    }

    #[test]
    fn very_long_stall_reverts_to_vanilla_estimation() {
        // §2.2: past 1200 s the probe timeouts double; once a timeout would
        // exceed one minute the monitor reverts to minute-granular
        // estimation. The recorded duration is therefore minute-aligned.
        let mut s = svc();
        s.on_event(
            t(100),
            &TelephonyEvent::DataStallSuspected {
                ctx: ctx(),
                condition: LinkCondition::NetworkBlackhole,
            },
        );
        let long = SimDuration::from_secs(5000);
        s.on_event(
            t(5100),
            &TelephonyEvent::DataStallCleared {
                duration: long,
                ctx: ctx(),
                condition: LinkCondition::NetworkBlackhole,
            },
        );
        assert_eq!(s.records().len(), 1);
        let r = &s.records()[0];
        assert_eq!(
            r.duration.as_secs() % 60,
            0,
            "vanilla estimate is minute-aligned"
        );
        assert!(r.duration >= long);
        assert!(r.duration <= long + SimDuration::from_secs(60));
    }

    fn setup_error(s: &mut MonitoringService, at_s: u64, cause: DataFailCause) {
        s.on_event(
            t(at_s),
            &TelephonyEvent::DataSetupError { cause, ctx: ctx() },
        );
    }

    #[test]
    fn uploads_flow_through_overhead() {
        let mut s = svc();
        setup_error(&mut s, 10, DataFailCause::SignalLost);
        s.on_event(t(15), &TelephonyEvent::DataSetupSuccess { ctx: ctx() });
        assert_eq!(s.pending_records(), 1);
        s.upload_opportunity(true);
        assert_eq!(s.pending_records(), 0);
        assert!(s.overhead().network_bytes() > 0);
    }

    #[test]
    fn an_upload_carries_the_durations_records_shows() {
        use cellrel_ingest::codec::decode_batch;
        let mut s = svc();
        setup_error(&mut s, 10, DataFailCause::SignalLost);
        setup_error(&mut s, 15, DataFailCause::GprsRegistrationFail);
        // The episode is open: neither duration is known, nothing ships.
        assert!(s.upload_opportunity(true).is_none());
        assert_eq!(s.pending_records(), 2);
        s.on_event(t(25), &TelephonyEvent::DataSetupSuccess { ctx: ctx() });
        let up = s.upload_opportunity(true).expect("a closed episode ships");
        let shipped = decode_batch(&up.payload).expect("decodable").records;
        assert_eq!(shipped, s.records());
        assert_eq!(shipped[0].duration, SimDuration::from_secs(15));
        assert_eq!(shipped[1].duration, SimDuration::from_secs(10));
        assert_eq!(s.pending_records(), 0);
    }

    #[test]
    fn records_behind_an_open_episode_wait_for_it() {
        let mut s = svc();
        s.on_event(
            t(5),
            &TelephonyEvent::OutOfServiceEnded {
                duration: SimDuration::from_secs(3),
                ctx: ctx(),
            },
        );
        setup_error(&mut s, 10, DataFailCause::SignalLost);
        s.on_event(
            t(12),
            &TelephonyEvent::SmsSendFailed {
                ctx: InSituInfo {
                    rat: Rat::G3,
                    isp: Isp::B,
                    ..ctx()
                },
            },
        );
        // Only what precedes the open record is final.
        let up = s.upload_opportunity(true).expect("the OOS record");
        assert_eq!((up.seq, up.records), (0, 1));
        assert_eq!(s.pending_records(), 2);
        assert!(s.upload_opportunity(true).is_none());
        s.on_event(t(20), &TelephonyEvent::DataSetupSuccess { ctx: ctx() });
        let up = s.upload_opportunity(true).expect("the rest");
        assert_eq!((up.seq, up.records), (1, 2));
        // The SMS failure carries the context its event did.
        let sms = s.records()[2];
        assert_eq!(sms.kind, FailureKind::SmsSendFail);
        assert_eq!((sms.ctx.rat, sms.ctx.isp), (Rat::G3, Isp::B));
        assert_eq!(sms.ctx.bs, ctx().bs);
    }
}
