//! The backend: centralized trace collection (§2.3).
//!
//! "All data are compressed and uploaded to our backend server for
//! centralized analysis." The [`Backend`] ingests per-device trace batches
//! and produces the fleet-level aggregates the analysis layer consumes —
//! the same statistics the macro study computes, but derived bottom-up from
//! fully simulated devices.

use crate::trace::TraceRecord;
use cellrel_ingest::{decode_batch, FrameError};
use cellrel_types::{DeviceId, FailureEvent, FailureKind, SimDuration};
use std::collections::HashMap;

/// The central trace store.
#[derive(Debug, Default)]
pub struct Backend {
    records: Vec<TraceRecord>,
    per_device: HashMap<DeviceId, u32>,
    /// Devices registered (including those that never failed — needed for
    /// prevalence denominators).
    enrolled: u32,
    uploads: u64,
    uploaded_bytes: u64,
}

/// Fleet-level aggregates computed by the backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSummary {
    /// Enrolled devices.
    pub devices: u32,
    /// Devices with ≥1 recorded failure.
    pub failing_devices: u32,
    /// Total recorded failures.
    pub failures: u64,
    /// Prevalence (failing / enrolled).
    pub prevalence: f64,
    /// Frequency (failures / enrolled).
    pub frequency: f64,
    /// Failure counts by kind.
    pub by_kind: [u64; 5],
    /// Total failure duration, seconds.
    pub total_duration_secs: f64,
    /// Data_Stall share of total duration.
    pub stall_duration_share: f64,
}

impl Backend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a device (called at opt-in; zero-failure devices matter for
    /// prevalence).
    pub fn enroll(&mut self, _device: DeviceId) {
        self.enrolled += 1;
    }

    /// Ingest one upload batch from a device (in-process path; byte
    /// accounting uses the raw row size since nothing crossed a wire).
    pub fn ingest(&mut self, device: DeviceId, batch: Vec<TraceRecord>) {
        self.uploads += 1;
        for r in &batch {
            debug_assert_eq!(r.device, device, "record attributed to wrong device");
            self.uploaded_bytes += r.encoded_size();
        }
        *self.per_device.entry(device).or_default() += batch.len() as u32;
        self.records.extend(batch);
    }

    /// Ingest one encoded wire batch — the path real uploads take. Byte
    /// accounting uses the actual encoded length. Returns the record count,
    /// or the decode error for corrupt/truncated uploads (which leave the
    /// backend state untouched).
    pub fn ingest_encoded(&mut self, bytes: &[u8]) -> Result<u64, FrameError> {
        let batch = decode_batch(bytes)?;
        self.uploads += 1;
        self.uploaded_bytes += bytes.len() as u64;
        *self.per_device.entry(batch.device).or_default() += batch.records.len() as u32;
        let n = batch.records.len() as u64;
        self.records
            .extend(batch.records.iter().map(TraceRecord::from_failure_event));
        Ok(n)
    }

    /// All ingested records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Enrolled device count.
    pub fn enrolled(&self) -> u32 {
        self.enrolled
    }

    /// Upload batches received.
    pub fn uploads(&self) -> u64 {
        self.uploads
    }

    /// Raw bytes received.
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes
    }

    /// Convert to analysis-layer failure events.
    pub fn failure_events(&self) -> Vec<FailureEvent> {
        self.records.iter().map(|r| r.to_failure_event()).collect()
    }

    /// Data_Stall durations in seconds (Fig. 10 / Fig. 21 inputs).
    pub fn stall_durations_secs(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.kind == FailureKind::DataStall)
            .map(|r| r.duration.as_secs_f64())
            .collect()
    }

    /// Compute the fleet summary.
    pub fn summary(&self) -> FleetSummary {
        let mut by_kind = [0u64; 5];
        let mut total_duration = SimDuration::ZERO;
        let mut stall_duration = SimDuration::ZERO;
        for r in &self.records {
            by_kind[r.kind.index()] += 1;
            total_duration += r.duration;
            if r.kind == FailureKind::DataStall {
                stall_duration += r.duration;
            }
        }
        let devices = self.enrolled.max(self.per_device.len() as u32);
        let failing = self.per_device.values().filter(|&&c| c > 0).count() as u32;
        let failures = self.records.len() as u64;
        FleetSummary {
            devices,
            failing_devices: failing,
            failures,
            prevalence: failing as f64 / devices.max(1) as f64,
            frequency: failures as f64 / devices.max(1) as f64,
            by_kind,
            total_duration_secs: total_duration.as_secs_f64(),
            stall_duration_share: if total_duration.is_zero() {
                0.0
            } else {
                stall_duration.as_secs_f64() / total_duration.as_secs_f64()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_types::{Apn, BsId, InSituInfo, Isp, Rat, SignalLevel, SimTime};

    fn record(device: u32, kind: FailureKind, secs: u64) -> TraceRecord {
        TraceRecord {
            device: DeviceId(device),
            kind,
            start: SimTime::from_secs(10),
            duration: SimDuration::from_secs(secs),
            cause: None,
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L3,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(0, 1, 1)),
                isp: Isp::A,
            },
        }
    }

    #[test]
    fn summary_aggregates_across_devices() {
        let mut b = Backend::new();
        for i in 0..10 {
            b.enroll(DeviceId(i));
        }
        b.ingest(
            DeviceId(0),
            vec![
                record(0, FailureKind::DataStall, 100),
                record(0, FailureKind::DataSetupError, 10),
            ],
        );
        b.ingest(DeviceId(1), vec![record(1, FailureKind::DataStall, 50)]);

        let s = b.summary();
        assert_eq!(s.devices, 10);
        assert_eq!(s.failing_devices, 2);
        assert_eq!(s.failures, 3);
        assert!((s.prevalence - 0.2).abs() < 1e-12);
        assert!((s.frequency - 0.3).abs() < 1e-12);
        assert_eq!(s.by_kind[FailureKind::DataStall.index()], 2);
        assert!((s.total_duration_secs - 160.0).abs() < 1e-9);
        assert!((s.stall_duration_share - 150.0 / 160.0).abs() < 1e-9);
    }

    #[test]
    fn stall_durations_filter_by_kind() {
        let mut b = Backend::new();
        b.enroll(DeviceId(0));
        b.ingest(
            DeviceId(0),
            vec![
                record(0, FailureKind::DataStall, 30),
                record(0, FailureKind::OutOfService, 99),
            ],
        );
        assert_eq!(b.stall_durations_secs(), vec![30.0]);
        assert_eq!(b.failure_events().len(), 2);
    }

    #[test]
    fn empty_backend_is_sane() {
        let b = Backend::new();
        let s = b.summary();
        assert_eq!(s.failures, 0);
        assert_eq!(s.prevalence, 0.0);
        assert_eq!(s.stall_duration_share, 0.0);
    }

    #[test]
    fn byte_accounting() {
        let mut b = Backend::new();
        b.enroll(DeviceId(0));
        b.ingest(DeviceId(0), vec![record(0, FailureKind::DataStall, 1)]);
        assert_eq!(b.uploads(), 1);
        assert_eq!(b.uploaded_bytes(), 35);
    }

    #[test]
    fn encoded_ingest_counts_wire_bytes() {
        let mut b = Backend::new();
        b.enroll(DeviceId(0));
        let records = [
            record(0, FailureKind::DataStall, 30),
            record(0, FailureKind::OutOfService, 99),
        ];
        let events: Vec<_> = records.iter().map(|r| r.to_failure_event()).collect();
        let bytes = cellrel_ingest::codec::encode_batch(DeviceId(0), 0, &events);
        assert_eq!(b.ingest_encoded(&bytes).unwrap(), 2);
        assert_eq!(b.uploaded_bytes(), bytes.len() as u64);
        assert_eq!(b.records().len(), 2);
        assert_eq!(b.summary().failing_devices, 1);

        // A corrupt upload errors out and leaves the state untouched.
        let mut bad = bytes.clone();
        bad[5] ^= 0xff;
        assert!(b.ingest_encoded(&bad).is_err());
        assert_eq!(b.records().len(), 2);
        assert_eq!(b.uploaded_bytes(), bytes.len() as u64);
    }
}
