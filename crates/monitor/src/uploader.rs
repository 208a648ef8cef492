//! WiFi-gated trace upload (§2.2).
//!
//! Traces are compressed and uploaded to the backend; for heavy users
//! ("recorded data are uploaded to our backend server only when there is
//! WiFi connectivity") the uploader defers until WiFi is available.
//!
//! Batches ship as real `cellrel-ingest` wire bytes: each flush encodes the
//! pending records with [`encode_batch`] under a per-device upload sequence
//! number, so the network byte counts fed to overhead accounting are the
//! actual encoded sizes (varint + delta-of-timestamp + CRC framing), not an
//! assumed compression ratio, and the backend can deduplicate re-delivered
//! batches by `(device, seq)`.

use crate::trace::TraceRecord;
use cellrel_ingest::codec::encode_batch;
use cellrel_types::{DeviceId, FailureEvent, SimTime};

/// Pending raw bytes above which an upload is forced to wait for WiFi
/// (typical users' volumes are tiny, so cellular upload is fine; heavy
/// users batch until WiFi).
const CELLULAR_OK_THRESHOLD: u64 = 64 * 1024;

/// One flushed upload: the encoded wire batch plus its bookkeeping.
#[derive(Debug, Clone)]
pub struct EncodedUpload {
    /// The upload sequence number the batch was framed with.
    pub seq: u64,
    /// Records in the batch.
    pub records: u64,
    /// The encoded wire bytes (what actually crosses the network).
    pub payload: Vec<u8>,
}

/// The trace uploader: batches records and flushes opportunistically.
#[derive(Debug, Clone)]
pub struct Uploader {
    device: DeviceId,
    pending: Vec<TraceRecord>,
    pending_raw_bytes: u64,
    next_seq: u64,
    uploaded_records: u64,
    uploaded_bytes_encoded: u64,
    uploads: u32,
    last_upload: Option<SimTime>,
}

impl Uploader {
    /// Fresh uploader for one device.
    pub fn new(device: DeviceId) -> Self {
        Uploader {
            device,
            pending: Vec::new(),
            pending_raw_bytes: 0,
            next_seq: 0,
            uploaded_records: 0,
            uploaded_bytes_encoded: 0,
            uploads: 0,
            last_upload: None,
        }
    }

    /// Queue one record for upload.
    pub fn enqueue(&mut self, record: &TraceRecord) {
        self.pending_raw_bytes += record.encoded_size();
        self.pending.push(*record);
    }

    /// Records waiting for upload.
    pub fn pending_records(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Encoded wire bytes shipped so far.
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes_encoded
    }

    /// Records shipped so far.
    pub fn uploaded_records(&self) -> u64 {
        self.uploaded_records
    }

    /// Number of upload batches.
    pub fn uploads(&self) -> u32 {
        self.uploads
    }

    /// An upload opportunity: flush if WiFi is available, or if the pending
    /// volume is small enough that cellular upload is fine. Returns the
    /// encoded batch that was shipped (the caller feeds `payload.len()` to
    /// overhead accounting and the bytes to the backend), or `None` if
    /// nothing was shipped.
    pub fn try_upload(&mut self, now: SimTime, wifi_available: bool) -> Option<EncodedUpload> {
        if self.pending.is_empty() {
            return None;
        }
        let small = self.pending_raw_bytes <= CELLULAR_OK_THRESHOLD;
        if !wifi_available && !small {
            return None;
        }
        let events: Vec<FailureEvent> = self.pending.iter().map(|r| r.to_failure_event()).collect();
        let seq = self.next_seq;
        let payload = encode_batch(self.device, seq, &events);
        let records = self.pending.len() as u64;

        self.next_seq += 1;
        self.uploaded_records += records;
        self.uploaded_bytes_encoded += payload.len() as u64;
        self.uploads += 1;
        self.pending.clear();
        self.pending_raw_bytes = 0;
        self.last_upload = Some(now);
        Some(EncodedUpload {
            seq,
            records,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_ingest::codec::{decode_batch, RAW_RECORD_BYTES};
    use cellrel_types::{Apn, BsId, FailureKind, InSituInfo, Isp, Rat, SignalLevel, SimDuration};

    fn record(start_s: u64) -> TraceRecord {
        TraceRecord {
            device: DeviceId(9),
            kind: FailureKind::DataStall,
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(14),
            cause: None,
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L3,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(0, 40, 1200)),
                isp: Isp::A,
            },
        }
    }

    #[test]
    fn small_batches_upload_over_cellular() {
        let mut u = Uploader::new(DeviceId(9));
        u.enqueue(&record(10));
        u.enqueue(&record(20));
        let up = u
            .try_upload(SimTime::from_secs(30), false)
            .expect("small batch uploads without wifi");
        assert_eq!(up.records, 2);
        assert!(
            (up.payload.len() as u64) < 2 * RAW_RECORD_BYTES,
            "codec must beat the raw rows: {} bytes",
            up.payload.len()
        );
        assert_eq!(u.pending_records(), 0);
    }

    #[test]
    fn large_batches_wait_for_wifi() {
        let mut u = Uploader::new(DeviceId(9));
        for i in 0..3000 {
            u.enqueue(&record(i * 30)); // 105 KB raw > threshold
        }
        assert!(u.try_upload(SimTime::from_secs(1), false).is_none());
        assert_eq!(u.pending_records(), 3000);
        let up = u
            .try_upload(SimTime::from_secs(2), true)
            .expect("wifi flushes");
        assert_eq!(up.records, 3000);
    }

    #[test]
    fn payload_is_a_decodable_wire_batch() {
        let mut u = Uploader::new(DeviceId(9));
        u.enqueue(&record(5));
        u.enqueue(&record(65));
        let up = u.try_upload(SimTime::from_secs(100), true).unwrap();
        let batch = decode_batch(&up.payload).expect("uploader ships valid batches");
        assert_eq!(batch.device, DeviceId(9));
        assert_eq!(batch.seq, up.seq);
        assert_eq!(batch.records.len(), 2);
        assert_eq!(batch.records[0].start, SimTime::from_secs(5));
    }

    #[test]
    fn sequence_numbers_increase_per_flush() {
        let mut u = Uploader::new(DeviceId(9));
        u.enqueue(&record(1));
        let first = u.try_upload(SimTime::from_secs(1), true).unwrap();
        u.enqueue(&record(2));
        let second = u.try_upload(SimTime::from_secs(2), true).unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(second.seq, 1);
    }

    #[test]
    fn empty_uploader_is_quiet() {
        let mut u = Uploader::new(DeviceId(9));
        assert!(u.try_upload(SimTime::ZERO, true).is_none());
        assert_eq!(u.uploads(), 0);
    }

    #[test]
    fn totals_accumulate_encoded_bytes() {
        let mut u = Uploader::new(DeviceId(9));
        u.enqueue(&record(1));
        let a = u.try_upload(SimTime::from_secs(1), true).unwrap();
        u.enqueue(&record(2));
        let b = u.try_upload(SimTime::from_secs(2), true).unwrap();
        assert_eq!(u.uploaded_records(), 2);
        assert_eq!(u.uploads(), 2);
        assert_eq!(
            u.uploaded_bytes(),
            (a.payload.len() + b.payload.len()) as u64
        );
    }
}
