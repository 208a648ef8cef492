//! WiFi-gated trace upload (§2.2).
//!
//! Traces are compressed and uploaded to the backend; for heavy users
//! ("recorded data are uploaded to our backend server only when there is
//! WiFi connectivity") the uploader defers until WiFi is available.
//!
//! The uploader holds no records. The device's dataset lives once, in
//! [`MonitoringService`](crate::MonitoringService); the uploader keeps how
//! far into that list it has shipped, and each flush encodes the next run
//! of it with [`encode_batch`] under a per-device upload sequence number.
//! The network byte counts fed to overhead accounting are therefore the
//! actual encoded sizes (varint + delta-of-timestamp + CRC framing), not an
//! assumed compression ratio, and the collector deduplicates a re-delivered
//! batch by `(device, seq)`.

use cellrel_ingest::codec::{encode_batch, RAW_RECORD_BYTES};
use cellrel_types::{DeviceId, FailureEvent, SimTime};

/// Unshipped raw bytes above which an upload is forced to wait for WiFi
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

/// The trace uploader: a position in the device's record list, flushed
/// opportunistically.
#[derive(Debug, Clone)]
pub struct Uploader {
    device: DeviceId,
    /// Records shipped so far — the list's first `shipped` entries.
    shipped: usize,
    next_seq: u64,
    uploaded_bytes_encoded: u64,
    uploads: u32,
    last_upload: Option<SimTime>,
}

impl Uploader {
    /// Fresh uploader for one device.
    pub fn new(device: DeviceId) -> Self {
        Uploader {
            device,
            shipped: 0,
            next_seq: 0,
            uploaded_bytes_encoded: 0,
            uploads: 0,
            last_upload: None,
        }
    }

    /// Encoded wire bytes shipped so far.
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes_encoded
    }

    /// Records shipped so far.
    pub fn uploaded_records(&self) -> u64 {
        self.shipped as u64
    }

    /// Number of upload batches.
    pub fn uploads(&self) -> u32 {
        self.uploads
    }

    /// An upload opportunity over `ready`, the leading part of the device's
    /// record list that is final (it only ever grows): flush what of it has
    /// not shipped yet if WiFi is available, or if that is small enough
    /// that cellular upload is fine. Returns the encoded batch that was
    /// shipped (the caller feeds `payload.len()` to overhead accounting and
    /// the bytes to the collector), or `None` if nothing was shipped.
    pub fn try_upload(
        &mut self,
        now: SimTime,
        wifi_available: bool,
        ready: &[FailureEvent],
    ) -> Option<EncodedUpload> {
        let unshipped = &ready[self.shipped..];
        if unshipped.is_empty() {
            return None;
        }
        let small = unshipped.len() as u64 * RAW_RECORD_BYTES <= CELLULAR_OK_THRESHOLD;
        if !wifi_available && !small {
            return None;
        }
        let seq = self.next_seq;
        let payload = encode_batch(self.device, seq, unshipped);
        let records = unshipped.len() as u64;

        self.next_seq += 1;
        self.shipped = ready.len();
        self.uploaded_bytes_encoded += payload.len() as u64;
        self.uploads += 1;
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
    use cellrel_ingest::codec::decode_batch;
    use cellrel_types::{Apn, BsId, FailureKind, InSituInfo, Isp, Rat, SignalLevel, SimDuration};

    fn record(start_s: u64) -> FailureEvent {
        FailureEvent {
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
        let list = [record(10), record(20)];
        let up = u
            .try_upload(SimTime::from_secs(30), false, &list)
            .expect("small batch uploads without wifi");
        assert_eq!(up.records, 2);
        assert!(
            (up.payload.len() as u64) < 2 * RAW_RECORD_BYTES,
            "codec must beat the raw rows: {} bytes",
            up.payload.len()
        );
        assert_eq!(u.uploaded_records(), 2);
    }

    #[test]
    fn large_batches_wait_for_wifi() {
        let mut u = Uploader::new(DeviceId(9));
        // 105 KB raw > threshold
        let list: Vec<FailureEvent> = (0..3000).map(|i| record(i * 30)).collect();
        assert!(u.try_upload(SimTime::from_secs(1), false, &list).is_none());
        assert_eq!(u.uploaded_records(), 0);
        let up = u
            .try_upload(SimTime::from_secs(2), true, &list)
            .expect("wifi flushes");
        assert_eq!(up.records, 3000);
    }

    #[test]
    fn payload_is_a_decodable_wire_batch() {
        let mut u = Uploader::new(DeviceId(9));
        let list = [record(5), record(65)];
        let up = u.try_upload(SimTime::from_secs(100), true, &list).unwrap();
        let batch = decode_batch(&up.payload).expect("uploader ships valid batches");
        assert_eq!(batch.device, DeviceId(9));
        assert_eq!(batch.seq, up.seq);
        assert_eq!(batch.records, list);
    }

    #[test]
    fn sequence_numbers_increase_per_flush() {
        let mut u = Uploader::new(DeviceId(9));
        let list = [record(1), record(2)];
        let first = u
            .try_upload(SimTime::from_secs(1), true, &list[..1])
            .unwrap();
        let second = u.try_upload(SimTime::from_secs(2), true, &list).unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(second.seq, 1);
        // The second flush ships only what the first did not.
        assert_eq!(decode_batch(&second.payload).unwrap().records, list[1..]);
    }

    #[test]
    fn empty_uploader_is_quiet() {
        let mut u = Uploader::new(DeviceId(9));
        assert!(u.try_upload(SimTime::ZERO, true, &[]).is_none());
        assert_eq!(u.uploads(), 0);
        // Nothing new since the last flush is as quiet as nothing at all.
        let list = [record(1)];
        assert!(u.try_upload(SimTime::ZERO, true, &list).is_some());
        assert!(u.try_upload(SimTime::ZERO, true, &list).is_none());
        assert_eq!(u.uploads(), 1);
    }

    #[test]
    fn totals_accumulate_encoded_bytes() {
        let mut u = Uploader::new(DeviceId(9));
        let list = [record(1), record(2)];
        let a = u
            .try_upload(SimTime::from_secs(1), true, &list[..1])
            .unwrap();
        let b = u.try_upload(SimTime::from_secs(2), true, &list).unwrap();
        assert_eq!(u.uploaded_records(), 2);
        assert_eq!(u.uploads(), 2);
        assert_eq!(
            u.uploaded_bytes(),
            (a.payload.len() + b.payload.len()) as u64
        );
    }
}
