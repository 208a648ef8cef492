//! The binary wire codec for trace batches (§2.2's "compressed upload").
//!
//! A batch is every record one device ships in one upload. The format is a
//! compact, self-delimiting binary layout built from three primitives:
//!
//! * **LEB128 varints** — small integers (counts, codes, BS fields) cost one
//!   byte instead of a fixed-width word;
//! * **delta-of-timestamps** — records are sorted by start time at encode
//!   time and each start is stored as the (non-negative) varint delta from
//!   its predecessor, so an 8-byte millisecond timestamp shrinks to a few
//!   bytes;
//! * **per-batch framing** — magic + schema version + device id + batch
//!   sequence number up front, CRC-32 of everything at the back, so the
//!   collector can reject truncated or corrupted uploads without panicking
//!   and deduplicate re-delivered batches by `(device, seq)`.
//!
//! ```text
//! batch := "CB" version:u8 device:varint seq:varint count:varint record* crc32:u32le
//! record := kind:u8 delta_start:varint duration_ms:varint cause:varint
//!           rat:u8 signal:u8 apn:u8 bs_tag:u8 bs_fields* isp:u8
//! ```
//!
//! `cause` is `0` for none, otherwise `1 + zigzag(code)`. `bs_tag` is 0/1/2
//! for none/GSM/CDMA, followed by the identity fields as varints. Records
//! within a batch are canonically ordered (by start, then kind, duration,
//! cause, context), which both maximises delta compression and makes the
//! encoding a pure function of the record *set* — two uploads of the same
//! records encode to identical bytes.
//!
//! The envelope (magic, version, CRC, check order) and the bounded reader
//! are [`crate::frame`]'s. Decoding is total: every failure mode maps to a
//! [`FrameError`], never a panic, no matter how adversarial the input.

use crate::frame::{seal, write_varint, FrameError, CB};
pub use crate::frame::{unzigzag, zigzag};
use cellrel_types::{
    Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
    SignalLevel, SimDuration, SimTime,
};

/// Current schema version.
pub(crate) const SCHEMA_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// Batch encode.
// ---------------------------------------------------------------------------

/// A decoded upload batch: one device's records, in canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct WireBatch {
    /// The uploading device.
    pub device: DeviceId,
    /// Per-device upload sequence number (dedup key).
    pub seq: u64,
    /// The records, sorted by the canonical ordering.
    pub records: Vec<FailureEvent>,
}

/// The canonical intra-batch ordering: start, kind, duration, cause code,
/// then radio context. Total, so encoding is a function of the record set.
fn canonical_key(e: &FailureEvent) -> (u64, usize, u64, i64, u8, u8, u8, u64, u8) {
    (
        e.start.as_millis(),
        e.kind.index(),
        e.duration.as_millis(),
        e.cause.map_or(i64::MIN, |c| i64::from(c.code())),
        e.ctx.rat.index() as u8,
        e.ctx.signal.value(),
        e.ctx.apn.index() as u8,
        e.ctx.bs.map_or(u64::MAX, |b| b.as_u64()),
        e.ctx.isp.index() as u8,
    )
}

/// Encode one device's records as a wire batch.
///
/// The `device` in the header is authoritative; per-record device ids are
/// not serialized (a batch is single-device by construction — debug builds
/// assert it). Records are sorted into canonical order first, so the same
/// record set always produces the same bytes.
pub fn encode_batch(device: DeviceId, seq: u64, records: &[FailureEvent]) -> Vec<u8> {
    debug_assert!(
        records.iter().all(|r| r.device == device),
        "batch contains records from another device"
    );
    let mut sorted: Vec<&FailureEvent> = records.iter().collect();
    sorted.sort_by_key(|e| canonical_key(e));

    let mut out = Vec::with_capacity(16 + records.len() * 24);
    let start = CB.begin(&mut out, SCHEMA_VERSION);
    write_varint(&mut out, u64::from(device.0));
    write_varint(&mut out, seq);
    write_varint(&mut out, sorted.len() as u64);

    let mut prev_start = 0u64;
    for e in sorted {
        out.push(e.kind.index() as u8);
        let start = e.start.as_millis();
        write_varint(&mut out, start - prev_start);
        prev_start = start;
        write_varint(&mut out, e.duration.as_millis());
        match e.cause {
            None => out.push(0),
            Some(c) => write_varint(&mut out, 1 + zigzag(i64::from(c.code()))),
        }
        out.push(e.ctx.rat.index() as u8);
        out.push(e.ctx.signal.value());
        out.push(e.ctx.apn.index() as u8);
        match e.ctx.bs {
            None => out.push(0),
            Some(BsId::Gsm { mcc, mnc, lac, cid }) => {
                out.push(1);
                write_varint(&mut out, u64::from(mcc));
                write_varint(&mut out, u64::from(mnc));
                write_varint(&mut out, u64::from(lac));
                write_varint(&mut out, u64::from(cid));
            }
            Some(BsId::Cdma { sid, nid, bid }) => {
                out.push(2);
                write_varint(&mut out, u64::from(sid));
                write_varint(&mut out, u64::from(nid));
                write_varint(&mut out, u64::from(bid));
            }
        }
        out.push(e.ctx.isp.index() as u8);
    }
    seal(&mut out, start);
    out
}

// ---------------------------------------------------------------------------
// Batch decode.
// ---------------------------------------------------------------------------

/// Decode a wire batch. Total: any malformed input yields a [`FrameError`].
pub fn decode_batch(bytes: &[u8]) -> Result<WireBatch, FrameError> {
    let mut r = CB.open(bytes)?;
    let device = DeviceId(r.narrow("device")?);
    let seq = r.varint()?;
    // Each record is ≥ 9 bytes on the wire.
    let count = r.count("count", 9)?;

    let mut records = Vec::with_capacity(count);
    let mut prev_start = 0u64;
    for _ in 0..count {
        let kind = FailureKind::from_index(usize::from(r.u8()?)).ok_or(r.invalid("kind"))?;
        let delta = r.varint()?;
        let start = prev_start.checked_add(delta).ok_or(r.invalid("start"))?;
        prev_start = start;
        let duration = r.varint()?;
        let cause = match r.varint()? {
            0 => None,
            c => {
                let code = i32::try_from(unzigzag(c - 1)).map_err(|_| r.invalid("cause"))?;
                Some(DataFailCause::from_code(code))
            }
        };
        let rat = Rat::from_index(usize::from(r.u8()?)).ok_or(r.invalid("rat"))?;
        let signal_raw = r.u8()?;
        if signal_raw > 5 {
            return Err(r.invalid("signal"));
        }
        let signal = SignalLevel::new(signal_raw);
        let apn = Apn::from_index(usize::from(r.u8()?)).ok_or(r.invalid("apn"))?;
        let bs = match r.u8()? {
            0 => None,
            1 => Some(BsId::Gsm {
                mcc: r.narrow("mcc")?,
                mnc: r.narrow("mnc")?,
                lac: r.narrow("lac")?,
                cid: r.narrow("cid")?,
            }),
            2 => Some(BsId::Cdma {
                sid: r.narrow("sid")?,
                nid: r.narrow("nid")?,
                bid: r.narrow("bid")?,
            }),
            _ => return Err(r.invalid("bs_tag")),
        };
        let isp = Isp::from_index(usize::from(r.u8()?)).ok_or(r.invalid("isp"))?;
        records.push(FailureEvent {
            device,
            kind,
            start: SimTime::from_millis(start),
            duration: SimDuration::from_millis(duration),
            cause,
            ctx: InSituInfo {
                rat,
                signal,
                apn,
                bs,
                isp,
            },
        });
    }
    r.finish()?;
    Ok(WireBatch {
        device,
        seq,
        records,
    })
}

/// Peek at a batch header without validating the version or CRC or parsing
/// records — the router uses this to shard batches by device cheaply.
pub fn peek_device(bytes: &[u8]) -> Result<DeviceId, FrameError> {
    Ok(DeviceId(CB.peek(bytes)?.narrow("device")?))
}

/// The raw (pre-codec) size estimate of one record, bytes — the fixed-width
/// row the monitor budgets storage with. The codec's win is measured
/// against this.
pub const RAW_RECORD_BYTES: u64 = 35;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{crc32, FrameErrorKind, Reader};

    fn ev(start_ms: u64, kind: FailureKind, cause: Option<DataFailCause>) -> FailureEvent {
        FailureEvent {
            device: DeviceId(42),
            kind,
            start: SimTime::from_millis(start_ms),
            duration: SimDuration::from_secs(12),
            cause,
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L3,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(1, 500, 77)),
                isp: Isp::B,
            },
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut r = Reader::bare(&CB, &buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.finish(), Ok(()));
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn batch_round_trips_sorted() {
        let records = vec![
            ev(5_000, FailureKind::DataStall, None),
            ev(
                1_000,
                FailureKind::DataSetupError,
                Some(DataFailCause::PppTimeout),
            ),
            ev(9_000, FailureKind::OutOfService, None),
        ];
        let bytes = encode_batch(DeviceId(42), 7, &records);
        let decoded = decode_batch(&bytes).expect("round trip");
        assert_eq!(decoded.device, DeviceId(42));
        assert_eq!(decoded.seq, 7);
        assert_eq!(decoded.records.len(), 3);
        // Canonical order: sorted by start.
        assert_eq!(decoded.records[0].start.as_millis(), 1_000);
        assert_eq!(decoded.records[1].start.as_millis(), 5_000);
        assert_eq!(decoded.records[2].start.as_millis(), 9_000);
        assert_eq!(decoded.records[0].cause, Some(DataFailCause::PppTimeout));
        assert_eq!(decoded.records[1].ctx.isp, Isp::B);
    }

    #[test]
    fn encoding_beats_raw_rows() {
        let records: Vec<FailureEvent> = (0..100)
            .map(|i| ev(i * 30_000, FailureKind::DataStall, None))
            .collect();
        let bytes = encode_batch(DeviceId(42), 0, &records);
        let raw = records.len() as u64 * RAW_RECORD_BYTES;
        assert!(
            (bytes.len() as u64) < raw,
            "encoded {} vs raw {raw}",
            bytes.len()
        );
    }

    #[test]
    fn encoded_size_is_compact() {
        // The raw row: device, kind, start, duration, cause (optional flag
        // folded in), then the context: rat, level, apn, bs, isp.
        let fields = [4u64, 1, 8, 8, 2, 1, 1, 1, 8, 1];
        assert_eq!(fields.iter().sum::<u64>(), RAW_RECORD_BYTES);
    }

    #[test]
    fn empty_batch_round_trips() {
        let bytes = encode_batch(DeviceId(3), 1, &[]);
        let decoded = decode_batch(&bytes).expect("empty batch");
        assert_eq!(decoded.records.len(), 0);
        assert_eq!(decoded.seq, 1);
    }

    #[test]
    fn corruption_is_detected_by_crc() {
        let bytes = encode_batch(DeviceId(42), 0, &[ev(10, FailureKind::DataStall, None)]);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let r = decode_batch(&bad);
            assert!(r.is_err(), "flipping byte {i} went unnoticed");
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut bytes = encode_batch(DeviceId(1), 0, &[]);
        bytes[0] = b'X';
        assert_eq!(
            decode_batch(&bytes),
            Err(CB.error(FrameErrorKind::BadMagic { found: *b"XB" }))
        );

        // The version is checked before the CRC, so no re-seal is needed.
        let mut v9 = encode_batch(DeviceId(1), 0, &[]);
        v9[2] = 9;
        assert_eq!(
            decode_batch(&v9),
            Err(CB.error(FrameErrorKind::UnsupportedVersion(9)))
        );
    }

    #[test]
    fn peek_device_reads_header_only() {
        let bytes = encode_batch(DeviceId(1234), 9, &[]);
        assert_eq!(peek_device(&bytes).unwrap(), DeviceId(1234));
        assert!(peek_device(&bytes[..2]).is_err());
    }
}
