//! Property tests for the columnar `SC` segment codec: encode/decode is
//! an exact round trip on arbitrary segments, and decoding is **total** —
//! truncations, bit flips, and garbage return a typed [`FrameError`],
//! never panic, and never allocate proportionally to a hostile length
//! claim. Same discipline as the store-image and checkpoint codecs.

use cellrel_ingest::frame::{FrameError, FrameErrorKind, Reader, SC};
use cellrel_store::ColumnSegment;
use cellrel_types::{
    Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
    SignalLevel, SimDuration, SimTime,
};
use proptest::prelude::*;

/// The varying material of one event, shaped like the store property
/// tests (the vendored proptest implements `Strategy` for tuples of ≤ 5
/// elements only).
type EventParts = (
    (u32, u64, u64),      // device, start ms, duration ms
    (usize, Option<i32>), // kind index, cause code
    (usize, usize),       // rat, isp
);

fn parts_strategy() -> impl Strategy<Value = EventParts> {
    (
        (0u32..32, 0u64..30 * 86_400_000, 0u64..1 << 22),
        (0usize..5, prop::option::of(-20i32..4000)),
        (0usize..4, 0usize..3),
    )
}

fn build_event(p: &EventParts) -> FailureEvent {
    let ((device, start, duration), (kind, cause), (rat, isp)) = *p;
    FailureEvent {
        device: DeviceId(device),
        kind: FailureKind::from_index(kind).expect("kind < 5"),
        start: SimTime::from_millis(start),
        duration: SimDuration::from_millis(duration),
        cause: cause.map(DataFailCause::from_code),
        ctx: InSituInfo {
            rat: Rat::from_index(rat).expect("rat < 4"),
            signal: SignalLevel::L3,
            apn: Apn::Internet,
            bs: Some(BsId::gsm_cn(0, 1, 2)),
            isp: Isp::from_index(isp).expect("isp < 3"),
        },
    }
}

/// Build a segment by sealing a store fed with the generated events, so
/// the rows carry realistic sketches, causes and aliasing.
fn segment_from(parts: &[EventParts]) -> Option<ColumnSegment> {
    let cfg = cellrel_store::StoreConfig {
        partitions: 1,
        ..cellrel_store::StoreConfig::default()
    };
    let dir = cellrel_store::DeviceDirectory::default();
    let mut s = cellrel_store::Store::new(&cfg);
    for p in parts {
        let e = build_event(p);
        s.record(&e, dir.dim_of(e.device));
    }
    s.seal_columnar();
    s.segment_blocks()
        .first()
        .map(|b| decode(b).expect("sealed segment decodes"))
}

/// Decode exactly one block: trailing bytes are an error.
fn decode(bytes: &[u8]) -> Result<ColumnSegment, FrameError> {
    let mut r = Reader::bare(&SC, bytes);
    let seg = ColumnSegment::decode(&mut r)?;
    r.finish()?;
    Ok(seg)
}

fn encode(seg: &ColumnSegment) -> Vec<u8> {
    let mut out = Vec::new();
    seg.encode(&mut out);
    out
}

proptest! {
    #[test]
    fn encode_decode_round_trips_exactly(
        parts in prop::collection::vec(parts_strategy(), 1..150),
    ) {
        let seg = segment_from(&parts).expect("non-empty segment");
        let bytes = encode(&seg);
        let back = decode(&bytes).expect("round trip");
        prop_assert_eq!(&back, &seg);
        // Re-encoding the decoded segment is byte-stable.
        prop_assert_eq!(encode(&back), bytes);
    }

    /// Every truncation of a valid block fails with a typed error — no
    /// panic, no partial segment.
    #[test]
    fn truncation_is_a_typed_error(
        parts in prop::collection::vec(parts_strategy(), 1..60),
        frac in 0.0f64..1.0,
    ) {
        let seg = segment_from(&parts).expect("non-empty segment");
        let bytes = encode(&seg);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(decode(&bytes[..cut]).is_err());
    }

    /// Every single-bit flip fails: the CRC trailer seals the whole block,
    /// so structurally-plausible corruption cannot slip through.
    #[test]
    fn bit_flips_are_typed_errors(
        parts in prop::collection::vec(parts_strategy(), 1..60),
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let seg = segment_from(&parts).expect("non-empty segment");
        let mut bytes = encode(&seg);
        let i = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[i] ^= 1 << bit;
        prop_assert!(decode(&bytes).is_err());
    }

    /// Arbitrary garbage — magic-prefixed or not — decodes to a typed
    /// error without panicking or over-allocating.
    #[test]
    fn garbage_is_a_typed_error(
        mut junk in prop::collection::vec(any::<u8>(), 0..300),
        with_magic in any::<bool>(),
    ) {
        if with_magic && junk.len() >= 2 {
            junk[..2].copy_from_slice(&SC.magic);
        }
        // Never a valid CRC-sealed block by construction odds; if the
        // 1-in-2^32 lottery ever hits, the decoded segment must still be
        // internally consistent (decode re-validates keys, sketches and
        // zones), so only assert no panic on the error path.
        let _ = decode(&junk);
    }
}

#[test]
fn empty_input_is_too_short() {
    assert_eq!(decode(&[]), Err(SC.error(FrameErrorKind::Truncated)));
}
