//! Property tests for the columnar `SC` segment codec: encode/decode is
//! an exact round trip on arbitrary segments, and decoding is **total** —
//! truncations, bit flips, and garbage return a typed [`FrameError`],
//! never panic, and never allocate proportionally to a hostile length
//! claim. Same discipline as the store-image and checkpoint codecs. A
//! block writes a one-record row as its duration alone, so the segments
//! here mix such rows with rows of several records, and a property holds
//! every store that compaction and merges seal to that identity.

use cellrel_ingest::frame::{FrameError, FrameErrorKind, Reader, SC};
use cellrel_sim::Merge;
use cellrel_store::{
    restore_store, save_store, ColumnSegment, DeviceDirectory, Store, StoreConfig,
};
use cellrel_types::{
    Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
    SignalLevel, SimDuration, SimTime,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The varying material of one event, shaped like the store property
/// tests (the vendored proptest implements `Strategy` for tuples of ≤ 5
/// elements only).
type EventParts = (
    (u32, u64, (u64, u32)), // device, start ms, duration ms before a right shift
    (usize, Option<i32>),   // kind index, cause code
    (usize, usize),         // rat, isp
);

fn parts_strategy() -> impl Strategy<Value = EventParts> {
    (
        // Shifts of 0–11 spread durations from minutes down to a few ms,
        // on both sides of the 30 s threshold.
        (0u32..32, 0u64..30 * 86_400_000, (0u64..1 << 22, 0u32..12)),
        (0usize..5, prop::option::of(-20i32..4000)),
        (0usize..4, 0usize..3),
    )
}

/// Events drawn in groups: each draw is one event and the number of
/// records under its key (other durations, the same cell), so a sealed
/// segment holds rows of one record — most draws, as in a real store —
/// beside rows of two and three.
fn events_strategy(max: usize) -> impl Strategy<Value = Vec<EventParts>> {
    EventsStrategy(prop::collection::vec(
        (
            parts_strategy(),
            prop::sample::select(vec![1usize, 1, 1, 2, 3]),
        ),
        1..max,
    ))
}

struct EventsStrategy<S>(S);

impl<S: Strategy<Value = Vec<(EventParts, usize)>>> Strategy for EventsStrategy<S> {
    type Value = Vec<EventParts>;
    fn generate(&self, rng: &mut TestRng) -> Vec<EventParts> {
        let mut out = Vec::new();
        for (((device, start, (duration, shift)), kind, ctx), copies) in self.0.generate(rng) {
            for i in 0..copies as u64 {
                out.push(((device, start, (duration ^ (7_919 * i), shift)), kind, ctx));
            }
        }
        out
    }
}

fn build_event(p: &EventParts) -> FailureEvent {
    let ((device, start, (duration, shift)), (kind, cause), (rat, isp)) = *p;
    FailureEvent {
        device: DeviceId(device),
        kind: FailureKind::from_index(kind).expect("kind < 5"),
        start: SimTime::from_millis(start),
        duration: SimDuration::from_millis(duration >> shift),
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

/// One partition, so every sealed row of a store lands in one segment.
fn one_partition() -> StoreConfig {
    StoreConfig {
        partitions: 1,
        ..StoreConfig::default()
    }
}

/// A store fed with the generated events, nothing sealed.
fn store_of(parts: &[EventParts], cfg: &StoreConfig) -> Store {
    let dir = DeviceDirectory::default();
    let mut s = Store::new(cfg);
    for p in parts {
        let e = build_event(p);
        s.record(&e, dir.dim_of(e.device));
    }
    s
}

/// Build a segment by sealing a store fed with the generated events, so
/// the rows carry realistic sketches, causes and aliasing.
fn segment_from(parts: &[EventParts]) -> Option<ColumnSegment> {
    let mut s = store_of(parts, &one_partition());
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

/// The draws above make both kinds of row: a store of `rows` sealed rows
/// over `records` records holds a row of one record when `rows` exceeds
/// half of `records` (else every row would hold two or more), and a row of
/// several when `rows` is below `records`. Most of the first 64 draws of
/// the codec's strategy have both.
#[test]
fn the_codec_strategy_makes_rows_of_one_record_and_of_several() {
    let strategy = events_strategy(150);
    let mut both = 0;
    for case in 0..64 {
        let parts = strategy.generate(&mut TestRng::new(case));
        let mut s = store_of(&parts, &one_partition());
        s.seal_columnar();
        let (rows, records) = (s.sealed_cells(), parts.len() as u64);
        if 2 * rows > records && rows < records {
            both += 1;
        }
    }
    assert!(both >= 48, "{both} of 64 draws hold both kinds of row");
}

/// A block of nothing but one-record rows, every field one byte wide, is
/// ten bytes a row: it decodes where it is the last thing in a store image
/// before the device table and the image's trailer, and bare.
#[test]
fn a_block_of_one_record_rows_decodes_last_in_an_image() {
    let parts: Vec<EventParts> = (0..120u32)
        .map(|i| {
            // Distinct kinds and RATs per device, one day apart; every
            // duration below 128 ms, so each varint is one byte.
            let duration = u64::from(i % 128);
            (
                (i % 2, u64::from(i / 20) * 86_400_000, (duration, 0)),
                ((i % 5) as usize, None),
                (((i / 5) % 4) as usize, 0),
            )
        })
        .collect();
    let mut s = store_of(&parts, &one_partition());
    s.seal_columnar();
    assert_eq!(s.sealed_cells(), 120, "one row a record");
    let block = s.segment_blocks().swap_remove(0);
    // Header (4), n (1), then ten bytes a row, zones and trailer.
    assert!(
        block.len() < 4 + 2 + 10 * 120 + 24 + 4,
        "{} bytes",
        block.len()
    );
    let seg = decode(&block).expect("bare block decodes");
    assert_eq!(encode(&seg), block);
    let image = save_store(&s);
    let tail = image.len()
        - image
            .windows(block.len())
            .rposition(|w| w == &block[..])
            .unwrap();
    assert!(
        tail - block.len() < 20,
        "the block sits last: {tail} bytes from the end"
    );
    assert_eq!(restore_store(&image), Ok(s));
}

/// The stores a property below checks: `parts` recorded, auto-compacted
/// and sealed; the first half folded into the second (`Store::fold_in`);
/// the two halves merged and compacted; and their sealed union — every
/// path on which `merge_runs` and compaction build a segment.
fn built_stores(parts: &[EventParts], every: u64) -> Vec<Store> {
    let cfg = StoreConfig {
        rollup_buckets: 3,
        auto_compact_every: every,
        ..one_partition()
    };
    let (a, b) = parts.split_at(parts.len() / 2);
    let mut all = store_of(parts, &cfg);
    all.compact();
    let mut sealed = store_of(parts, &cfg);
    sealed.seal_columnar();
    let mut folded = store_of(b, &cfg);
    folded.fold_in(vec![store_of(a, &cfg)]);
    let mut merged = store_of(a, &cfg);
    merged.compact();
    merged.merge(store_of(b, &cfg));
    merged.compact();
    let union = Store::sealed_union(&cfg, &[&store_of(a, &cfg), &merged]);
    vec![all, sealed, folded, merged, union]
}

proptest! {
    /// A one-record row is what `Cell::push` makes of its duration: its
    /// total, both sketch extremes, its `under_30s` and its one sketch pair
    /// all follow from that duration. The encoder relies on it and writes
    /// the duration alone (and asserts it); the decoder derives the rest
    /// into the same columns. So a store whose every segment was built by
    /// `merge_runs` or compaction restores equal to itself — column for
    /// column — exactly when every such row holds the identity.
    #[test]
    fn a_single_record_row_is_its_duration(
        parts in events_strategy(120),
        every in 0u64..40,
    ) {
        let stores = built_stores(&parts, every);
        // Compaction seals only buckets before the newest rollup; the
        // sealed store and the union seal everything.
        prop_assert!(stores[1].sealed_segments() > 0 && stores[4].sealed_segments() > 0);
        for store in stores {
            let restored = restore_store(&save_store(&store));
            prop_assert_eq!(restored.as_ref(), Ok(&store));
            for block in store.segment_blocks() {
                prop_assert_eq!(encode(&decode(&block).expect("own block decodes")), block);
            }
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly(
        parts in events_strategy(150),
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
        parts in events_strategy(60),
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
        parts in events_strategy(60),
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
