//! Protocol proptests for the `CR` replication/federation wire format:
//! arbitrary frames round-trip canonically, and the total server halves
//! (shard handles and followers) answer any byte string with a decodable
//! frame without advancing. (Raw-decoder totality under truncation, bit
//! flips, length lies and garbage is `tests/frame_totality.rs`'s `cr` row.)

use cellrel_cluster::proto::{self, ERR_BAD_QUERY, ERR_UNEXPECTED};
use cellrel_cluster::{decode_frame, encode_frame, Follower, Message, ShardHandle};
use cellrel_queryd::QuerydCore;
use cellrel_store::{
    Cell, DeviceDirectory, Dim, Filter, Metric, PartialResultSet, Query, Region, Store, StoreConfig,
};
use cellrel_stream::StreamConfig;
use cellrel_types::{DataFailCause, FailureKind, FailureLayer, Isp, PhoneModelId, Rat};
use proptest::prelude::*;

/// One filter's raw material, as in the queryd suite: a variant selector
/// plus enough integers to populate any variant.
type FilterParts = (usize, u64, u64, i32);

fn build_filter((tag, a, b, code): &FilterParts) -> Filter {
    let (a, b) = (*a, *b);
    match tag % 9 {
        0 => Filter::Kind(FailureKind::from_index(a as usize % 5).expect("kind < 5")),
        1 => Filter::Isp(Isp::from_index(a as usize % 3).expect("isp < 3")),
        2 => Filter::Rat(Rat::from_index(a as usize % 4).expect("rat < 4")),
        3 => Filter::Model(PhoneModelId(a as u8)),
        4 => Filter::Region(Region::from_index(a as usize % 3).expect("region < 3")),
        5 => Filter::CauseClass(FailureLayer::from_index(a as usize % 5).expect("layer < 5")),
        6 => Filter::Cause(DataFailCause::from_code(*code)),
        7 => Filter::HasCause,
        _ => Filter::TimeRange {
            start_ms: a.min(b),
            end_ms: a.max(b),
        },
    }
}

fn build_metric((tag, q): &(usize, f64)) -> Metric {
    match tag % 8 {
        0 => Metric::Count,
        1 => Metric::DurationTotalMs,
        2 => Metric::MeanDurationMs,
        3 => Metric::MaxDurationMs,
        4 => Metric::Under30sShare,
        5 => Metric::QuantileMs(*q),
        6 => Metric::Devices,
        _ => Metric::FailingDevices,
    }
}

/// Query material: filters, group-by dims, window, metric, top_k. The
/// `CR` wire must carry *any* query, legal for the engine or not.
type QueryParts = (Vec<FilterParts>, Vec<usize>, u64, (usize, f64), usize);

fn query_parts() -> impl Strategy<Value = QueryParts> {
    (
        prop::collection::vec((0usize..9, any::<u64>(), any::<u64>(), any::<i32>()), 0..6),
        prop::collection::vec(0usize..8, 0..4),
        any::<u64>(),
        (0usize..8, 0.0f64..1.0),
        0usize..1 << 32,
    )
}

fn build_query(p: &QueryParts) -> Query {
    let (filters, dims, window_ms, metric, top_k) = p;
    Query {
        filters: filters.iter().map(build_filter).collect(),
        group_by: dims
            .iter()
            .map(|i| Dim::from_index(i % 8).expect("dim < 8"))
            .collect(),
        window_ms: *window_ms,
        metric: build_metric(metric),
        top_k: *top_k,
    }
}

/// Partial-aggregate material: fixed key arity (the wire form requires it),
/// strictly ascending keys (built by cumulative offsets), per-group tallies.
type PartialParts = (Vec<(u64, u64, u64, u64)>, u64, (u64, u64));

fn partial_parts() -> impl Strategy<Value = PartialParts> {
    (
        prop::collection::vec(
            (1u64..1_000, any::<u64>(), any::<u64>(), any::<u64>()),
            0..8,
        ),
        1u64..1_000_000,
        (any::<u64>(), any::<u64>()),
    )
}

fn build_partial(p: &PartialParts) -> PartialResultSet {
    let (groups, window_ms, (scanned, matched)) = p;
    let mut key = 0u64;
    PartialResultSet {
        window_ms: *window_ms,
        groups: groups
            .iter()
            .map(|(step, count, duration, under)| {
                key = key.saturating_add(*step);
                let count = *count >> 1; // leave headroom for under_30s ≤ count
                (
                    vec![key],
                    Cell {
                        count,
                        duration_ms_total: *duration,
                        under_30s: (*under).min(count),
                        ..Cell::default()
                    },
                )
            })
            .collect(),
        cells_scanned: *scanned,
        cells_matched: *matched,
    }
}

/// A frame of every replication kind from arbitrary field material.
fn build_frames(seq: u64, blob: &[u8], n_frames: usize) -> Vec<Message> {
    vec![
        Message::ShipSegment {
            seq,
            frame: blob.to_vec(),
        },
        Message::ShipCheckpoint {
            seq,
            checkpoint: blob.to_vec(),
        },
        Message::Catchup { from_seq: seq },
        Message::Ack {
            seq,
            digest: seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        },
        Message::Segments {
            from_seq: seq,
            frames: (0..n_frames % 4)
                .map(|i| blob[..blob.len() / (i + 1)].to_vec())
                .collect(),
        },
        Message::Rejection {
            code: (seq % 256) as u8,
            detail: String::from_utf8_lossy(blob).into_owned(),
        },
    ]
}

proptest! {
    /// Every replication-side message kind round-trips canonically:
    /// re-encoding the decoded message reproduces the exact frame bytes.
    #[test]
    fn replication_frames_roundtrip(
        seq in any::<u64>(),
        blob in prop::collection::vec(any::<u8>(), 0..128),
        n in any::<usize>(),
    ) {
        for msg in build_frames(seq, &blob, n) {
            let frame = encode_frame(&msg);
            let decoded = decode_frame(&frame).expect("own encoding decodes");
            prop_assert_eq!(&decoded, &msg);
            prop_assert_eq!(encode_frame(&decoded), frame);
        }
    }

    /// Arbitrary queries ride the CR wire unchanged — the shared queryd
    /// grammar means a query is the same bytes on both protocols' payloads.
    #[test]
    fn query_frames_roundtrip_arbitrary_queries(p in query_parts()) {
        let msg = Message::Query(build_query(&p));
        let frame = encode_frame(&msg);
        let decoded = decode_frame(&frame).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(encode_frame(&decoded), frame);
    }

    /// Arbitrary well-formed partial aggregates round-trip canonically.
    #[test]
    fn partial_frames_roundtrip(epoch in any::<u64>(), p in partial_parts()) {
        let msg = Message::Partial { epoch, partial: build_partial(&p) };
        let frame = encode_frame(&msg);
        let decoded = decode_frame(&frame).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(encode_frame(&decoded), frame);
    }

    /// The shard query endpoint is total end to end: any byte string in
    /// produces a decodable CR frame out; invalid input produces a
    /// rejection, legal queries produce partials, and replication kinds
    /// aimed at a query-only endpoint are refused, not applied.
    #[test]
    fn shard_handles_answer_every_frame_with_a_valid_frame(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let handle = ShardHandle::new(QuerydCore::new(Store::new(&StoreConfig::default())));
        let out = handle.handle(&bytes);
        let reply = decode_frame(&out).expect("handle output always decodes");
        match decode_frame(&bytes) {
            Err(_) => prop_assert!(matches!(reply, Message::Rejection { .. })),
            Ok(Message::Query(_)) => prop_assert!(matches!(
                reply,
                Message::Partial { .. } | Message::Rejection { code: ERR_BAD_QUERY, .. }
            )),
            Ok(_) => prop_assert!(
                matches!(reply, Message::Rejection { code: ERR_UNEXPECTED, .. })
            ),
        }
    }

    /// Followers are equally total: arbitrary bytes yield a decodable
    /// reply, and hostile segment ships at the right sequence number are
    /// rejected by the segment codec's own verification — the follower's
    /// durable state never advances on garbage.
    #[test]
    fn followers_reject_hostile_frames_without_advancing(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = DeviceDirectory::default();
        let mut follower = Follower::new(&StreamConfig::default(), &dir, 0);
        let reply = follower.apply(&bytes);
        decode_frame(&reply).expect("follower output always decodes");
        prop_assert_eq!(follower.applied(), 0);

        // A correctly framed ship carrying a garbage segment: the CR layer
        // accepts the envelope, the SG codec rejects the cargo.
        let ship = encode_frame(&Message::ShipSegment { seq: 1, frame: garbage });
        let reply = follower.apply(&ship);
        match decode_frame(&reply).expect("decodes") {
            Message::Rejection { code, .. } => prop_assert_eq!(code, proto::ERR_APPLY),
            other => prop_assert!(false, "hostile segment must be rejected, got {other:?}"),
        }
        prop_assert_eq!(follower.applied(), 0);
        prop_assert!(follower.manifest().is_empty());
    }
}
