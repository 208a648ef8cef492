//! Protocol proptests for the queryd wire format: arbitrary
//! request/response frames round-trip canonically, and the serving core
//! answers any byte string with a decodable frame. (Decoder totality under
//! truncation, bit flips, length lies and garbage is
//! `tests/frame_totality.rs`'s `cq_request` / `cq_response` rows.)

use cellrel_queryd::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    ServerStats, WireError,
};
use cellrel_queryd::QuerydCore;
use cellrel_store::{Dim, Filter, Metric, Query, Region, ResultRow, ResultSet, Store, StoreConfig};
use cellrel_types::{DataFailCause, FailureKind, FailureLayer, Isp, PhoneModelId, Rat};
use proptest::prelude::*;

/// One filter's raw material: a variant selector plus enough integers to
/// populate any variant. Grouped into ≤5-element tuples because the
/// vendored proptest implements `Strategy` only up to 5-tuples.
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

/// Metric material: a variant selector plus a quantile. The quantile stays
/// finite so decoded queries compare equal structurally (NaN would not);
/// canonical re-encoding covers the bit-exactness either way.
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

fn build_dims(indices: &[usize]) -> Vec<Dim> {
    indices
        .iter()
        .map(|i| Dim::from_index(i % 8).expect("dim < 8"))
        .collect()
}

/// Query material: filters, group-by dims, window, metric, top_k. The
/// codec must round-trip *any* query, legal for the engine or not (e.g.
/// duplicate dims) — validation is the engine's job, not the wire's.
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
        group_by: build_dims(dims),
        window_ms: *window_ms,
        metric: build_metric(metric),
        top_k: *top_k,
    }
}

/// Row material: key, label bytes (lossy-decoded to exercise multi-byte
/// UTF-8), value bits (any pattern except NaN payloads that break `==`),
/// count.
type RowParts = (Vec<u64>, Vec<Vec<u8>>, u64, u64);

/// ResultSet material: dims, metric, rows, (cells_scanned, cells_matched).
type ResultSetParts = (Vec<usize>, (usize, f64), Vec<RowParts>, (u64, u64));

fn result_set_parts() -> impl Strategy<Value = ResultSetParts> {
    (
        prop::collection::vec(0usize..8, 0..4),
        (0usize..8, 0.0f64..1.0),
        prop::collection::vec(
            (
                prop::collection::vec(any::<u64>(), 0..4),
                prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..4),
                any::<u64>(),
                any::<u64>(),
            ),
            0..10,
        ),
        (any::<u64>(), any::<u64>()),
    )
}

fn build_result_set(p: &ResultSetParts) -> ResultSet {
    let (dims, metric, rows, (scanned, matched)) = p;
    ResultSet {
        group_by: build_dims(dims),
        metric: build_metric(metric),
        rows: rows
            .iter()
            .map(|(key, labels, bits, count)| ResultRow {
                key: key.clone(),
                labels: labels
                    .iter()
                    .map(|b| String::from_utf8_lossy(b).into_owned())
                    .collect(),
                // Normalise NaN bit patterns: the wire carries bits
                // faithfully, but the structural-equality assertion needs
                // `value == value`.
                value: {
                    let v = f64::from_bits(*bits);
                    if v.is_nan() {
                        0.0
                    } else {
                        v
                    }
                },
                count: *count,
            })
            .collect(),
        cells_scanned: *scanned,
        cells_matched: *matched,
    }
}

proptest! {
    /// Arbitrary query requests round-trip, and the encoding is canonical:
    /// re-encoding the decoded request reproduces the exact frame bytes.
    #[test]
    fn request_frames_roundtrip_arbitrary_queries(p in query_parts()) {
        let req = Request::Query(build_query(&p));
        let frame = encode_request(&req);
        let decoded = decode_request(&frame).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &req);
        prop_assert_eq!(encode_request(&decoded), frame);
    }

    /// Arbitrary result-set responses round-trip canonically — including
    /// rows whose key/label arities disagree with `group_by`, which a
    /// hostile server could send and a client must still parse or reject
    /// without panicking.
    #[test]
    fn response_frames_roundtrip_arbitrary_result_sets(
        epoch in any::<u64>(),
        p in result_set_parts(),
    ) {
        let resp = Response::Rows { epoch, result: build_result_set(&p) };
        let frame = encode_response(&resp);
        let decoded = decode_response(&frame).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &resp);
        prop_assert_eq!(encode_response(&decoded), frame);
    }

    /// Stats and error responses round-trip for arbitrary field values,
    /// including error details with arbitrary (lossy-decoded) text.
    #[test]
    fn stats_and_error_frames_roundtrip(
        fields in ((any::<u64>(), any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>())),
        code in any::<u8>(),
        detail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let ((epoch, inserted, cells), (devices, requests_served)) = fields;
        let stats = Response::Stats(ServerStats {
            epoch, inserted, cells, devices, requests_served,
        });
        let err = Response::Error(WireError {
            code,
            detail: String::from_utf8_lossy(&detail).into_owned(),
        });
        for resp in [stats, err] {
            let frame = encode_response(&resp);
            prop_assert_eq!(decode_response(&frame).expect("decodes"), resp);
        }
    }

    /// The serving core is total end to end: *any* byte string in produces
    /// a decodable response frame out, and invalid input produces a typed
    /// wire error — the server never panics and never goes silent.
    #[test]
    fn core_answers_every_frame_with_a_valid_frame(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let core = QuerydCore::new(Store::new(&StoreConfig::default()));
        let out = core.handle_frame(&bytes);
        let resp = decode_response(&out).expect("server output always decodes");
        if decode_request(&bytes).is_err() {
            prop_assert!(matches!(resp, Response::Error(_)));
        }
    }

    /// Legal queries through the core come back as `Rows` tagged with the
    /// current epoch, whatever filters they carry. (Tag range excludes
    /// `TimeRange`: arbitrary bounds fail rollup-alignment validation,
    /// which is the engine's contract, not the protocol's.)
    #[test]
    fn core_answers_valid_single_dim_queries_with_rows(
        filters in prop::collection::vec((0usize..8, any::<u64>(), any::<u64>(), any::<i32>()), 0..4),
        dim in 0usize..8,
    ) {
        let core = QuerydCore::new(Store::new(&StoreConfig::default()));
        let q = Query {
            filters: filters.iter().map(build_filter).collect(),
            group_by: vec![Dim::from_index(dim % 8).expect("dim < 8")],
            window_ms: 0,
            metric: Metric::Count,
            top_k: 0,
        };
        let out = core.handle_frame(&encode_request(&Request::Query(q)));
        match decode_response(&out).expect("decodes") {
            Response::Rows { epoch, result } => {
                prop_assert_eq!(epoch, 0);
                prop_assert!(result.rows.is_empty()); // empty store
            }
            other => prop_assert!(false, "unexpected response {other:?}"),
        }
    }
}
