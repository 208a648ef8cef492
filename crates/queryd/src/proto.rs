//! The queryd wire protocol: framed, CRC-checked, varint-encoded
//! request/response messages carrying the store's typed [`Query`] and
//! [`ResultSet`].
//!
//! A message is one **frame**:
//!
//! ```text
//! magic "CQ" (2) | version (1) | kind (1) | payload (varint fields) | CRC-32 LE (4)
//! ```
//!
//! The CRC covers everything before it. The transport layer additionally
//! prefixes each frame with its `u32` little-endian length (see
//! [`crate::net`]); the frame itself is self-delimiting only through the
//! payload grammar, so decoding always ends with a trailing-bytes check.
//!
//! The envelope, its check order and the bounded reader are
//! [`cellrel_ingest::frame`]'s; this module owns the kind byte and the
//! payload grammar.
//!
//! **Totality.** Decoding is total: truncated, bit-flipped, length-lying or
//! garbage input returns a typed [`FrameError`] — never a panic, never a
//! read past the buffer, never an allocation larger than the input could
//! justify.
//!
//! **Stability.** The numeric encodings of dimensions ([`Dim::index`]),
//! filters, metrics and error codes are frozen wire contract — the golden
//! frame snapshot (`tests/golden/queryd_frames_seed2021.txt`) fails loudly
//! on any accidental change. Version negotiation is a single byte: a server
//! answers a frame with an unexpected version byte with error code
//! `ERR_VERSION` and never attempts to parse its payload.

use cellrel_ingest::frame::{
    seal, unzigzag, write_varint, zigzag, FrameError, FrameErrorKind, Reader, CQ,
};
use cellrel_store::{Dim, Filter, Metric, Query, QueryError, Region, ResultRow, ResultSet};
use cellrel_types::{DataFailCause, FailureKind, FailureLayer, Isp, PhoneModelId, Rat};
use std::fmt;

/// Protocol version byte. Bump on any wire-incompatible change.
pub const VERSION: u8 = 1;

/// Request kind: liveness probe, empty payload.
pub const KIND_PING: u8 = 0x01;
/// Request kind: evaluate a [`Query`] against the current snapshot.
pub(crate) const KIND_QUERY: u8 = 0x02;
/// Request kind: server/snapshot statistics, empty payload.
pub(crate) const KIND_STATS: u8 = 0x03;
/// Response kind: answer to [`KIND_PING`].
pub(crate) const KIND_PONG: u8 = 0x81;
/// Response kind: a [`ResultSet`] plus the snapshot epoch it was read from.
pub(crate) const KIND_ROWS: u8 = 0x82;
/// Response kind: answer to [`KIND_STATS`].
pub(crate) const KIND_STATS_REPLY: u8 = 0x83;
/// Response kind: a [`WireError`].
pub(crate) const KIND_ERROR: u8 = 0xEE;

/// Error code: the request frame failed to decode (truncation, bad magic,
/// bad CRC, garbage payload).
pub(crate) const ERR_MALFORMED: u8 = 1;
/// Error code: the request carried an unsupported protocol version.
pub(crate) const ERR_VERSION: u8 = 2;
/// Error code: the request kind byte is not a known request.
pub(crate) const ERR_UNKNOWN_KIND: u8 = 3;
/// Error code: the query decoded but the engine rejected it
/// ([`QueryError`]).
pub(crate) const ERR_BAD_QUERY: u8 = 4;
/// Error code: the claimed frame length exceeds the `CQ` cap (16 MiB). The
/// transport refuses to allocate a body larger than that no matter what
/// the length prefix claims.
pub(crate) const ERR_TOO_LARGE: u8 = 5;

/// An error the server sends back over the wire instead of an answer.
/// Carrying a code + free-text detail (rather than a typed enum) keeps old
/// clients able to render errors from newer servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// One of the `ERR_*` codes.
    pub code: u8,
    /// Human-readable detail, safe to log.
    pub detail: String,
}

impl WireError {
    /// Classify a request-decode failure into a wire error code.
    pub(crate) fn from_decode(e: &FrameError) -> WireError {
        let code = match e.kind {
            FrameErrorKind::UnsupportedVersion(_) => ERR_VERSION,
            FrameErrorKind::UnknownKind(_) => ERR_UNKNOWN_KIND,
            FrameErrorKind::TooLarge(_) => ERR_TOO_LARGE,
            _ => ERR_MALFORMED,
        };
        WireError {
            code,
            detail: e.to_string(),
        }
    }

    /// The query decoded but validation rejected it.
    pub fn bad_query(e: &QueryError) -> WireError {
        WireError {
            code: ERR_BAD_QUERY,
            detail: e.to_string(),
        }
    }

    /// A length prefix exceeded the `CQ` cap.
    pub(crate) fn too_large(claimed: u64) -> WireError {
        WireError::from_decode(&CQ.error(FrameErrorKind::TooLarge(claimed)))
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server error {}: {}", self.code, self.detail)
    }
}

impl std::error::Error for WireError {}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Evaluate a query against the server's current snapshot.
    Query(Query),
    /// Fetch server/snapshot statistics.
    Stats,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A query answer, tagged with the snapshot epoch that produced it so
    /// clients can pin answers to a consistent store state.
    Rows {
        /// Publish epoch of the snapshot the answer was read from.
        epoch: u64,
        /// The answer.
        result: ResultSet,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// The request was rejected; the server state is unchanged.
    Error(WireError),
}

/// Server/snapshot statistics, answered from the current snapshot without
/// touching the write side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Publish epoch of the current snapshot (0 = initial).
    pub epoch: u64,
    /// Records folded into the snapshot.
    pub inserted: u64,
    /// Live cells in the snapshot.
    pub cells: u64,
    /// Devices registered in the snapshot's directory.
    pub devices: u64,
    /// Frames the server has answered so far (including errors).
    pub requests_served: u64,
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// query / result-set grammar
// ---------------------------------------------------------------------------

const FILTER_KIND: u8 = 1;
const FILTER_ISP: u8 = 2;
const FILTER_RAT: u8 = 3;
const FILTER_MODEL: u8 = 4;
const FILTER_REGION: u8 = 5;
const FILTER_CAUSE_CLASS: u8 = 6;
const FILTER_CAUSE: u8 = 7;
const FILTER_HAS_CAUSE: u8 = 8;
const FILTER_TIME_RANGE: u8 = 9;

const METRIC_COUNT: u8 = 1;
const METRIC_DURATION_TOTAL: u8 = 2;
const METRIC_MEAN_DURATION: u8 = 3;
const METRIC_MAX_DURATION: u8 = 4;
const METRIC_UNDER_30S: u8 = 5;
const METRIC_QUANTILE: u8 = 6;
const METRIC_DEVICES: u8 = 7;
const METRIC_FAILING_DEVICES: u8 = 8;

fn write_filter(out: &mut Vec<u8>, f: &Filter) {
    match f {
        Filter::Kind(k) => {
            out.push(FILTER_KIND);
            write_varint(out, k.index() as u64);
        }
        Filter::Isp(i) => {
            out.push(FILTER_ISP);
            write_varint(out, i.index() as u64);
        }
        Filter::Rat(r) => {
            out.push(FILTER_RAT);
            write_varint(out, r.index() as u64);
        }
        Filter::Model(m) => {
            out.push(FILTER_MODEL);
            write_varint(out, u64::from(m.0));
        }
        Filter::Region(r) => {
            out.push(FILTER_REGION);
            write_varint(out, r.index() as u64);
        }
        Filter::CauseClass(l) => {
            out.push(FILTER_CAUSE_CLASS);
            write_varint(out, l.index() as u64);
        }
        Filter::Cause(c) => {
            out.push(FILTER_CAUSE);
            write_varint(out, zigzag(i64::from(c.code())));
        }
        Filter::HasCause => out.push(FILTER_HAS_CAUSE),
        Filter::TimeRange { start_ms, end_ms } => {
            out.push(FILTER_TIME_RANGE);
            write_varint(out, *start_ms);
            write_varint(out, *end_ms);
        }
    }
}

/// One varint used as an enum index; `None` from `from_index` is the
/// field's error.
fn read_index<T>(
    r: &mut Reader<'_>,
    field: &'static str,
    from_index: impl Fn(usize) -> Option<T>,
) -> Result<T, FrameError> {
    let i = r.narrow(field)?;
    from_index(i).ok_or(r.invalid(field))
}

fn read_filter(r: &mut Reader<'_>) -> Result<Filter, FrameError> {
    Ok(match r.u8()? {
        FILTER_KIND => Filter::Kind(read_index(r, "filter.kind", FailureKind::from_index)?),
        FILTER_ISP => Filter::Isp(read_index(r, "filter.isp", Isp::from_index)?),
        FILTER_RAT => Filter::Rat(read_index(r, "filter.rat", Rat::from_index)?),
        FILTER_MODEL => Filter::Model(PhoneModelId(r.narrow("filter.model")?)),
        FILTER_REGION => Filter::Region(read_index(r, "filter.region", Region::from_index)?),
        FILTER_CAUSE_CLASS => Filter::CauseClass(read_index(
            r,
            "filter.cause_class",
            FailureLayer::from_index,
        )?),
        FILTER_CAUSE => {
            let code =
                i32::try_from(unzigzag(r.varint()?)).map_err(|_| r.invalid("filter.cause code"))?;
            Filter::Cause(DataFailCause::from_code(code))
        }
        FILTER_HAS_CAUSE => Filter::HasCause,
        FILTER_TIME_RANGE => Filter::TimeRange {
            start_ms: r.varint()?,
            end_ms: r.varint()?,
        },
        _ => return Err(r.invalid("filter tag")),
    })
}

fn write_metric(out: &mut Vec<u8>, m: &Metric) {
    match m {
        Metric::Count => out.push(METRIC_COUNT),
        Metric::DurationTotalMs => out.push(METRIC_DURATION_TOTAL),
        Metric::MeanDurationMs => out.push(METRIC_MEAN_DURATION),
        Metric::MaxDurationMs => out.push(METRIC_MAX_DURATION),
        Metric::Under30sShare => out.push(METRIC_UNDER_30S),
        Metric::QuantileMs(q) => {
            out.push(METRIC_QUANTILE);
            write_varint(out, q.to_bits());
        }
        Metric::Devices => out.push(METRIC_DEVICES),
        Metric::FailingDevices => out.push(METRIC_FAILING_DEVICES),
    }
}

fn read_metric(r: &mut Reader<'_>) -> Result<Metric, FrameError> {
    Ok(match r.u8()? {
        METRIC_COUNT => Metric::Count,
        METRIC_DURATION_TOTAL => Metric::DurationTotalMs,
        METRIC_MEAN_DURATION => Metric::MeanDurationMs,
        METRIC_MAX_DURATION => Metric::MaxDurationMs,
        METRIC_UNDER_30S => Metric::Under30sShare,
        // A hostile bit pattern here can decode to NaN or out-of-range —
        // that is fine: query validation rejects it without panicking.
        METRIC_QUANTILE => Metric::QuantileMs(f64::from_bits(r.varint()?)),
        METRIC_DEVICES => Metric::Devices,
        METRIC_FAILING_DEVICES => Metric::FailingDevices,
        _ => return Err(r.invalid("metric tag")),
    })
}

fn write_dims(out: &mut Vec<u8>, dims: &[Dim]) {
    write_varint(out, dims.len() as u64);
    for d in dims {
        write_varint(out, d.index() as u64);
    }
}

fn read_dims(r: &mut Reader<'_>) -> Result<Vec<Dim>, FrameError> {
    let n = r.count("group_by", 1)?;
    let mut dims = Vec::with_capacity(n);
    for _ in 0..n {
        dims.push(read_index(r, "group_by dim", Dim::from_index)?);
    }
    Ok(dims)
}

/// Append the wire form of a [`Query`] to `out` — the query grammar of
/// the `CQ` protocol, shared verbatim by the cluster's `CR` replication
/// frames so both families route the exact same query type.
pub fn write_query(out: &mut Vec<u8>, q: &Query) {
    write_varint(out, q.filters.len() as u64);
    for f in &q.filters {
        write_filter(out, f);
    }
    write_dims(out, &q.group_by);
    write_varint(out, q.window_ms);
    write_metric(out, &q.metric);
    write_varint(out, q.top_k as u64);
}

/// Total inverse of [`write_query`]: typed errors on malformed input,
/// allocation bounded by the remaining payload.
pub fn read_query(r: &mut Reader<'_>) -> Result<Query, FrameError> {
    let nf = r.count("filters", 1)?;
    let mut filters = Vec::with_capacity(nf);
    for _ in 0..nf {
        filters.push(read_filter(r)?);
    }
    Ok(Query {
        filters,
        group_by: read_dims(r)?,
        window_ms: r.varint()?,
        metric: read_metric(r)?,
        top_k: r.narrow("top_k")?,
    })
}

fn write_result_set(out: &mut Vec<u8>, rs: &ResultSet) {
    write_dims(out, &rs.group_by);
    write_metric(out, &rs.metric);
    write_varint(out, rs.rows.len() as u64);
    for r in &rs.rows {
        // Key and label counts are written per row (not assumed equal to
        // `group_by.len()`) so encoding is total over arbitrary values —
        // the proptests round-trip hand-built result sets.
        write_varint(out, r.key.len() as u64);
        for k in &r.key {
            write_varint(out, *k);
        }
        write_varint(out, r.labels.len() as u64);
        for l in &r.labels {
            write_string(out, l);
        }
        write_varint(out, r.value.to_bits());
        write_varint(out, r.count);
    }
    write_varint(out, rs.cells_scanned);
    write_varint(out, rs.cells_matched);
}

fn read_result_set(r: &mut Reader<'_>) -> Result<ResultSet, FrameError> {
    let group_by = read_dims(r)?;
    let metric = read_metric(r)?;
    // A row is at least 4 varint bytes (key count, label count, value,
    // count).
    let nrows = r.count("rows", 4)?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let nk = r.count("row key", 1)?;
        let mut key = Vec::with_capacity(nk);
        for _ in 0..nk {
            key.push(r.varint()?);
        }
        let nl = r.count("row labels", 1)?;
        let mut labels = Vec::with_capacity(nl);
        for _ in 0..nl {
            labels.push(r.str("row label")?.to_string());
        }
        rows.push(ResultRow {
            key,
            labels,
            value: f64::from_bits(r.varint()?),
            count: r.varint()?,
        });
    }
    Ok(ResultSet {
        group_by,
        metric,
        rows,
        cells_scanned: r.varint()?,
        cells_matched: r.varint()?,
    })
}

fn write_stats(out: &mut Vec<u8>, s: &ServerStats) {
    write_varint(out, s.epoch);
    write_varint(out, s.inserted);
    write_varint(out, s.cells);
    write_varint(out, s.devices);
    write_varint(out, s.requests_served);
}

fn read_stats(r: &mut Reader<'_>) -> Result<ServerStats, FrameError> {
    Ok(ServerStats {
        epoch: r.varint()?,
        inserted: r.varint()?,
        cells: r.varint()?,
        devices: r.varint()?,
        requests_served: r.varint()?,
    })
}

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

fn begin_frame(kind: u8) -> Vec<u8> {
    let mut frame = Vec::new();
    CQ.begin(&mut frame, VERSION);
    frame.push(kind);
    frame
}

/// Encode a request as a complete frame (magic through CRC trailer).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut frame = match req {
        Request::Ping => begin_frame(KIND_PING),
        Request::Stats => begin_frame(KIND_STATS),
        Request::Query(q) => {
            let mut f = begin_frame(KIND_QUERY);
            write_query(&mut f, q);
            f
        }
    };
    seal(&mut frame, 0);
    frame
}

/// Decode a request frame. Total: every failure is a typed [`FrameError`].
pub fn decode_request(bytes: &[u8]) -> Result<Request, FrameError> {
    let mut r = CQ.open(bytes)?;
    let req = match r.u8()? {
        KIND_PING => Request::Ping,
        KIND_STATS => Request::Stats,
        KIND_QUERY => Request::Query(read_query(&mut r)?),
        k => return Err(r.error(FrameErrorKind::UnknownKind(k))),
    };
    r.finish()?;
    Ok(req)
}

/// Encode a response as a complete frame (magic through CRC trailer).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut frame = match resp {
        Response::Pong => begin_frame(KIND_PONG),
        Response::Rows { epoch, result } => {
            let mut f = begin_frame(KIND_ROWS);
            write_varint(&mut f, *epoch);
            write_result_set(&mut f, result);
            f
        }
        Response::Stats(s) => {
            let mut f = begin_frame(KIND_STATS_REPLY);
            write_stats(&mut f, s);
            f
        }
        Response::Error(e) => {
            let mut f = begin_frame(KIND_ERROR);
            f.push(e.code);
            write_string(&mut f, &e.detail);
            f
        }
    };
    seal(&mut frame, 0);
    frame
}

/// Decode a response frame. Total: every failure is a typed [`FrameError`].
pub fn decode_response(bytes: &[u8]) -> Result<Response, FrameError> {
    let mut r = CQ.open(bytes)?;
    let resp = match r.u8()? {
        KIND_PONG => Response::Pong,
        KIND_ROWS => Response::Rows {
            epoch: r.varint()?,
            result: read_result_set(&mut r)?,
        },
        KIND_STATS_REPLY => Response::Stats(read_stats(&mut r)?),
        KIND_ERROR => Response::Error(WireError {
            code: r.u8()?,
            detail: r.str("error detail")?.to_string(),
        }),
        k => return Err(r.error(FrameErrorKind::UnknownKind(k))),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Query {
        Query {
            filters: vec![
                Filter::Kind(FailureKind::DataSetupError),
                Filter::Cause(DataFailCause::SignalLost),
                Filter::TimeRange {
                    start_ms: 0,
                    end_ms: 604_800_000,
                },
            ],
            group_by: vec![Dim::Isp, Dim::Rat],
            window_ms: 604_800_000,
            metric: Metric::QuantileMs(0.95),
            top_k: 5,
        }
    }

    fn sample_result() -> ResultSet {
        ResultSet {
            group_by: vec![Dim::Isp],
            metric: Metric::Count,
            rows: vec![ResultRow {
                key: vec![2],
                labels: vec!["ISP-C".into()],
                value: 41.0,
                count: 41,
            }],
            cells_scanned: 100,
            cells_matched: 41,
        }
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Query(sample_query()),
        ] {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Pong,
            Response::Rows {
                epoch: 7,
                result: sample_result(),
            },
            Response::Stats(ServerStats {
                epoch: 3,
                inserted: 1000,
                cells: 40,
                devices: 10,
                requests_served: 99,
            }),
            Response::Error(WireError {
                code: ERR_BAD_QUERY,
                detail: "quantile 1.5 outside [0, 1]".into(),
            }),
        ] {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame).unwrap(), resp);
        }
    }

    #[test]
    fn version_and_kind_errors_are_distinguished() {
        let mut frame = encode_request(&Request::Ping);
        frame[2] = 9;
        assert_eq!(
            decode_request(&frame).unwrap_err(),
            CQ.error(FrameErrorKind::UnsupportedVersion(9))
        );

        let mut frame = begin_frame(0x44);
        seal(&mut frame, 0);
        assert_eq!(
            decode_request(&frame).unwrap_err(),
            CQ.error(FrameErrorKind::UnknownKind(0x44))
        );
        // A response kind is not a request.
        let frame = encode_response(&Response::Pong);
        assert_eq!(
            decode_request(&frame).unwrap_err(),
            CQ.error(FrameErrorKind::UnknownKind(KIND_PONG))
        );
    }

    #[test]
    fn length_lies_do_not_allocate() {
        // A rows count of u64::MAX in a tiny payload must be rejected as an
        // overcount, not drive Vec::with_capacity.
        let mut f = begin_frame(KIND_ROWS);
        write_varint(&mut f, 1); // epoch
        write_dims(&mut f, &[]); // group_by
        f.push(METRIC_COUNT);
        write_varint(&mut f, u64::MAX); // rows count lie
        seal(&mut f, 0);
        assert_eq!(decode_response(&f).unwrap_err(), CQ.invalid("rows"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = begin_frame(KIND_PING);
        frame.push(0);
        seal(&mut frame, 0);
        assert_eq!(
            decode_request(&frame).unwrap_err(),
            CQ.error(FrameErrorKind::TrailingBytes)
        );
    }
}
