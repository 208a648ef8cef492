//! The serving core: snapshot-isolated reads over `Arc`-swapped immutable
//! stores, total frame handling, and per-request telemetry.
//!
//! The core is transport-agnostic — [`QuerydCore::handle_frame`] maps one
//! request frame to one response frame and **never panics**, whatever the
//! bytes. The TCP listener and the deterministic in-process client (see
//! [`crate::net`]) both funnel into it, so every protocol test exercises
//! exactly the code the socket path runs.
//!
//! **Snapshot isolation.** The write side (an ingest feed appending through
//! [`StoreSink`]) publishes immutable [`Store`] snapshots with
//! [`QuerydCore::publish`]; readers grab the current `Arc<Snapshot>` under
//! a briefly-held lock and answer entirely from it. A query therefore sees
//! one consistent store state — never a torn mid-merge view — and every
//! answer is tagged with the snapshot's publish epoch so clients can pin a
//! set of queries to one state.
//!
//! **Telemetry.** Counters and latency/row histograms accumulate in
//! thread-safe atomics + mutexed [`QuantileSketch`]es (the server is
//! multi-threaded; the `Telemetry` handle is not `Send`), and export into a
//! regular [`MetricsSnapshot`] on demand. Wall-clock latency needs a clock,
//! which the workspace bans from library code — callers that want latency
//! inject one ([`QuerydCore::with_clock`]); tests inject deterministic
//! counters.

use crate::proto::{self, Request, Response, ServerStats, WireError};
use cellrel_ingest::AcceptedSink;
use cellrel_sim::{MetricsSnapshot, QuantileSketch, Telemetry};
use cellrel_store::{DeviceDirectory, Store, StoreConfig, StoreSink};
use cellrel_types::FailureEvent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A microsecond wall-clock supplied by the embedding binary (library code
/// cannot use `std::time::Instant` — see `clippy.toml`). Tests inject
/// deterministic counters.
pub type WallClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// One immutable published store state. Readers hold the `Arc` for the
/// duration of a query; the publisher never mutates a published store.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonic publish counter (0 = the store the core started with).
    pub epoch: u64,
    /// The store state. Immutable once published.
    pub store: Store,
}

/// Anything that hands out epoch-tagged immutable store snapshots — the
/// query daemon core itself, and the cluster tier's leader and follower
/// replicas. Callers written against this trait (the scatter-gather
/// router, the bench drivers) serve identically off any of them.
pub trait SnapshotSource: Send + Sync {
    /// The current epoch-consistent view.
    fn snapshot(&self) -> Arc<Snapshot>;
}

impl SnapshotSource for QuerydCore {
    fn snapshot(&self) -> Arc<Snapshot> {
        QuerydCore::snapshot(self)
    }
}

/// Server-side request metrics: thread-safe accumulators exported into a
/// [`MetricsSnapshot`] on demand.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    requests: AtomicU64,
    pings: AtomicU64,
    queries: AtomicU64,
    stats_requests: AtomicU64,
    wire_errors: AtomicU64,
    query_rejects: AtomicU64,
    latency_us: Mutex<QuantileSketch>,
    rows_returned: Mutex<QuantileSketch>,
}

impl ServerMetrics {
    /// Frames answered so far (including error responses).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests answered with a wire-level error response.
    pub fn wire_errors(&self) -> u64 {
        self.wire_errors.load(Ordering::Relaxed)
    }

    /// Queries rejected by engine validation.
    pub fn query_rejects(&self) -> u64 {
        self.query_rejects.load(Ordering::Relaxed)
    }

    /// Export the accumulators as a regular metrics snapshot
    /// (`queryd.*` counters and histograms).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let tele = Telemetry::enabled();
        tele.add("queryd.requests", self.requests.load(Ordering::Relaxed));
        tele.add("queryd.pings", self.pings.load(Ordering::Relaxed));
        tele.add("queryd.queries", self.queries.load(Ordering::Relaxed));
        tele.add(
            "queryd.stats_requests",
            self.stats_requests.load(Ordering::Relaxed),
        );
        tele.add(
            "queryd.wire_errors",
            self.wire_errors.load(Ordering::Relaxed),
        );
        tele.add(
            "queryd.query_rejects",
            self.query_rejects.load(Ordering::Relaxed),
        );
        let latency = self.latency_us.lock().expect("metrics lock").clone();
        if latency.count() > 0 {
            tele.merge_histogram("queryd.latency_us", latency);
        }
        let rows = self.rows_returned.lock().expect("metrics lock").clone();
        if rows.count() > 0 {
            tele.merge_histogram("queryd.rows_returned", rows);
        }
        tele.snapshot()
    }

    fn observe_latency(&self, us: u64) {
        self.latency_us.lock().expect("metrics lock").push(us);
    }

    fn observe_rows(&self, n: u64) {
        self.rows_returned.lock().expect("metrics lock").push(n);
    }
}

/// The transport-agnostic serving core. Cheap to share across connection
/// threads behind an `Arc`.
pub struct QuerydCore {
    current: RwLock<Arc<Snapshot>>,
    metrics: ServerMetrics,
    clock: Option<WallClock>,
}

impl QuerydCore {
    /// A core serving `store` as epoch 0, with no latency clock.
    pub fn new(store: Store) -> Arc<QuerydCore> {
        Self::build(store, None)
    }

    /// [`QuerydCore::new`] plus a microsecond clock for latency histograms.
    pub fn with_clock(store: Store, clock: WallClock) -> Arc<QuerydCore> {
        Self::build(store, Some(clock))
    }

    fn build(store: Store, clock: Option<WallClock>) -> Arc<QuerydCore> {
        Arc::new(QuerydCore {
            current: RwLock::new(Arc::new(Snapshot { epoch: 0, store })),
            metrics: ServerMetrics::default(),
            clock,
        })
    }

    /// Request metrics accumulated so far.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Swap in a new immutable store state; returns its epoch. In-flight
    /// readers keep answering from the snapshot they already hold.
    pub fn publish(&self, store: Store) -> u64 {
        let mut cur = self.current.write().expect("snapshot lock");
        let epoch = cur.epoch + 1;
        *cur = Arc::new(Snapshot { epoch, store });
        epoch
    }

    /// [`QuerydCore::publish`] with an externally assigned epoch — the
    /// replication path aligns snapshot epochs with its segment-ship
    /// sequence numbers so a router can report exactly which replication
    /// position answered. Monotonicity is the caller's contract; a stale
    /// epoch is refused (the current snapshot wins) and `false` returned.
    pub fn publish_at(&self, store: Store, epoch: u64) -> bool {
        let mut cur = self.current.write().expect("snapshot lock");
        if epoch < cur.epoch {
            return false;
        }
        *cur = Arc::new(Snapshot { epoch, store });
        true
    }

    /// The current snapshot. The lock is held only for the `Arc` clone.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current.read().expect("snapshot lock").clone()
    }

    /// Answer a typed request. Queries read from one snapshot for their
    /// whole evaluation; errors come back as [`Response::Error`].
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Ping => {
                self.metrics.pings.fetch_add(1, Ordering::Relaxed);
                Response::Pong
            }
            Request::Stats => {
                self.metrics.stats_requests.fetch_add(1, Ordering::Relaxed);
                let snap = self.snapshot();
                Response::Stats(ServerStats {
                    epoch: snap.epoch,
                    inserted: snap.store.inserted(),
                    cells: snap.store.cells(),
                    devices: snap.store.devices(),
                    requests_served: self.metrics.requests(),
                })
            }
            Request::Query(q) => {
                self.metrics.queries.fetch_add(1, Ordering::Relaxed);
                let snap = self.snapshot();
                match snap.store.query(q) {
                    Ok(result) => {
                        self.metrics.observe_rows(result.rows.len() as u64);
                        Response::Rows {
                            epoch: snap.epoch,
                            result,
                        }
                    }
                    Err(e) => {
                        self.metrics.query_rejects.fetch_add(1, Ordering::Relaxed);
                        Response::Error(WireError::bad_query(&e))
                    }
                }
            }
        }
    }

    /// Map one request frame to one response frame. Total: malformed,
    /// version-mismatched or unknown-kind input produces an encoded error
    /// response, never a panic.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let start = self.clock.as_ref().map(|c| c());
        let resp = match proto::decode_request(frame) {
            Ok(req) => self.handle(&req),
            Err(e) => {
                self.metrics.wire_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(WireError::from_decode(&e))
            }
        };
        self.finish(start);
        proto::encode_response(&resp)
    }

    /// The error response for a length prefix that exceeds the `CQ` frame
    /// cap — the one failure the transport must answer
    /// *without* materialising the frame.
    pub fn oversize_response(&self, claimed: u64) -> Vec<u8> {
        let start = self.clock.as_ref().map(|c| c());
        self.metrics.wire_errors.fetch_add(1, Ordering::Relaxed);
        self.finish(start);
        proto::encode_response(&Response::Error(WireError::too_large(claimed)))
    }

    fn finish(&self, start: Option<u64>) {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        if let (Some(clock), Some(start)) = (self.clock.as_ref(), start) {
            self.metrics.observe_latency(clock().saturating_sub(start));
        }
    }
}

impl std::fmt::Debug for QuerydCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerydCore")
            .field("epoch", &self.snapshot().epoch)
            .field("requests", &self.metrics.requests())
            .finish()
    }
}

/// Replay `events` into the core the way a live backend would: append
/// through a [`StoreSink`] (the same `AcceptedSink` the ingest collector
/// feeds) and publish an immutable snapshot every `chunk` events, plus a
/// final one. `on_publish` sees each snapshot as it becomes current —
/// tests use it to retain the exact states concurrent clients can observe.
/// Returns the final epoch.
pub fn feed_events(
    core: &QuerydCore,
    cfg: &StoreConfig,
    dir: &DeviceDirectory,
    events: &[FailureEvent],
    chunk: usize,
    mut on_publish: impl FnMut(&Arc<Snapshot>),
) -> u64 {
    let chunk = chunk.max(1);
    let mut sink = StoreSink::new(cfg, dir);
    // Published snapshots are immutable, so they are built in the columnar
    // layout: concurrent readers scan segments instead of the row map.
    // Pure layout change — answers and digests are invariant (the store's
    // differential suite proves it).
    let mut publish = |sink: &StoreSink<'_>| {
        let mut snap = Store::sealed_union(cfg, &[sink.store()]);
        snap.register_population(dir);
        let epoch = core.publish(snap);
        on_publish(&core.snapshot());
        epoch
    };
    let mut pending = 0usize;
    for e in events {
        sink.accepted(e);
        pending += 1;
        if pending == chunk {
            pending = 0;
            publish(&sink);
        }
    }
    publish(&sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_store::{Dim, Query};

    fn empty_core() -> Arc<QuerydCore> {
        QuerydCore::new(Store::new(&StoreConfig::default()))
    }

    #[test]
    fn ping_stats_and_query_round_trip() {
        let core = empty_core();
        assert_eq!(core.handle(&Request::Ping), Response::Pong);
        let resp = core.handle(&Request::Query(Query::count_by(vec![Dim::Kind])));
        match resp {
            Response::Rows { epoch, result } => {
                assert_eq!(epoch, 0);
                assert!(result.rows.is_empty());
            }
            other => panic!("unexpected response: {other:?}"),
        }
        match core.handle(&Request::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.epoch, 0);
                assert_eq!(s.inserted, 0);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn hostile_frames_yield_error_responses_not_panics() {
        let core = empty_core();
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0xff; 3],
            vec![0xff; 64],
            b"CQ\x01\x02garbage-without-crc".to_vec(),
            proto::encode_response(&Response::Pong), // response kind as request
        ];
        for bytes in cases {
            let resp = proto::decode_response(&core.handle_frame(&bytes)).expect("valid frame out");
            assert!(matches!(resp, Response::Error(_)), "input {bytes:?}");
        }
        assert_eq!(core.metrics().wire_errors(), 5);
        assert_eq!(core.metrics().requests(), 5);
    }

    #[test]
    fn invalid_query_is_rejected_without_state_change() {
        let core = empty_core();
        let bad = Query {
            group_by: vec![Dim::Kind, Dim::Kind],
            ..Query::count_by(vec![])
        };
        let frame = proto::encode_request(&Request::Query(bad));
        let resp = proto::decode_response(&core.handle_frame(&frame)).unwrap();
        match resp {
            Response::Error(e) => assert_eq!(e.code, proto::ERR_BAD_QUERY),
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(core.metrics().query_rejects(), 1);
        assert_eq!(core.snapshot().epoch, 0);
    }

    #[test]
    fn publish_bumps_epochs_and_readers_keep_their_snapshot() {
        let core = empty_core();
        let held = core.snapshot();
        assert_eq!(core.publish(Store::new(&StoreConfig::default())), 1);
        assert_eq!(core.publish(Store::new(&StoreConfig::default())), 2);
        // The reader's pinned snapshot is unchanged by later publishes.
        assert_eq!(held.epoch, 0);
        assert_eq!(core.snapshot().epoch, 2);
    }

    #[test]
    fn deterministic_clock_feeds_the_latency_histogram() {
        let ticks = Arc::new(AtomicU64::new(0));
        let t = ticks.clone();
        let clock: WallClock = Arc::new(move || t.fetch_add(7, Ordering::Relaxed));
        let core = QuerydCore::with_clock(Store::new(&StoreConfig::default()), clock);
        let frame = proto::encode_request(&Request::Ping);
        core.handle_frame(&frame);
        core.handle_frame(&frame);
        let snap = core.metrics().snapshot();
        let lat = snap.histogram("queryd.latency_us").expect("latency sketch");
        assert_eq!(lat.count(), 2);
        assert_eq!(snap.counter("queryd.requests"), 2);
        assert_eq!(snap.counter("queryd.pings"), 2);
    }
}
