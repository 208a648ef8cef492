//! The serving core: snapshot-isolated reads over `Arc`-swapped immutable
//! stores, total frame handling, and per-request counters.
//!
//! The core is transport-agnostic — [`QuerydCore::handle_frame`] maps one
//! request frame to one response frame and **never panics**, whatever the
//! bytes. The TCP listener and the deterministic in-process client (see
//! [`crate::net`]) both funnel into it, so every protocol test exercises
//! exactly the code the socket path runs.
//!
//! **Snapshot isolation.** The write side (an ingest feed appending through
//! a `StoreSink`) publishes immutable [`Store`] snapshots with
//! [`QuerydCore::publish`]; readers grab the current `Arc<Snapshot>` under
//! a briefly-held lock and answer entirely from it. A query therefore sees
//! one consistent store state — never a torn mid-merge view — and every
//! answer is tagged with the snapshot's publish epoch so clients can pin a
//! set of queries to one state.
//!
//! **Counters.** [`ServerMetrics`] keeps the three counts something reads:
//! frames answered (the `Stats` response reports it), wire-level errors and
//! engine rejects. They are plain atomics — the server is multi-threaded —
//! and answering a query takes no lock beyond the snapshot read.

use crate::proto::{self, Request, Response, ServerStats, WireError};
use cellrel_store::Store;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One immutable published store state. Readers hold the `Arc` for the
/// duration of a query; the publisher never mutates a published store.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonic publish counter (0 = the store the core started with).
    pub epoch: u64,
    /// The store state. Immutable once published.
    pub store: Store,
}

/// Server-side request counters, shared by every connection thread.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    requests: AtomicU64,
    wire_errors: AtomicU64,
    query_rejects: AtomicU64,
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
}

/// The transport-agnostic serving core. Cheap to share across connection
/// threads behind an `Arc`.
pub struct QuerydCore {
    current: RwLock<Arc<Snapshot>>,
    metrics: ServerMetrics,
}

impl QuerydCore {
    /// A core serving `store` as epoch 0.
    pub fn new(store: Store) -> Arc<QuerydCore> {
        Arc::new(QuerydCore {
            current: RwLock::new(Arc::new(Snapshot { epoch: 0, store })),
            metrics: ServerMetrics::default(),
        })
    }

    /// Request counters accumulated so far.
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
            Request::Ping => Response::Pong,
            Request::Stats => {
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
                let snap = self.snapshot();
                match snap.store.query(q) {
                    Ok(result) => Response::Rows {
                        epoch: snap.epoch,
                        result,
                    },
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
        let resp = match proto::decode_request(frame) {
            Ok(req) => self.handle(&req),
            Err(e) => {
                self.metrics.wire_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(WireError::from_decode(&e))
            }
        };
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        proto::encode_response(&resp)
    }

    /// The error response for a length prefix that exceeds the `CQ` frame
    /// cap — the one failure the transport must answer
    /// *without* materialising the frame.
    pub fn oversize_response(&self, claimed: u64) -> Vec<u8> {
        self.metrics.wire_errors.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        proto::encode_response(&Response::Error(WireError::too_large(claimed)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_store::{Dim, Query, StoreConfig};

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
}
