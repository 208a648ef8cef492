//! # cellrel-store
//!
//! An embedded, deterministic **fleet-analytics cube** over ingested
//! telemetry — the serving layer the paper's backend needs to answer
//! multi-dimensional reliability questions (failure rates by ISP × RAT ×
//! model × region × fail-cause class over time, Tables 1–2, §3–§5)
//! without a batch pass per question.
//!
//! Six layers:
//!
//! * [`cube`] — partitioned storage: records land in cells keyed by
//!   (time bucket, kind, ISP, RAT, model, region, cause class, cause);
//!   cells hold only mergeable partial aggregates (counts, exact duration
//!   sums, sparse quantile sketches), so sharded builds fold with the
//!   workspace `Merge` trait and are **bit-identical at any thread
//!   count**. Rollup compaction folds sealed time buckets without
//!   changing query answers, and [`Store::digest`] hashes a canonical
//!   rolled-up view so it is invariant across threads, partition counts,
//!   and compaction on/off.
//! * [`columnar`] — the sealed-segment layout: sorted key runs stored as
//!   per-column arrays with zone maps, k-way merge compaction, and a
//!   CRC-framed `SC` block codec the v2 store image embeds. Sealed data
//!   scans branch-light (tight per-column filter loops, prune by zone,
//!   materialise only matches) while staying byte-identical to the row
//!   engine — proven by the differential suite.
//! * [`query`] — the typed embedded query engine:
//!   [`Query`] { filters, group-by, window, metric, top-k } →
//!   [`ResultSet`], with validation that keeps every legal query
//!   compaction-transparent. [`Store::query`] scans segments a column
//!   at a time and groups by code — a row's group key packed into one
//!   number that addresses flat per-group sums (the private `group`
//!   module); [`Store::query_row`] is the row reference engine the
//!   differential harness compares against.
//! * [`federate`] — scatter-gather support for the cluster tier:
//!   [`Store::query_partial`] evaluates up to (not including)
//!   finalisation, [`merge_partials`] folds shard partials with the
//!   exact cell algebra and finalises through the same code path local
//!   queries use, so federated answers are byte-identical to
//!   single-node ones.
//! * [`persist`] — CRC-framed save/restore of the full store state,
//!   mirroring the ingest checkpoint format discipline (total restore,
//!   typed errors, no unbounded allocations on hostile input). Images are
//!   version-gated: v1 (row-only) stays byte-stable; stores holding
//!   sealed segments save as v2 with embedded `SC` blocks.
//! * [`workload`] — the canonical 11-query workload shared by the repo
//!   benchmark and the differential suites.
//!
//! Records arrive from the simulation drivers or from the ingest
//! collector through the one `cellrel_types::EventSink` trait, which
//! [`StoreSink`] implements over a shared [`DeviceDirectory`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod cube;
pub mod federate;
mod group;
pub mod persist;
pub mod query;
pub mod workload;

pub use columnar::{ColumnSegment, SEGMENT_VERSION};
pub use cube::{
    build_sharded, Cell, CellKey, DeviceDim, DeviceDirectory, Region, Store, StoreConfig, StoreSink,
};
pub use federate::{decode_partial, encode_partial, merge_partials, PartialResultSet};
pub use persist::{read_store, restore_store, save_store};
pub use query::{Dim, Filter, Metric, Query, QueryError, ResultRow, ResultSet};
