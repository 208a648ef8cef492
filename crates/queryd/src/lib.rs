//! # cellrel-queryd
//!
//! The query-serving daemon: `cellrel-store`'s typed query engine behind a
//! compact framed wire protocol, serving concurrent readers from immutable
//! `Arc`-swapped snapshots while an ingest feed keeps appending — the
//! paper's backend analyses (Tables 1–2, per-ISP/RAT/model breakdowns) as
//! **served traffic** rather than a batch step.
//!
//! Three layers:
//!
//! * [`proto`] — the wire format: `"CQ"`-magic frames (version byte, kind
//!   byte, varint payload, CRC-32 trailer) carrying [`Query`]/[`ResultSet`]
//!   with the same codec idioms and totality discipline as the ingest wire
//!   format. Decoding never panics and never over-reads.
//! * [`server`] — the transport-agnostic core: snapshot-isolated reads
//!   (readers pin an `Arc<Snapshot>`; [`QuerydCore::publish`] swaps in new
//!   epochs), total frame handling with wire-level error responses, and
//!   the three request counters something reads.
//! * [`net`] — transports: a std-only thread-per-connection TCP server
//!   speaking `u32`-length-prefixed frames, a blocking [`TcpClient`], and
//!   the deterministic [`InProcClient`] the equivalence tests pin against.
//!
//! The concurrency contract: a query is answered entirely from one
//! published snapshot, so N concurrent clients racing a live ingest feed
//! each see some exact published store state — byte-identical to querying
//! that store in-process — never a torn intermediate.
//!
//! [`Query`]: cellrel_store::Query
//! [`ResultSet`]: cellrel_store::ResultSet

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
pub mod proto;
pub mod server;

pub use net::{serve, ClientError, InProcClient, QuerydServer, TcpClient};
pub use proto::{Request, Response, ServerStats, WireError};
pub use server::{QuerydCore, Snapshot};
