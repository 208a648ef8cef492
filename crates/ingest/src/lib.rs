//! # cellrel-ingest
//!
//! The fleet telemetry **ingestion pipeline**: the backend half of the
//! paper's nationwide measurement platform (§2.2), which collected 2.32 B
//! failure records from 70 M devices as compressed uploads.
//!
//! Four layers, bottom up:
//!
//! * [`frame`] — the one envelope (`magic | version | body | CRC-32`),
//!   bounded [`frame::Reader`] and [`FrameError`] every wire and disk
//!   format in the workspace is built on, plus the varint/zigzag/CRC
//!   primitives.
//! * [`codec`] — the compact binary wire format for trace batches: LEB128
//!   varints, delta-of-timestamps, per-batch framing (magic, schema
//!   version, device id, upload sequence number) and a CRC-32 trailer.
//!   Encoding is a pure function of the record set; decoding is total —
//!   adversarial bytes yield a [`FrameError`], never a panic.
//!   The device-side `Uploader` in `cellrel-monitor` ships these bytes, so
//!   the network-overhead numbers in the monitor are measured, not
//!   estimated with a compression fudge factor.
//! * [`collector`] — the sharded collector: a batch routes to
//!   `device % virtual_shards`, where dedup (per-device upload seq), §2.1
//!   noise filtering and late/out-of-order accounting apply before it
//!   folds into aggregates whose size follows what a shard has seen
//!   (distinct duration buckets, devices), not how many records passed.
//!   Durations are summarised with the sparse mergeable quantile sketch
//!   from `cellrel_sim::sketch`, one per failure kind; the all-kinds
//!   sketch is their sum. [`Collector::ingest_with`] is the one way to run
//!   it; downstream consumers (the `cellrel-store` analytics cube) pass a
//!   [`cellrel_types::EventSink`] and observe exactly the accepted record
//!   stream.
//! * [`checkpoint`] — versioned, CRC-framed serialization of the full
//!   collector state, so ingestion survives restarts without replay.
//!
//! [`cellrel_monitor::Uploader`]: https://docs.rs/cellrel-monitor

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod collector;
pub mod frame;

pub use checkpoint::{restore_checkpoint, restore_checkpoint_onto, save_checkpoint};
pub use codec::{decode_batch, encode_batch, peek_device, WireBatch};
pub use collector::{Collector, CollectorConfig, IngestAggregate, IngestCounters, IngestReport};
pub use frame::{FrameError, FrameErrorKind};
