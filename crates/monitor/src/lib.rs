//! # cellrel-monitor
//!
//! Android-MOD — the paper's measurement artifact (§2.2), reimplemented in
//! full. Vanilla Android reports failure events without context and mixed
//! with noise; Android-MOD instruments the system services, filters false
//! positives, measures stall durations by active probing, and ships compact
//! traces to the backend — `cellrel-ingest`'s collector, the one backend
//! the stack has:
//!
//! * [`filter`] — instrumentation-level false-positive filtering: overload
//!   rejections, voice-call disruptions, balance suspensions, manual
//!   disconnections, all 344-code classification driven.
//! * [`probing`] — the stall-duration probe session: 1 s ICMP / 5 s DNS
//!   rounds, ≤5 s measurement error, ×2 timeout backoff past 1200 s, revert
//!   to vanilla minute-granularity once a timeout exceeds one minute.
//! * [`service`] — [`MonitoringService`]: the `TelephonyListener` that ties
//!   it all together and accumulates the dataset — one
//!   `cellrel_types::FailureEvent` per true failure, with its in-situ
//!   context, held once — plus a filter confusion matrix.
//! * [`overhead`] — CPU/memory/storage/network overhead accounting against
//!   the paper's budgets.
//! * [`uploader`] — WiFi-gated trace upload: a position in the service's
//!   record list. Flushes encode real `cellrel-ingest` wire batches from
//!   it, so network accounting reflects actual encoded bytes and
//!   `Collector::ingest_with` takes a payload as it left the device.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod overhead;
pub mod probing;
pub mod service;
pub mod uploader;

pub use overhead::OverheadAccounting;
pub use probing::{ProbeConfig, ProbeSession, StallMeasurement};
pub use service::MonitoringService;
pub use uploader::{EncodedUpload, Uploader};
