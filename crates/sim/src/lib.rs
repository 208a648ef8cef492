//! # cellrel-sim
//!
//! The deterministic discrete-event simulation kernel underpinning every
//! experiment in the `cellrel` workspace, plus the random-number and
//! statistics toolkit the other crates share.
//!
//! Design notes (following the workspace guides):
//!
//! * **Event-driven and synchronous.** The workload is CPU-bound simulation,
//!   so the kernel is one plain event loop, the hierarchical
//!   [`TimerWheel`] — no async runtime, no wall-clock time. Fleet-scale
//!   drivers parallelise *across* devices, not inside the event loop: the
//!   [`par`] module shards an index range over scoped threads and merges
//!   per-shard partials with [`Merge`], while each device's randomness
//!   comes from a counter-based substream ([`SimRng::for_substream`]) so
//!   output is bit-identical at any thread count.
//! * **Deterministic.** All randomness flows from a single seed through
//!   [`SimRng`]; forked sub-streams are derived with SplitMix64 so component
//!   seeds are independent yet reproducible. Two runs with the same seed
//!   produce byte-identical traces.
//! * **Self-contained.** Distribution sampling (exponential, log-normal,
//!   Pareto, Zipf, categorical, empirical) and statistics (summaries, ECDFs,
//!   regression, Zipf fitting) are implemented here rather than pulled in as
//!   dependencies, keeping the dependency surface to `rand` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod dist;
pub mod par;
pub mod queue;
pub mod rng;
pub mod sketch;
pub mod stats;
pub mod telemetry;
pub mod wheel;

pub use campaign::{
    run_campaign, CampaignReport, Digest64, Invariant, InvariantRegistry, ScenarioOutcome,
    Violation,
};
pub use dist::{ClassMasks, WeightedIndex};
pub use par::{auto_threads, resolve_threads, run_sharded, run_sharded_merge, Merge};
pub use queue::{EventHandler, EventQueue};
pub use rng::SimRng;
pub use sketch::{QuantileSketch, SparseSketch};
pub use stats::{bootstrap_mean_ci, fit_zipf, linreg, percentile, Ecdf, Summary};
pub use telemetry::{MetricsRegistry, SpanGuard, Telemetry};
pub use wheel::{EventToken, TimerWheel};
