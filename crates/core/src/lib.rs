//! # cellrel
//!
//! A simulation-based reproduction of **"A Nationwide Study on Cellular
//! Reliability: Measurement, Analysis, and Enhancements"** (Li et al.,
//! SIGCOMM 2021) — the cellular substrate, Android's connection-management
//! stack, the Android-MOD measurement infrastructure, the analysis pipeline
//! behind every table and figure, and the two deployed enhancements
//! (Stability-Compatible RAT transition and TIMP-based Data_Stall recovery),
//! all rebuilt in Rust.
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `cellrel-types` | shared vocabulary (RATs, levels, causes, events) |
//! | [`sim`] | `cellrel-sim` | deterministic DES kernel, RNG, statistics |
//! | [`device`] | `cellrel-device` | one phone's stack: BS deployment, propagation, EMM, RIL modem, cause generation, TCP counters, ICMP/DNS probes, DataConnection FSM, stall detection, recovery, RAT policies, device agent, Android-MOD |
//! | [`ingest`] | `cellrel-ingest` | backend ingestion: wire codec, sharded collector, sketches |
//! | [`store`] | `cellrel-store` | embedded analytics cube: mergeable partitions, query engine |
//! | [`queryd`] | `cellrel-queryd` | query daemon: framed wire protocol, snapshot-isolated server, TCP + in-process transports |
//! | [`stream`] | `cellrel-stream` | continuous windowed pipeline: watermark sealing, tiered segments, crash-transparent restart |
//! | [`cluster`] | `cellrel-cluster` | sharded, replicated serving tier: device-hash partitioning, segment-shipping replication, scatter-gather federation |
//! | [`timp`] | `cellrel-timp` | TIMP model + annealing optimizer |
//! | [`workload`] | `cellrel-workload` | calibrated population, macro study, A/B drivers |
//! | [`analysis`] | `cellrel-analysis` | per-table/figure estimators and renderers |
//!
//! ## Quickstart
//!
//! ```
//! use cellrel::workload::{run_macro_study, StudyConfig};
//! use cellrel::analysis::headline;
//!
//! // A small synthetic fleet over the 8-month study window.
//! let mut cfg = StudyConfig::small();
//! cfg.population.devices = 2_000;
//! let dataset = run_macro_study(&cfg);
//! let stats = headline::compute(&dataset);
//! assert!(stats.prevalence > 0.1 && stats.prevalence < 0.35);
//! println!("{}", stats.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use cellrel_analysis as analysis;
pub use cellrel_cluster as cluster;
pub use cellrel_device as device;
pub use cellrel_ingest as ingest;
pub use cellrel_queryd as queryd;
pub use cellrel_sim as sim;
pub use cellrel_store as store;
pub use cellrel_stream as stream;
pub use cellrel_timp as timp;
pub use cellrel_types as types;
pub use cellrel_workload as workload;

/// The library version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        // Touch one symbol from each re-export so the facade can't silently
        // drop a crate.
        let _ = crate::types::Rat::G5;
        let _ = crate::sim::SimRng::new(0);
        let _ = crate::device::DeploymentConfig::small();
        let _ = crate::device::FaultProfile::none();
        let _ = crate::device::LinkCondition::Healthy;
        let _ = crate::device::RecoveryConfig::timp_optimized();
        let _ = crate::device::ProbeSession;
        let _ = crate::ingest::CollectorConfig::default();
        let _ = crate::store::StoreConfig::default();
        let _ = crate::queryd::Request::Ping;
        let _ = crate::stream::StreamConfig::default();
        let _ = crate::cluster::ClusterConfig::default();
        let _ = crate::timp::AnnealConfig::default();
        let _ = crate::workload::StudyConfig::small();
        let _ = crate::analysis::Table::new("t", &["a"]);
        assert!(!crate::VERSION.is_empty());
    }
}
