//! # cellrel-analysis
//!
//! The analysis pipeline: everything §3 and §4.3 of the paper compute,
//! recovered from simulated datasets. One module per experiment family,
//! each producing a typed result plus a rendered text table/series — the
//! rows the `cellrel-bench` repro harness prints next to the paper's
//! published values.
//!
//! | module | reproduces |
//! |---|---|
//! | [`headline`] | §3.1 general statistics |
//! | [`table1`] | Table 1 (per-model prevalence/frequency) |
//! | [`table2`] | Table 2 (top-10 `Data_Setup_Error` causes) |
//! | [`per_model`] | Figures 2 and 5 |
//! | [`counts`] | Figure 3 |
//! | [`duration_stats`] | Figure 4 |
//! | [`groups`] | Figures 6–9 |
//! | [`stall_recovery`] | Figure 10 |
//! | [`zipf`] | Figure 11 |
//! | [`isp`] | Figures 12–13 |
//! | [`per_rat`] | Figure 14 |
//! | [`signal`] | Figures 15–16 |
//! | [`transitions`] | Figure 17 (a–f) |
//! | [`ab`] | Figures 19–21 |
//! | [`store_tables`] | Tables 1–2 served from `cellrel-store` queries |
//! | [`streaming`] | §3.1 counters as a mergeable streaming sink |
//! | [`metrics`] | observability metrics tables (`--metrics`) |
//! | [`render`] | text table / series rendering |
//! | [`export`] | CSV export for downstream plotting |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod counts;
pub mod duration_stats;
pub mod export;
pub mod groups;
pub mod hardware;
pub mod headline;
pub mod isp;
pub mod measurement;
pub mod metrics;
pub mod per_model;
pub mod per_rat;
pub mod render;
pub mod signal;
pub mod stall_recovery;
pub mod store_tables;
pub mod streaming;
pub mod table1;
pub mod table2;
pub mod transitions;
pub mod zipf;

pub use metrics::render_metrics;
pub use render::Table;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures: generating a macro dataset is the expensive part of
    //! every analysis test, so the test binary builds it once.
    use cellrel_workload::{run_macro_study, StudyConfig, StudyDataset};
    use std::sync::OnceLock;

    /// The shared small macro dataset. The seed is a calibration
    /// expectation: at 3 000 devices the low-share models carry ~10²
    /// devices, so tolerance tests need a typical draw, and the seed was
    /// re-picked once when event generation moved to per-device substreams.
    pub(crate) fn dataset() -> &'static StudyDataset {
        static DATA: OnceLock<StudyDataset> = OnceLock::new();
        DATA.get_or_init(|| {
            run_macro_study(&StudyConfig {
                seed: 2024,
                ..StudyConfig::small()
            })
        })
    }
}
