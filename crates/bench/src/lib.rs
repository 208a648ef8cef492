//! Shared fixtures for the benchmark / reproduction harness.
//!
//! Benches and the `repro` binary share dataset construction so that every
//! table/figure is regenerated from the *same* simulated study, exactly as
//! the paper derives all of §3 from one dataset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig, StudyDataset};
use std::sync::OnceLock;

/// The standard macro study used by benches and `repro` (medium size:
/// large enough for stable statistics, small enough to regenerate in
/// seconds).
pub fn standard_study() -> &'static StudyDataset {
    static DATA: OnceLock<StudyDataset> = OnceLock::new();
    DATA.get_or_init(|| run_macro_study(&standard_config()))
}

/// The configuration behind [`standard_study`].
pub fn standard_config() -> StudyConfig {
    StudyConfig {
        population: PopulationConfig {
            devices: 20_000,
            ..Default::default()
        },
        bs_count: 20_000,
        seed: 2020,
        ..Default::default()
    }
}

/// A/B experiment configuration for the enhancement figures (Figs. 19–21):
/// paired fleets of fully simulated devices.
pub fn ab_config() -> cellrel::workload::AbConfig {
    cellrel::workload::AbConfig {
        devices: 24,
        days: 3,
        seed: 2021,
        stall_rate_per_hour: 2.0,
        suppress_user_reset: false,
        threads: 0,
    }
}

/// Recovery-focused A/B configuration (Fig. 21: user resets suppressed so
/// the recovery mechanism's effect is isolated).
pub fn recovery_ab_config() -> cellrel::workload::AbConfig {
    cellrel::workload::AbConfig {
        devices: 16,
        days: 4,
        seed: 2022,
        stall_rate_per_hour: 4.0,
        suppress_user_reset: true,
        threads: 0,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn standard_study_builds() {
        let d = super::standard_study();
        assert!(d.events.len() > 100_000);
    }
}
