//! # cellrel-workload
//!
//! Synthetic population and study drivers. The paper measured 70 M devices
//! for eight months; we cannot re-measure China, so this crate encodes the
//! paper's *published* marginals as generative ground truth (DESIGN.md §1)
//! and drives two kinds of studies over them:
//!
//! * [`study`] — the **macro** population study: statistical per-device
//!   failure processes over 10⁴–10⁶ synthetic devices, producing the
//!   dataset behind Tables 1–2 and Figures 2–17.
//! * [`ab`] — the **micro** A/B experiments: fleets of full
//!   `DeviceSim` agents comparing vanilla Android against the paper's two
//!   enhancements (Figures 19–21).
//!
//! Supporting modules: [`models`] (Table 1 verbatim), [`population`]
//! (device profiles), [`durations`] (per-kind duration samplers),
//! [`exposure`] (signal-level exposure and normalized-prevalence tables,
//! Figures 15–17), [`bs_assign`] (Zipf base-station attribution, Fig. 11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod bs_assign;
pub mod chaos;
pub mod durations;
pub mod exposure;
pub mod fleet;
pub mod fleet_metrics;
pub mod guidelines;
pub mod models;
pub mod population;
pub mod study;

pub use ab::{run_rat_policy_ab, run_recovery_ab, AbArm, AbConfig, AbOutcome};
pub use bs_assign::BsAssigner;
pub use chaos::{
    default_registry, replay_scenario, run_chaos_campaign, run_chaos_campaign_metrics,
    run_scenario, run_scenario_telemetry, run_scenario_with, ChaosConfig, ChaosScenario, StepView,
};
pub use fleet::{run_fleet_event_driven, run_fleet_per_tick, FleetConfig, FleetReport};
pub use fleet_metrics::{run_fleet_metrics, FleetMetrics};
pub use models::{PhoneModelSpec, MODELS};
pub use population::{DeviceProfile, Population, PopulationConfig};
pub use study::{run_macro_study, run_macro_study_parallel, StudyConfig, StudyDataset};
