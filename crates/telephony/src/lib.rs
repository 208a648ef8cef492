//! # cellrel-telephony
//!
//! A faithful clone of Android's cellular connection management — the system
//! whose software defects the paper identifies as a primary root cause of
//! cellular failures, and the system its two deployed enhancements patch.
//!
//! * [`data_connection`] — the five-state `DataConnection` life-cycle state
//!   machine of Fig. 1 (Inactive / Activating / Retrying / Active /
//!   Disconnecting).
//! * [`dc_tracker`] — `DcTracker`: drives setups through the modem, applies
//!   the retry schedule, distinguishes permanent causes.
//! * [`service_state`] — `ServiceStateTracker`: Out_of_Service detection.
//! * [`stall`] — the vanilla Data_Stall detector over kernel TCP counters.
//! * [`recovery`] — the three-stage progressive recovery mechanism with
//!   configurable probations: vanilla (60/60/60 s) and the TIMP-optimised
//!   trigger (21/6/16 s) are both just configurations.
//! * [`rat_policy`] — RAT selection policies: Android 9, Android 10 (the
//!   blind-5G-preference defect), and the paper's Stability-Compatible
//!   policy with optional 4G/5G dual connectivity.
//! * [`events`] — the notification surface (`TelephonyEvent`) that
//!   Android-MOD instruments.
//! * [`device_sim`] — the full per-device discrete-event agent wiring
//!   radio + modem + netstack + this crate together; the micro-simulation
//!   driver used by experiments and integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data_connection;
pub mod dc_tracker;
pub mod device_sim;
pub mod events;
pub mod rat_policy;
pub mod recovery;
pub mod service_state;
pub mod sms;
pub mod stall;

pub use dc_tracker::{DcTracker, RetryPolicy};
pub use device_sim::{DeviceConfig, DeviceSim, DeviceStats, MobilityProfile, WorldEvent};
pub use events::{RecordingBoth, TelephonyEvent, TelephonyListener};
pub use rat_policy::RatPolicyKind;
pub use recovery::{RecoveryAction, RecoveryConfig, RecoveryEngine};
pub use service_state::ServiceStateTracker;
pub use stall::DataStallDetector;
