//! # cellrel-types
//!
//! Shared domain vocabulary for the `cellrel` workspace — the simulation-based
//! reproduction of *"A Nationwide Study on Cellular Reliability"* (SIGCOMM '21).
//!
//! This crate defines the types every other crate speaks in:
//!
//! * [`SimTime`] / [`SimDuration`] — the simulated clock (millisecond ticks).
//! * [`Rat`] / [`RatSet`] — radio access technologies (2G..5G).
//! * [`SignalLevel`] / [`RssDbm`] — received signal strength and the Android
//!   0–5 signal-level mapping.
//! * [`DataFailCause`] — Android's data-connection failure codes, with the
//!   layer classification and false-positive tagging the paper relies on.
//! * [`FailureKind`] / [`FailureEvent`] — the cellular failure taxonomy of the
//!   study (`Data_Setup_Error`, `Out_of_Service`, `Data_Stall`, …) and the
//!   in-situ record captured for each occurrence; [`EventSink`] is the one
//!   trait a consumer of those records implements.
//! * Identifiers: [`DeviceId`], [`BsId`], [`Isp`], [`Apn`].
//! * Device descriptors: [`AndroidVersion`], [`PhoneModelId`], [`HardwareSpec`].
//! * [`ServiceState`] — the Android service-state a device perceives.
//!
//! The crate is dependency-free and `#![forbid(unsafe_code)]`; everything is
//! plain data with cheap `Copy`/`Clone` semantics so the simulation layers can
//! pass values around freely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod fail_cause;
pub mod failure;
pub mod ids;
pub mod rat;
pub mod service;
pub mod signal;
pub mod time;

pub use device::{AndroidVersion, HardwareSpec, PhoneModelId};
pub use fail_cause::{DataFailCause, FailureLayer, FalsePositiveClass};
pub use failure::{EventSink, FailureEvent, FailureKind, InSituInfo};
pub use ids::{Apn, BsId, DeviceId, Isp};
pub use rat::{Rat, RatSet};
pub use service::ServiceState;
pub use signal::{RssDbm, SignalLevel};
pub use time::{SimDuration, SimTime};
