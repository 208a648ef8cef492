//! # cellrel-radio
//!
//! The physical-radio-network substrate: everything the paper's real world
//! provided for free — 5.3 M base stations of three ISPs, propagation, cell
//! selection, LTE mobility management, interference — rebuilt as an explicit
//! model.
//!
//! Components:
//!
//! * [`geometry`] — positions and distances on the synthetic map.
//! * [`environment`] — deployment environments (urban core, transport hub,
//!   rural, remote, …) with their propagation and load characteristics.
//! * [`bs`] — the [`BaseStation`] record.
//! * [`propagation`] — log-distance path loss with shadowing; RSS → level.
//! * [`deployment`] — procedural generation of a full BS deployment with the
//!   paper's ISP shares, RAT-support mix and hub clustering.
//! * [`selection`] — cell scan/selection: the best serving cell per RAT.
//! * [`emm`] — EPS mobility management: registration, service requests,
//!   access barring (the source of `EMM_ACCESS_BARRED` / `INVALID_EMM_STATE`
//!   failures near dense deployments).
//! * [`interference`] — adjacent-channel and density-driven interference,
//!   reproducing the paper's "excellent RSS but failure-prone" anomaly.
//! * [`load`] — per-RAT utilisation, including the idle-3G effect.
//!
//! The facade type is [`RadioEnvironment`]: build one from a
//! [`DeploymentConfig`], then `scan` from device positions and query
//! [`RiskFactors`] for any candidate cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bs;
pub mod deployment;
pub mod emm;
pub mod environment;
pub mod geometry;
pub mod interference;
pub mod load;
pub mod propagation;
pub mod selection;
pub mod transitions;

pub use bs::{BaseStation, BsIndex};
pub use deployment::{DeploymentConfig, Links, RadioEnvironment};
pub use emm::EmmStateMachine;
pub use environment::Environment;
pub use geometry::Pos;
pub use interference::RiskFactors;
pub use selection::CellView;
pub use transitions::RatTransitionModel;
