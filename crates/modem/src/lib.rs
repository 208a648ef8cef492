//! # cellrel-modem
//!
//! The modem / radio-interface-layer (RIL) substrate. Android's connection
//! management never touches the air interface directly — it issues setup
//! requests to the modem and receives either a data call or a
//! `DataFailCause`. This crate models that boundary:
//!
//! * [`fault`] — fault-injection profile (force causes, scale hazards),
//!   mirroring the fault-injection idiom of the workspace guides.
//! * [`setup`] — the staged data-call setup pipeline (overload check →
//!   physical → EMM attach/service → RRC/link → PDP/IP), each stage failing
//!   with the causes that genuinely originate at that layer. Table 2's
//!   cause decomposition is an emergent property of this pipeline.
//! * [`modem`] — the [`Modem`] device: power, camping, data calls,
//!   handover, restart (recovery stage 3 consumes this).
//! * [`cause_mix`] — the calibrated Table-2 cause sampler used by the
//!   macro-scale population study, where running the full pipeline per
//!   failure would be wasteful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cause_mix;
pub mod fault;
pub mod modem;
pub mod setup;

pub use fault::FaultProfile;
pub use modem::{DataCall, Modem};
