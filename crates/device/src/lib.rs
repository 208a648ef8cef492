//! # cellrel-device
//!
//! One phone's cellular stack, the device side of the paper (§2): the radio
//! network it camps on, the RIL modem, the kernel's TCP counters, Android's
//! connection management, and Android-MOD instrumenting it in place. The
//! modules sit in five layers: radio and netstack name no other layer,
//! modem names radio, telephony names radio, modem and netstack, and
//! monitor names netstack and telephony (`tests/docs_targets.rs` checks
//! this):
//!
//! * **Radio** — everything the paper's real world provided for free: 5.3 M
//!   base stations of three ISPs, propagation, cell selection, LTE mobility
//!   management and interference, rebuilt as an explicit model.
//!   `geometry` (positions and distances on the synthetic map),
//!   `environment` (urban core, transport hub, rural, remote, … with their
//!   propagation and load characteristics), `bs` (the [`BaseStation`]
//!   record), `propagation` (log-distance path loss with shadowing; RSS →
//!   level), `deployment` (procedural deployment with the paper's ISP
//!   shares, RAT-support mix and hub clustering), `selection` (the best
//!   serving cell per RAT), `emm` (EPS mobility management: registration,
//!   service requests, access barring — the source of
//!   `EMM_ACCESS_BARRED` / `INVALID_EMM_STATE` failures near dense
//!   deployments), `interference` (adjacent-channel and density-driven
//!   interference, reproducing the paper's "excellent RSS but
//!   failure-prone" anomaly), `load` (per-RAT utilisation, including the
//!   idle-3G effect) and `transitions`. Build a [`RadioEnvironment`] from a
//!   [`DeploymentConfig`], then `scan` from device positions and query
//!   [`RiskFactors`] for any candidate cell.
//! * **Netstack** — the substrate two of the paper's mechanisms are defined
//!   in. Data_Stall detection (§2.1) is the Linux kernel's TCP accounting —
//!   "over 10 outbound TCP segments but not a single inbound TCP segment
//!   during the last minute" — reproduced by [`TcpAccounting`].
//!   Android-MOD's probing component (§2.2) runs concurrent
//!   ICMP-to-loopback (1 s timeout), ICMP-to-DNS-servers and DNS queries
//!   (5 s timeout), whose outcome pattern classifies a suspected stall as a
//!   network-side true failure, a system-side false positive, or a
//!   DNS-outage false positive — reproduced by [`run_probe`].
//!   [`LinkCondition`] is the fault-injection surface: telephony flips it
//!   to blackhole when a simulated stall begins; tests flip it to the
//!   system-side classes to exercise the filters. Modules `counters`,
//!   `link`, `probe` and `stack`.
//! * **Modem** — the RIL boundary. Android's connection management never
//!   touches the air interface: it issues setup requests to the modem and
//!   receives either a data call or a `DataFailCause`. `fault` is the
//!   fault-injection profile ([`FaultProfile`]: force causes, scale
//!   hazards); `setup` is the staged data-call setup pipeline (overload
//!   check → physical → EMM attach/service → RRC/link → PDP/IP), each stage
//!   failing with the causes that genuinely originate at that layer, so
//!   Table 2's cause decomposition is an emergent property of it; `modem`
//!   is the [`Modem`] device (power, camping, data calls, handover, restart
//!   — recovery stage 3 consumes this); `cause_mix` is [`CauseMix`], the
//!   calibrated Table-2 cause sampler the macro-scale population study uses
//!   where running the full pipeline per failure would be wasteful.
//! * **Telephony** — a faithful clone of Android's cellular connection
//!   management, the system whose software defects the paper identifies as
//!   a primary root cause of cellular failures and the one its two deployed
//!   enhancements patch. `data_connection` is the five-state
//!   `DataConnection` life cycle of Fig. 1 (Inactive / Activating /
//!   Retrying / Active / Disconnecting); `dc_tracker` is [`DcTracker`],
//!   which drives setups through the modem, applies the retry schedule and
//!   distinguishes permanent causes; `service_state` detects
//!   Out_of_Service; `stall` is the vanilla Data_Stall detector over kernel
//!   TCP counters; `recovery` is the three-stage progressive recovery with
//!   configurable probations — vanilla (60/60/60 s) and the TIMP-optimised
//!   trigger (21/6/16 s) are both just [`RecoveryConfig`]s; `rat_policy`
//!   holds the RAT selection policies ([`RatPolicyKind`]: Android 9,
//!   Android 10's blind 5G preference, and the paper's
//!   Stability-Compatible policy with optional 4G/5G dual connectivity);
//!   `events` is the notification surface ([`TelephonyEvent`]) that
//!   Android-MOD instruments; `sms`; and `device_sim` is [`DeviceSim`], the
//!   per-device discrete-event agent wiring all the layers together — the
//!   micro-simulation driver of the experiments and integration tests.
//! * **Monitor** — Android-MOD, the paper's measurement artifact (§2.2).
//!   Vanilla Android reports failure events without context and mixed with
//!   noise; Android-MOD instruments the system services, filters false
//!   positives, measures stall durations by active probing, and ships
//!   compact traces to the backend — `cellrel-ingest`'s collector, the one
//!   backend the stack has. `filter` drops overload rejections, voice-call
//!   disruptions, balance suspensions and manual disconnections, all
//!   344-code classification driven; `probing` is the stall-duration
//!   [`ProbeSession`] (1 s ICMP / 5 s DNS rounds, ≤5 s measurement error, ×2
//!   timeout backoff past 1200 s, revert to vanilla minute granularity once
//!   a timeout exceeds one minute); `service` is [`MonitoringService`], the
//!   `TelephonyListener` that ties it all together and accumulates the
//!   dataset — one `cellrel_types::FailureEvent` per true failure, with its
//!   in-situ context, held once — plus a filter confusion matrix;
//!   `overhead` accounts CPU/memory/storage/network against the paper's
//!   budgets; `uploader` is the WiFi-gated trace [`Uploader`], a position
//!   in the service's record list whose flushes encode real
//!   `cellrel-ingest` wire batches, so network accounting reflects actual
//!   encoded bytes and `Collector::ingest_with` takes a payload as it left
//!   the device.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Radio.
mod bs;
mod deployment;
mod emm;
mod environment;
mod geometry;
mod interference;
mod load;
mod propagation;
mod selection;
mod transitions;

// Netstack.
mod counters;
mod link;
mod probe;
mod stack;

// Modem.
mod cause_mix;
mod fault;
mod modem;
mod setup;

// Telephony.
mod data_connection;
mod dc_tracker;
mod device_sim;
mod events;
mod rat_policy;
mod recovery;
mod service_state;
mod sms;
mod stall;

// Monitor.
mod filter;
mod overhead;
mod probing;
mod service;
mod uploader;

pub use bs::BaseStation;
pub use cause_mix::CauseMix;
pub use counters::{TcpAccounting, STALL_MIN_SENT, STALL_WINDOW};
pub use dc_tracker::{DcTracker, RetryPolicy, SetupVerdict};
pub use deployment::{DeploymentConfig, Links, RadioEnvironment};
pub use device_sim::{DeviceConfig, DeviceSim, DeviceStats, MobilityProfile};
pub use emm::EmmStateMachine;
pub use environment::Environment;
pub use events::{RecordingBoth, TelephonyEvent, TelephonyListener};
pub use fault::FaultProfile;
pub use geometry::{GridIndex, Pos};
pub use interference::RiskFactors;
pub use link::LinkCondition;
pub use load::diurnal_factor;
pub use modem::Modem;
pub use overhead::OverheadAccounting;
pub use probe::{run_probe, ProbeVerdict};
pub use probing::{ProbeConfig, ProbeSession};
pub use propagation::{coverage_radius_km, path_loss_db, range_for_rss, received_rss};
pub use rat_policy::RatPolicyKind;
pub use recovery::{RecoveryConfig, RecoveryEngine};
pub use service::MonitoringService;
pub use transitions::RatTransitionModel;
pub use uploader::Uploader;
