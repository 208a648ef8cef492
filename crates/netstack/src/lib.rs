//! # cellrel-netstack
//!
//! The device-side network stack substrate. Two of the paper's mechanisms
//! are defined *entirely* in terms of this layer:
//!
//! * **Data_Stall detection** (§2.1): the Linux kernel's TCP accounting —
//!   "over 10 outbound TCP segments but not a single inbound TCP segment
//!   during the last minute" — reproduced by [`TcpAccounting`].
//! * **Android-MOD's probing component** (§2.2): concurrent ICMP-to-loopback
//!   (1 s timeout), ICMP-to-DNS-servers and DNS queries (5 s timeout), whose
//!   outcome pattern classifies a suspected stall as a network-side true
//!   failure, a system-side false positive, or a DNS-outage false positive —
//!   reproduced by [`probe::run_probe`].
//!
//! [`LinkCondition`] is the fault-injection surface: the telephony layer
//! flips it to blackhole when a simulated stall begins; tests flip it to the
//! system-side classes to exercise the filters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod link;
pub mod probe;
pub mod stack;

pub use counters::{TcpAccounting, STALL_MIN_SENT, STALL_WINDOW};
pub use link::LinkCondition;
pub use probe::{run_probe, ProbeOutcome, ProbeVerdict, DEFAULT_DNS_TIMEOUT, DEFAULT_ICMP_TIMEOUT};
pub use stack::NetStack;
