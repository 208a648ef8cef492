//! Android data-connection failure causes.
//!
//! When a data-call setup fails, the radio interface produces an error code
//! describing why (§2.1). Android defines 344 such codes in
//! `android.telephony.DataFailCause`; the paper analysed all of them to
//! (a) decompose `Data_Setup_Error` failures by root cause (Table 2) and
//! (b) identify codes that indicate *rational* rejections — e.g. a base
//! station shedding load — which are false positives, not true failures.
//!
//! This module reproduces the part of that catalogue with behavioural
//! significance: every code the paper names, the standard 3GPP session
//! management causes, the legacy RIL-internal causes, and the
//! false-positive-relevant vendor codes. The long tail of inert codes is
//! carried by [`DataFailCause::Other`].
//!
//! Each cause knows:
//! * its numeric code (AOSP values where they are standardised, a stable
//!   vendor-range value otherwise),
//! * the protocol [`FailureLayer`] it originates from (the paper highlights
//!   that the top-10 causes span physical, link/MAC and network layers),
//! * whether it is a *rational rejection* and therefore a false positive
//!   ([`FalsePositiveClass`]),
//! * whether Android treats it as permanent (no retry) or transient.

use std::fmt;

/// The protocol layer a failure cause originates from (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureLayer {
    /// Physical layer: radio signal loss, handover radio failures.
    Physical,
    /// Data-link / MAC layer: authentication, PPP negotiation.
    LinkMac,
    /// Network layer: registration, mobility management, IP/PDP allocation.
    Network,
    /// Modem- or device-internal conditions (restart, SIM state, power).
    Modem,
    /// Catch-all for codes whose layer is not classified.
    Unknown,
}

impl FailureLayer {
    /// Every layer, in dense-index order (matches [`Self::index`]).
    pub const ALL: [FailureLayer; 5] = [
        FailureLayer::Physical,
        FailureLayer::LinkMac,
        FailureLayer::Network,
        FailureLayer::Modem,
        FailureLayer::Unknown,
    ];

    /// Dense index for array-backed accumulators and cube keys.
    pub const fn index(self) -> usize {
        match self {
            FailureLayer::Physical => 0,
            FailureLayer::LinkMac => 1,
            FailureLayer::Network => 2,
            FailureLayer::Modem => 3,
            FailureLayer::Unknown => 4,
        }
    }

    /// Inverse of [`Self::index`].
    pub const fn from_index(i: usize) -> Option<FailureLayer> {
        match i {
            0 => Some(FailureLayer::Physical),
            1 => Some(FailureLayer::LinkMac),
            2 => Some(FailureLayer::Network),
            3 => Some(FailureLayer::Modem),
            4 => Some(FailureLayer::Unknown),
            _ => None,
        }
    }
}

impl fmt::Display for FailureLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureLayer::Physical => "physical",
            FailureLayer::LinkMac => "link/MAC",
            FailureLayer::Network => "network",
            FailureLayer::Modem => "modem",
            FailureLayer::Unknown => "unknown",
        })
    }
}

/// Why a reported event is a false positive rather than a true cellular
/// failure. The paper's monitoring infrastructure filters all of these out
/// before analysis (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FalsePositiveClass {
    /// The BS rationally rejected the setup because it is overloaded.
    BsOverload,
    /// A normal, expected teardown (network- or user-ordered deactivation).
    NormalTeardown,
    /// User-initiated condition: manual disconnect, airplane mode, data off.
    UserInitiated,
    /// Service suspension for non-technical reasons (insufficient balance).
    AccountSuspended,
    /// Connection disruption by an incoming voice call (non-VoLTE CS fallback).
    VoiceCallInterruption,
    /// Problem on the device/system side, not the cellular network
    /// (firewall misconfiguration, broken proxy, modem driver fault) —
    /// the probing component's "system side" verdict.
    SystemSide,
    /// DNS resolution service outage: the network path works but name
    /// resolution does not — also a false positive per §2.2.
    DnsServiceDown,
}

impl fmt::Display for FalsePositiveClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FalsePositiveClass::BsOverload => "bs-overload",
            FalsePositiveClass::NormalTeardown => "normal-teardown",
            FalsePositiveClass::UserInitiated => "user-initiated",
            FalsePositiveClass::AccountSuspended => "account-suspended",
            FalsePositiveClass::VoiceCallInterruption => "voice-call",
            FalsePositiveClass::SystemSide => "system-side",
            FalsePositiveClass::DnsServiceDown => "dns-down",
        })
    }
}

macro_rules! fail_causes {
    ($(
        $(#[$meta:meta])*
        $variant:ident = $code:literal,
        layer: $layer:ident,
        fp: $fp:expr,
        permanent: $perm:literal,
        desc: $desc:literal;
    )*) => {
        /// A data-connection failure cause, mirroring
        /// `android.telephony.DataFailCause`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum DataFailCause {
            $( $(#[$meta])* $variant, )*
            /// Any of the remaining (behaviourally inert) Android codes,
            /// carried by raw value.
            Other(u16),
        }

        impl DataFailCause {
            /// Every named cause (excludes the `Other` catch-all).
            pub const NAMED: &'static [DataFailCause] = &[
                $( DataFailCause::$variant, )*
            ];

            /// The numeric error code.
            pub const fn code(self) -> i32 {
                match self {
                    $( DataFailCause::$variant => $code, )*
                    DataFailCause::Other(c) => c as i32,
                }
            }

            /// Look up a named cause by its numeric code; falls back to
            /// `Other`. Inverse of [`Self::code`] on the named causes.
            pub const fn from_code(code: i32) -> DataFailCause {
                match code {
                    $( $code => DataFailCause::$variant, )*
                    _ => DataFailCause::Other(code.unsigned_abs() as u16),
                }
            }

            /// The Android constant-style name.
            pub const fn name(self) -> &'static str {
                match self {
                    $( DataFailCause::$variant => stringify!($variant), )*
                    DataFailCause::Other(_) => "OTHER",
                }
            }

            /// Human-readable description (Table 2 wording where applicable).
            pub const fn description(self) -> &'static str {
                match self {
                    $( DataFailCause::$variant => $desc, )*
                    DataFailCause::Other(_) => "Unclassified data fail cause",
                }
            }

            /// Which protocol layer the cause originates from.
            pub const fn layer(self) -> FailureLayer {
                match self {
                    $( DataFailCause::$variant => FailureLayer::$layer, )*
                    DataFailCause::Other(_) => FailureLayer::Unknown,
                }
            }

            /// If this code indicates a rational rejection / non-failure,
            /// the false-positive class; `None` means a true failure.
            pub const fn false_positive(self) -> Option<FalsePositiveClass> {
                match self {
                    $( DataFailCause::$variant => $fp, )*
                    DataFailCause::Other(_) => None,
                }
            }

            /// Whether Android treats the cause as permanent (retrying with
            /// the same parameters is pointless).
            pub const fn is_permanent(self) -> bool {
                match self {
                    $( DataFailCause::$variant => $perm, )*
                    DataFailCause::Other(_) => false,
                }
            }
        }
    };
}

use FalsePositiveClass as FP;

fail_causes! {
    // ---- Causes named in the paper's Table 2 (top-10 true-failure codes) ----

    /// Failures due to unsuccessful GPRS registration — Table 2 rank 1 (12.8 %).
    GprsRegistrationFail = -2,
    layer: Network, fp: None, permanent: false,
    desc: "Failures due to unsuccessful GPRS registration";

    /// Failures due to network/modem disconnection — Table 2 rank 2 (7.2 %).
    SignalLost = -3,
    layer: Physical, fp: None, permanent: false,
    desc: "Failures due to network/modem disconnection";

    /// No service during connection setup — Table 2 rank 3 (6.5 %).
    NoService = 0x1011,
    layer: Physical, fp: None, permanent: false,
    desc: "No service during connection setup";

    /// Invalid EPS Mobility Management state — Table 2 rank 4 (4.9 %).
    InvalidEmmState = 0x1284,
    layer: Network, fp: None, permanent: false,
    desc: "Invalid state of EPS Mobility Management in LTE";

    /// Current RAT is no longer the preferred RAT — Table 2 rank 5 (4.3 %).
    UnpreferredRat = -4,
    layer: Physical, fp: None, permanent: false,
    desc: "Current RAT is no longer the preferred RAT";

    /// PPP negotiation timeout — Table 2 rank 6 (3.5 %).
    PppTimeout = 0x1231,
    layer: LinkMac, fp: None, permanent: false,
    desc: "Failures at the Point-to-Point Protocol setup stage due to a timeout";

    /// No hybrid High-Data-Rate service — Table 2 rank 7 (2.2 %).
    NoHybridHdrService = 0x1100,
    layer: Physical, fp: None, permanent: false,
    desc: "No hybrid High-Data-Rate service";

    /// PDP error from RRC failures or forbidden PLMN — Table 2 rank 8 (1.9 %).
    PdpLowerlayerError = 0x1252,
    layer: Network, fp: None, permanent: false,
    desc: "Packet Data Protocol error due to radio resource control failures or a forbidden PLMN";

    /// Exceeded maximum number of access probes — Table 2 rank 9 (1.8 %).
    MaxAccessProbe = 0x1EC1,
    layer: Physical, fp: None, permanent: false,
    desc: "Exceeding maximum number of access probes";

    /// Data call lost during inter-RAT handover — Table 2 rank 10 (1.6 %).
    IratHandoverFailed = 0x1121,
    layer: Physical, fp: None, permanent: false,
    desc: "Unsuccessful transfer of data call during an Inter-RAT handover";

    // ---- EMM / mobility-management causes highlighted in §3.3 ----

    /// EMM access barred by the network — frequent near dense BS deployments.
    EmmAccessBarred = 0x1244,
    layer: Network, fp: None, permanent: false,
    desc: "EPS Mobility Management access barred";

    /// EMM access barred infinitely (barring with no retry timer).
    EmmAccessBarredInfiniteRetry = 0x1246,
    layer: Network, fp: None, permanent: false,
    desc: "EMM access barred with infinite retry";

    /// Device detached from EPS mobility management.
    EmmDetached = 0x1283,
    layer: Network, fp: None, permanent: false,
    desc: "Device detached from EPS Mobility Management";

    /// T3417 expired while waiting for a service-request response.
    EmmT3417Expired = 0x1288,
    layer: Network, fp: None, permanent: false,
    desc: "EMM timer T3417 expired during service request";

    // ---- Standard 3GPP session-management causes (AOSP values) ----

    /// Operator-determined barring.
    OperatorBarred = 0x08,
    layer: Network, fp: None, permanent: true,
    desc: "Operator-determined barring";

    /// NAS signalling error.
    NasSignalling = 0x0E,
    layer: Network, fp: None, permanent: false,
    desc: "NAS signalling error";

    /// LLC or SNDCP failure.
    LlcSndcpFailure = 0x19,
    layer: LinkMac, fp: None, permanent: false,
    desc: "LLC or SNDCP failure";

    /// Insufficient resources at the BS — rational load shedding, a false
    /// positive per the paper's filtering (§2.2).
    InsufficientResources = 0x1A,
    layer: Network, fp: Some(FP::BsOverload), permanent: false,
    desc: "Insufficient network resources (BS overloaded)";

    /// APN missing or unknown.
    MissingUnknownApn = 0x1B,
    layer: Network, fp: None, permanent: true,
    desc: "Missing or unknown APN";

    /// PDP address type unknown.
    UnknownPdpAddressType = 0x1C,
    layer: Network, fp: None, permanent: true,
    desc: "Unknown PDP address or type";

    /// User authentication (PAP/CHAP) failed.
    UserAuthentication = 0x1D,
    layer: LinkMac, fp: None, permanent: true,
    desc: "User authentication failed at the link layer";

    /// Activation rejected by GGSN/SGW/PGW.
    ActivationRejectGgsn = 0x1E,
    layer: Network, fp: None, permanent: false,
    desc: "Activation rejected by the gateway node";

    /// Activation rejected, unspecified reason.
    ActivationRejectUnspecified = 0x1F,
    layer: Network, fp: None, permanent: false,
    desc: "Activation rejected for an unspecified reason";

    /// Requested service option not supported.
    ServiceOptionNotSupported = 0x20,
    layer: Network, fp: None, permanent: true,
    desc: "Service option not supported";

    /// Service option not subscribed.
    ServiceOptionNotSubscribed = 0x21,
    layer: Network, fp: None, permanent: true,
    desc: "Requested service option not subscribed";

    /// Service option temporarily out of order — congestion-class rejection.
    ServiceOptionOutOfOrder = 0x22,
    layer: Network, fp: Some(FP::BsOverload), permanent: false,
    desc: "Service option temporarily out of order (network congestion)";

    /// NSAPI already used.
    NsapiInUse = 0x23,
    layer: Network, fp: None, permanent: false,
    desc: "NSAPI already in use";

    /// Regular deactivation — normal teardown, not a failure.
    RegularDeactivation = 0x24,
    layer: Network, fp: Some(FP::NormalTeardown), permanent: false,
    desc: "Regular (expected) connection deactivation";

    /// Requested QoS not accepted.
    QosNotAccepted = 0x25,
    layer: Network, fp: None, permanent: false,
    desc: "Requested QoS not accepted by the network";

    /// Generic network failure.
    NetworkFailure = 0x26,
    layer: Network, fp: None, permanent: false,
    desc: "Network failure";

    /// UMTS reactivation requested.
    UmtsReactivationReq = 0x27,
    layer: Network, fp: None, permanent: false,
    desc: "UMTS reactivation required";

    /// Semantic error in the TFT operation.
    TftSemanticError = 0x29,
    layer: Network, fp: None, permanent: true,
    desc: "Semantic error in the traffic flow template operation";

    /// Syntactical error in the TFT operation.
    TftSyntaxError = 0x2A,
    layer: Network, fp: None, permanent: true,
    desc: "Syntactical error in the traffic flow template operation";

    /// Unknown PDP context.
    UnknownPdpContext = 0x2B,
    layer: Network, fp: None, permanent: true,
    desc: "Unknown PDP context";

    /// Semantic error in packet filters.
    FilterSemanticError = 0x2C,
    layer: Network, fp: None, permanent: true,
    desc: "Semantic error in packet filters";

    /// Syntactical error in packet filters.
    FilterSyntaxError = 0x2D,
    layer: Network, fp: None, permanent: true,
    desc: "Syntactical error in packet filters";

    /// PDP context without an active TFT.
    PdpWithoutActiveTft = 0x2E,
    layer: Network, fp: None, permanent: true,
    desc: "PDP context activated without an active TFT";

    /// Only IPv4 addressing allowed by the subscription.
    OnlyIpv4Allowed = 0x32,
    layer: Network, fp: None, permanent: true,
    desc: "Only IPv4 PDP addressing allowed";

    /// Only IPv6 addressing allowed by the subscription.
    OnlyIpv6Allowed = 0x33,
    layer: Network, fp: None, permanent: true,
    desc: "Only IPv6 PDP addressing allowed";

    /// Only single-bearer operation allowed.
    OnlySingleBearerAllowed = 0x34,
    layer: Network, fp: None, permanent: true,
    desc: "Only single address bearers allowed";

    /// ESM information not received by the network.
    EsmInfoNotReceived = 0x35,
    layer: Network, fp: None, permanent: false,
    desc: "ESM information not received";

    /// PDN connection does not exist (stale bearer reference).
    PdnConnDoesNotExist = 0x36,
    layer: Network, fp: None, permanent: false,
    desc: "PDN connection does not exist";

    /// Multiple connections to the same PDN are not allowed.
    MultiConnToSamePdnNotAllowed = 0x37,
    layer: Network, fp: None, permanent: true,
    desc: "Multiple PDN connections for the same APN not allowed";

    /// Protocol errors, unspecified.
    ProtocolErrors = 0x6F,
    layer: Network, fp: None, permanent: true,
    desc: "Unspecified protocol error";

    /// APN type conflict.
    ApnTypeConflict = 0x70,
    layer: Network, fp: None, permanent: true,
    desc: "APN type conflict";

    /// Invalid PCSCF (IMS proxy) address — blocks the IMS APN only.
    InvalidPcscfAddress = 0x71,
    layer: Network, fp: None, permanent: true,
    desc: "Invalid proxy call-session-control-function address";

    /// Internal call pre-emption by a higher-priority APN.
    InternalCallPreempt = 0x72,
    layer: Modem, fp: Some(FP::NormalTeardown), permanent: false,
    desc: "Data call pre-empted by a higher-priority APN context";

    /// EMM access barred for emergency bearer services.
    EmergencyIfaceOnly = 0x74,
    layer: Network, fp: None, permanent: false,
    desc: "Only emergency bearer services are reachable";

    /// The requested APN is currently disabled on the carrier side.
    ApnDisabled = 0x7A2,
    layer: Network, fp: None, permanent: true,
    desc: "Requested APN administratively disabled";

    /// Maximum number of PDP contexts already active.
    MaxPdpExceeded = 0x7A3,
    layer: Modem, fp: None, permanent: false,
    desc: "Maximum number of simultaneous PDP contexts reached";

    // ---- Legacy RIL-internal causes (negative AOSP values) ----

    /// Generic registration failure.
    RegistrationFail = -1,
    layer: Network, fp: None, permanent: false,
    desc: "Failures due to unsuccessful network registration";

    /// The radio is powered off — user action (airplane mode), not a failure.
    RadioPowerOff = -5,
    layer: Modem, fp: Some(FP::UserInitiated), permanent: false,
    desc: "Radio powered off by the user";

    /// A tethered (circuit-switched) call is active — CS-fallback disruption.
    TetheredCallActive = -6,
    layer: Modem, fp: Some(FP::VoiceCallInterruption), permanent: false,
    desc: "Data interrupted by an active circuit-switched call";

    /// The cellular link was lost after setup (generic loss marker).
    LostConnection = 0x10004,
    layer: Physical, fp: None, permanent: false,
    desc: "Established data connection lost";

    // ---- Modem / device internal ----

    /// The modem restarted mid-call (also emitted by recovery stage 3).
    ModemRestart = 0x2001,
    layer: Modem, fp: None, permanent: false,
    desc: "Modem restarted while a data call was active";

    /// RIL reports the radio is not available.
    RadioNotAvailable = 0x10001,
    layer: Modem, fp: None, permanent: false,
    desc: "Radio interface not available";

    /// The SIM was removed or changed.
    SimCardChanged = 0x2002,
    layer: Modem, fp: Some(FP::UserInitiated), permanent: true,
    desc: "SIM card removed or changed";

    /// Modem driver fault on the application processor side — a system-side
    /// condition the probing component classifies as a false positive.
    ModemDriverFault = 0x2003,
    layer: Modem, fp: Some(FP::SystemSide), permanent: false,
    desc: "Device-side modem driver fault";

    /// Data service disabled by carrier because the account balance ran out.
    AccountBalanceExhausted = 0x2E10,
    layer: Network, fp: Some(FP::AccountSuspended), permanent: true,
    desc: "Service suspended: insufficient account balance";

    /// User switched mobile data off / detached manually.
    UserDataDisabled = 0x2E11,
    layer: Modem, fp: Some(FP::UserInitiated), permanent: false,
    desc: "Mobile data disabled by the user";

    // ---- Additional vendor-range physical/link causes used by the modem model ----

    /// RACH (random access) failure on the air interface.
    RandomAccessFailure = 0x1ED0,
    layer: Physical, fp: None, permanent: false,
    desc: "Random access procedure failed";

    /// RRC connection establishment failure (access stratum).
    RrcConnectionFailure = 0x1ED1,
    layer: LinkMac, fp: None, permanent: false,
    desc: "RRC connection establishment failed";

    /// RRC connection release by the network with congestion indication.
    RrcReleaseCongestion = 0x1ED2,
    layer: LinkMac, fp: Some(FP::BsOverload), permanent: false,
    desc: "RRC connection released due to cell congestion";

    /// PDN IPv4 address allocation failed.
    Ipv4AddressAllocationFail = 0x1ED3,
    layer: Network, fp: None, permanent: false,
    desc: "IP address allocation failure during PDN setup";

    /// DNS servers unreachable after setup (provisioning fault).
    DnsUnreachable = 0x1ED4,
    layer: Network, fp: None, permanent: false,
    desc: "Assigned DNS servers unreachable";

    /// Concurrent services not supported by the serving cell.
    ConcurrentServicesNotAllowed = 0x1ED5,
    layer: Network, fp: None, permanent: false,
    desc: "Concurrent voice+data services not supported by the cell";

    /// CDMA-family intercept (reorder) condition.
    CdmaIntercept = 0x1EC2,
    layer: Physical, fp: None, permanent: false,
    desc: "CDMA call intercepted / reordered";

    /// CDMA release due to SO rejection.
    CdmaReleaseSoReject = 0x1EC3,
    layer: Physical, fp: None, permanent: false,
    desc: "CDMA release due to service option rejection";

    /// Handoff preference changed mid-setup.
    HandoffPreferenceChanged = 0x1EC4,
    layer: Physical, fp: None, permanent: false,
    desc: "Handoff preference changed during setup";

    /// Connection setup timed out waiting for the network response.
    SetupTimeout = 0x1ED6,
    layer: Network, fp: None, permanent: false,
    desc: "Data call setup timed out";

    /// PLMN is forbidden for this subscriber.
    ForbiddenPlmn = 0x1ED7,
    layer: Network, fp: None, permanent: true,
    desc: "Forbidden PLMN";
}

impl DataFailCause {
    /// The paper's Table 2: the ten most common true-failure codes and the
    /// share of `Data_Setup_Error` failures each accounts for.
    pub const TABLE2_TOP10: [(DataFailCause, f64); 10] = [
        (DataFailCause::GprsRegistrationFail, 0.128),
        (DataFailCause::SignalLost, 0.072),
        (DataFailCause::NoService, 0.065),
        (DataFailCause::InvalidEmmState, 0.049),
        (DataFailCause::UnpreferredRat, 0.043),
        (DataFailCause::PppTimeout, 0.035),
        (DataFailCause::NoHybridHdrService, 0.022),
        (DataFailCause::PdpLowerlayerError, 0.019),
        (DataFailCause::MaxAccessProbe, 0.018),
        (DataFailCause::IratHandoverFailed, 0.016),
    ];

    /// Total number of data-fail codes Android defines (§2.2). Only the
    /// behaviourally significant subset is named here; see module docs.
    pub const ANDROID_TOTAL_CODES: usize = 344;

    /// True if this cause represents a genuine cellular failure (i.e. it is
    /// not classified as any false-positive class).
    pub const fn is_true_failure(self) -> bool {
        self.false_positive().is_none()
    }
}

impl fmt::Display for DataFailCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataFailCause::Other(c) => write!(f, "OTHER({c})"),
            c => f.write_str(c.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn codes_are_unique() {
        let mut seen = HashSet::new();
        for c in DataFailCause::NAMED {
            assert!(
                seen.insert(c.code()),
                "duplicate code {} for {}",
                c.code(),
                c
            );
        }
    }

    #[test]
    fn table2_shares_match_paper_total() {
        let total: f64 = DataFailCause::TABLE2_TOP10.iter().map(|(_, s)| s).sum();
        // The paper: top 10 codes account for 46.7 % of Data_Setup_Error.
        assert!((total - 0.467).abs() < 1e-9, "top-10 shares sum to {total}");
    }

    #[test]
    fn table2_entries_are_true_failures() {
        for (c, _) in DataFailCause::TABLE2_TOP10 {
            assert!(c.is_true_failure(), "{c} in Table 2 must be a true failure");
        }
    }

    #[test]
    fn table2_is_sorted_descending() {
        let shares: Vec<f64> = DataFailCause::TABLE2_TOP10
            .iter()
            .map(|(_, s)| *s)
            .collect();
        assert!(shares.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn false_positive_classes() {
        assert_eq!(
            DataFailCause::InsufficientResources.false_positive(),
            Some(FalsePositiveClass::BsOverload)
        );
        assert_eq!(
            DataFailCause::RadioPowerOff.false_positive(),
            Some(FalsePositiveClass::UserInitiated)
        );
        assert_eq!(DataFailCause::SignalLost.false_positive(), None);
        assert!(!DataFailCause::InsufficientResources.is_true_failure());
        assert!(DataFailCause::SignalLost.is_true_failure());
    }

    #[test]
    fn layers_cover_the_stack() {
        // §3.2: the top-10 causes span physical, link/MAC and network layers.
        let layers: HashSet<_> = DataFailCause::TABLE2_TOP10
            .iter()
            .map(|(c, _)| c.layer())
            .collect();
        assert!(layers.contains(&FailureLayer::Physical));
        assert!(layers.contains(&FailureLayer::LinkMac));
        assert!(layers.contains(&FailureLayer::Network));
    }

    #[test]
    fn from_code_round_trips_named() {
        for &c in DataFailCause::NAMED {
            assert_eq!(DataFailCause::from_code(c.code()), c);
        }
    }

    #[test]
    fn from_code_falls_back_to_other() {
        let c = DataFailCause::from_code(0x7FFF);
        assert!(matches!(c, DataFailCause::Other(0x7FFF)));
        assert_eq!(c.layer(), FailureLayer::Unknown);
        assert!(c.is_true_failure());
    }

    #[test]
    fn layer_index_round_trips() {
        for (i, layer) in FailureLayer::ALL.iter().enumerate() {
            assert_eq!(layer.index(), i);
            assert_eq!(FailureLayer::from_index(i), Some(*layer));
        }
        assert_eq!(FailureLayer::from_index(FailureLayer::ALL.len()), None);
    }

    #[test]
    fn permanent_flags_sane() {
        assert!(DataFailCause::MissingUnknownApn.is_permanent());
        assert!(DataFailCause::OperatorBarred.is_permanent());
        assert!(!DataFailCause::SignalLost.is_permanent());
        assert!(!DataFailCause::GprsRegistrationFail.is_permanent());
    }

    #[test]
    fn display_names() {
        assert_eq!(DataFailCause::PppTimeout.to_string(), "PppTimeout");
        assert_eq!(DataFailCause::Other(12).to_string(), "OTHER(12)");
    }

    #[test]
    fn named_catalogue_is_substantial() {
        // We promise "~70 codes" in DESIGN.md; enforce a floor so the
        // catalogue does not silently shrink.
        assert!(
            DataFailCause::NAMED.len() >= 70,
            "{}",
            DataFailCause::NAMED.len()
        );
    }
}
