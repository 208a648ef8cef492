//! Identifiers: devices, base stations, ISPs, APNs.
//!
//! Base stations are identified the way the paper records them: GSM-family
//! cells by (MCC, MNC, LAC, CID), CDMA cells by (SID, NID, BID). The three
//! mobile ISPs are anonymised as in the paper (ISP-A = China Mobile,
//! ISP-B = China Telecom, ISP-C = China Unicom).

use std::fmt;

/// An opaque, study-local device identifier. The paper collected no PII; our
/// synthetic devices likewise carry only a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev-{}", self.0)
    }
}

/// One of the three mobile ISPs in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isp {
    /// ISP-A (China Mobile): most BSes, lowest median radio frequency.
    A,
    /// ISP-B (China Telecom): higher frequency, smaller per-BS coverage —
    /// the ISP with the worst failure prevalence in the paper (27.1 %).
    B,
    /// ISP-C (China Unicom): fewest BSes, best prevalence (14.7 %).
    C,
}

impl Isp {
    /// All ISPs.
    pub const ALL: [Isp; 3] = [Isp::A, Isp::B, Isp::C];

    /// Stable array index (0..3).
    pub const fn index(self) -> usize {
        match self {
            Isp::A => 0,
            Isp::B => 1,
            Isp::C => 2,
        }
    }

    /// Inverse of [`Isp::index`].
    pub const fn from_index(i: usize) -> Option<Isp> {
        match i {
            0 => Some(Isp::A),
            1 => Some(Isp::B),
            2 => Some(Isp::C),
            _ => None,
        }
    }

    /// Share of the 5.3 M BSes belonging to this ISP (§3.3: 44.8 % / 29.4 % /
    /// 25.8 %).
    pub const fn bs_share(self) -> f64 {
        match self {
            Isp::A => 0.448,
            Isp::B => 0.294,
            Isp::C => 0.258,
        }
    }

    /// Approximate subscriber share used by the population generator.
    /// Mirrors the Chinese mobile market during the study period.
    pub const fn user_share(self) -> f64 {
        match self {
            Isp::A => 0.59,
            Isp::B => 0.21,
            Isp::C => 0.20,
        }
    }

    /// Representative median carrier frequency in MHz. The paper notes
    /// median frequency ISP-B > ISP-C > ISP-A, which drives both ISP-B's
    /// smaller coverage and the adjacent-channel interference analysis.
    pub const fn median_freq_mhz(self) -> f64 {
        match self {
            Isp::A => 1880.0,
            Isp::B => 2370.0,
            Isp::C => 2100.0,
        }
    }

    /// The paper's anonymised label.
    pub const fn label(self) -> &'static str {
        match self {
            Isp::A => "ISP-A",
            Isp::B => "ISP-B",
            Isp::C => "ISP-C",
        }
    }
}

impl fmt::Display for Isp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A base-station identifier, in either GSM-family or CDMA form (§2.2,
/// footnote 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BsId {
    /// GSM/UMTS/LTE/NR identity: Mobile Country Code, Mobile Network Code,
    /// Location Area Code, Cell Identity.
    Gsm {
        /// Mobile Country Code (China = 460).
        mcc: u16,
        /// Mobile Network Code, distinguishing the ISP.
        mnc: u16,
        /// Location Area Code.
        lac: u16,
        /// Cell Identity.
        cid: u32,
    },
    /// CDMA identity: System / Network / Base-station IDs.
    Cdma {
        /// System Identity.
        sid: u16,
        /// Network Identity.
        nid: u16,
        /// Base Station Identity.
        bid: u32,
    },
}

impl BsId {
    /// Convenience constructor for a Chinese GSM-family cell.
    pub const fn gsm_cn(mnc: u16, lac: u16, cid: u32) -> BsId {
        BsId::Gsm {
            mcc: 460,
            mnc,
            lac,
            cid,
        }
    }

    /// A dense, collision-free u64 encoding for hashing/sorting.
    pub const fn as_u64(self) -> u64 {
        match self {
            BsId::Gsm { mcc, mnc, lac, cid } => {
                ((mcc as u64) << 48) | ((mnc as u64) << 40) | ((lac as u64) << 24) | cid as u64
            }
            BsId::Cdma { sid, nid, bid } => {
                (1u64 << 63) | ((sid as u64) << 44) | ((nid as u64) << 28) | bid as u64
            }
        }
    }
}

impl fmt::Display for BsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BsId::Gsm { mcc, mnc, lac, cid } => write!(f, "{mcc}-{mnc:02}-{lac}-{cid}"),
            BsId::Cdma { sid, nid, bid } => write!(f, "cdma:{sid}-{nid}-{bid}"),
        }
    }
}

/// An access point name. Devices carry a small set of these; the monitor
/// records the APN in use when a failure occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Apn {
    /// Default internet APN.
    Internet,
    /// IP multimedia subsystem (VoLTE signalling).
    Ims,
    /// MMS.
    Mms,
    /// Carrier-specific supplementary APN.
    Supl,
}

impl Apn {
    /// All APN kinds.
    #[cfg(test)]
    pub(crate) const ALL: [Apn; 4] = [Apn::Internet, Apn::Ims, Apn::Mms, Apn::Supl];

    /// Stable array index (0..4).
    pub const fn index(self) -> usize {
        match self {
            Apn::Internet => 0,
            Apn::Ims => 1,
            Apn::Mms => 2,
            Apn::Supl => 3,
        }
    }

    /// Inverse of [`Apn::index`].
    pub const fn from_index(i: usize) -> Option<Apn> {
        match i {
            0 => Some(Apn::Internet),
            1 => Some(Apn::Ims),
            2 => Some(Apn::Mms),
            3 => Some(Apn::Supl),
            _ => None,
        }
    }

    /// Conventional APN string.
    pub const fn name(self) -> &'static str {
        match self {
            Apn::Internet => "internet",
            Apn::Ims => "ims",
            Apn::Mms => "mms",
            Apn::Supl => "supl",
        }
    }
}

impl fmt::Display for Apn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isp_shares_sum_to_one() {
        let bs: f64 = Isp::ALL.iter().map(|i| i.bs_share()).sum();
        let users: f64 = Isp::ALL.iter().map(|i| i.user_share()).sum();
        assert!((bs - 1.0).abs() < 1e-9);
        assert!((users - 1.0).abs() < 1e-9);
    }

    #[test]
    fn isp_frequency_ordering_matches_paper() {
        // §3.3: median frequency ISP-B > ISP-C > ISP-A.
        assert!(Isp::B.median_freq_mhz() > Isp::C.median_freq_mhz());
        assert!(Isp::C.median_freq_mhz() > Isp::A.median_freq_mhz());
    }

    #[test]
    fn apn_index_round_trip() {
        for apn in Apn::ALL {
            assert_eq!(Apn::from_index(apn.index()), Some(apn));
        }
        assert_eq!(Apn::from_index(4), None);
    }

    #[test]
    fn isp_index_round_trip() {
        for isp in Isp::ALL {
            assert_eq!(Isp::from_index(isp.index()), Some(isp));
        }
        assert_eq!(Isp::from_index(3), None);
    }

    #[test]
    fn bsid_u64_encoding_distinguishes_families() {
        let g = BsId::gsm_cn(0, 17, 99);
        let c = BsId::Cdma {
            sid: 0,
            nid: 17,
            bid: 99,
        };
        assert_ne!(g.as_u64(), c.as_u64());
    }

    #[test]
    fn bsid_u64_is_injective_on_samples() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for mnc in 0..4u16 {
            for lac in 0..16u16 {
                for cid in 0..16u32 {
                    assert!(seen.insert(BsId::gsm_cn(mnc, lac, cid).as_u64()));
                }
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(BsId::gsm_cn(1, 22, 333).to_string(), "460-01-22-333");
        assert_eq!(Apn::Internet.to_string(), "internet");
        assert_eq!(Isp::B.to_string(), "ISP-B");
        assert_eq!(DeviceId(7).to_string(), "dev-7");
    }
}
