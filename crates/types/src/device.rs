//! Device descriptors: Android versions, phone model identity, hardware.
//!
//! The study covers 34 phone models running Android 9 or Android 10
//! (Table 1). The concrete table data — prevalence, frequency, user share —
//! lives in `cellrel-workload::models`; this module holds only the shared
//! shape of a model description.

use crate::rat::{Rat, RatSet};
use std::fmt;

/// Android OS major version. Only 9 and 10 appear in the measurement
/// (Android 11 shipped after the study window; §6 argues the findings carry
/// over).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AndroidVersion {
    /// Android 9 "Pie" (Aug 2018) — the more stable baseline in the paper.
    V9,
    /// Android 10 (Sep 2019) — adds 5G support and the blind 5G-preference
    /// RAT policy the paper identifies as a reliability defect.
    V10,
}

impl AndroidVersion {
    /// Numeric major version.
    pub const fn number(self) -> u8 {
        match self {
            AndroidVersion::V9 => 9,
            AndroidVersion::V10 => 10,
        }
    }

    /// Whether this version supports 5G at all (only Android 10 does).
    #[cfg(test)]
    pub(crate) const fn supports_5g(self) -> bool {
        matches!(self, AndroidVersion::V10)
    }
}

impl fmt::Display for AndroidVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Android {}", self.number())
    }
}

/// Index of a phone model in the study's Table 1 (1..=34).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhoneModelId(pub u8);

impl PhoneModelId {
    /// Number of models in the study.
    pub const COUNT: usize = 34;

    /// All model ids 1..=34.
    pub fn all() -> impl Iterator<Item = PhoneModelId> {
        (1..=Self::COUNT as u8).map(PhoneModelId)
    }

    /// Zero-based array index.
    pub const fn index(self) -> usize {
        (self.0 - 1) as usize
    }
}

impl fmt::Display for PhoneModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Model {}", self.0)
    }
}

/// Hardware configuration of a phone model (Table 1's left columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareSpec {
    /// CPU clock in GHz — Table 1's proxy for hardware tier.
    pub cpu_ghz: f64,
    /// RAM in GB.
    pub memory_gb: u8,
    /// Flash storage in GB.
    pub storage_gb: u16,
    /// Whether the model carries a 5G modem.
    pub has_5g_modem: bool,
    /// Android version the model ships.
    pub android: AndroidVersion,
}

impl HardwareSpec {
    /// RATs the device hardware can use. 5G models support everything; the
    /// rest top out at 4G.
    pub fn supported_rats(&self) -> RatSet {
        if self.has_5g_modem {
            RatSet::up_to(Rat::G5)
        } else {
            RatSet::up_to(Rat::G4)
        }
    }

    /// A scalar "hardware tier" in [0, 1] used for ordering models from
    /// low-end to high-end, mirroring Table 1's ordering. Combines CPU clock,
    /// memory and storage with CPU dominating.
    pub fn tier(&self) -> f64 {
        let cpu = ((self.cpu_ghz - 1.8) / (2.84 - 1.8)).clamp(0.0, 1.0);
        let mem = ((self.memory_gb as f64 - 2.0) / 6.0).clamp(0.0, 1.0);
        let sto = ((self.storage_gb as f64).log2() - 4.0) / 4.0;
        (0.6 * cpu + 0.25 * mem + 0.15 * sto.clamp(0.0, 1.0)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn android_versions() {
        assert_eq!(AndroidVersion::V9.number(), 9);
        assert!(!AndroidVersion::V9.supports_5g());
        assert!(AndroidVersion::V10.supports_5g());
        assert_eq!(AndroidVersion::V10.to_string(), "Android 10");
    }

    #[test]
    fn model_id_indexing() {
        assert_eq!(PhoneModelId::all().count(), 34);
        assert_eq!(PhoneModelId(1).index(), 0);
        assert_eq!(PhoneModelId(34).index(), 33);
    }

    #[test]
    fn supported_rats_follow_modem() {
        let low = HardwareSpec {
            cpu_ghz: 1.8,
            memory_gb: 2,
            storage_gb: 16,
            has_5g_modem: false,
            android: AndroidVersion::V9,
        };
        assert!(!low.supported_rats().contains(Rat::G5));
        assert!(low.supported_rats().contains(Rat::G4));

        let high = HardwareSpec {
            has_5g_modem: true,
            android: AndroidVersion::V10,
            ..low
        };
        assert!(high.supported_rats().contains(Rat::G5));
    }

    #[test]
    fn tier_orders_low_to_high() {
        let low = HardwareSpec {
            cpu_ghz: 1.8,
            memory_gb: 2,
            storage_gb: 16,
            has_5g_modem: false,
            android: AndroidVersion::V9,
        };
        let high = HardwareSpec {
            cpu_ghz: 2.84,
            memory_gb: 8,
            storage_gb: 256,
            has_5g_modem: true,
            android: AndroidVersion::V10,
        };
        assert!(low.tier() < high.tier());
        assert!(low.tier() >= 0.0 && high.tier() <= 1.0);
    }
}
