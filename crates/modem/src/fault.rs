//! Fault injection for the modem pipeline.
//!
//! Tests and ablation experiments need to force rare paths deterministically:
//! a specific `DataFailCause`, an inflated failure rate, or a guaranteed
//! overload rejection. Following the fault-injection idiom of the guides,
//! the profile is a first-class input to the setup pipeline rather than an
//! afterthought.

use cellrel_types::DataFailCause;

/// Fault-injection knobs for a modem.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultProfile {
    /// If set, every setup attempt fails with exactly this cause.
    pub forced_cause: Option<DataFailCause>,
    /// Additive extra probability of a setup failure (applied at the
    /// physical stage with generic causes).
    pub extra_failure_prob: f64,
    /// Force the next attempt to hit a rational overload rejection.
    pub force_overload: bool,
    /// Multiplier on every stage's failure probability (1.0 = neutral).
    pub hazard_scale: f64,
}

impl FaultProfile {
    /// The neutral profile: no injected faults.
    pub fn none() -> Self {
        FaultProfile {
            forced_cause: None,
            extra_failure_prob: 0.0,
            force_overload: false,
            hazard_scale: 1.0,
        }
    }

    /// Force every setup to fail with `cause`.
    pub fn forcing(cause: DataFailCause) -> Self {
        FaultProfile {
            forced_cause: Some(cause),
            ..Self::none()
        }
    }

    /// Scale all hazards by `k`.
    pub fn scaled(k: f64) -> Self {
        FaultProfile {
            hazard_scale: k,
            ..Self::none()
        }
    }

    /// The effective hazard multiplier (guards the zero-initialised default).
    pub(crate) fn scale(&self) -> f64 {
        if self.hazard_scale <= 0.0 {
            1.0
        } else {
            self.hazard_scale
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_profile() {
        let f = FaultProfile::none();
        assert!(f.forced_cause.is_none());
        assert_eq!(f.scale(), 1.0);
        assert!(!f.force_overload);
    }

    #[test]
    fn default_scale_is_guarded() {
        let f = FaultProfile::default();
        assert_eq!(f.scale(), 1.0, "zero-initialised scale must act neutral");
    }

    #[test]
    fn forcing_sets_cause() {
        let f = FaultProfile::forcing(DataFailCause::PppTimeout);
        assert_eq!(f.forced_cause, Some(DataFailCause::PppTimeout));
    }

    #[test]
    fn scaled_sets_multiplier() {
        assert_eq!(FaultProfile::scaled(3.0).scale(), 3.0);
    }
}
