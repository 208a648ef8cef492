//! Per-RAT utilisation: the idle-3G effect.
//!
//! §3.3: although 3G BSes are fewer and have worse coverage than 2G/4G, the
//! failure prevalence on 3G BSes is *lower*, because 3G access "is usually
//! not favored by user devices when 4G access is available, and the signal
//! coverage of 3G is much worse than that of 2G when 4G access is
//! unavailable" — so 3G carries less contention. We model that as a demand
//! multiplier applied to a site's ambient load when a device attaches over a
//! given RAT.

use cellrel_types::Rat;

/// Relative demand a RAT carrier sees, as a multiplier on site load.
///
/// 4G carries the bulk of traffic; 2G remains a fallback workhorse (voice /
/// coverage); 3G is the neglected middle child; 5G carriers are still few
/// but each serves data-hungry early adopters.
pub(crate) fn rat_demand_factor(rat: Rat) -> f64 {
    match rat {
        Rat::G2 => 0.80,
        Rat::G3 => 0.35, // the "idle" 3G network
        Rat::G4 => 1.00,
        Rat::G5 => 0.90,
    }
}

/// Diurnal modulation of ambient load: a simple two-peak day profile
/// (morning and evening rush), returning a multiplier around 1.0.
/// `hour_of_day` may be fractional.
pub fn diurnal_factor(hour_of_day: f64) -> f64 {
    let h = hour_of_day.rem_euclid(24.0);
    // Base level plus two Gaussian bumps at 08:30 and 18:30, and a deep
    // overnight trough.
    let bump = |center: f64, width: f64, height: f64| {
        let d = (h - center).abs().min(24.0 - (h - center).abs());
        height * (-(d * d) / (2.0 * width * width)).exp()
    };
    let night = bump(3.5, 2.5, -0.45);
    0.85 + bump(8.5, 1.5, 0.35) + bump(18.5, 2.0, 0.40) + night
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_g_is_idle() {
        assert!(rat_demand_factor(Rat::G3) < rat_demand_factor(Rat::G2));
        assert!(rat_demand_factor(Rat::G3) < rat_demand_factor(Rat::G4));
        assert!(rat_demand_factor(Rat::G3) < rat_demand_factor(Rat::G5));
    }

    #[test]
    fn diurnal_peaks_and_trough() {
        let rush = diurnal_factor(18.5);
        let night = diurnal_factor(3.5);
        let noon = diurnal_factor(12.0);
        assert!(rush > noon, "evening rush {rush} vs noon {noon}");
        assert!(night < noon, "night {night} vs noon {noon}");
        assert!(night > 0.0);
    }

    #[test]
    fn diurnal_wraps_midnight() {
        assert!((diurnal_factor(0.0) - diurnal_factor(24.0)).abs() < 1e-9);
        assert!((diurnal_factor(-1.0) - diurnal_factor(23.0)).abs() < 1e-9);
    }
}
