//! Radio propagation: log-distance path loss with log-normal shadowing.
//!
//! The standard empirical model:
//!
//! ```text
//! PL(d) = PL(d0) + 10·n·log10(d / d0) + X_sigma
//! ```
//!
//! where `PL(d0)` is the free-space loss at the reference distance (1 m here,
//! via Friis), `n` is the environment's path-loss exponent and `X_sigma` is
//! Gaussian shadowing in dB. Received power is then `tx_power − PL`.
//!
//! Higher carrier frequencies lose more at the reference distance, which is
//! exactly why ISP-B (highest median frequency) has smaller per-BS coverage
//! (§3.3) — the model reproduces that ordering for free.

use crate::environment::Environment;
use cellrel_types::{Rat, RssDbm, SignalLevel};

/// Free-space path loss at 1 m for carrier frequency `freq_mhz`, in dB
/// (Friis: 20·log10(d_km) + 20·log10(f_MHz) + 32.44, with d = 0.001 km).
pub(crate) fn reference_loss_db(freq_mhz: f64) -> f64 {
    20.0 * (0.001f64).log10() + 20.0 * freq_mhz.log10() + 32.44
}

/// Deterministic path loss (no shadowing) at distance `d_km` for the given
/// environment and frequency.
pub fn path_loss_db(d_km: f64, freq_mhz: f64, env: Environment) -> f64 {
    let d_m = (d_km * 1000.0).max(1.0);
    reference_loss_db(freq_mhz) + 10.0 * env.path_loss_exponent() * d_m.log10()
}

/// Received signal strength for a link, including a shadowing term supplied
/// by the caller (a standard-normal draw scaled by the environment's sigma —
/// callers keep the draw so repeated measurements of a static link stay
/// coherent).
pub fn received_rss(
    tx_power_dbm: f64,
    d_km: f64,
    freq_mhz: f64,
    env: Environment,
    shadowing_std_normal: f64,
) -> RssDbm {
    let pl = path_loss_db(d_km, freq_mhz, env) + shadowing_std_normal * env.shadowing_sigma_db();
    RssDbm(tx_power_dbm - pl)
}

/// The distance (km) at which the *median* link hits the given RSS —
/// i.e. the nominal coverage radius for a target edge level.
pub fn range_for_rss(tx_power_dbm: f64, target_dbm: f64, freq_mhz: f64, env: Environment) -> f64 {
    let budget = tx_power_dbm - target_dbm - reference_loss_db(freq_mhz);
    let d_m = 10f64.powf(budget / (10.0 * env.path_loss_exponent()));
    (d_m / 1000.0).max(0.001)
}

/// Extra clutter / penetration loss by RAT generation, in dB. Mid-band NR
/// suffers far more from walls and street clutter than the sub-2 GHz legacy
/// carriers — this is why 2020-era 5G coverage was spotty at the edges even
/// where 4G stayed healthy (§3.2's level-0 5G problem zone).
pub(crate) const fn rat_clutter_db(rat: Rat) -> f64 {
    match rat {
        Rat::G2 => 0.0,
        Rat::G3 => 3.0,
        Rat::G4 => 6.0,
        Rat::G5 => 19.0,
    }
}

/// Nominal coverage radius: median link at the RAT's level-1 threshold
/// (service edge), including the RAT clutter penalty.
pub fn coverage_radius_km(tx_power_dbm: f64, freq_mhz: f64, env: Environment, rat: Rat) -> f64 {
    let edge = SignalLevel::thresholds(rat)[0];
    range_for_rss(tx_power_dbm - rat_clutter_db(rat), edge, freq_mhz, env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_grows_with_distance() {
        let e = Environment::Urban;
        let near = path_loss_db(0.1, 1900.0, e);
        let far = path_loss_db(1.0, 1900.0, e);
        assert!(far > near);
        // One decade of distance = 10·n dB.
        assert!((far - near - 10.0 * e.path_loss_exponent()).abs() < 1e-9);
    }

    #[test]
    fn loss_grows_with_frequency() {
        let e = Environment::Urban;
        assert!(path_loss_db(0.5, 2400.0, e) > path_loss_db(0.5, 1800.0, e));
    }

    #[test]
    fn rss_decreases_with_distance_and_shadowing_shifts_it() {
        let e = Environment::Suburban;
        let a = received_rss(46.0, 0.2, 1900.0, e, 0.0);
        let b = received_rss(46.0, 1.0, 1900.0, e, 0.0);
        assert!(a.dbm() > b.dbm());
        // A +1σ shadowing draw deepens the loss by exactly sigma dB.
        let shadowed = received_rss(46.0, 0.2, 1900.0, e, 1.0);
        assert!((a.dbm() - shadowed.dbm() - e.shadowing_sigma_db()).abs() < 1e-9);
    }

    #[test]
    fn range_inverts_path_loss() {
        let e = Environment::Rural;
        let d = range_for_rss(46.0, -110.0, 1800.0, e);
        let rss = received_rss(46.0, d, 1800.0, e, 0.0);
        assert!((rss.dbm() - -110.0).abs() < 0.01, "round-trip rss {rss}");
    }

    #[test]
    fn higher_frequency_means_smaller_coverage() {
        // The ISP-B effect: same power, higher frequency → smaller radius.
        let e = Environment::Urban;
        let low = coverage_radius_km(46.0, 1880.0, e, Rat::G4);
        let high = coverage_radius_km(46.0, 2370.0, e, Rat::G4);
        assert!(high < low, "high {high} vs low {low}");
    }

    #[test]
    fn coverage_is_kilometre_scale() {
        let d = coverage_radius_km(46.0, 1900.0, Environment::Urban, Rat::G4);
        assert!((0.3..30.0).contains(&d), "radius {d} km");
    }
}
