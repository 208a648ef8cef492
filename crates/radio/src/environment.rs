//! Deployment environments.
//!
//! The paper's BS-side findings hinge on *where* a base station sits:
//! top-failure BSes cluster in crowded urban areas (§3.3, Fig. 11); the
//! excellent-RSS anomaly comes from densely deployed BSes around public
//! transport hubs; the 25.5-hour outages come from neglected BSes in remote
//! mountain/offshore areas. [`Environment`] encodes those classes together
//! with their propagation and workload characteristics.

use std::fmt;

/// The deployment environment of a base station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Dense city core: heavy load, substantial interference.
    UrbanCore,
    /// Regular city fabric.
    Urban,
    /// Suburbs: moderate load.
    Suburban,
    /// Countryside: light load, sparse coverage.
    Rural,
    /// Public transport hub: very dense multi-ISP deployment, excellent RSS,
    /// but high control-channel pressure — the Fig. 15 anomaly's home.
    TransportHub,
    /// Mountain / offshore: BSes "long neglected and in disrepair" (§3.1),
    /// producing the extreme-duration outages.
    Remote,
}

impl Environment {
    /// All environments.
    pub const ALL: [Environment; 6] = [
        Environment::UrbanCore,
        Environment::Urban,
        Environment::Suburban,
        Environment::Rural,
        Environment::TransportHub,
        Environment::Remote,
    ];

    /// Stable array index.
    #[cfg(test)]
    pub(crate) const fn index(self) -> usize {
        match self {
            Environment::UrbanCore => 0,
            Environment::Urban => 1,
            Environment::Suburban => 2,
            Environment::Rural => 3,
            Environment::TransportHub => 4,
            Environment::Remote => 5,
        }
    }

    /// Share of the BS population deployed in this environment.
    pub(crate) const fn deployment_share(self) -> f64 {
        match self {
            Environment::UrbanCore => 0.12,
            Environment::Urban => 0.30,
            Environment::Suburban => 0.24,
            Environment::Rural => 0.20,
            Environment::TransportHub => 0.04,
            Environment::Remote => 0.10,
        }
    }

    /// Log-distance path-loss exponent (free space = 2.0; dense clutter
    /// higher).
    pub(crate) const fn path_loss_exponent(self) -> f64 {
        match self {
            Environment::UrbanCore => 3.5,
            Environment::Urban => 3.2,
            Environment::Suburban => 2.9,
            Environment::Rural => 2.6,
            Environment::TransportHub => 3.0,
            Environment::Remote => 2.4,
        }
    }

    /// Log-normal shadowing standard deviation in dB.
    pub(crate) const fn shadowing_sigma_db(self) -> f64 {
        match self {
            Environment::UrbanCore => 8.0,
            Environment::Urban => 7.0,
            Environment::Suburban => 6.0,
            Environment::Rural => 5.0,
            Environment::TransportHub => 6.0,
            Environment::Remote => 5.0,
        }
    }

    /// Baseline cell utilisation (0..1) before per-BS noise: the ambient
    /// cellular access workload of the area.
    pub(crate) const fn base_load(self) -> f64 {
        match self {
            Environment::UrbanCore => 0.70,
            Environment::Urban => 0.55,
            Environment::Suburban => 0.40,
            Environment::Rural => 0.25,
            Environment::TransportHub => 0.85,
            Environment::Remote => 0.10,
        }
    }

    /// Relative probability that a BS here is in disrepair (drives the
    /// extreme-duration outage tail).
    pub(crate) const fn disrepair_prob(self) -> f64 {
        match self {
            Environment::UrbanCore => 0.001,
            Environment::Urban => 0.002,
            Environment::Suburban => 0.004,
            Environment::Rural => 0.010,
            Environment::TransportHub => 0.001,
            Environment::Remote => 0.060,
        }
    }

    /// Typical inter-site distance in km — controls cluster tightness during
    /// deployment generation.
    pub(crate) const fn typical_site_spacing_km(self) -> f64 {
        match self {
            Environment::UrbanCore => 0.4,
            Environment::Urban => 0.8,
            Environment::Suburban => 1.6,
            Environment::Rural => 5.0,
            Environment::TransportHub => 0.15,
            Environment::Remote => 12.0,
        }
    }

    /// Whether devices here are crowd-mobility heavy (hubs and cores), which
    /// stresses mobility management.
    pub(crate) const fn is_high_mobility(self) -> bool {
        matches!(self, Environment::TransportHub | Environment::UrbanCore)
    }
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Environment::UrbanCore => "urban-core",
            Environment::Urban => "urban",
            Environment::Suburban => "suburban",
            Environment::Rural => "rural",
            Environment::TransportHub => "transport-hub",
            Environment::Remote => "remote",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = Environment::ALL.iter().map(|e| e.deployment_share()).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn indices_are_unique() {
        let mut seen = [false; 6];
        for e in Environment::ALL {
            assert!(!seen[e.index()]);
            seen[e.index()] = true;
        }
    }

    #[test]
    fn hub_is_densest_and_busiest() {
        for e in Environment::ALL {
            if e != Environment::TransportHub {
                assert!(
                    Environment::TransportHub.typical_site_spacing_km()
                        < e.typical_site_spacing_km()
                );
                assert!(Environment::TransportHub.base_load() >= e.base_load());
            }
        }
    }

    #[test]
    fn remote_has_worst_disrepair() {
        for e in Environment::ALL {
            if e != Environment::Remote {
                assert!(Environment::Remote.disrepair_prob() > e.disrepair_prob());
            }
        }
    }

    #[test]
    fn path_loss_exponents_are_physical() {
        for e in Environment::ALL {
            let n = e.path_loss_exponent();
            assert!((2.0..=4.0).contains(&n), "{e}: exponent {n}");
        }
    }
}
