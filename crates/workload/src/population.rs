//! The synthetic device population.
//!
//! Devices carry the attributes the analysis slices on: Table 1 model,
//! ISP subscription, whether they live in a disrepair-prone remote region,
//! and an individual failure *proneness* factor. The proneness factor is a
//! heavy-tailed log-normal with unit mean — it produces the paper's extreme
//! per-device skew (most failing phones see a handful of failures; the
//! worst single phone saw 198 228 over eight months, §3.1).

use crate::models::{self, PhoneModelSpec};
use cellrel_sim::{SimRng, WeightedIndex};
use cellrel_types::{DeviceId, Isp, PhoneModelId};

/// Study-wide prevalence by ISP (§3.3, Fig. 12): 20.1 % / 27.1 % / 14.7 %.
pub const ISP_PREVALENCE: [f64; 3] = [0.201, 0.271, 0.147];

/// One synthetic device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Device identity.
    pub id: DeviceId,
    /// Table 1 model.
    pub model: PhoneModelId,
    /// Subscribed ISP.
    pub isp: Isp,
    /// Lives in a remote region with neglected BSes (long-outage tail).
    pub remote_region: bool,
    /// Individual failure-count multiplier (unit mean, heavy tail).
    pub proneness: f64,
}

impl DeviceProfile {
    /// The model spec for this device.
    pub fn spec(&self) -> &'static PhoneModelSpec {
        models::model(self.model)
    }

    /// This device's probability of experiencing ≥1 failure during the
    /// study: the model's prevalence modulated by the ISP factor.
    pub(crate) fn failure_prevalence(&self) -> f64 {
        (self.spec().prevalence * isp_prevalence_factor(self.isp)).clamp(0.0, 0.98)
    }

    /// Expected number of failures *given* the device fails at all.
    pub(crate) fn conditional_mean_failures(&self) -> f64 {
        let s = self.spec();
        let base = if s.prevalence > 0.0 {
            s.frequency / s.prevalence
        } else {
            s.frequency
        };
        base * self.proneness
    }
}

/// The ISP's prevalence relative to the user-share-weighted national mean,
/// used to modulate per-model prevalence so that per-ISP slices land on
/// Fig. 12.
pub(crate) fn isp_prevalence_factor(isp: Isp) -> f64 {
    let national: f64 = Isp::ALL
        .iter()
        .map(|i| i.user_share() * ISP_PREVALENCE[i.index()])
        .sum();
    ISP_PREVALENCE[isp.index()] / national
}

/// Population generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct PopulationConfig {
    /// Number of devices.
    pub devices: usize,
    /// Fraction of devices in remote regions.
    pub remote_fraction: f64,
    /// Log-sigma of the proneness factor (heavier = more skew).
    pub proneness_sigma: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            devices: 20_000,
            remote_fraction: 0.03,
            proneness_sigma: 1.2,
        }
    }
}

/// The generated population.
#[derive(Debug, Clone)]
pub struct Population {
    devices: Vec<DeviceProfile>,
}

impl Population {
    /// An empty population — the degenerate case of a study with no
    /// devices. `generate` always produces at least one device.
    #[cfg(test)]
    pub(crate) fn empty() -> Self {
        Population {
            devices: Vec::new(),
        }
    }

    /// Generate deterministically from `rng`.
    pub(crate) fn generate(cfg: &PopulationConfig, rng: &mut SimRng) -> Self {
        assert!(cfg.devices > 0);
        let mut rng = rng.fork(0xD0D0);
        let model_sampler = models::model_sampler();
        let isp_sampler = WeightedIndex::new(&Isp::ALL.map(|i| i.user_share()));
        // Unit-mean log-normal: mu = -sigma²/2.
        let mu = -cfg.proneness_sigma * cfg.proneness_sigma / 2.0;

        let devices = (0..cfg.devices)
            .map(|i| {
                let spec = models::sample_model(&model_sampler, &mut rng);
                DeviceProfile {
                    id: DeviceId(i as u32),
                    model: spec.id,
                    isp: Isp::ALL[isp_sampler.sample(&mut rng)],
                    remote_region: rng.chance(cfg.remote_fraction),
                    proneness: rng.lognormal(mu, cfg.proneness_sigma),
                }
            })
            .collect();
        Population { devices }
    }

    /// All devices.
    pub fn devices(&self) -> &[DeviceProfile] {
        &self.devices
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(n: usize, seed: u64) -> Population {
        let mut rng = SimRng::new(seed);
        Population::generate(
            &PopulationConfig {
                devices: n,
                ..Default::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn model_mix_tracks_user_share() {
        let p = pop(40_000, 1);
        let m3 = p
            .devices()
            .iter()
            .filter(|d| d.model == PhoneModelId(3))
            .count() as f64
            / p.len() as f64;
        assert!((m3 - 0.0731).abs() < 0.008, "model-3 share {m3}");
    }

    #[test]
    fn isp_mix_tracks_user_share() {
        let p = pop(40_000, 2);
        for isp in Isp::ALL {
            let share = p.devices().iter().filter(|d| d.isp == isp).count() as f64 / p.len() as f64;
            assert!(
                (share - isp.user_share()).abs() < 0.02,
                "{isp} share {share}"
            );
        }
    }

    #[test]
    fn proneness_has_unit_mean_and_heavy_tail() {
        let p = pop(40_000, 3);
        let mean: f64 = p.devices().iter().map(|d| d.proneness).sum::<f64>() / p.len() as f64;
        assert!((mean - 1.0).abs() < 0.12, "proneness mean {mean}");
        let max = p.devices().iter().map(|d| d.proneness).fold(0.0, f64::max);
        assert!(max > 10.0, "proneness tail too light: max {max}");
    }

    #[test]
    fn isp_factors_weight_to_one() {
        let national: f64 = Isp::ALL
            .iter()
            .map(|i| i.user_share() * isp_prevalence_factor(*i))
            .sum();
        assert!((national - 1.0).abs() < 1e-9);
        // Fig. 12 ordering: B > A > C.
        assert!(isp_prevalence_factor(Isp::B) > isp_prevalence_factor(Isp::A));
        assert!(isp_prevalence_factor(Isp::A) > isp_prevalence_factor(Isp::C));
    }

    #[test]
    fn device_prevalence_is_bounded() {
        let p = pop(5_000, 4);
        for d in p.devices() {
            let pr = d.failure_prevalence();
            assert!((0.0..=0.98).contains(&pr));
            assert!(d.conditional_mean_failures() > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = pop(1_000, 9);
        let b = pop(1_000, 9);
        assert_eq!(a.devices(), b.devices());
    }
}
