//! Table 1 — the 34 studied phone models, verbatim.
//!
//! These numbers are the paper's published measurements and serve as the
//! calibration ground truth of the macro study: the generator *targets*
//! them, and the analysis pipeline must *recover* them through the full
//! monitor/analysis machinery (which validates the pipeline).

use cellrel_sim::{SimRng, WeightedIndex};
use cellrel_types::{AndroidVersion, HardwareSpec, PhoneModelId};

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhoneModelSpec {
    /// Model index (1..=34, low-end to high-end).
    pub id: PhoneModelId,
    /// Hardware configuration.
    pub hw: HardwareSpec,
    /// Share of the user population on this model (fraction, sums to 1).
    pub user_share: f64,
    /// Fraction of devices with ≥1 cellular failure over the 8-month study.
    pub prevalence: f64,
    /// Average number of cellular failures per device over the study.
    pub frequency: f64,
}

macro_rules! model {
    ($id:literal, $cpu:literal, $mem:literal, $sto:literal, $g5:literal, $ver:ident,
     $users:literal, $prev:literal, $freq:literal) => {
        PhoneModelSpec {
            id: PhoneModelId($id),
            hw: HardwareSpec {
                cpu_ghz: $cpu,
                memory_gb: $mem,
                storage_gb: $sto,
                has_5g_modem: $g5,
                android: AndroidVersion::$ver,
            },
            user_share: $users / 100.0,
            prevalence: $prev / 100.0,
            frequency: $freq,
        }
    };
}

/// Table 1, all 34 models.
pub(crate) const MODELS: [PhoneModelSpec; 34] = [
    model!(1, 1.8, 2, 16, false, V10, 2.71, 28.0, 35.9),
    model!(2, 1.95, 2, 16, false, V9, 3.02, 13.0, 23.8),
    model!(3, 2.0, 2, 16, false, V9, 7.31, 10.0, 13.8),
    model!(4, 2.0, 3, 32, false, V9, 3.90, 19.0, 22.4),
    model!(5, 2.0, 3, 32, false, V9, 2.85, 21.0, 28.2),
    model!(6, 2.0, 3, 32, false, V10, 4.33, 4.0, 5.3),
    model!(7, 2.0, 3, 32, false, V10, 1.44, 5.0, 6.4),
    model!(8, 2.0, 3, 32, false, V9, 4.07, 0.15, 2.3),
    model!(9, 2.0, 3, 32, false, V10, 5.47, 2.0, 2.6),
    model!(10, 2.2, 4, 32, false, V9, 5.78, 27.0, 36.8),
    model!(11, 1.8, 4, 64, false, V10, 1.18, 25.0, 28.5),
    model!(12, 2.0, 4, 64, false, V10, 1.44, 33.0, 43.5),
    model!(13, 2.05, 6, 64, false, V10, 5.39, 26.0, 18.7),
    model!(14, 2.2, 6, 64, false, V9, 2.98, 15.0, 17.9),
    model!(15, 2.2, 4, 128, false, V10, 3.98, 25.0, 26.7),
    model!(16, 2.2, 4, 128, false, V10, 3.02, 19.0, 28.0),
    model!(17, 2.2, 6, 64, false, V10, 1.09, 28.0, 48.4),
    model!(18, 2.2, 6, 64, false, V10, 0.26, 13.0, 38.8),
    model!(19, 2.2, 6, 64, false, V10, 1.31, 24.0, 44.8),
    model!(20, 2.2, 6, 64, false, V10, 0.57, 21.0, 33.0),
    model!(21, 2.2, 6, 64, false, V10, 2.80, 36.0, 46.6),
    model!(22, 2.2, 6, 128, false, V9, 0.44, 38.0, 61.1),
    model!(23, 2.4, 6, 64, true, V10, 0.84, 44.0, 49.6),
    model!(24, 2.4, 6, 128, true, V10, 3.25, 37.0, 38.0),
    model!(25, 2.45, 6, 64, false, V9, 4.99, 14.0, 19.6),
    model!(26, 2.45, 6, 64, false, V9, 2.15, 17.0, 24.6),
    model!(27, 2.8, 6, 64, false, V10, 1.84, 22.0, 54.2),
    model!(28, 2.8, 6, 64, false, V10, 7.14, 28.0, 58.1),
    model!(29, 2.8, 6, 64, false, V10, 1.31, 30.0, 65.1),
    model!(30, 2.8, 6, 128, false, V10, 1.01, 30.0, 90.2),
    model!(31, 2.84, 6, 64, false, V10, 1.88, 28.0, 61.7),
    model!(32, 2.84, 6, 64, false, V10, 3.63, 29.0, 57.8),
    model!(33, 2.84, 8, 128, true, V10, 4.78, 32.0, 70.9),
    model!(34, 2.84, 8, 256, true, V10, 1.84, 25.0, 79.3),
];

/// Look up a model by id.
pub fn model(id: PhoneModelId) -> &'static PhoneModelSpec {
    &MODELS[id.index()]
}

/// A sampler over models weighted by user share.
pub(crate) fn model_sampler() -> WeightedIndex {
    WeightedIndex::new(&MODELS.map(|m| m.user_share))
}

/// Draw a model per user share.
pub(crate) fn sample_model(sampler: &WeightedIndex, rng: &mut SimRng) -> &'static PhoneModelSpec {
    &MODELS[sampler.sample(rng)]
}

/// The population-weighted mean prevalence (the paper's "averaging at 23 %").
#[cfg(test)]
pub(crate) fn weighted_mean_prevalence() -> f64 {
    MODELS.iter().map(|m| m.user_share * m.prevalence).sum()
}

/// The population-weighted mean frequency (the paper's "as many as 33
/// failures ... on average").
#[cfg(test)]
pub(crate) fn weighted_mean_frequency() -> f64 {
    MODELS.iter().map(|m| m.user_share * m.frequency).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_types::Rat;

    #[test]
    fn thirty_four_models_with_unit_share() {
        assert_eq!(MODELS.len(), 34);
        let total: f64 = MODELS.iter().map(|m| m.user_share).sum();
        assert!((total - 1.0).abs() < 1e-6, "user shares sum to {total}");
    }

    #[test]
    fn ids_are_sequential() {
        for (i, m) in MODELS.iter().enumerate() {
            assert_eq!(m.id.index(), i);
        }
    }

    #[test]
    fn exactly_four_5g_models() {
        let ids: Vec<u8> = MODELS
            .iter()
            .filter(|m| m.hw.has_5g_modem)
            .map(|m| m.id.0)
            .collect();
        assert_eq!(ids, vec![23, 24, 33, 34]);
    }

    #[test]
    fn five_g_models_run_android_10() {
        for m in MODELS.iter().filter(|m| m.hw.has_5g_modem) {
            assert_eq!(m.hw.android, AndroidVersion::V10);
            assert!(m.hw.supported_rats().contains(Rat::G5));
        }
    }

    #[test]
    fn prevalence_range_matches_paper() {
        // §3.1: prevalence varies from 0.15 % to 45 % (our table: 44 %),
        // averaging at 23 %.
        let min = MODELS.iter().map(|m| m.prevalence).fold(1.0, f64::min);
        let max = MODELS.iter().map(|m| m.prevalence).fold(0.0, f64::max);
        assert!((min - 0.0015).abs() < 1e-9);
        assert!((max - 0.44).abs() < 1e-9);
        let mean = weighted_mean_prevalence();
        assert!((0.18..0.26).contains(&mean), "weighted prevalence {mean}");
    }

    #[test]
    fn frequency_range_matches_paper() {
        // §3.1: 2.3 to 90.2, averaging "as many as 33".
        let min = MODELS.iter().map(|m| m.frequency).fold(f64::MAX, f64::min);
        let max = MODELS.iter().map(|m| m.frequency).fold(0.0, f64::max);
        assert_eq!(min, 2.3);
        assert_eq!(max, 90.2);
        let mean = weighted_mean_frequency();
        assert!((25.0..40.0).contains(&mean), "weighted frequency {mean}");
    }

    #[test]
    fn five_g_models_fail_more() {
        // Fig. 6/7: 5G models above non-5G in both prevalence and frequency.
        let (g5_p, g5_f, g5_n) = MODELS
            .iter()
            .filter(|m| m.hw.has_5g_modem)
            .fold((0.0, 0.0, 0.0), |(p, f, n), m| {
                (p + m.prevalence, f + m.frequency, n + 1.0)
            });
        let (o_p, o_f, o_n) = MODELS
            .iter()
            .filter(|m| !m.hw.has_5g_modem)
            .fold((0.0, 0.0, 0.0), |(p, f, n), m| {
                (p + m.prevalence, f + m.frequency, n + 1.0)
            });
        assert!(g5_p / g5_n > o_p / o_n);
        assert!(g5_f / g5_n > o_f / o_n);
    }

    #[test]
    fn android10_fails_more_than_android9() {
        // Fig. 8/9 (non-5G models only, per the paper's footnote 4).
        let avg = |ver: AndroidVersion| {
            let rows: Vec<_> = MODELS
                .iter()
                .filter(|m| m.hw.android == ver && !m.hw.has_5g_modem)
                .collect();
            let p: f64 = rows.iter().map(|m| m.prevalence).sum::<f64>() / rows.len() as f64;
            let f: f64 = rows.iter().map(|m| m.frequency).sum::<f64>() / rows.len() as f64;
            (p, f)
        };
        let (p9, f9) = avg(AndroidVersion::V9);
        let (p10, f10) = avg(AndroidVersion::V10);
        assert!(p10 > p9, "prevalence 10 {p10} vs 9 {p9}");
        assert!(f10 > f9, "frequency 10 {f10} vs 9 {f9}");
    }

    #[test]
    fn sampler_tracks_user_share() {
        let sampler = model_sampler();
        let mut rng = SimRng::new(1);
        let mut count3 = 0;
        let n = 50_000;
        for _ in 0..n {
            if sample_model(&sampler, &mut rng).id == PhoneModelId(3) {
                count3 += 1;
            }
        }
        let share = count3 as f64 / n as f64;
        assert!((share - 0.0731).abs() < 0.01, "model 3 share {share}");
    }
}
