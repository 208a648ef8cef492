//! Procedural base-station deployment and the [`RadioEnvironment`] facade.
//!
//! The generator reproduces the deployment *structure* the paper's findings
//! rest on:
//!
//! * ISP shares of the BS population: 44.8 % / 29.4 % / 25.8 % (§3.3).
//! * RAT support mix: 23.4 % 2G, 10.2 % 3G, 65.2 % 4G, 7.3 % 5G, with
//!   multi-RAT sites (shares sum past 100 %).
//! * Spatial clustering: cities with dense cores, transport hubs where all
//!   three ISPs co-deploy at very small inter-site distance, sparse rural
//!   and remote fringes.
//! * Per-ISP frequency plans with ISP-B highest (smallest coverage) and
//!   bands that sit close together — the adjacent-channel interference
//!   ingredient.

use crate::bs::{BaseStation, BsIndex};
use crate::environment::Environment;
use crate::geometry::{GridIndex, Pos};
use crate::interference::RiskFactors;
use crate::propagation;
use crate::selection::{best_per_rat, CellView};
use cellrel_sim::{SimRng, WeightedIndex};
use cellrel_types::{BsId, Isp, Rat, RatSet, RssDbm};

/// Radius (km) within which sites interfere / count as neighbours.
const NEIGHBOR_RADIUS_KM: f64 = 0.6;

/// How far a device scan searches for candidate cells (km).
const SCAN_RADIUS_KM: f64 = 16.0;

/// Parameters for deployment generation.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Number of base stations to place.
    pub bs_count: usize,
    /// Edge length of the square region, km.
    pub region_km: f64,
    /// Number of city clusters.
    pub num_cities: usize,
    /// Number of transport hubs (placed inside cities).
    pub num_hubs: usize,
    /// Marginal probability that a site supports each RAT
    /// (2G, 3G, 4G, 5G). Defaults to the paper's shares.
    pub rat_support: [f64; 4],
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            bs_count: 4000,
            region_km: 100.0,
            num_cities: 5,
            num_hubs: 6,
            rat_support: [0.234, 0.102, 0.652, 0.073],
        }
    }
}

impl DeploymentConfig {
    /// A small deployment for unit tests and examples.
    pub fn small() -> Self {
        DeploymentConfig {
            bs_count: 600,
            region_km: 40.0,
            num_cities: 2,
            num_hubs: 2,
            ..Default::default()
        }
    }
}

/// The generated radio world: all base stations plus a spatial index.
#[derive(Debug)]
pub struct RadioEnvironment {
    bses: Vec<BaseStation>,
    grid: GridIndex,
    city_centers: Vec<Pos>,
}

impl RadioEnvironment {
    /// Generate a deployment from the config, deterministically from `rng`.
    pub fn generate(cfg: DeploymentConfig, rng: &mut SimRng) -> Self {
        assert!(cfg.bs_count > 0 && cfg.num_cities > 0);
        let mut rng = rng.fork(0xDEB0);

        // City centres spread across the region, hubs inside cities.
        let margin = cfg.region_km * 0.15;
        let city_centers: Vec<Pos> = (0..cfg.num_cities)
            .map(|_| {
                Pos::new(
                    rng.range_f64(margin, cfg.region_km - margin),
                    rng.range_f64(margin, cfg.region_km - margin),
                )
            })
            .collect();
        let hub_centers: Vec<Pos> = (0..cfg.num_hubs)
            .map(|_| {
                let city = *rng.choose(&city_centers);
                city.offset(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0))
                    .clamped(cfg.region_km)
            })
            .collect();

        let env_weights: Vec<f64> = Environment::ALL
            .iter()
            .map(|e| e.deployment_share())
            .collect();
        let env_picker = WeightedIndex::new(&env_weights);
        let isp_weights: Vec<f64> = Isp::ALL.iter().map(|i| i.bs_share()).collect();
        let isp_picker = WeightedIndex::new(&isp_weights);

        let mut bses = Vec::with_capacity(cfg.bs_count);
        for i in 0..cfg.bs_count {
            let env = Environment::ALL[env_picker.sample(&mut rng)];
            let pos = place_site(env, &cfg, &city_centers, &hub_centers, &mut rng);
            // At transport hubs every ISP co-deploys, so hub sites draw the
            // ISP uniformly instead of by national share.
            let isp = if env == Environment::TransportHub {
                *rng.choose(&Isp::ALL)
            } else {
                Isp::ALL[isp_picker.sample(&mut rng)]
            };
            let rats = draw_rat_support(&cfg, env, &mut rng);
            let freq_mhz = carrier_frequency(isp, rats, &mut rng);
            let tx_power_dbm = match env {
                Environment::Rural | Environment::Remote => 48.0,
                Environment::TransportHub => 43.0,
                _ => 46.0,
            };
            let load = (env.base_load() + rng.normal(0.0, 0.10)).clamp(0.02, 1.0);
            let in_disrepair = rng.chance(env.disrepair_prob());
            let mnc = match isp {
                Isp::A => 0,
                Isp::B => 11,
                Isp::C => 1,
            };
            bses.push(BaseStation {
                id: BsId::gsm_cn(mnc, (i / 256) as u16, i as u32),
                isp,
                rats,
                freq_mhz,
                pos,
                env,
                tx_power_dbm,
                load,
                neighbor_count: 0,
                min_cross_isp_gap_mhz: f64::INFINITY,
                in_disrepair,
            });
        }

        // Spatial index, then neighbourhood statistics.
        let mut grid = GridIndex::new(cfg.region_km, (cfg.region_km / 50.0).max(0.5));
        for (i, bs) in bses.iter().enumerate() {
            grid.insert(bs.pos, i as u32);
        }
        let positions: Vec<Pos> = bses.iter().map(|b| b.pos).collect();
        for i in 0..bses.len() {
            let near =
                grid.query_within(positions[i], NEIGHBOR_RADIUS_KM, |j| positions[j as usize]);
            let mut count = 0u32;
            let mut min_gap = f64::INFINITY;
            for j in near {
                let j = j as usize;
                if j == i {
                    continue;
                }
                count += 1;
                if bses[j].isp != bses[i].isp {
                    let gap = (bses[j].freq_mhz - bses[i].freq_mhz).abs();
                    if gap < min_gap {
                        min_gap = gap;
                    }
                }
            }
            bses[i].neighbor_count = count;
            bses[i].min_cross_isp_gap_mhz = min_gap;
        }

        RadioEnvironment {
            bses,
            grid,
            city_centers,
        }
    }

    /// Number of base stations.
    #[cfg(test)]
    pub(crate) fn bs_count(&self) -> usize {
        self.bses.len()
    }

    /// Look up a base station.
    pub fn bs(&self, idx: BsIndex) -> &BaseStation {
        &self.bses[idx.0 as usize]
    }

    /// All base stations.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BsIndex, &BaseStation)> {
        self.bses
            .iter()
            .enumerate()
            .map(|(i, b)| (BsIndex(i as u32), b))
    }

    /// City centres (for placing device home locations).
    pub fn city_centers(&self) -> &[Pos] {
        &self.city_centers
    }

    /// Scan from `pos`: the best candidate cell per RAT in `rats`, for the
    /// device's subscribed ISP, with salt-0 persistent shadowing plus fresh
    /// fast fading per candidate (see [`Self::scan_salted`]).
    #[cfg(test)]
    pub(crate) fn scan(&self, pos: Pos, isp: Isp, rats: RatSet, rng: &mut SimRng) -> Vec<CellView> {
        self.scan_salted(pos, isp, rats, 0, rng)
    }

    /// Scan with a per-device shadowing salt: the slow log-normal shadowing
    /// of each (device, BS) link is *persistent* (hashed from the salt and
    /// the BS index), with a small fast-fading jitter drawn from `rng`.
    /// Persistent shadowing is what keeps repeated scans of a stationary
    /// device coherent — without it, cell levels flicker scan-to-scan and
    /// every RAT policy degenerates into handover churn.
    ///
    /// A device that scans repeatedly from one position builds its
    /// [`Links`] once and calls [`Links::scan`] instead: the result and the
    /// draws taken from `rng` are the same.
    pub fn scan_salted(
        &self,
        pos: Pos,
        isp: Isp,
        rats: RatSet,
        salt: u64,
        rng: &mut SimRng,
    ) -> Vec<CellView> {
        self.links(pos, isp, rats, salt).scan(rng)
    }

    /// Everything a scan from `pos` computes that does not change from one
    /// scan to the next: every BS of `isp` within scan range that radiates
    /// one of `rats`, in grid order, with its distance loss, persistent
    /// shadowing and per-RAT transmit power. Draws nothing from any RNG.
    pub fn links(&self, pos: Pos, isp: Isp, rats: RatSet, salt: u64) -> Links {
        let near = self
            .grid
            .query_within(pos, SCAN_RADIUS_KM, |j| self.bses[j as usize].pos);
        let links = near
            .into_iter()
            .filter_map(|j| {
                let bs = &self.bses[j as usize];
                let usable = bs.rats.intersection(rats);
                if bs.isp != isp || usable.is_empty() {
                    return None;
                }
                let mut tx_dbm = [0.0; 4];
                for rat in usable.iter() {
                    tx_dbm[rat.index()] = bs.tx_power_dbm - propagation::rat_clutter_db(rat);
                }
                Some(Link {
                    bs: BsIndex(j),
                    usable,
                    stable_shadow: stable_std_normal(salt, j),
                    path_loss_db: propagation::path_loss_db(
                        bs.pos.distance_km(pos),
                        bs.freq_mhz,
                        bs.env,
                    ),
                    sigma_db: bs.env.shadowing_sigma_db(),
                    tx_dbm,
                })
            })
            .collect();
        Links { links }
    }

    /// Risk assessment for a candidate cell.
    pub fn risk(&self, cell: &CellView) -> RiskFactors {
        RiskFactors::assess(self.bs(cell.bs), cell.rat, cell.level)
    }
}

/// Cells below this RSS are not detected at all. The floor sits well under
/// the level-1 thresholds so that a cell can be *detectable yet level-0* —
/// the band where Android 10's blind 5G preference does its damage (§3.2).
const DETECTION_FLOOR_DBM: f64 = -142.0;

/// The links a scan from one position draws, from
/// [`RadioEnvironment::links`]. Only fast fading differs between two scans
/// of the same `Links`, so a device keeps them for as long as it stays put.
#[derive(Debug, Clone)]
pub struct Links {
    links: Vec<Link>,
}

/// One (device, BS) link: the per-position terms of its received power.
#[derive(Debug, Clone, Copy)]
struct Link {
    bs: BsIndex,
    /// The RATs both ends support; never empty.
    usable: RatSet,
    /// The persistent shadowing draw, `stable_std_normal(salt, bs)`.
    stable_shadow: f64,
    /// Deterministic path loss over the link's distance.
    path_loss_db: f64,
    /// The BS environment's shadowing sigma.
    sigma_db: f64,
    /// Transmit power less the RAT's clutter loss, by `Rat::index`.
    tx_dbm: [f64; 4],
}

impl Links {
    /// One scan: a fast-fading draw per link, in grid order, then the best
    /// detectable cell per RAT.
    pub fn scan(&self, rng: &mut SimRng) -> Vec<CellView> {
        let mut candidates = Vec::new();
        for link in &self.links {
            let shadow = 0.85 * link.stable_shadow + 0.15 * rng.std_normal();
            let loss_db = link.path_loss_db + shadow * link.sigma_db;
            for rat in link.usable.iter() {
                let rss = RssDbm(link.tx_dbm[rat.index()] - loss_db);
                if rss.dbm() < DETECTION_FLOOR_DBM {
                    continue;
                }
                candidates.push(CellView::new(link.bs, rat, rss));
            }
        }
        best_per_rat(&candidates)
    }
}

/// Deterministic standard-normal draw for a (device-salt, BS) link — the
/// persistent part of the link's shadowing.
fn stable_std_normal(salt: u64, bs: u32) -> f64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let h1 = mix(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ bs as u64);
    let h2 = mix(h1 ^ 0xD1B5_4A32_D192_ED03);
    let u1 = ((h1 >> 11) as f64 / (1u64 << 53) as f64).max(f64::MIN_POSITIVE);
    let u2 = (h2 >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Place one site according to its environment class.
fn place_site(
    env: Environment,
    cfg: &DeploymentConfig,
    cities: &[Pos],
    hubs: &[Pos],
    rng: &mut SimRng,
) -> Pos {
    let spread = |center: Pos, sigma: f64, rng: &mut SimRng| {
        center
            .offset(rng.normal(0.0, sigma), rng.normal(0.0, sigma))
            .clamped(cfg.region_km)
    };
    match env {
        Environment::TransportHub => {
            let hub = if hubs.is_empty() {
                *rng.choose(cities)
            } else {
                *rng.choose(hubs)
            };
            spread(hub, env.typical_site_spacing_km(), rng)
        }
        Environment::UrbanCore => spread(*rng.choose(cities), 1.2, rng),
        Environment::Urban => spread(*rng.choose(cities), 3.0, rng),
        Environment::Suburban => spread(*rng.choose(cities), 7.0, rng),
        Environment::Rural | Environment::Remote => Pos::new(
            rng.range_f64(0.0, cfg.region_km),
            rng.range_f64(0.0, cfg.region_km),
        ),
    }
}

/// Draw the RAT support set for a site from a profile mix whose marginals
/// hit the paper's shares (2G 23.4 %, 3G 10.2 %, 4G 65.2 %, 5G 7.3 %).
///
/// The paper's shares sum to 106.1 %, i.e. the average site radiates 1.061
/// RATs — multi-RAT sites are the minority, and we attribute that overlap
/// to 4G+5G co-deployment (5G NSA anchoring on LTE). 5G rollout is
/// restricted to dense environments; the in-city 5G weight is scaled up so
/// the *population* share still matches.
fn draw_rat_support(cfg: &DeploymentConfig, env: Environment, rng: &mut SimRng) -> RatSet {
    let [p2, p3, p4, p5] = cfg.rat_support;
    // Split the 5G mass between 4G-anchored (84 %) and standalone (16 %)
    // sites so that total support mass stays at the configured marginals.
    let w45 = p5 * 0.84;
    let w5o = p5 * 0.16;

    let dense = matches!(
        env,
        Environment::UrbanCore | Environment::Urban | Environment::TransportHub
    );
    let city_share: f64 = [
        Environment::UrbanCore,
        Environment::Urban,
        Environment::TransportHub,
    ]
    .iter()
    .map(|e| e.deployment_share())
    .sum();

    // Per-environment profile weights: [2G], [3G], [4G], [4G+5G], [5G].
    let (w45_env, w5o_env) = if dense {
        (w45 / city_share, w5o / city_share)
    } else {
        (0.0, 0.0)
    };
    let w4_env = (p4 - w45_env).max(0.0);
    let weights = [p2, p3, w4_env, w45_env, w5o_env];

    match rng.weighted_index(&weights) {
        0 => RatSet::from_slice(&[Rat::G2]),
        1 => RatSet::from_slice(&[Rat::G3]),
        2 => RatSet::from_slice(&[Rat::G4]),
        3 => RatSet::from_slice(&[Rat::G4, Rat::G5]),
        _ => RatSet::from_slice(&[Rat::G5]),
    }
}

/// Per-ISP carrier frequency with band offsets per highest supported RAT.
fn carrier_frequency(isp: Isp, rats: RatSet, rng: &mut SimRng) -> f64 {
    let base = isp.median_freq_mhz();
    let band_offset = match rats.highest() {
        Some(Rat::G5) => 300.0,
        Some(Rat::G4) => 0.0,
        Some(Rat::G3) => -120.0,
        _ => -600.0,
    };
    base + band_offset + rng.normal(0.0, 40.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn env_with_seed(seed: u64) -> RadioEnvironment {
        let mut rng = SimRng::new(seed);
        RadioEnvironment::generate(DeploymentConfig::default(), &mut rng)
    }

    /// The oracle for [`Links::scan`]: one scan that redoes the grid query,
    /// the distance, the persistent shadowing and the path loss per BS.
    fn scan_per_bs(
        env: &RadioEnvironment,
        pos: Pos,
        isp: Isp,
        rats: RatSet,
        salt: u64,
        rng: &mut SimRng,
    ) -> Vec<CellView> {
        let mut candidates = Vec::new();
        let near = env
            .grid
            .query_within(pos, SCAN_RADIUS_KM, |j| env.bses[j as usize].pos);
        for j in near {
            let bs = &env.bses[j as usize];
            if bs.isp != isp {
                continue;
            }
            let d = bs.pos.distance_km(pos);
            let usable = bs.rats.intersection(rats);
            if usable.is_empty() {
                continue;
            }
            let shadow = 0.85 * stable_std_normal(salt, j) + 0.15 * rng.std_normal();
            for rat in usable.iter() {
                let tx = bs.tx_power_dbm - propagation::rat_clutter_db(rat);
                let rss = propagation::received_rss(tx, d, bs.freq_mhz, bs.env, shadow);
                if rss.dbm() < -142.0 {
                    continue;
                }
                candidates.push(CellView::new(BsIndex(j), rat, rss));
            }
        }
        best_per_rat(&candidates)
    }

    fn small_env() -> &'static RadioEnvironment {
        static ENV: OnceLock<RadioEnvironment> = OnceLock::new();
        ENV.get_or_init(|| {
            RadioEnvironment::generate(DeploymentConfig::small(), &mut SimRng::new(5))
        })
    }

    proptest! {
        #[test]
        fn cached_links_scan_exactly_as_the_per_bs_loop(
            place in 0usize..3,
            corner in 0usize..4,
            fx in 0.0f64..1.0,
            fy in 0.0f64..1.0,
            isp in prop::sample::select(Isp::ALL.to_vec()),
            mask in 0u8..16,
            salt in prop::sample::select(vec![0, 1, u64::MAX]),
            scans in 1usize..6,
            seed in any::<u64>(),
        ) {
            let env = small_env();
            let size = DeploymentConfig::small().region_km;
            let pos = match place {
                // Inside the map.
                0 => Pos::new(fx * size, fy * size),
                // On one of its corners.
                1 => Pos::new((corner & 1) as f64 * size, (corner >> 1) as f64 * size),
                // Up to one scan radius outside it.
                _ => Pos::new(-fx * SCAN_RADIUS_KM, size + fy * SCAN_RADIUS_KM),
            };
            let rats: RatSet = Rat::ALL
                .into_iter()
                .filter(|r| mask & (1 << r.index()) != 0)
                .collect();
            let links = env.links(pos, isp, rats, salt);
            let mut cached = SimRng::new(seed);
            let mut oracle = SimRng::new(seed);
            for _ in 0..scans {
                let got = links.scan(&mut cached);
                let want = scan_per_bs(env, pos, isp, rats, salt, &mut oracle);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.bs, w.bs);
                    prop_assert_eq!(g.rat, w.rat);
                    prop_assert_eq!(g.level, w.level);
                    prop_assert_eq!(g.rss.dbm().to_bits(), w.rss.dbm().to_bits());
                }
            }
            // Both drew the same number of times: the streams still agree.
            prop_assert_eq!(cached.f64().to_bits(), oracle.f64().to_bits());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = env_with_seed(1);
        let b = env_with_seed(1);
        assert_eq!(a.bs_count(), b.bs_count());
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.isp, y.isp);
            assert_eq!(x.rats, y.rats);
        }
    }

    #[test]
    fn isp_shares_approximate_paper() {
        let env = env_with_seed(2);
        let n = env.bs_count() as f64;
        for isp in Isp::ALL {
            let share = env.iter().filter(|(_, b)| b.isp == isp).count() as f64 / n;
            // Hubs draw uniformly, so tolerate a few points of drift.
            assert!(
                (share - isp.bs_share()).abs() < 0.06,
                "{isp}: share {share} vs {}",
                isp.bs_share()
            );
        }
    }

    #[test]
    fn rat_support_approximates_paper() {
        let env = env_with_seed(3);
        let n = env.bs_count() as f64;
        let expected = [0.234, 0.102, 0.652, 0.073];
        for rat in Rat::ALL {
            let share = env.iter().filter(|(_, b)| b.rats.contains(rat)).count() as f64 / n;
            let target = expected[rat.index()];
            assert!(
                (share - target).abs() < 0.05,
                "{rat}: share {share} vs {target}"
            );
        }
        // No site is RAT-less.
        assert!(env.iter().all(|(_, b)| !b.rats.is_empty()));
    }

    #[test]
    fn hubs_are_dense_multi_isp() {
        let env = env_with_seed(4);
        let hub_density: f64 = {
            let hubs: Vec<_> = env
                .iter()
                .filter(|(_, b)| b.env == Environment::TransportHub)
                .collect();
            assert!(!hubs.is_empty());
            hubs.iter()
                .map(|(_, b)| b.neighbor_count as f64)
                .sum::<f64>()
                / hubs.len() as f64
        };
        let rural_density: f64 = {
            let rural: Vec<_> = env
                .iter()
                .filter(|(_, b)| b.env == Environment::Rural)
                .collect();
            rural
                .iter()
                .map(|(_, b)| b.neighbor_count as f64)
                .sum::<f64>()
                / rural.len().max(1) as f64
        };
        assert!(
            hub_density > rural_density * 3.0,
            "hub {hub_density} vs rural {rural_density}"
        );
        // Hub sites have close cross-ISP neighbours in frequency.
        let hub_gaps: Vec<f64> = env
            .iter()
            .filter(|(_, b)| b.env == Environment::TransportHub)
            .map(|(_, b)| b.min_cross_isp_gap_mhz)
            .filter(|g| g.is_finite())
            .collect();
        assert!(!hub_gaps.is_empty(), "hubs must see cross-ISP neighbours");
    }

    #[test]
    fn scan_finds_cells_in_city() {
        let env = env_with_seed(5);
        let mut rng = SimRng::new(99);
        let city = env.city_centers()[0];
        for isp in Isp::ALL {
            let views = env.scan(city, isp, RatSet::up_to(Rat::G4), &mut rng);
            assert!(!views.is_empty(), "no cells for {isp} at city centre");
            for v in &views {
                assert_eq!(env.bs(v.bs).isp, isp);
                assert!(env.bs(v.bs).rats.contains(v.rat));
            }
        }
    }

    #[test]
    fn scan_respects_rat_filter() {
        let env = env_with_seed(6);
        let mut rng = SimRng::new(100);
        let city = env.city_centers()[0];
        let views = env.scan(city, Isp::A, RatSet::from_slice(&[Rat::G4]), &mut rng);
        assert!(views.iter().all(|v| v.rat == Rat::G4));
    }

    #[test]
    fn fiveg_only_in_dense_environments() {
        let env = env_with_seed(7);
        for (_, b) in env.iter() {
            if b.rats.contains(Rat::G5) {
                assert!(matches!(
                    b.env,
                    Environment::UrbanCore | Environment::Urban | Environment::TransportHub
                ));
            }
        }
    }

    #[test]
    fn risk_of_scanned_cell_is_consistent() {
        let env = env_with_seed(8);
        let mut rng = SimRng::new(101);
        let city = env.city_centers()[0];
        let views = env.scan(city, Isp::A, RatSet::up_to(Rat::G5), &mut rng);
        for v in views {
            let r = env.risk(&v);
            assert!(r.setup_failure_prob() > 0.0 && r.setup_failure_prob() <= 0.95);
        }
    }
}
