//! Property-based tests for the radio substrate.

use cellrel_device::{
    coverage_radius_km, path_loss_db, range_for_rss, received_rss, BaseStation, Environment,
    GridIndex, Pos, RiskFactors,
};
use cellrel_types::{BsId, Isp, Rat, RatSet, SignalLevel};
use proptest::prelude::*;

fn env_strategy() -> impl Strategy<Value = Environment> {
    prop::sample::select(Environment::ALL.to_vec())
}

fn rat_strategy() -> impl Strategy<Value = Rat> {
    prop::sample::select(Rat::ALL.to_vec())
}

proptest! {
    #[test]
    fn path_loss_monotone_in_distance(
        env in env_strategy(),
        freq in 800.0f64..3600.0,
        d1 in 0.01f64..30.0,
        d2 in 0.01f64..30.0,
    ) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(path_loss_db(lo, freq, env) <= path_loss_db(hi, freq, env) + 1e-9);
    }

    #[test]
    fn path_loss_monotone_in_frequency(
        env in env_strategy(),
        d in 0.05f64..20.0,
        f1 in 800.0f64..3600.0,
        f2 in 800.0f64..3600.0,
    ) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(path_loss_db(d, lo, env) <= path_loss_db(d, hi, env) + 1e-9);
    }

    #[test]
    fn range_inverts_received_rss(
        env in env_strategy(),
        freq in 800.0f64..3600.0,
        target in -130.0f64..-70.0,
    ) {
        let tx = 46.0;
        let d = range_for_rss(tx, target, freq, env);
        // At 1 m the model clamps; only check ranges beyond the clamp.
        prop_assume!(d > 0.0011);
        let rss = received_rss(tx, d, freq, env, 0.0);
        prop_assert!((rss.dbm() - target).abs() < 0.1, "target {target}, got {rss}");
    }

    #[test]
    fn coverage_shrinks_with_generation_clutter(
        env in env_strategy(),
        freq in 800.0f64..3600.0,
    ) {
        // Higher-generation clutter penalties can only shrink coverage.
        let mut last = f64::INFINITY;
        for rat in Rat::ALL {
            let r = coverage_radius_km(46.0, freq, env, rat);
            prop_assert!(r > 0.0);
            // 2G has the laxest edge threshold relative to clutter; the
            // invariant we rely on is 5G ≤ 4G specifically.
            if rat == Rat::G4 {
                last = r;
            }
            if rat == Rat::G5 {
                prop_assert!(r <= last + 1e-9, "5G coverage exceeds 4G");
            }
        }
    }

    #[test]
    fn grid_query_matches_brute_force(
        points in prop::collection::vec((0.0f64..20.0, 0.0f64..20.0), 1..60),
        qx in 0.0f64..20.0,
        qy in 0.0f64..20.0,
        radius in 0.1f64..8.0,
    ) {
        let positions: Vec<Pos> = points.iter().map(|&(x, y)| Pos::new(x, y)).collect();
        let mut grid = GridIndex::new(20.0, 1.0);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(p, i as u32);
        }
        let q = Pos::new(qx, qy);
        let mut got = grid.query_within(q, radius, |i| positions[i as usize]);
        got.sort_unstable();
        let mut expected: Vec<u32> = positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_km(q) <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn risk_probabilities_always_valid(
        neighbors in 0u32..200,
        gap in prop::option::of(0.0f64..500.0),
        load in 0.0f64..1.0,
        env in env_strategy(),
        rat in rat_strategy(),
        level in 0u8..=5,
    ) {
        let bs = BaseStation {
            id: BsId::gsm_cn(0, 1, 1),
            isp: Isp::A,
            rats: RatSet::up_to(Rat::G5),
            freq_mhz: 1900.0,
            pos: Pos::new(0.0, 0.0),
            env,
            tx_power_dbm: 46.0,
            load,
            neighbor_count: neighbors,
            min_cross_isp_gap_mhz: gap.unwrap_or(f64::INFINITY),
            in_disrepair: false,
        };
        let risk = RiskFactors::assess(&bs, rat, SignalLevel::new(level));
        prop_assert!((0.0..=1.0).contains(&risk.interference));
        prop_assert!((0.0..=1.0).contains(&risk.emm_pressure));
        prop_assert!((0.0..=1.0).contains(&risk.overload_prob));
        prop_assert!((0.0..=0.95).contains(&risk.setup_failure_prob()));
        prop_assert!(risk.stall_rate_multiplier() >= 1.0);
        prop_assert!(risk.out_of_service_hazard() > 0.0);
    }

    #[test]
    fn denser_sites_are_never_safer(
        n1 in 0u32..100,
        n2 in 0u32..100,
        level in 0u8..=5,
    ) {
        let site = |n: u32| BaseStation {
            id: BsId::gsm_cn(0, 1, 1),
            isp: Isp::B,
            rats: RatSet::up_to(Rat::G5),
            freq_mhz: 2370.0,
            pos: Pos::new(0.0, 0.0),
            env: Environment::TransportHub,
            tx_power_dbm: 43.0,
            load: 0.8,
            neighbor_count: n,
            min_cross_isp_gap_mhz: 10.0,
            in_disrepair: false,
        };
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let p_lo = RiskFactors::assess(&site(lo), Rat::G4, SignalLevel::new(level))
            .setup_failure_prob();
        let p_hi = RiskFactors::assess(&site(hi), Rat::G4, SignalLevel::new(level))
            .setup_failure_prob();
        prop_assert!(p_hi + 1e-12 >= p_lo, "density lowered risk: {p_lo} -> {p_hi}");
    }
}
