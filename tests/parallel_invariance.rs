//! Thread-count invariance of the parallel fleet drivers.
//!
//! The headline guarantee of the `par` + substream design: the sharded
//! macro study and the micro A/B arms produce **byte-identical** output at
//! any thread count, because every device draws from a substream derived
//! from `(root_seed, device_id)` alone and shard partials merge in shard
//! order.

use cellrel::analysis::streaming::FleetAccumulator;
use cellrel::sim::{Merge, MetricsRegistry};
use cellrel::telephony::RatPolicyKind;
use cellrel::types::{FailureEvent, SimDuration, SimTime};
use cellrel::workload::{
    ab, run_fleet_metrics, run_macro_study_parallel, AbConfig, PopulationConfig, StudyConfig,
};
use proptest::prelude::*;

fn small_cfg() -> StudyConfig {
    StudyConfig {
        population: PopulationConfig {
            devices: 2_000,
            ..Default::default()
        },
        bs_count: 1_500,
        seed: 424_242,
        ..Default::default()
    }
}

#[test]
fn macro_study_events_are_identical_across_thread_counts() {
    let cfg = small_cfg();
    let (_, base_counts, _, base_events) =
        run_macro_study_parallel::<Vec<FailureEvent>, _>(&cfg, 1, Vec::new);
    assert!(!base_events.is_empty());
    for threads in [2usize, 8] {
        let (_, counts, _, events) = run_macro_study_parallel(&cfg, threads, Vec::new);
        assert_eq!(counts, base_counts, "per-device counts, threads={threads}");
        assert_eq!(events, base_events, "event stream, threads={threads}");
    }
}

#[test]
fn fleet_accumulator_sums_are_identical_across_thread_counts() {
    let cfg = small_cfg();
    let (_, _, _, base) = run_macro_study_parallel(&cfg, 1, FleetAccumulator::new);
    assert!(base.agg.records > 0);
    for threads in [2usize, 8] {
        let (_, _, _, acc) = run_macro_study_parallel(&cfg, threads, FleetAccumulator::new);
        assert_eq!(acc.agg, base.agg, "threads={threads}");
        assert_eq!(
            acc.duration_ms_by_kind, base.duration_ms_by_kind,
            "duration sums, threads={threads}"
        );
        assert_eq!(acc.oos_devices, base.oos_devices, "threads={threads}");
    }
}

// ---- observability-layer invariance --------------------------------------

/// Metric-name pool for the merge-algebra properties (metric labels are
/// `&'static str` by design).
const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Build a registry (with tracing on) from an arbitrary op list: counter
/// adds, gauge deltas, histogram observations and trace spans/instants.
fn registry_from_ops(ops: &[(u8, u8, u64)]) -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    r.enable_trace();
    for &(kind, name, v) in ops {
        let name = NAMES[name as usize % NAMES.len()];
        match kind % 5 {
            0 => r.add(name, v % 10_000),
            1 => r.gauge_add(name, (v % 2_001) as i64 - 1_000),
            2 => r.observe(name, v),
            3 => {
                let start = SimTime::from_millis(v % 1_000_000);
                r.record_complete(
                    name,
                    start,
                    start + SimDuration::from_millis(v % 5_000),
                    v % 7,
                );
            }
            _ => r.record_instant(name, SimTime::from_millis(v % 1_000_000), v % 7),
        }
    }
    r
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..60)
}

fn merged(a: &MetricsRegistry, b: &MetricsRegistry) -> MetricsRegistry {
    let mut m = a.clone();
    m.merge(b.clone());
    m
}

proptest! {
    /// `MetricsRegistry::merge` is commutative and associative on arbitrary
    /// registries — the property that makes fleet metrics independent of
    /// shard layout and merge-tree shape.
    #[test]
    fn metrics_snapshot_merge_is_commutative_and_associative(
        a_ops in ops_strategy(),
        b_ops in ops_strategy(),
        c_ops in ops_strategy(),
    ) {
        let a = registry_from_ops(&a_ops);
        let b = registry_from_ops(&b_ops);
        let c = registry_from_ops(&c_ops);
        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.digest(), ba.digest());
        let ab_c = merged(&ab, &c);
        let a_bc = merged(&a, &merged(&b, &c));
        prop_assert_eq!(&ab_c, &a_bc);
        prop_assert_eq!(ab_c.digest(), a_bc.digest());
    }

    /// Registry-level merge agrees with recording everything into a single
    /// registry when the merge order matches emission order (the parallel
    /// drivers fold shards in shard order).
    #[test]
    fn split_registries_merge_to_the_whole(
        ops in ops_strategy(),
        split in 0usize..60,
    ) {
        let whole = registry_from_ops(&ops);
        let cut = split.min(ops.len());
        let mut left = registry_from_ops(&ops[..cut]);
        left.merge(registry_from_ops(&ops[cut..]));
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(left.digest(), whole.digest());
    }

    /// On random fleets, per-shard fleet-metrics registries folded across
    /// any thread count equal the single-thread registry bit-for-bit.
    #[test]
    fn fleet_metrics_shards_equal_single_thread(
        devices in 60usize..300,
        seed in 0u64..1_000,
        threads in 2usize..9,
    ) {
        let cfg = StudyConfig {
            seed,
            population: PopulationConfig {
                devices,
                ..Default::default()
            },
            bs_count: 300,
            ..Default::default()
        };
        let (base, _) = run_fleet_metrics(&cfg, 1, true);
        let (sharded, _) = run_fleet_metrics(&cfg, threads, true);
        prop_assert_eq!(&sharded, &base);
        prop_assert_eq!(sharded.digest(), base.digest());
    }
}

#[test]
fn ab_arm_is_identical_across_thread_counts() {
    let base_cfg = AbConfig {
        devices: 6,
        days: 1,
        seed: 31,
        stall_rate_per_hour: 3.0,
        suppress_user_reset: false,
        threads: 1,
    };
    let base = ab::run_custom_arm(RatPolicyKind::Android10, &base_cfg);
    assert!(base.frequency > 0.0);
    for threads in [2usize, 8] {
        let cfg = AbConfig {
            threads,
            ..base_cfg
        };
        let o = ab::run_custom_arm(RatPolicyKind::Android10, &cfg);
        assert_eq!(o.by_kind, base.by_kind, "threads={threads}");
        assert_eq!(o.stall_durations, base.stall_durations, "threads={threads}");
        assert_eq!(
            o.total_duration_secs, base.total_duration_secs,
            "threads={threads}"
        );
        assert_eq!(o.prevalence, base.prevalence, "threads={threads}");
        assert_eq!(o.frequency, base.frequency, "threads={threads}");
    }
}
