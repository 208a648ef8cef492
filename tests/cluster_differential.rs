//! Cluster scatter-gather differential suite: a federated query through
//! the sharded, replicated tier versus the same query on one single-node
//! store holding every record, compared for **byte-identical** answers on
//! the seed-2021 fleet.
//!
//! Layouts under test: 1, 2, and 4 shards (each with one follower
//! replica), queried through the leader routers *and* the follower
//! routers. Coverage is the canonical 11-query bench workload plus
//! proptest-generated random queries — legal and illegal alike, so
//! validation errors must agree too. At one shard the entire `ResultSet`
//! (scan accounting included) must match; at higher shard counts rows,
//! labels, and values must match while `cells_scanned`/`cells_matched`
//! are additive across shards (the same cell key can exist on several
//! shards for different devices — the precedent is the store layouts'
//! scan-counter caveat in `store_differential.rs`).

use std::sync::OnceLock;

use cellrel::analysis::store_tables::{table1_from_store, table2_from_store};
use cellrel::cluster::{shard_directories, Cluster, ClusterConfig, ClusterError, ClusterRouter};
use cellrel::store::{
    workload, DeviceDirectory, Dim, Filter, Metric, Query, Region, Store, StoreConfig,
};
use cellrel::stream::{batches_from_events, MemSegments, StreamConfig, StreamPipeline};
use cellrel::types::{DataFailCause, FailureKind, FailureLayer, Isp, PhoneModelId, Rat};
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};
use proptest::prelude::*;

/// Rollup granularity of the default store config (one week).
const WEEK_MS: u64 = 7 * 86_400_000;

/// The shard counts every query must answer identically at.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

struct Fixture {
    /// The single-node reference: one sealed store over every record.
    reference: Store,
    /// Leader-tier routers at 1, 2, and 4 shards.
    routers: Vec<ClusterRouter>,
    /// Follower-tier routers at 1, 2, and 4 shards.
    follower_routers: Vec<ClusterRouter>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = run_macro_study(&StudyConfig {
            seed: 2021,
            population: PopulationConfig {
                devices: 1_000,
                ..Default::default()
            },
            days: 14,
            bs_count: 500,
        });
        let dir = DeviceDirectory::from_population(&data.population);
        let batches = batches_from_events(&data.events, 48);
        let scfg = StreamConfig {
            window_ms: 86_400_000,
            lateness_ms: 2 * 3_600_000,
            hot_windows: 3,
            late_flush: 512,
            ..Default::default()
        };

        // Reference: one pipeline over the whole fleet, sealed the same
        // way serving snapshots are.
        let mut single = StreamPipeline::new(&scfg, &dir).expect("single pipeline");
        let mut segs = MemSegments::new();
        for b in &batches {
            single.offer(b, &mut segs).expect("offer");
        }
        single.flush(&mut segs).expect("flush");
        let reference_digest = single.digest();
        let reference = single.store();

        let mut routers = Vec::new();
        let mut follower_routers = Vec::new();
        for shards in SHARD_COUNTS {
            let dirs: &'static [DeviceDirectory] =
                Box::leak(shard_directories(&dir, shards).into_boxed_slice());
            let ccfg = ClusterConfig {
                shards,
                replicas: 1,
                checkpoint_every: 4,
            };
            let mut cluster = Cluster::new(&scfg, &ccfg, dirs).expect("cluster");
            for b in &batches {
                cluster.offer(b).expect("offer");
            }
            cluster.flush().expect("flush");
            cluster.publish();
            // Identity of the merged content, before any query runs.
            assert_eq!(
                cluster.digest(),
                reference_digest,
                "{shards}-shard merged store must be digest-identical to single-node"
            );
            let router = cluster.router();
            assert_eq!(router.fan_out(), shards);
            follower_routers.push(cluster.follower_router().expect("replicas exist"));
            routers.push(router);
            // The cluster is dropped here; routers stay live on the
            // published Arc snapshots — snapshot isolation outliving the
            // writer is part of the serving contract.
        }
        Fixture {
            reference,
            routers,
            follower_routers,
        }
    })
}

/// Rows, labels, and values must be byte-identical at every shard count;
/// the full result set (accounting included) must match at one shard, and
/// accounting must stay additive (≥ reference never holds: identical or
/// larger-by-collision is wrong to assume — we pin exact row equality and
/// check the 1-shard accounting exactly).
fn assert_cluster_agrees(q: &Query) {
    let fx = fixture();
    let reference = fx.reference.query(q);
    for (i, shards) in SHARD_COUNTS.iter().enumerate() {
        for (tier, router) in [
            ("leader", &fx.routers[i]),
            ("follower", &fx.follower_routers[i]),
        ] {
            let routed = router.query(q);
            match (&reference, routed) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(
                        got.result.rows, want.rows,
                        "{shards}-shard {tier} rows: {q:?}"
                    );
                    assert_eq!(got.result.group_by, want.group_by);
                    assert_eq!(got.result.metric, want.metric);
                    if *shards == 1 && tier == "leader" {
                        // Full identity, accounting included: one shard's
                        // leader serves the pipeline's own merged store.
                        // Follower stores replay raw segment deltas and so
                        // carry an uncompacted physical layout — rows are
                        // identical but scan counters legitimately differ,
                        // exactly as across layouts in store_differential.
                        assert_eq!(
                            got.result, *want,
                            "1-shard {tier} answers must be fully identical: {q:?}"
                        );
                    }
                    assert_eq!(got.epochs.len(), *shards);
                }
                (Err(want), Err(ClusterError::Query(detail))) => {
                    assert_eq!(
                        detail,
                        want.to_string(),
                        "{shards}-shard {tier} error: {q:?}"
                    );
                }
                (want, got) => {
                    panic!("{shards}-shard {tier} disagree on {q:?}: {want:?} vs {got:?}")
                }
            }
        }
    }
}

#[test]
fn workload_queries_are_cluster_identical_on_the_fleet() {
    for (name, q) in workload::canonical(WEEK_MS) {
        assert_cluster_agrees(&q);
        let fx = fixture();
        assert!(
            fx.reference.query(&q).is_ok(),
            "canonical workload query {name} must be legal"
        );
    }
    // Federated Tables 1/2 render byte-identically to the single-node
    // store's, at every shard count and through both tiers.
    let fx = fixture();
    let t1 = table1_from_store(&fx.reference)
        .expect("valid query")
        .render();
    let t2 = table2_from_store(&fx.reference, 10)
        .expect("valid query")
        .render();
    for router in fx.routers.iter().chain(&fx.follower_routers) {
        let (r1, r2) = router.tables(10).expect("valid queries");
        assert_eq!(r1.render(), t1, "{}-shard Table 1", router.fan_out());
        assert_eq!(r2.render(), t2, "{}-shard Table 2", router.fan_out());
    }
}

/// One filter's raw material (see `store_differential.rs` for the idiom;
/// tuple arity ≤ 5 because of the vendored proptest).
type FilterParts = (usize, u64, u64);

fn build_filter((tag, a, b): &FilterParts) -> Filter {
    let (a, b) = (*a, *b);
    match tag % 9 {
        0 => Filter::Kind(FailureKind::from_index(a as usize % 5).expect("kind < 5")),
        1 => Filter::Isp(Isp::from_index(a as usize % 3).expect("isp < 3")),
        2 => Filter::Rat(Rat::from_index(a as usize % 4).expect("rat < 4")),
        3 => Filter::Model(PhoneModelId((a % 24) as u8)),
        4 => Filter::Region(Region::from_index(a as usize % 3).expect("region < 3")),
        5 => Filter::CauseClass(FailureLayer::from_index(a as usize % 5).expect("layer < 5")),
        6 => Filter::Cause(DataFailCause::from_code((a % 64) as i32 - 8)),
        7 => Filter::HasCause,
        _ => {
            let lo = (a % 28) * 86_400_000;
            let hi = (b % 28) * 86_400_000;
            Filter::TimeRange {
                start_ms: lo.min(hi),
                end_ms: lo.max(hi) + WEEK_MS,
            }
        }
    }
}

/// Query material: filters, group-by dims, window selector, metric
/// selector + quantile, top_k. Deliberately includes illegal queries
/// (duplicate dims, misaligned windows) — federated validation errors
/// must match single-node ones.
type QueryParts = (Vec<FilterParts>, Vec<usize>, u64, (usize, u64), usize);

fn parts_strategy() -> impl Strategy<Value = QueryParts> {
    (
        prop::collection::vec((0usize..9, 0u64..4_096, 0u64..4_096), 0..4),
        prop::collection::vec(0usize..8, 0..4),
        0u64..5,
        (0usize..8, 0u64..1_000),
        0usize..12,
    )
}

fn build_query(p: &QueryParts) -> Query {
    let (filters, dims, window_sel, (metric_tag, quant), top_k) = p;
    let metric = match metric_tag % 8 {
        0 => Metric::Count,
        1 => Metric::DurationTotalMs,
        2 => Metric::MeanDurationMs,
        3 => Metric::MaxDurationMs,
        4 => Metric::Under30sShare,
        5 => Metric::QuantileMs(*quant as f64 / 1_000.0),
        6 => Metric::Devices,
        _ => Metric::FailingDevices,
    };
    Query {
        filters: filters.iter().map(build_filter).collect(),
        group_by: dims
            .iter()
            .map(|i| Dim::from_index(i % 8).expect("dim < 8"))
            .collect(),
        // 0 = whole study; the rest are rollup-aligned or deliberately not.
        window_ms: [0, WEEK_MS, 2 * WEEK_MS, 86_400_000, 12 * 3_600_000]
            [(*window_sel % 5) as usize],
        metric,
        top_k: *top_k,
    }
}

proptest! {
    /// Random queries — legal or not — answer identically through every
    /// router tier and shard count. 128 cases × a batch of 3–5 queries
    /// ≥ 384 federated queries per run, on top of the canonical 11.
    #[test]
    fn random_queries_are_cluster_identical(batch in prop::collection::vec(parts_strategy(), 3..6)) {
        for p in &batch {
            assert_cluster_agrees(&build_query(p));
        }
    }
}

/// The store config the reference fixture uses must stay the default the
/// shard pipelines use, or the differential comparison would be vacuous.
#[test]
fn fixture_configs_agree() {
    assert_eq!(StreamConfig::default().store, StoreConfig::default());
}
