//! Differential scan-equivalence suite: the columnar segment engine
//! (`Store::query`) versus the row reference engine (`Store::query_row`),
//! compared for **byte-identical** `ResultSet`s — rows, labels, and the
//! `cells_scanned` / `cells_matched` accounting — on the seed-2021 fleet.
//!
//! Three store layouts are exercised for every query: the as-built hot
//! (row-tier) store, the compacted store (rolled-up sealed segments + hot
//! edge buckets), and the fully sealed store (everything columnar, the
//! stream/queryd snapshot shape). Coverage is the canonical 11-query
//! bench workload plus proptest-generated random queries — legal and
//! illegal alike, so validation errors must agree too — with the fleet
//! built at 1, 2 and 8 threads to pin thread invariance of the layouts.

use std::sync::OnceLock;

use cellrel::store::{
    build_sharded, workload, DeviceDirectory, Dim, Filter, Metric, Query, Region, Store,
    StoreConfig,
};
use cellrel::types::{DataFailCause, FailureKind, FailureLayer, Isp, PhoneModelId, Rat};
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};
use proptest::prelude::*;

/// Rollup granularity of the default store config (one week).
const WEEK_MS: u64 = 7 * 86_400_000;

/// The three layouts a query must answer identically on: hot rows only,
/// compacted (sealed rollup segments + hot edge), and fully sealed.
fn layouts() -> &'static [Store; 3] {
    static LAYOUTS: OnceLock<[Store; 3]> = OnceLock::new();
    LAYOUTS.get_or_init(|| {
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
        let cfg = StoreConfig::default();
        let hot = build_sharded(&cfg, &dir, &data.events, 1);
        // The sharded build must be layout-identical at any thread count
        // (segments included).
        for threads in [2usize, 8] {
            assert_eq!(build_sharded(&cfg, &dir, &data.events, threads), hot);
        }
        let mut compacted = hot.clone();
        compacted.compact();
        assert!(compacted.sealed_segments() > 0, "fixture must seal");
        let mut sealed = hot.clone();
        sealed.seal_columnar();
        assert_eq!(sealed.sealed_cells(), sealed.cells());
        [hot, compacted, sealed]
    })
}

/// Both engines, all layouts, one query: every answer (or error) must be
/// identical, and answers must not depend on the layout.
fn assert_engines_agree(q: &Query) {
    let [hot, compacted, sealed] = layouts();
    let reference = hot.query_row(q);
    for (name, s) in [("hot", hot), ("compacted", compacted), ("sealed", sealed)] {
        assert_eq!(s.query(q), s.query_row(q), "{name} layout: {q:?}");
    }
    // Layout invariance of the row content (scan counters legitimately
    // differ across layouts because compaction folds cells).
    if let Ok(r) = reference {
        for s in [compacted, sealed] {
            assert_eq!(s.query(q).unwrap().rows, r.rows, "{q:?}");
        }
    }
}

#[test]
fn workload_queries_are_engine_identical_on_the_fleet() {
    for (name, q) in workload::canonical(WEEK_MS) {
        assert_engines_agree(&q);
        // The workload is all-legal; a rejected query here means the
        // harness stopped testing the scan path.
        assert!(layouts()[0].query(&q).is_ok(), "{name} must validate");
    }
}

/// The varying material of one filter, as numbers (the vendored proptest
/// has no mapping combinators, so generation is numeric and construction
/// is plain code — same idiom as the store property tests).
type FilterParts = (usize, u64, u64);

/// Time-range bound: usually rollup-aligned (legal), sometimes off by a
/// jitter (illegal — both engines must reject identically).
fn bound(sel: u64) -> u64 {
    (sel % 5) * WEEK_MS + (sel / 5 % 3) * 12_345
}

fn build_filter((variant, a, b): FilterParts) -> Filter {
    match variant % 9 {
        0 => Filter::Kind(FailureKind::ALL[a as usize % FailureKind::ALL.len()]),
        1 => Filter::Isp(Isp::ALL[a as usize % Isp::ALL.len()]),
        2 => Filter::Rat(Rat::ALL[a as usize % Rat::ALL.len()]),
        // Out-of-directory models included: must match nothing, identically.
        3 => Filter::Model(PhoneModelId((a % (PhoneModelId::COUNT as u64 + 2)) as u8)),
        4 => Filter::Region(Region::ALL[a as usize % Region::ALL.len()]),
        5 => Filter::CauseClass(FailureLayer::ALL[a as usize % FailureLayer::ALL.len()]),
        // Negative and unknown cause codes included.
        6 => Filter::Cause(DataFailCause::from_code((a % 4_025) as i32 - 25)),
        7 => Filter::HasCause,
        _ => Filter::TimeRange {
            start_ms: bound(a),
            end_ms: bound(b),
        },
    }
}

/// The varying material of one query: filters, zero to eight group-by
/// dims, window selector, top-k, and metric selector (quantile numerator
/// included, spanning out-of-range values). A draw of up to three dims
/// keeps its duplicates — `DuplicateDim` rejection must agree too; a
/// longer one (which would almost never be duplicate-free) drops its
/// repeats, so that legal wide group-bys — code spaces the kernel indexes
/// directly and ones it hashes — are drawn as well.
type QueryParts = (
    Vec<FilterParts>,
    Vec<usize>,
    (u64, u64),
    usize,
    (usize, u64),
);

fn parts_strategy() -> impl Strategy<Value = QueryParts> {
    (
        prop::collection::vec((0usize..9, 0u64..4_096, 0u64..4_096), 0..4),
        prop::collection::vec(0usize..Dim::ALL.len(), 0..9),
        (0u64..3, 0u64..2),
        0usize..7,
        (0usize..8, 0u64..1_500),
    )
}

fn build_query((filters, dims, (weeks, jitter), top_k, (metric, qn)): QueryParts) -> Query {
    let metric = match metric {
        0 => Metric::Count,
        1 => Metric::DurationTotalMs,
        2 => Metric::MeanDurationMs,
        3 => Metric::MaxDurationMs,
        4 => Metric::Under30sShare,
        // q ∈ [-0.25, 1.25): out-of-range rejection must be identical.
        5 => Metric::QuantileMs(qn as f64 / 1_000.0 - 0.25),
        6 => Metric::Devices,
        _ => Metric::FailingDevices,
    };
    let mut group_by: Vec<Dim> = Vec::new();
    let keep_repeats = dims.len() <= 3;
    for d in dims.into_iter().map(|i| Dim::ALL[i]) {
        if keep_repeats || !group_by.contains(&d) {
            group_by.push(d);
        }
    }
    Query {
        filters: filters.into_iter().map(build_filter).collect(),
        group_by,
        window_ms: weeks * WEEK_MS + jitter * 9_999,
        metric,
        top_k,
    }
}

proptest! {
    // The acceptance bar: ≥ 256 random queries, every one byte-identical
    // across engines and layouts (errors included). The vendored proptest
    // runs 128 cases by default (PROPTEST_CASES overrides), so each case
    // draws a batch of three queries: ≥ 384 per run.
    #[test]
    fn random_queries_are_engine_identical(
        batch in prop::collection::vec(parts_strategy(), 3..6),
    ) {
        let [hot, compacted, sealed] = layouts();
        for parts in batch {
            let q = build_query(parts);
            let reference = hot.query_row(&q);
            for s in [hot, compacted, sealed] {
                prop_assert_eq!(&s.query(&q), &s.query_row(&q), "{:?}", &q);
            }
            if let Ok(r) = reference {
                for s in [compacted, sealed] {
                    prop_assert_eq!(&s.query(&q).unwrap().rows, &r.rows, "{:?}", &q);
                }
            }
        }
    }
}
