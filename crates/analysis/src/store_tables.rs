//! Table 1 and Table 2 served from the analytics cube.
//!
//! The batch modules ([`crate::table1`], [`crate::table2`]) scan the raw
//! dataset; these adapters answer the same questions with `cellrel-store`
//! queries — three device-directory queries and one cell query for Table 1,
//! one filtered group-by for Table 2 — and then feed the shared constructors
//! (`table1::from_stats`, `table2::from_cause_counts`), so the rendered
//! tables are **byte-identical** to the batch output on the same fleet.
//! That identity is the end-to-end correctness check for the store: it holds
//! only if routing, directory registration, merge, compaction, and query
//! grouping all preserve the exact per-model and per-cause totals.

use crate::per_model::ModelStats;
use crate::table1::{self, Table1};
use crate::table2::{self, Table2};
use cellrel_ingest::codec::unzigzag;
use cellrel_store::{Dim, Filter, Metric, Query, QueryError, ResultSet, Store};
use cellrel_types::{DataFailCause, FailureKind, PhoneModelId};

/// The three per-model queries behind Table 1, in the order
/// `model_stats_from_results` consumes them: devices, failing devices,
/// failure counts — all grouped by [`Dim::Model`]. Any query path (the
/// in-process adapters here, or a queryd wire client) that evaluates these
/// and feeds the shared constructors renders byte-identical tables.
pub fn table1_queries() -> [Query; 3] {
    [Metric::Devices, Metric::FailingDevices, Metric::Count].map(|metric| Query {
        filters: Vec::new(),
        group_by: vec![Dim::Model],
        window_ms: 0,
        metric,
        top_k: 0,
    })
}

/// The one query behind Table 2: `Data_Setup_Error` records that carried a
/// cause, grouped by cause code. Feed the answer to
/// [`table2_from_result`].
pub fn table2_query() -> Query {
    Query {
        filters: vec![Filter::Kind(FailureKind::DataSetupError), Filter::HasCause],
        group_by: vec![Dim::Cause],
        window_ms: 0,
        metric: Metric::Count,
        top_k: 0,
    }
}

/// Per-model stats ([`ModelStats`]) assembled from the answers to
/// [`table1_queries`] (same order): devices and failing devices from the
/// device directory, failure totals from the cube cells — the same
/// numerators and denominators the batch [`crate::per_model::compute`]
/// derives from the raw dataset.
pub(crate) fn model_stats_from_results(results: &[ResultSet; 3]) -> Vec<ModelStats> {
    // Model keys are `PhoneModelId.0` (1-based; 0 = unknown). Index by key.
    let mut tallies = [[0u64; 35]; 3];
    for (tally, rs) in tallies.iter_mut().zip(results) {
        for r in &rs.rows {
            if let Some(slot) = r.key.first().and_then(|k| tally.get_mut(*k as usize)) {
                *slot = r.count;
            }
        }
    }
    let [devices, failing, failures] = tallies;
    PhoneModelId::all()
        .map(|id| {
            let m = id.0 as usize;
            let n = devices[m].max(1) as f64;
            ModelStats {
                model: id,
                devices: devices[m] as u32,
                prevalence: failing[m] as f64 / n,
                frequency: failures[m] as f64 / n,
            }
        })
        .collect()
}

/// Table 1 assembled from the answers to [`table1_queries`].
pub fn table1_from_results(results: &[ResultSet; 3]) -> Table1 {
    table1::from_stats(model_stats_from_results(results))
}

/// Table 2 assembled from the answer to [`table2_query`].
pub fn table2_from_result(rs: &ResultSet, k: usize) -> Table2 {
    let mut total = 0u64;
    let counts: Vec<(DataFailCause, u64)> = rs
        .rows
        .iter()
        .map(|r| {
            total += r.count;
            // `Dim::Cause` keys use the wire encoding: `1 + zigzag(code)`.
            let key = r.key.first().copied().unwrap_or(1);
            let code = unzigzag(key.max(1) - 1) as i32;
            (DataFailCause::from_code(code), r.count)
        })
        .collect();
    table2::from_cause_counts(counts, total, k)
}

/// [`model_stats_from_results`] over in-process queries.
pub(crate) fn model_stats_from_store(store: &Store) -> Result<Vec<ModelStats>, QueryError> {
    let [d, f, c] = table1_queries();
    let results = [store.query(&d)?, store.query(&f)?, store.query(&c)?];
    Ok(model_stats_from_results(&results))
}

/// Table 1 served from store queries; byte-identical to
/// [`table1::compute`] on the same fleet.
pub fn table1_from_store(store: &Store) -> Result<Table1, QueryError> {
    Ok(table1::from_stats(model_stats_from_store(store)?))
}

/// Table 2 served from one store query; byte-identical to
/// [`table2::compute`] on the same fleet.
pub fn table2_from_store(store: &Store, k: usize) -> Result<Table2, QueryError> {
    Ok(table2_from_result(&store.query(&table2_query())?, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_store::{build_sharded, DeviceDirectory, Store, StoreConfig};
    use std::sync::OnceLock;

    /// One store over the shared test dataset (building it is the expensive
    /// part of every test here).
    fn store() -> &'static Store {
        static STORE: OnceLock<Store> = OnceLock::new();
        STORE.get_or_init(|| {
            let data = crate::testutil::dataset();
            let dir = DeviceDirectory::from_population(&data.population);
            build_sharded(&StoreConfig::default(), &dir, &data.events, 1)
        })
    }

    #[test]
    fn table1_via_store_is_byte_identical_to_batch() {
        let data = crate::testutil::dataset();
        let batch = crate::table1::compute(data);
        let via_store = table1_from_store(store()).expect("valid query");
        assert_eq!(via_store.render(), batch.render());
        assert_eq!(via_store.stats, batch.stats);
    }

    #[test]
    fn table2_via_store_is_byte_identical_to_batch() {
        let data = crate::testutil::dataset();
        for k in [10usize, 14] {
            let batch = crate::table2::compute(data, k);
            let via_store = table2_from_store(store(), k).expect("valid query");
            assert_eq!(via_store.render(), batch.render(), "k={k}");
            assert_eq!(via_store.rows, batch.rows, "k={k}");
            assert_eq!(via_store.total_setup_errors, batch.total_setup_errors);
        }
    }

    #[test]
    fn identity_survives_compaction_and_threading() {
        let data = crate::testutil::dataset();
        let dir = DeviceDirectory::from_population(&data.population);
        let mut s = build_sharded(&StoreConfig::default(), &dir, &data.events, 2);
        s.compact();
        let batch = crate::table2::compute(data, 10);
        let via_store = table2_from_store(&s, 10).expect("valid query");
        assert_eq!(via_store.render(), batch.render());
        assert_eq!(
            table1_from_store(&s).expect("valid query").render(),
            crate::table1::compute(data).render()
        );
    }
}
