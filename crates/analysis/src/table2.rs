//! Table 2 — decomposition of `Data_Setup_Error` failures by cause code.

use crate::render::{pct, Table};
use cellrel_types::{DataFailCause, FailureKind};
use cellrel_workload::StudyDataset;
use std::collections::HashMap;

/// One row of the recovered Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CauseRow {
    /// The cause.
    pub cause: DataFailCause,
    /// Share among all `Data_Setup_Error` events.
    pub share: f64,
    /// The paper's share if the cause is in the paper's top-10.
    pub paper_share: Option<f64>,
}

/// Recovered Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Top causes, descending by share.
    pub rows: Vec<CauseRow>,
    /// Total setup errors analysed.
    pub total_setup_errors: u64,
    /// Combined share of the top 10.
    pub top10_share: f64,
}

/// Compute the cause decomposition (top `k` causes).
pub fn compute(data: &StudyDataset, k: usize) -> Table2 {
    let mut counts: HashMap<DataFailCause, u64> = HashMap::new();
    let mut total = 0u64;
    for e in &data.events {
        if e.kind == FailureKind::DataSetupError {
            if let Some(c) = e.cause {
                *counts.entry(c).or_default() += 1;
                total += 1;
            }
        }
    }
    from_cause_counts(counts.into_iter().collect(), total, k)
}

/// Build Table 2 from per-cause counts — the shared tail of the batch path
/// above and the store-query path
/// ([`crate::store_tables::table2_from_store`]). Ranking is fully
/// deterministic: descending by share, ties broken by ascending cause code,
/// so equal counts yield byte-identical tables regardless of input order.
pub(crate) fn from_cause_counts(counts: Vec<(DataFailCause, u64)>, total: u64, k: usize) -> Table2 {
    let mut rows: Vec<CauseRow> = counts
        .into_iter()
        .map(|(cause, n)| CauseRow {
            cause,
            share: n as f64 / total.max(1) as f64,
            paper_share: DataFailCause::TABLE2_TOP10
                .iter()
                .find(|(c, _)| *c == cause)
                .map(|(_, s)| *s),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.share
            .partial_cmp(&a.share)
            .expect("finite shares")
            .then_with(|| a.cause.code().cmp(&b.cause.code()))
    });
    let top10_share: f64 = rows.iter().take(10).map(|r| r.share).sum();
    rows.truncate(k);
    Table2 {
        rows,
        total_setup_errors: total,
        top10_share,
    }
}

impl Table2 {
    /// Render with descriptions and paper shares.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 2 — top Data_Setup_Error causes (measured vs paper)",
            &["error code", "share", "paper", "description"],
        );
        for r in &self.rows {
            t.row(vec![
                r.cause.name().to_string(),
                pct(r.share),
                r.paper_share.map(pct).unwrap_or_else(|| "-".into()),
                r.cause.description().to_string(),
            ]);
        }
        format!(
            "{}\ntop-10 combined share: {} (paper: 46.7%)\n",
            t.render(),
            pct(self.top10_share)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_recovers_paper_ranking() {
        let data = crate::testutil::dataset();
        let t2 = compute(data, 10);
        assert!(t2.total_setup_errors > 5_000);
        // Rank 1 must be GPRS_REGISTRATION_FAIL at ~12.8 %.
        assert_eq!(t2.rows[0].cause, DataFailCause::GprsRegistrationFail);
        assert!(
            (t2.rows[0].share - 0.128).abs() < 0.02,
            "rank-1 share {}",
            t2.rows[0].share
        );
        // Top-10 combined ≈ 46.7 %.
        assert!(
            (t2.top10_share - 0.467).abs() < 0.04,
            "top-10 share {}",
            t2.top10_share
        );
        // All of the paper's top 10 appear in our top ~14.
        let t2_wide = compute(data, 14);
        for (cause, _) in DataFailCause::TABLE2_TOP10 {
            assert!(
                t2_wide.rows.iter().any(|r| r.cause == cause),
                "{cause} missing from recovered top causes"
            );
        }
        let s = t2.render();
        assert!(s.contains("GprsRegistrationFail"));
    }
}
