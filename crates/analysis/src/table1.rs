//! Table 1 — the full per-model table with measured columns.

use crate::per_model::{self, ModelStats};
use crate::render::{pct, Table};
use cellrel_workload::{models, StudyDataset};

/// Table 1 result: per-model measured stats plus fidelity summary.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Per-model measured stats.
    pub stats: Vec<ModelStats>,
    /// Mean absolute prevalence error vs the paper (well-sampled models).
    pub mean_prevalence_error: f64,
    /// Mean relative frequency error vs the paper (well-sampled models).
    pub mean_frequency_rel_error: f64,
}

/// Compute Table 1 from a dataset.
pub fn compute(data: &StudyDataset) -> Table1 {
    from_stats(per_model::compute(data))
}

/// Build Table 1 from already-computed per-model stats — the shared tail of
/// the batch path above and the store-query path
/// ([`crate::store_tables::table1_from_store`]), so both produce
/// byte-identical tables from equal stats.
pub(crate) fn from_stats(stats: Vec<ModelStats>) -> Table1 {
    let mut p_err = 0.0;
    let mut f_err = 0.0;
    let mut n = 0usize;
    for s in &stats {
        if s.devices >= 100 {
            let spec = models::model(s.model);
            p_err += (s.prevalence - spec.prevalence).abs();
            if spec.frequency > 0.0 {
                f_err += ((s.frequency - spec.frequency) / spec.frequency).abs();
            }
            n += 1;
        }
    }
    let n = n.max(1) as f64;
    Table1 {
        stats,
        mean_prevalence_error: p_err / n,
        mean_frequency_rel_error: f_err / n,
    }
}

impl Table1 {
    /// Render the full table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 1 — 34 phone models (measured vs paper)",
            &[
                "model",
                "cpu",
                "mem",
                "sto",
                "5G",
                "ver",
                "users",
                "prev",
                "prev(paper)",
                "freq",
                "freq(paper)",
            ],
        );
        for s in &self.stats {
            let spec = models::model(s.model);
            t.row(vec![
                s.model.0.to_string(),
                format!("{:.2}GHz", spec.hw.cpu_ghz),
                format!("{}GB", spec.hw.memory_gb),
                format!("{}GB", spec.hw.storage_gb),
                if spec.hw.has_5g_modem { "YES" } else { "-" }.into(),
                format!("{}", spec.hw.android.number()),
                pct(spec.user_share),
                pct(s.prevalence),
                pct(spec.prevalence),
                format!("{:.1}", s.frequency),
                format!("{:.1}", spec.frequency),
            ]);
        }
        format!(
            "{}\nfidelity: mean |Δprevalence| = {:.2} pp, mean |Δfrequency| = {:.1}%\n",
            t.render(),
            self.mean_prevalence_error * 100.0,
            self.mean_frequency_rel_error * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_fidelity_is_tight() {
        let data = crate::testutil::dataset();
        let t1 = compute(data);
        assert_eq!(t1.stats.len(), 34);
        assert!(
            t1.mean_prevalence_error < 0.05,
            "prevalence error {}",
            t1.mean_prevalence_error
        );
        assert!(
            t1.mean_frequency_rel_error < 0.5,
            "frequency error {}",
            t1.mean_frequency_rel_error
        );
        let s = t1.render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("fidelity"));
    }
}
