//! CSV export of datasets and figure series — for downstream plotting.
//!
//! The paper's figures are plots; this repository renders text tables, and
//! this module emits the same data as CSV so users can regenerate the plots
//! with their tool of choice. No external dependencies: the columns are all
//! numeric or controlled identifiers, so quoting rules are trivial.

use crate::render::Table;
use cellrel_sim::campaign::CampaignReport;
use cellrel_store::ResultSet;
use cellrel_types::FailureEvent;
use cellrel_workload::StudyDataset;
use std::fmt::Write as _;

/// Serialize failure events as CSV (one row per failure).
pub fn events_csv(events: &[FailureEvent]) -> String {
    let mut out =
        String::from("device,kind,start_ms,duration_ms,cause,rat,signal_level,apn,bs,isp\n");
    for e in events {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            e.device.0,
            e.kind.label(),
            e.start.as_millis(),
            e.duration.as_millis(),
            e.cause.map(|c| c.name()).unwrap_or(""),
            e.ctx.rat.label(),
            e.ctx.signal.value(),
            e.ctx.apn.name(),
            e.ctx.bs.map(|b| b.as_u64().to_string()).unwrap_or_default(),
            e.ctx.isp.label(),
        );
    }
    out
}

/// Serialize a whole study's events.
pub fn dataset_csv(data: &StudyDataset) -> String {
    events_csv(&data.events)
}

/// Serialize an `(x, y)` series (one figure line) as CSV.
#[cfg(test)]
pub(crate) fn series_csv(x_label: &str, y_label: &str, points: &[(f64, f64)]) -> String {
    let mut out = format!("{x_label},{y_label}\n");
    for (x, y) in points {
        let _ = writeln!(out, "{x},{y}");
    }
    out
}

/// Serialize a store query's [`ResultSet`] as CSV: one column per group-by
/// dimension, then the metric value (formatted exactly as the text
/// rendering formats it) and the contributing record count. Labels are
/// controlled identifiers (no commas), so quoting rules stay trivial.
pub fn result_set_csv(rs: &ResultSet) -> String {
    let mut out = String::new();
    for d in &rs.group_by {
        let _ = write!(out, "{},", d.label());
    }
    let _ = writeln!(out, "{},records", rs.metric.label());
    for row in &rs.rows {
        for label in &row.labels {
            let _ = write!(out, "{label},");
        }
        let _ = writeln!(out, "{},{}", rs.metric.format(row.value), row.count);
    }
    out
}

/// Serialize per-device failure counts.
pub fn counts_csv(data: &StudyDataset) -> String {
    let mut out = String::from("device,model,isp,failures\n");
    for d in data.population.devices() {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            d.id.0,
            d.model.0,
            d.isp.label(),
            data.per_device_counts[d.id.0 as usize]
        );
    }
    out
}

/// Serialize a fault campaign's violations as CSV — each row is a minimal
/// repro record: together with the campaign's root seed, `(scenario,
/// event_index)` replays the failure byte-identically (`chaos --replay`).
pub fn campaign_violations_csv(report: &CampaignReport) -> String {
    let mut out = String::from("scenario,invariant,event_index,at_ms,detail\n");
    for v in &report.violations {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            v.scenario,
            v.invariant,
            v.event_index,
            v.at_ms,
            v.detail.replace(',', ";").replace('\n', " "),
        );
    }
    out
}

/// Serialize a campaign's summary plus per-label coverage counts as CSV.
pub fn campaign_summary_csv(report: &CampaignReport) -> String {
    let mut out = String::from("metric,value\n");
    let _ = writeln!(out, "scenarios,{}", report.scenarios);
    let _ = writeln!(out, "events,{}", report.events);
    let _ = writeln!(out, "violations,{}", report.violations.len());
    let _ = writeln!(out, "digest,{:016x}", report.digest());
    for (label, count) in &report.coverage {
        let _ = writeln!(out, "coverage:{label},{count}");
    }
    out
}

/// Render a campaign's headline numbers as a text table.
pub fn campaign_summary_table(report: &CampaignReport) -> Table {
    let mut t = Table::new("Fault campaign summary", &["metric", "value"]);
    t.row(vec!["scenarios run".into(), report.scenarios.to_string()]);
    t.row(vec!["events dispatched".into(), report.events.to_string()]);
    t.row(vec![
        "invariant violations".into(),
        report.violations.len().to_string(),
    ]);
    t.row(vec![
        "report digest".into(),
        format!("{:016x}", report.digest()),
    ]);
    t
}

/// Render a campaign's per-label coverage (how many scenarios exercised
/// each fault / schedule / policy / recovery / mobility / user label).
pub fn campaign_coverage_table(report: &CampaignReport) -> Table {
    let mut t = Table::new("Fault campaign coverage", &["label", "scenarios"]);
    for (label, count) in &report.coverage {
        t.row(vec![label.clone(), count.to_string()]);
    }
    t
}

/// Render a campaign's violations (empty table when the campaign is clean).
pub fn campaign_violations_table(report: &CampaignReport) -> Table {
    let mut t = Table::new(
        "Invariant violations",
        &["scenario", "invariant", "event#", "at_ms", "detail"],
    );
    for v in &report.violations {
        t.row(vec![
            v.scenario.to_string(),
            v.invariant.to_string(),
            v.event_index.to_string(),
            v.at_ms.to_string(),
            v.detail.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_sim::campaign::Violation;

    #[test]
    fn dataset_csv_round_trips_row_count() {
        let data = crate::testutil::dataset();
        let csv = dataset_csv(data);
        let rows = csv.lines().count();
        assert_eq!(rows, data.events.len() + 1, "header + one row per event");
        let header = csv.lines().next().expect("header");
        assert_eq!(header.split(',').count(), 10);
        // Every data row has the full column count.
        for line in csv.lines().skip(1).take(100) {
            assert_eq!(line.split(',').count(), 10, "bad row: {line}");
        }
    }

    #[test]
    fn counts_csv_covers_population() {
        let data = crate::testutil::dataset();
        let csv = counts_csv(data);
        assert_eq!(csv.lines().count(), data.population.len() + 1);
    }

    #[test]
    fn series_csv_format() {
        let csv = series_csv("seconds", "cdf", &[(1.0, 0.5), (2.0, 1.0)]);
        assert_eq!(csv, "seconds,cdf\n1,0.5\n2,1\n");
    }

    #[test]
    fn result_set_csv_matches_the_rendered_grid() {
        use cellrel_store::{build_sharded, DeviceDirectory, Dim, Query, StoreConfig};
        let data = crate::testutil::dataset();
        let dir = DeviceDirectory::from_population(&data.population);
        let store = build_sharded(&StoreConfig::default(), &dir, &data.events, 1);
        let rs = store
            .query(&Query::count_by(vec![Dim::Kind, Dim::Isp]))
            .expect("valid query");
        let csv = result_set_csv(&rs);
        assert_eq!(csv.lines().count(), rs.rows.len() + 1);
        let header = csv.lines().next().expect("header");
        assert_eq!(header, "kind,isp,count,records");
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), 4, "bad row: {line}");
        }
        assert!(csv.contains("Data_Setup_Error,ISP-A,"));
    }

    #[test]
    fn setup_errors_carry_cause_column() {
        let data = crate::testutil::dataset();
        let csv = dataset_csv(data);
        assert!(csv.contains("GprsRegistrationFail"));
        assert!(csv.contains("Data_Setup_Error"));
        assert!(csv.contains("Data_Stall"));
    }

    fn sample_report() -> CampaignReport {
        let mut r = CampaignReport {
            scenarios: 3,
            events: 1234,
            ..CampaignReport::default()
        };
        r.violations.push(Violation {
            scenario: 2,
            invariant: "probation-respected",
            event_index: 77,
            at_ms: 90_000,
            detail: "stage 1 after 12s, probation is 60s".into(),
        });
        r.coverage.insert("fault:blackhole".into(), 2);
        r.coverage.insert("fault:mixed".into(), 1);
        r
    }

    #[test]
    fn campaign_violations_csv_is_one_row_per_violation() {
        let csv = campaign_violations_csv(&sample_report());
        assert_eq!(csv.lines().count(), 2);
        let row = csv.lines().nth(1).expect("row");
        assert_eq!(row.split(',').count(), 5, "bad row: {row}");
        assert!(row.starts_with("2,probation-respected,77,90000,"));
    }

    #[test]
    fn campaign_violation_details_never_break_the_csv_grid() {
        let mut r = sample_report();
        r.violations[0].detail = "a, detail\nwith separators".into();
        let csv = campaign_violations_csv(&r);
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), 5, "bad row: {line}");
        }
    }

    #[test]
    fn campaign_summary_csv_carries_digest_and_coverage() {
        let r = sample_report();
        let csv = campaign_summary_csv(&r);
        assert!(csv.contains(&format!("digest,{:016x}\n", r.digest())));
        assert!(csv.contains("coverage:fault:blackhole,2"));
        assert!(csv.contains("scenarios,3"));
    }

    #[test]
    fn campaign_tables_render() {
        let r = sample_report();
        let summary = campaign_summary_table(&r).render();
        assert!(summary.contains("scenarios run"));
        assert!(summary.contains(&format!("{:016x}", r.digest())));
        let coverage = campaign_coverage_table(&r);
        assert_eq!(coverage.len(), 2);
        let violations = campaign_violations_table(&r);
        assert_eq!(violations.len(), 1);
        assert!(violations.render().contains("probation-respected"));
    }
}
