//! Rendering a [`MetricsRegistry`] as the repro harness's text tables.
//!
//! The observability layer keeps metrics as plain mergeable data
//! (`cellrel_sim::telemetry`); this module is the human-facing view the
//! `repro` and `chaos` bins print under `--metrics`: one table per metric
//! class plus the registry digest line CI greps to compare runs and
//! thread counts.

use cellrel_sim::MetricsRegistry;
use std::fmt::Write as _;

use crate::render::Table;

/// Render a snapshot's counters, gauges and duration histograms as aligned
/// text tables, ending with the `registry digest:` line. Output is a pure
/// function of the snapshot (names are `BTreeMap`-ordered), so two
/// deterministic runs render byte-identical reports.
pub fn render_metrics(snap: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut counters = Table::new("Counters", &["name", "value"]);
    for (name, value) in snap.counters() {
        counters.row(vec![name.to_string(), value.to_string()]);
    }
    if !counters.is_empty() {
        out.push_str(&counters.render());
        out.push('\n');
    }
    let mut gauges = Table::new("Gauges", &["name", "value"]);
    for (name, value) in snap.gauges() {
        gauges.row(vec![name.to_string(), value.to_string()]);
    }
    if !gauges.is_empty() {
        out.push_str(&gauges.render());
        out.push('\n');
    }
    let mut hist = Table::new(
        "Duration histograms (ms)",
        &["name", "count", "p50", "p90", "p99", "max"],
    );
    for (name, sketch) in snap.histograms() {
        let q = |p: f64| {
            sketch
                .quantile(p)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into())
        };
        hist.row(vec![
            name.to_string(),
            sketch.count().to_string(),
            q(0.5),
            q(0.9),
            q(0.99),
            sketch
                .max()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    if !hist.is_empty() {
        out.push_str(&hist.render());
        out.push('\n');
    }
    if !snap.trace().is_empty() {
        let _ = writeln!(out, "trace events: {}", snap.trace().len());
    }
    let _ = writeln!(out, "registry digest: {:016x}", snap.digest());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_sim::Telemetry;
    use cellrel_types::SimDuration;

    #[test]
    fn renders_all_sections_and_digest() {
        let tele = Telemetry::enabled();
        tele.inc("setup.ok");
        tele.add("setup.ok", 4);
        tele.gauge_add("open", 2);
        for ms in [10u64, 50, 90, 1000] {
            tele.observe_duration("lat", SimDuration::from_millis(ms));
        }
        let snap = tele.snapshot();
        let s = render_metrics(&snap);
        assert!(s.contains("== Counters =="));
        assert!(s.contains("setup.ok"));
        assert!(s.contains("== Gauges =="));
        assert!(s.contains("== Duration histograms (ms) =="));
        assert!(s.contains(&format!("registry digest: {:016x}", snap.digest())));
    }

    #[test]
    fn empty_snapshot_still_prints_a_digest() {
        let snap = Telemetry::disabled().snapshot();
        let s = render_metrics(&snap);
        assert!(!s.contains("== Counters =="));
        assert!(s.contains("registry digest:"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let tele = Telemetry::enabled();
        tele.inc("a");
        tele.observe("h", 42);
        assert_eq!(
            render_metrics(&tele.snapshot()),
            render_metrics(&tele.snapshot())
        );
    }
}
