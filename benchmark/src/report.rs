//! What a run found, and the forms it leaves in: the one-line JSON object
//! the driver reads, a table for people, and the flat
//! `metric<TAB>workload<TAB>value<TAB>unit` file that `--check` compares.

use crate::json;
use crate::spec::{exact_unit, Better, Spec};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The metrics of one run of one workload.
#[derive(Debug, Clone)]
pub struct Results {
    /// The workload that ran.
    pub workload: String,
    /// Whether spans were recorded (per-layer metrics) or not (end-to-end).
    pub traced: bool,
    /// Operations attempted: offers, queries, table sets, identity checks.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    values: BTreeMap<String, f64>,
    echo: Vec<(String, String, String)>,
}

impl Results {
    /// An empty result for `workload`.
    pub fn new(workload: &str, traced: bool) -> Results {
        Results {
            workload: workload.to_string(),
            traced,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            echo: Vec::new(),
        }
    }

    /// Record a metric. Its name must be one `BENCHMARK.json` declares for
    /// this kind of run, and be recorded once: a typo or a stale name is a
    /// harness bug, caught by the smoke test.
    pub fn put(&mut self, spec: &Spec, name: &str, value: f64) {
        assert!(
            spec.for_mode(self.traced).iter().any(|m| m.name == name),
            "`{name}` is not a {} metric of BENCHMARK.json",
            if self.traced {
                "per-layer"
            } else {
                "end-to-end"
            },
        );
        let old = self.values.insert(name.to_string(), value);
        assert!(old.is_none(), "`{name}` recorded twice");
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record how the run was made (seed, sizes, reps, `nproc`, tracing) or
    /// an identity witness (a digest): echoed in the result files, not a
    /// metric.
    pub fn echo(&mut self, key: &str, value: impl ToString, unit: &str) {
        self.echo
            .push((key.to_string(), value.to_string(), unit.to_string()));
    }

    /// Declared metrics of this kind of run that have no finite value.
    pub fn unresolved(&self, spec: &Spec) -> Vec<String> {
        spec.for_mode(self.traced)
            .iter()
            .filter(|m| !self.get(&m.name).is_some_and(f64::is_finite))
            .map(|m| m.name.clone())
            .collect()
    }

    /// Whether every output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one JSON object the driver reads from the last line of standard
    /// output. An error if a declared metric is missing or not finite.
    pub fn last_line(&self, spec: &Spec) -> Result<String, String> {
        let missing = self.unresolved(spec);
        if !missing.is_empty() {
            return Err(format!("no finite value for: {}", missing.join(", ")));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        );
        for (i, m) in spec.for_mode(self.traced).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, &m.name);
            out.push_str(": {\"value\": ");
            json::write_num(&mut out, self.values[&m.name])?;
            out.push_str(", \"unit\": ");
            json::write_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        Ok(out)
    }

    /// The result file as JSON: the driver's object plus the echo rows.
    pub fn json_file(&self, spec: &Spec) -> Result<String, String> {
        let line = self.last_line(spec)?;
        let mut out = format!("{{\"workload\": \"{}\", \"echo\": {{", self.workload);
        for (i, (k, v, unit)) in self.echo.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, k);
            out.push_str(": {\"value\": ");
            json::write_str(&mut out, v);
            out.push_str(", \"unit\": ");
            json::write_str(&mut out, unit);
            out.push('}');
        }
        let _ = writeln!(out, "}}, \"result\": {line}}}");
        Ok(out)
    }

    /// The result file in flat form: one
    /// `metric<TAB>workload<TAB>value<TAB>unit` row per metric and echo row.
    pub fn tsv(&self, spec: &Spec) -> Result<String, String> {
        let mut out = String::new();
        for m in spec.for_mode(self.traced) {
            let v = self.get(&m.name).filter(|v| v.is_finite());
            let v = v.ok_or_else(|| format!("no finite value for {}", m.name))?;
            let _ = writeln!(out, "{}\t{}\t{}\t{}", m.name, self.workload, v, m.unit);
        }
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "failed_share\t{}\t{failed_share}\tshare",
            self.workload
        );
        for (k, v, unit) in &self.echo {
            let _ = writeln!(out, "{k}\t{}\t{v}\t{unit}", self.workload);
        }
        Ok(out)
    }

    /// Every metric by name and unit, for people.
    pub fn table(&self, spec: &Spec) -> String {
        let mut out = format!(
            "workload {} ({}): attempted {}, failed {}\n",
            self.workload,
            if self.traced {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            },
            self.attempted,
            self.failed,
        );
        for m in spec.for_mode(self.traced) {
            let _ = match self.get(&m.name) {
                Some(v) => writeln!(out, "  {:<44} {:>16.4} {}", m.name, v, m.unit),
                None => writeln!(out, "  {:<44} {:>16} {}", m.name, "MISSING", m.unit),
            };
        }
        for (k, v, unit) in &self.echo {
            let _ = writeln!(out, "  {k:<44} {v:>16} {unit}");
        }
        out
    }
}

/// All samples of one (metric, workload) in a flat result file. A file may
/// hold several runs appended one after the other.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// The values as written, one per run.
    pub values: Vec<String>,
    /// The unit of the rows.
    pub unit: String,
}

/// (metric, workload) → samples.
pub type Flat = BTreeMap<(String, String), Samples>;

/// Parse a flat result file.
pub fn read_flat(text: &str) -> Result<Flat, String> {
    let mut out = Flat::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [metric, workload, value, unit] = cols[..] else {
            return Err(format!("line {}: expected 4 tab-separated columns", n + 1));
        };
        let s = out
            .entry((metric.to_string(), workload.to_string()))
            .or_default();
        if !s.values.is_empty() && s.unit != unit {
            return Err(format!("line {}: unit of {metric} changed", n + 1));
        }
        s.unit = unit.to_string();
        s.values.push(value.to_string());
    }
    Ok(out)
}

/// What the comparator says about one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, or exactly equal where equality is required.
    Ok,
    /// Worse than the bound allows, unequal where equality is required, or
    /// missing from one side.
    Worse,
    /// The first file's own run-to-run spread is wider than the bound, and
    /// the second file's runs are not all better than the first's.
    Unresolved,
    /// A metric without a bound: shown, never judged.
    Info,
}

impl Verdict {
    /// The word printed for the verdict.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRow {
    /// The metric.
    pub metric: String,
    /// The workload.
    pub workload: String,
    /// The verdict.
    pub verdict: Verdict,
    /// What was compared, for people.
    pub detail: String,
}

/// The samples as finite numbers, or `None` if one is not.
fn numbers(s: &Samples) -> Option<Vec<f64>> {
    s.values
        .iter()
        .map(|v| v.parse::<f64>().ok().filter(|x| x.is_finite()))
        .collect()
}

/// Judge `b` against `a`. Counts, bytes and digests must be equal in every
/// run of both files. A metric with a bound is `worse` when `b`'s median is
/// worse than `a`'s by more than the bound; when `a` holds at least four
/// runs and their quartile distance exceeds the bound, it is `unresolved`
/// unless every run of `b` reads better than every run of `a`.
pub fn compare(spec: &Spec, a: &Flat, b: &Flat) -> Vec<CheckRow> {
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).cloned().collect();
    let mut rows = Vec::new();
    for key in keys {
        let (metric, workload) = key.clone();
        let mut row = |verdict, detail: String| {
            rows.push(CheckRow {
                metric: metric.clone(),
                workload: workload.clone(),
                verdict,
                detail,
            });
        };
        let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
            row(Verdict::Worse, "missing from one file".into());
            continue;
        };
        if sa.unit != sb.unit {
            row(Verdict::Worse, format!("unit {} vs {}", sa.unit, sb.unit));
            continue;
        }
        if exact_unit(&sa.unit) {
            let first = &sa.values[0];
            let equal = sa.values.iter().chain(&sb.values).all(|v| v == first);
            let detail = format!("{first} {} must repeat exactly", sa.unit);
            row(if equal { Verdict::Ok } else { Verdict::Worse }, detail);
            continue;
        }
        let (Some(na), Some(nb)) = (numbers(sa), numbers(sb)) else {
            row(Verdict::Worse, "not a number".into());
            continue;
        };
        let (ma, mb) = (median(&na), median(&nb));
        let detail = format!("{ma} -> {mb} {}", sa.unit);
        if metric == "failed_share" {
            let clean = nb.iter().all(|&v| v == 0.0);
            row(if clean { Verdict::Ok } else { Verdict::Worse }, detail);
            continue;
        }
        let Some((bound, better)) = spec
            .metric(&metric)
            .and_then(|m| m.bound.map(|b| (b, m.better)))
        else {
            row(Verdict::Info, detail);
            continue;
        };
        // Positive = b is worse, as a share of a's median.
        let worse_by = match better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        };
        let spread = quartiles(&na).map(|[q1, _, q3]| (q3 - q1) / ma.abs());
        let all_better = match better {
            Better::Lower => nb.iter().all(|y| na.iter().all(|x| y < x)),
            Better::Higher => nb.iter().all(|y| na.iter().all(|x| y > x)),
        };
        let verdict = match spread {
            Some(s) if s > bound && !all_better => Verdict::Unresolved,
            _ if worse_by > bound => Verdict::Worse,
            _ => Verdict::Ok,
        };
        let spread = spread.map_or(String::new(), |s| format!(", spread {s:.4}"));
        row(
            verdict,
            format!("{detail} ({worse_by:+.4} vs bound {bound}{spread})"),
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"command":[],"paths":[],"run_seconds":5,
            "workloads":[{"name":"w","why":"y"}],
            "end_to_end":[
              {"name":"setup_s","unit":"s","better":"lower","bound":0.25},
              {"name":"records_per_s","unit":"1/s","better":"higher","bound":0.1},
              {"name":"durable_bytes_per_record","unit":"B/record","better":"lower","bound":0.05}],
            "per_layer":[{"name":"stream.view_p50_us","unit":"us","better":"lower"}]}"#,
        )
        .unwrap()
    }

    fn full(setup: f64, rate: f64, bytes: f64) -> Results {
        let spec = spec();
        let mut r = Results::new("w", false);
        r.attempted = 10;
        r.put(&spec, "setup_s", setup);
        r.put(&spec, "records_per_s", rate);
        r.put(&spec, "durable_bytes_per_record", bytes);
        r
    }

    #[test]
    fn the_last_line_is_the_drivers_object() {
        let line = full(0.8127, 20_000.5, 349.0).last_line(&spec()).unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(10.0));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.8127)
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        assert_eq!(
            m.get("records_per_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("1/s")
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error_not_a_zero() {
        let spec = spec();
        let mut r = Results::new("w", false);
        r.put(&spec, "setup_s", 1.0);
        r.put(&spec, "records_per_s", f64::NAN);
        assert_eq!(
            r.unresolved(&spec),
            ["records_per_s", "durable_bytes_per_record"]
        );
        assert!(r.last_line(&spec).is_err());
        assert!(r.tsv(&spec).is_err());
    }

    #[test]
    #[should_panic(expected = "not a end-to-end metric")]
    fn an_undeclared_metric_is_refused() {
        Results::new("w", false).put(&spec(), "stream.view_p50_us", 1.0);
    }

    #[test]
    fn flat_files_round_trip_and_append() {
        let spec = spec();
        let mut one = full(1.0, 100.0, 349.0);
        one.echo("config.seed", 2021, "count");
        one.echo(
            "digest.reference",
            format!("{:016x}", 0xdead_beef_u64),
            "hex",
        );
        let text = one.tsv(&spec).unwrap() + &full(1.2, 90.0, 349.0).tsv(&spec).unwrap();
        let flat = read_flat(&text).unwrap();
        let key = ("setup_s".to_string(), "w".to_string());
        assert_eq!(flat[&key].values, ["1", "1.2"]);
        assert_eq!(flat[&key].unit, "s");
        let key = ("digest.reference".to_string(), "w".to_string());
        assert_eq!(flat[&key].values, ["00000000deadbeef"]);
        assert!(read_flat("a\tb\tc").is_err());
        assert!(read_flat("a\tw\t1\ts\na\tw\t1\tms").is_err());
    }

    fn verdicts(a: &str, b: &str) -> BTreeMap<String, Verdict> {
        compare(&spec(), &read_flat(a).unwrap(), &read_flat(b).unwrap())
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        let a = "records_per_s\tw\t100\t1/s\nsetup_s\tw\t1.0\ts\n";
        let v = verdicts(a, "records_per_s\tw\t91\t1/s\nsetup_s\tw\t1.2\ts\n");
        assert_eq!(v["records_per_s"], Verdict::Ok);
        assert_eq!(v["setup_s"], Verdict::Ok);
        let v = verdicts(a, "records_per_s\tw\t89\t1/s\nsetup_s\tw\t1.3\ts\n");
        assert_eq!(v["records_per_s"], Verdict::Worse);
        assert_eq!(v["setup_s"], Verdict::Worse);
        // Better by any amount is ok.
        let v = verdicts(a, "records_per_s\tw\t500\t1/s\nsetup_s\tw\t0.1\ts\n");
        assert_eq!(v["records_per_s"], Verdict::Ok);
        assert_eq!(v["setup_s"], Verdict::Ok);
    }

    #[test]
    fn counts_and_digests_must_be_equal() {
        let a = "durable_bytes_per_record\tw\t349\tB/record\ndigest.x\tw\tabc\thex\n";
        let v = verdicts(a, a);
        assert_eq!(v["durable_bytes_per_record"], Verdict::Ok);
        assert_eq!(v["digest.x"], Verdict::Ok);
        let v = verdicts(
            a,
            "durable_bytes_per_record\tw\t348.9\tB/record\ndigest.x\tw\tabd\thex\n",
        );
        assert_eq!(v["durable_bytes_per_record"], Verdict::Worse);
        assert_eq!(v["digest.x"], Verdict::Worse);
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_unless_every_run_is_better() {
        let rows = |vals: &[f64]| -> String {
            vals.iter()
                .map(|v| format!("records_per_s\tw\t{v}\t1/s\n"))
                .collect()
        };
        // Quartile distance of the baseline is far above the 10 % bound.
        let noisy = rows(&[60.0, 80.0, 100.0, 120.0, 140.0]);
        let v = verdicts(&noisy, &rows(&[100.0, 101.0, 99.0]));
        assert_eq!(v["records_per_s"], Verdict::Unresolved);
        let v = verdicts(&noisy, &rows(&[150.0, 160.0, 141.0]));
        assert_eq!(v["records_per_s"], Verdict::Ok);
        // A steady baseline resolves both ways.
        let steady = rows(&[99.0, 100.0, 100.5, 101.0, 100.2]);
        assert_eq!(
            verdicts(&steady, &rows(&[97.0, 98.0]))["records_per_s"],
            Verdict::Ok
        );
        assert_eq!(
            verdicts(&steady, &rows(&[80.0, 82.0]))["records_per_s"],
            Verdict::Worse
        );
    }

    #[test]
    fn unbounded_metrics_are_shown_and_missing_rows_are_worse() {
        let a = "stream.view_p50_us\tw\t10\tus\nsetup_s\tw\t1\ts\nfailed_share\tw\t0\tshare\n";
        let b = "stream.view_p50_us\tw\t99\tus\nfailed_share\tw\t0.01\tshare\n";
        let v = verdicts(a, b);
        assert_eq!(v["stream.view_p50_us"], Verdict::Info);
        assert_eq!(v["setup_s"], Verdict::Worse);
        assert_eq!(v["failed_share"], Verdict::Worse);
    }
}
