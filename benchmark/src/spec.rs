//! `BENCHMARK.json` is the one place that names workloads and metrics. It is
//! compiled in, so the binary, the comparator and the tests cannot disagree
//! with the file the driver reads.

use crate::json::{self, Value};

/// The benchmark's contract, as committed at the root of the repository.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Which way it improves.
    pub better: Better,
    /// The share of the parent's median by which it may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names with the reason each was chosen.
    pub workloads: Vec<(String, String)>,
    /// Metrics a user of the system would see; printed by an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers; printed by a traced run.
    pub per_layer: Vec<MetricSpec>,
    /// How long one run measures, in seconds.
    pub run_seconds: u64,
}

/// A name starts with a letter or a digit and is made of at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is made of at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A value of this unit is a count the program makes, not a time the host
/// measures: it must repeat exactly for one seed, and the comparator asks
/// for equality instead of applying a bound.
pub fn exact_unit(unit: &str) -> bool {
    unit == "count" || unit == "hex" || unit == "B" || unit.starts_with("B/")
}

impl Spec {
    /// The compiled-in contract.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    }

    /// Parse and validate a contract document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("`{key}` must be an array"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` must be a string"))
        };
        let mut workloads = Vec::new();
        for w in list("workloads")? {
            workloads.push((text_of(w, "name")?, text_of(w, "why")?));
        }
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            let mut out = Vec::new();
            for m in list(key)? {
                let name = text_of(m, "name")?;
                let better = match text_of(m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("{name}: better = `{other}`")),
                };
                let bound = m.get("bound").and_then(Value::as_f64);
                if bounded != bound.is_some() {
                    return Err(format!("{name}: only end-to-end metrics carry a bound"));
                }
                if bound.is_some_and(|b| !(0.0..=0.25).contains(&b)) {
                    return Err(format!("{name}: bound outside 0..=0.25"));
                }
                out.push(MetricSpec {
                    unit: text_of(m, "unit")?,
                    name,
                    better,
                    bound,
                });
            }
            Ok(out)
        };
        let spec = Spec {
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("`run_seconds` must be a whole number from 1 to 60")?
                as u64,
        };
        let mut seen = std::collections::BTreeSet::new();
        let names = spec
            .workloads
            .iter()
            .map(|(n, _)| n)
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name));
        for name in names {
            if !valid_name(name) {
                return Err(format!("`{name}` is not a valid name"));
            }
            if !seen.insert(name) {
                return Err(format!("`{name}` is used twice"));
            }
        }
        if let Some(m) = spec.metrics().find(|m| !valid_unit(&m.unit)) {
            return Err(format!("{}: `{}` is not a valid unit", m.name, m.unit));
        }
        Ok(spec)
    }

    /// Every declared metric, end-to-end first.
    pub fn metrics(&self) -> impl Iterator<Item = &MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.metrics().find(|m| m.name == name)
    }

    /// The metrics one run prints: end-to-end untraced, per-layer traced.
    pub fn for_mode(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_name_rule() {
        for ok in [
            "a",
            "9lives",
            "store.query_us.count_all",
            "p-99",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".a",
            "_a",
            "-a",
            "a b",
            "a/b",
            "é",
            "a%",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn the_unit_rule() {
        for ok in ["ms", "s", "1/s", "count", "B/record", "%", "us"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "records per s", "µs", &"x".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn exact_units_are_counts_bytes_and_digests() {
        for exact in ["count", "hex", "B", "B/record", "B/cell"] {
            assert!(exact_unit(exact), "{exact}");
        }
        for timed in ["ms", "us", "1/s", "MB", "share", "retries"] {
            assert!(!exact_unit(timed), "{timed}");
        }
    }

    #[test]
    fn the_committed_contract_is_well_formed() {
        let spec = Spec::load();
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["ingest_stream", "serve_static", "cluster", "fleet_sim"]
        );
        assert!(names.iter().all(|n| crate::workloads::NAMES.contains(n)));
        assert!(spec
            .workloads
            .iter()
            .all(|(_, why)| !why.is_empty() && why.len() <= 200));
        let setup = spec.metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn a_contract_with_a_repeated_or_malformed_name_is_refused() {
        let doc = |e2e: &str| {
            format!(
                r#"{{"command":[],"paths":[],"run_seconds":5,
                "workloads":[{{"name":"w","why":"y"}}],
                "end_to_end":[{e2e}],
                "per_layer":[{{"name":"l","unit":"us","better":"lower"}}]}}"#
            )
        };
        let good = r#"{"name":"setup_s","unit":"s","better":"lower","bound":0.25}"#;
        assert!(Spec::parse(&doc(good)).is_ok());
        let twice = format!("{good},{good}");
        assert!(Spec::parse(&doc(&twice)).unwrap_err().contains("twice"));
        let bad_name = good.replace("setup_s", "set up");
        assert!(Spec::parse(&doc(&bad_name)).is_err());
        let wide = good.replace("0.25", "0.5");
        assert!(Spec::parse(&doc(&wide)).is_err());
        let sideways = good.replace("lower", "sideways");
        assert!(Spec::parse(&doc(&sideways)).is_err());
    }
}
