//! Docs and CI never name a cargo target that does not exist.
//!
//! README.md, TESTING.md, EXPERIMENTS.md, DESIGN.md and the CI workflow
//! are scanned for `--bin X`, `--example X`, `--test X` and `--bench X`;
//! every `X` must be a `[[bin]]` / `[[bench]]` of `crates/bench`, a file
//! in `examples/`, or a file in `tests/`. The per-tier `BENCH_<name>.json`
//! snapshots are retired (measurement lives in `benchmark/`), so no
//! `BENCH_` file name may reappear in those documents either, and neither
//! may the name of a second driver that was deleted (`RETIRED`).
//!
//! The device stack is one crate, `crates/device`, so the crate graph no
//! longer keeps its layers apart; `device_modules_keep_the_stack_layering`
//! does (`DEVICE_LAYERS`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "TESTING.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
];

/// Deleted with their subjects: the worker-pool collector, the knobbed
/// server start, the clocked core, the in-library feed harnesses, the two
/// `repro` identity passes, and the recovery drills' own count flag, report
/// types and second plan struct (they are scenarios of the campaign engine
/// now), the collector's own sink trait and the closure-fed study driver
/// (one `EventSink`, one `run_macro_study_parallel`), the monitor's second
/// record type and second backend (a record is a `FailureEvent`, the
/// backend is `ingest::Collector`), the bench targets' command and size
/// knob (`repro ablations` prints what only they printed), and the
/// simulator's second scheduler surface and second metrics type (the timer
/// wheel is the one event loop, a registry is its own snapshot and holds
/// its own trace), and the chaos replay alias (a replay is `run_scenario`).
/// The verify skill is held to this list too.
const RETIRED: [&str; 22] = [
    "run_ingest",
    "serve_with",
    "ServerConfig",
    "with_clock",
    "feed_events",
    "run_published",
    "repro -- --stream",
    "repro -- --cluster",
    "--kills",
    // In halves, so a grep for a deleted type finds no hit at all.
    concat!("KillRestart", "Report"),
    concat!("Failover", "Report"),
    concat!("Failover", "Config"),
    concat!("Accepted", "Sink"),
    concat!("run_macro_study", "_streaming"),
    concat!("Trace", "Record"),
    concat!("Fleet", "Summary"),
    "cargo bench",
    "CELLREL_BENCH_DEVICES",
    concat!("run_", "scheduled"),
    concat!("Metrics", "Snapshot"),
    concat!("Trace", "Sink"),
    concat!("replay", "_scenario"),
];

fn root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core (the facade owns the root tests/).
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `name = "X"` of every `[[kind]]` table in a manifest.
fn manifest_targets(manifest: &str, kind: &str) -> BTreeSet<String> {
    let header = format!("[[{kind}]]");
    let mut inside = false;
    let mut names = BTreeSet::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if let Some(name) = line.strip_prefix("name = \"") {
            if inside {
                names.insert(name.trim_end_matches('"').to_string());
            }
        }
    }
    names
}

/// File stems of the `.rs` files directly inside `dir`.
fn rust_files(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            let stem = path.file_stem()?.to_str()?.to_string();
            (path.extension()? == "rs").then_some(stem)
        })
        .collect()
}

/// Every `(flag, target)` pair a document names, e.g. `("--bin", "repro")`.
fn named_targets(text: &str) -> Vec<(&'static str, String)> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut found = Vec::new();
    for pair in words.windows(2) {
        let flag = pair[0].trim_start_matches(['`', '(']);
        let known = ["--bin", "--example", "--test", "--bench"];
        let Some(flag) = known.into_iter().find(|k| *k == flag) else {
            continue;
        };
        let name: String = pair[1]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
            .collect();
        if !name.is_empty() && !name.starts_with('-') {
            found.push((flag, name));
        }
    }
    found
}

#[test]
fn every_named_target_exists() {
    let manifest = read("crates/bench/Cargo.toml");
    let bins = manifest_targets(&manifest, "bin");
    let benches = manifest_targets(&manifest, "bench");
    let examples = rust_files(&root().join("examples"));
    let tests = rust_files(&root().join("tests"));
    assert_eq!(
        bins.iter().map(String::as_str).collect::<Vec<_>>(),
        ["chaos", "repro"],
        "crates/bench keeps exactly the two driver binaries"
    );

    let mut missing = Vec::new();
    let mut seen = 0usize;
    for doc in DOCS {
        for (flag, name) in named_targets(&read(doc)) {
            seen += 1;
            let known = match flag {
                "--bin" => &bins,
                "--bench" => &benches,
                "--example" => &examples,
                _ => &tests,
            };
            if !known.contains(&name) {
                missing.push(format!("{doc}: {flag} {name}"));
            }
        }
    }
    assert!(seen > 20, "the scan found only {seen} target mentions");
    assert!(
        missing.is_empty(),
        "targets that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn no_retired_snapshot_name_survives() {
    for doc in DOCS.into_iter().chain([".claude/skills/verify/SKILL.md"]) {
        let text = read(doc);
        for name in RETIRED {
            assert!(!text.contains(name), "{doc} names the retired `{name}`");
        }
        for (at, _) in text.match_indices("BENCH_") {
            let bare = !text[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
            assert!(
                !bare,
                "{doc} names a retired snapshot: {}",
                text[at..].lines().next().unwrap_or_default()
            );
        }
    }
}

#[test]
fn the_scanner_reads_what_the_docs_write() {
    let text = "cargo test --test golden_store --test store_differential\n\
                `--bin chaos` and (--bench ablations), `--example large_scale`.\n\
                a trailing --test";
    assert_eq!(
        named_targets(text),
        [
            ("--test", "golden_store".to_string()),
            ("--test", "store_differential".to_string()),
            ("--bin", "chaos".to_string()),
            ("--bench", "ablations".to_string()),
            ("--example", "large_scale".to_string()),
        ]
    );
    let manifest = "[[bin]]\nname = \"a\"\npath = \"x\"\n\n[[bench]]\nname = \"b\"\n";
    assert_eq!(
        manifest_targets(manifest, "bin"),
        BTreeSet::from(["a".into()])
    );
    assert_eq!(
        manifest_targets(manifest, "bench"),
        BTreeSet::from(["b".into()])
    );
}

/// The five layers of `crates/device/src` — once five crates — with their
/// modules and the layers each may name. A module names a module of its own
/// layer or of a layer listed here, and nothing else in the stack.
const DEVICE_LAYERS: [(&str, &[&str], &[&str]); 5] = [
    (
        "radio",
        &[
            "bs",
            "deployment",
            "emm",
            "environment",
            "geometry",
            "interference",
            "load",
            "propagation",
            "selection",
            "transitions",
        ],
        &[],
    ),
    ("netstack", &["counters", "link", "probe", "stack"], &[]),
    (
        "modem",
        &["cause_mix", "fault", "modem", "setup"],
        &["radio"],
    ),
    (
        "telephony",
        &[
            "data_connection",
            "dc_tracker",
            "device_sim",
            "events",
            "rat_policy",
            "recovery",
            "service_state",
            "sms",
            "stall",
        ],
        &["radio", "modem", "netstack"],
    ),
    (
        "monitor",
        &["filter", "overhead", "probing", "service", "uploader"],
        &["netstack", "telephony"],
    ),
];

/// The first path segment of every `crate::…` path in `src`, with each
/// item of a `crate::{x::…, y::{…}}` group counted on its own.
fn crate_paths(src: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (at, _) in src.match_indices("crate::") {
        let rest = &src[at + "crate::".len()..];
        if let Some(group) = rest.strip_prefix('{') {
            let (mut depth, mut start) = (0usize, 0usize);
            for (i, c) in group.char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' if depth == 0 => {
                        found.push(group[start..i].to_string());
                        break;
                    }
                    '}' => depth -= 1,
                    ',' if depth == 0 => {
                        found.push(group[start..i].to_string());
                        start = i + 1;
                    }
                    _ => {}
                }
            }
        } else {
            found.push(rest.to_string());
        }
    }
    found
        .iter()
        .map(|path| {
            path.trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<String>()
        })
        .filter(|segment| !segment.is_empty())
        .collect()
}

/// `[dependencies]` keys of a manifest.
fn manifest_dependencies(manifest: &str) -> BTreeSet<String> {
    let mut inside = false;
    let mut deps = BTreeSet::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == "[dependencies]";
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            let key = line.split(['.', '=', ' ']).next().unwrap_or_default();
            deps.insert(key.to_string());
        }
    }
    deps
}

#[test]
fn device_modules_keep_the_stack_layering() {
    // The scanner reads every path form a module can write.
    let src = "use crate::bs::BaseStation;\n\
               use crate::{link::LinkCondition, probe::{run_probe, ProbeVerdict}, Modem};\n\
               let x = crate::load::diurnal_factor(h); // [`crate::DeviceSim`]";
    assert_eq!(
        crate_paths(src),
        ["bs", "link", "probe", "Modem", "load", "DeviceSim"]
    );
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\na.workspace = true\n\
                    b = { path = \"b\" }\n\n[dev-dependencies]\nc.workspace = true\n";
    assert_eq!(
        manifest_dependencies(manifest),
        BTreeSet::from(["a".into(), "b".into()])
    );

    let dir = root().join("crates/device/src");
    let entry = |module: &str| {
        DEVICE_LAYERS
            .iter()
            .find(|(_, modules, _)| modules.contains(&module))
    };
    let layer_of_module = |module: &str| entry(module).map(|(layer, _, _)| *layer);
    // A root re-export (`crate::DeviceSim`) belongs to its module's layer.
    let lib = read("crates/device/src/lib.rs");
    let mut layer_of_name = BTreeMap::new();
    for line in lib.lines().filter_map(|l| l.strip_prefix("pub use ")) {
        let (module, names) = line.split_once("::").expect("pub use module::…");
        let layer = layer_of_module(module).unwrap_or_else(|| panic!("lib.rs: {line}"));
        for name in names.trim_matches(|c| "{};".contains(c)).split(',') {
            layer_of_name.insert(name.trim().to_string(), layer);
        }
    }

    let mut wrong = Vec::new();
    for module in rust_files(&dir).iter().filter(|m| *m != "lib") {
        let Some((layer, _, below)) = entry(module) else {
            wrong.push(format!("{module}.rs is in no layer of DEVICE_LAYERS"));
            continue;
        };
        let src = std::fs::read_to_string(dir.join(format!("{module}.rs"))).expect("module");
        for segment in crate_paths(&src) {
            let Some(target) =
                layer_of_module(&segment).or_else(|| layer_of_name.get(&segment).copied())
            else {
                wrong.push(format!(
                    "{module}.rs names crate::{segment}, which lib.rs does not declare"
                ));
                continue;
            };
            if target != *layer && !below.contains(&target) {
                wrong.push(format!(
                    "{module}.rs ({layer}) names crate::{segment} ({target})"
                ));
            }
        }
        if *layer != "monitor" && src.contains("cellrel_ingest") {
            wrong.push(format!("{module}.rs ({layer}) names cellrel_ingest"));
        }
    }
    assert!(wrong.is_empty(), "layering broken:\n{}", wrong.join("\n"));

    let deps = manifest_dependencies(&read("crates/device/Cargo.toml"));
    assert_eq!(
        deps.iter().map(String::as_str).collect::<Vec<_>>(),
        ["cellrel-ingest", "cellrel-sim", "cellrel-types"],
        "cellrel-device depends on the types, the simulator and the ingest wire codec only"
    );
}
