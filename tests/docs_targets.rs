//! Docs and CI never name a cargo target that does not exist.
//!
//! README.md, TESTING.md, EXPERIMENTS.md, DESIGN.md and the CI workflow
//! are scanned for `--bin X`, `--example X`, `--test X` and `--bench X`;
//! every `X` must be a `[[bin]]` / `[[bench]]` of `crates/bench`, a file
//! in `examples/`, or a file in `tests/`. The per-tier `BENCH_<name>.json`
//! snapshots are retired (measurement lives in `benchmark/`), so no
//! `BENCH_` file name may reappear in those documents either, and neither
//! may the name of a second driver that was deleted (`RETIRED`).

use std::collections::BTreeSet;
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
