//! The repo benchmark: device event → served Tables 1/2, five workloads (four
//! of them gated by the driver), a per-layer budget. `BENCHMARK.json` at the
//! root of the repository is the contract; README.md beside this package is
//! the glossary.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload ingest_stream --seed 2021 --seconds 30 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric, its times
//! calibrated against the host's speed (see `calib`); a traced run
//! (`--trace 1`) records a span around every call into a layer and
//! prints every per-layer metric. The last line of standard output is one
//! JSON object. The exit code is non-zero when any output was wrong.

// Wall-clock is the *measurement* here, not simulation state — benches are
// outside the Instant/SystemTime gate.
#![allow(clippy::disallowed_types)]
#![warn(missing_docs)]

/// Host-speed calibration.
mod calib;
/// Inputs and the batch reference.
mod fixture;
/// JSON parser and writer.
mod json;
/// Stand-alone layer probes and span-derived metrics.
mod probes;
/// Result forms and the `--check` comparator.
mod report;
/// `BENCHMARK.json`, parsed.
mod spec;
/// Medians, percentiles, quartiles.
mod stats;
/// Spans, self time, trace files.
mod trace;
/// The five workloads.
mod workloads;

use calib::Calibrator;
use fixture::{Fixture, Sizes};
use probes::Traced;
use report::{compare, read_flat, Results, Verdict};
use spec::Spec;
use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{run_rep, Rep};

/// An untraced run makes at least this many repetitions, however long one
/// takes: a median of fewer is a single run's swing.
const MIN_REPS: usize = 3;

/// Printed with every usage error.
const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
            [--reps N] [--quick] [--out PREFIX] [--trace-dir DIR]
  benchmark --check A.tsv B.tsv";

/// How one run was asked for.
#[derive(Debug, Clone)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Repetitions instead of a time budget (untraced runs).
    reps: Option<usize>,
    quick: bool,
    /// Write `PREFIX.json` and `PREFIX.tsv`.
    out: Option<PathBuf>,
    /// Write `trace.<workload>.json` and `layers.<workload>.txt` here.
    trace_dir: Option<PathBuf>,
}

/// What the command line asks for.
enum Command {
    Run(Options),
    Check(PathBuf, PathBuf),
}

/// Parse the driver's arguments and this package's own.
fn parse_args(spec: &Spec, args: &[String]) -> Result<Command, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 2021,
        seconds: spec.run_seconds as f64,
        traced: false,
        reps: None,
        quick: false,
        out: None,
        trace_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: bad value `{v}`");
        match flag.as_str() {
            "--check" => {
                return Ok(Command::Check(value()?.into(), value()?.into()));
            }
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                o.seconds = value()
                    .and_then(|v| v.parse().map_err(|_| bad(v)))
                    .and_then(|s: f64| {
                        (s.is_finite() && s > 0.0)
                            .then_some(s)
                            .ok_or("--seconds must be positive".to_string())
                    })?;
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--reps" => {
                let n: usize = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                o.reps = Some(n.max(1));
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value()?.into()),
            "--trace-dir" => o.trace_dir = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workloads::NAMES.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Command::Run(o))
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Threads the host can run at once.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Echo how the run was made, so a result file says what it measured.
fn echo_config(r: &mut Results, o: &Options, sizes: &Sizes, reps: usize) {
    r.echo("config.seed", o.seed, "count");
    r.echo("config.quick", u8::from(o.quick), "count");
    r.echo("config.traced", u8::from(o.traced), "count");
    r.echo("config.nproc", nproc(), "count");
    r.echo("config.devices", sizes.devices, "count");
    r.echo("config.days", sizes.days, "count");
    r.echo("config.rounds", sizes.rounds, "count");
    r.echo("config.fleet_devices", sizes.fleet_devices, "count");
    r.echo("config.scenarios", sizes.scenarios, "count");
    r.echo("config.study_passes", sizes.study_passes, "count");
    r.echo("config.setups", sizes.setups, "count");
    r.echo("config.reps", reps, "reps");
    r.echo("config.seconds", o.seconds, "s");
}

/// The untraced run: repeat the workload for `--seconds`, set up
/// `sizes.setups` times along the way, and report every end-to-end metric.
/// Every piece of timed work — a set-up, a stage of a repetition — runs
/// between two passes of the calibration kernel, and its times are stated in
/// reference-box units (see [`calib`]).
fn run_untraced(spec: &Spec, o: &Options) -> Results {
    let sizes = Sizes::of(&o.workload, o.quick);
    let preload = o.workload == "serve_live";
    let mut cal = Calibrator::on();
    // Build the fixture: it, its set-up seconds, and the host's speed
    // meanwhile.
    let set_up = |cal: &mut Calibrator| {
        let fx = Fixture::build(&sizes, o.seed, preload);
        let timed = (fx.setup_s, cal.mark());
        (fx, timed)
    };
    let (fx, first) = set_up(&mut cal);
    let mut setups = vec![first];

    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(run_rep(
            &o.workload,
            &fx,
            &sizes,
            o.seed,
            &mut Tracer::off(),
            &mut cal,
        ));
        // The other set-ups are spread over the run, one after each
        // repetition: a noisy second cannot hit them all.
        if setups.len() < sizes.setups {
            setups.push(set_up(&mut cal).1);
        }
        let done = match o.reps {
            Some(n) => reps.len() >= n,
            None => reps.len() >= MIN_REPS && t0.elapsed().as_secs_f64() >= o.seconds,
        };
        if done {
            break;
        }
    }
    while setups.len() < sizes.setups {
        setups.push(set_up(&mut cal).1);
    }

    let mut r = Results::new(&o.workload, false);
    let last = reps.last().expect("at least one repetition");
    // A count must repeat exactly: every repetition carried the same
    // records to the same bytes and the same digest.
    let mut identity = Rep::default();
    identity.check(
        reps.iter().all(|x| {
            (x.digest, x.records, x.durable_bytes)
                == (last.digest, last.records, last.durable_bytes)
        }),
        "digest, records and durable bytes identical across repetitions",
    );
    r.attempted = identity.attempted + reps.iter().map(|x| x.attempted).sum::<u64>();
    r.failed = identity.failed + reps.iter().map(|x| x.failed).sum::<u64>();

    // Every statistic is taken within a repetition, calibrated by the host's
    // speed during its stage of that repetition, and the median over
    // repetitions reported: interference that hits one repetition cannot
    // move it, whether the statistic is a rate or a latency percentile. What
    // the clock said, uncalibrated, is echoed as `raw.<metric>`.
    let mut timed = |name: &str, is_rate: bool, samples: Vec<(f64, f64)>| {
        let on_reference = |&(v, speed): &(f64, f64)| if is_rate { v / speed } else { v * speed };
        let calibrated: Vec<f64> = samples.iter().map(on_reference).collect();
        let raw: Vec<f64> = samples.iter().map(|&(v, _)| v).collect();
        r.put(spec, name, median(&calibrated));
        let unit = spec
            .end_to_end
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit.as_str());
        r.echo(&format!("raw.{name}"), median(&raw), unit);
    };
    let per_rep = |f: &dyn Fn(&Rep) -> (f64, f64)| reps.iter().map(f).collect::<Vec<_>>();
    timed("setup_s", false, setups);
    timed(
        "events_per_s",
        true,
        per_rep(&|x| (x.generated.0 as f64 / x.generated.1, x.speed.generate)),
    );
    timed(
        "records_per_s",
        true,
        per_rep(&|x| (x.records as f64 / x.write_s, x.speed.write)),
    );
    timed(
        "visible_p50_ms",
        false,
        per_rep(&|x| (median(&x.visible_ms), x.speed.write)),
    );
    timed(
        "recovery_ms",
        false,
        per_rep(&|x| (median(&x.recovery_ms), x.speed.recover)),
    );
    timed(
        "query_mean_us",
        false,
        per_rep(&|x| (median(&x.query_mean_us), x.speed.read)),
    );
    timed(
        "query_slowest_us",
        false,
        per_rep(&|x| (median(&x.query_slowest_us), x.speed.read)),
    );
    timed(
        "tables_p50_ms",
        false,
        per_rep(&|x| (median(&x.tables_ms), x.speed.read)),
    );
    r.put(
        spec,
        "durable_bytes_per_record",
        last.durable_bytes as f64 / last.records.max(1) as f64,
    );
    r.put(spec, "peak_rss_mb", peak_rss_mb());

    let speeds: Vec<f64> = reps.iter().map(|x| x.speed.write).collect();
    r.echo("host.speed_median", median(&speeds), "share");
    r.echo(
        "host.speed_min",
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        "share",
    );
    echo_config(&mut r, o, &sizes, reps.len());
    r.echo("config.records", last.records, "count");
    r.echo("config.batches", fx.batches.len(), "count");
    r.echo("samples.query_per_rep", last.query_us.len(), "samples");
    r.echo("samples.visible_per_rep", last.visible_ms.len(), "samples");
    r.echo("digest.reference", format!("{:016x}", fx.ref_digest), "hex");
    r.echo("digest.final", format!("{:016x}", last.digest), "hex");
    r
}

/// What a traced run leaves besides its metrics.
struct TraceFiles {
    chrome: String,
    layers: String,
}

/// The traced run. Every workload runs one traced repetition on its own
/// fixture, so a per-layer metric means the same whatever `--workload` was
/// asked for; the workload asked for gives the self-time shares and the
/// tracing overhead, and lends its fixture to the stand-alone probes. The
/// work is fixed: `--seconds` and `--reps` do not apply.
fn run_traced(spec: &Spec, o: &Options) -> (Results, TraceFiles) {
    let root = Tracer::on();
    let mut r = Results::new(&o.workload, true);
    let mut layered = probes::Layered::new();
    let mut traced: BTreeMap<String, Traced> = BTreeMap::new();
    let mut probe_tr = root.fork(0);

    for name in workloads::NAMES {
        let sizes = Sizes::of(name, o.quick);
        let fx = Fixture::build(&sizes, o.seed, name == "serve_live");
        let mut tr = root.fork(0);
        let rep = run_rep(name, &fx, &sizes, o.seed, &mut tr, &mut Calibrator::off());
        r.attempted += rep.attempted;
        r.failed += rep.failed;
        let rep = Traced {
            rep,
            spans: tr.into_spans(),
        };
        if name == o.workload {
            layered.extend(probes::standalone(&fx, &sizes, &mut probe_tr));
            echo_config(&mut r, o, &sizes, 1);
            r.echo("digest.reference", format!("{:016x}", fx.ref_digest), "hex");
        }
        match name {
            "ingest_stream" => layered.extend(probes::stream_extras(&fx, &rep.rep)),
            "cluster" => layered.extend(probes::cluster_extras(&fx, &rep.rep, &mut probe_tr)),
            _ => {}
        }
        traced.insert(name.to_string(), rep);
    }
    layered.extend(probes::from_traces(&traced));
    let own = &traced[&o.workload];
    layered.extend(probes::self_shares(own));
    layered.insert(
        "trace_overhead_share".into(),
        own.spans.len() as f64 * probes::span_cost_s() / own.rep.wall_s,
    );
    for (name, value) in &layered {
        r.put(spec, name, *value);
    }

    let layers = trace::layer_table(&own.spans, (own.rep.wall_s * 1e9) as u64);
    // One file: the workload's repetition, then the probes, on one clock.
    let mut file_spans = own.spans.clone();
    trace::append(&mut file_spans, probe_tr.into_spans());
    let files = TraceFiles {
        chrome: trace::chrome_trace(&file_spans),
        layers,
    };
    (r, files)
}

/// Write `text` to `path`, creating its directory.
fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run: print every metric, write the files asked for, end with the
/// driver's line. `Ok(false)` when an output was wrong.
fn run(spec: &Spec, o: &Options) -> Result<bool, String> {
    let (results, files) = if o.traced {
        let (r, f) = run_traced(spec, o);
        (r, Some(f))
    } else {
        (run_untraced(spec, o), None)
    };
    print!("{}", results.table(spec));
    if let (Some(dir), Some(files)) = (&o.trace_dir, &files) {
        write_file(
            &dir.join(format!("trace.{}.json", o.workload)),
            &files.chrome,
        )?;
        write_file(
            &dir.join(format!("layers.{}.txt", o.workload)),
            &files.layers,
        )?;
    }
    if let Some(files) = &files {
        print!("{}", files.layers);
    }
    if let Some(prefix) = &o.out {
        // Appended, not `with_extension`: a prefix such as `a.cluster` keeps
        // its dot.
        let with = |ext: &str| PathBuf::from(format!("{}.{ext}", prefix.display()));
        write_file(&with("json"), &results.json_file(spec)?)?;
        write_file(&with("tsv"), &results.tsv(spec)?)?;
    }
    println!("{}", results.last_line(spec)?);
    Ok(results.correct())
}

/// `--check A B`: one row per (metric, workload). `Ok(false)` on any `worse`.
fn check(spec: &Spec, a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| read_flat(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let rows = compare(spec, &read(a)?, &read(b)?);
    for row in &rows {
        println!(
            "{:<10} {:<44} {:<14} {}",
            row.verdict.word(),
            row.metric,
            row.workload,
            row.detail
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved, {} info",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Info)
    );
    Ok(count(Verdict::Worse) == 0)
}

/// Exit code 0: all correct. 1: wrong outputs, or `--check` found `worse`.
/// 2: usage or harness error.
fn main() -> ExitCode {
    let spec = Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&spec, &args) {
        Ok(Command::Run(o)) => run(&spec, &o),
        Ok(Command::Check(a, b)) => check(&spec, &a, &b),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(workload: &str, traced: bool) -> Options {
        Options {
            workload: workload.to_string(),
            seed: 2021,
            seconds: 1.0,
            traced,
            reps: Some(1),
            quick: true,
            out: None,
            trace_dir: None,
        }
    }

    /// All five workloads (the four gated ones and `serve_live`) at `--quick`
    /// sizes, untraced and traced: nothing fails and every metric
    /// `BENCHMARK.json` names gets a finite value. A later change to a public
    /// signature the benchmark calls breaks this build; a metric that stops
    /// being produced breaks this test.
    #[test]
    fn quick_run_of_every_workload_emits_every_metric() {
        let spec = Spec::load();
        for workload in workloads::NAMES {
            let r = run_untraced(&spec, &options(workload, false));
            assert_eq!(r.failed, 0, "{workload}: failed operations");
            assert!(r.attempted > 0);
            assert_eq!(r.unresolved(&spec), Vec::<String>::new(), "{workload}");
            for m in &spec.end_to_end {
                assert!(r.get(&m.name).unwrap() > 0.0, "{workload}: {} is 0", m.name);
            }
            json::parse(&r.last_line(&spec).unwrap()).expect("last line is JSON");
        }
        // Every traced run traces all five workloads, so one is enough to
        // reach every per-layer metric; two check it does not depend on
        // which workload was selected.
        for workload in ["serve_live", "fleet_sim"] {
            let (r, files) = run_traced(&spec, &options(workload, true));
            assert_eq!(r.failed, 0, "{workload}: failed operations");
            assert_eq!(r.unresolved(&spec), Vec::<String>::new(), "{workload}");
            let doc = json::parse(&files.chrome).expect("trace is JSON");
            assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
            assert!(files.layers.contains("[stream]") || files.layers.contains("[workload]"));
        }
    }

    #[test]
    fn arguments_are_the_drivers() {
        let spec = Spec::load();
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let Ok(Command::Run(o)) = parse_args(
            &spec,
            &args("--workload cluster --seed 7 --seconds 3 --trace 1"),
        ) else {
            panic!("driver arguments must parse");
        };
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.traced),
            ("cluster", 7, 3.0, true)
        );
        assert!(matches!(
            parse_args(&spec, &args("--check a.tsv b.tsv")),
            Ok(Command::Check(..))
        ));
        for bad in [
            "",
            "--workload nope",
            "--workload cluster --trace 2",
            "--workload cluster --seconds 0",
            "--workload cluster --seed x",
            "--workload cluster --frobnicate",
            "--check a.tsv",
        ] {
            assert!(parse_args(&spec, &args(bad)).is_err(), "{bad:?}");
        }
    }
}
