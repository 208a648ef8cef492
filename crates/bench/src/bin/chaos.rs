//! `chaos` — run a deterministic fault campaign on the one campaign engine,
//! or replay one scenario from a violation report.
//!
//! ```sh
//! cargo run --release -p cellrel-bench --bin chaos -- --scenarios 64 \
//!     --threads 2 --fail-on-violation --csv out/
//! cargo run --release -p cellrel-bench --bin chaos -- --replay 41
//! cargo run --release -p cellrel-bench --bin chaos -- --kill-restart --scenarios 8
//! cargo run --release -p cellrel-bench --bin chaos -- --failover --scenarios 8 --shards 2
//! ```
//!
//! Every mode reads `--scenarios N`, `--seed S` (default 2021),
//! `--threads N` (0 = auto), `--replay ID` (run one scenario and print its
//! violations), `--csv DIR` (write summary + violations CSV into DIR) and
//! `--fail-on-violation` (exit 1 if any invariant fails); prints the same
//! summary / coverage / violations tables; and ends in `digest: <hex>`, the
//! report's content digest — identical at any thread count and across
//! re-runs, CI compares it to catch nondeterminism. A flag the selected
//! mode does not read exits 2.
//!
//! - **Device chaos** (no mode flag, 256 scenarios by default): the fault ×
//!   schedule × policy grid with cross-stack invariant checking. `--hours H`
//!   (fault horizon, default 6), `--metrics` (telemetry on: metrics tables
//!   plus a thread-count-invariant `registry digest:` line), `--trace-out
//!   FILE` (implies `--metrics`; device spans — stall recoveries, OOS
//!   outages — as Chrome trace-event JSON for Perfetto).
//! - **`--kill-restart`** (32 kills by default): scenario `i` kills the
//!   streaming pipeline at a random batch of a live-ordered upload stream
//!   (`--devices`, `--days`, `--batch` size the fleet; `--seed` seeds fleet
//!   and kill points), restores it from its last durable checkpoint and
//!   replays to the end; anything that then differs from the uninterrupted
//!   run (store digest, manifest, Tables 1/2, counters) is a violation.
//!   `--replay ID` also prints the kill point and the restored cursor.
//! - **`--failover`**: the same over a cluster of `--shards P` (default 2)
//!   leaders with one follower each — scenario `i` kills a random shard's
//!   leader, promotes the follower from its last checkpoint and re-drives.

use cellrel::analysis::export::{
    campaign_coverage_table, campaign_summary_csv, campaign_summary_table, campaign_violations_csv,
    campaign_violations_table,
};
use cellrel::analysis::render_metrics;
use cellrel::cluster::{failover_drill, shard_directories, ClusterConfig};
use cellrel::sim::campaign::ScenarioOutcome;
use cellrel::store::DeviceDirectory;
use cellrel::stream::{batches_from_events, kill_restart_drill, KillPlan, StreamConfig};
use cellrel::types::SimDuration;
use cellrel::workload::{
    replay_scenario, run_chaos_campaign, run_chaos_campaign_metrics, run_macro_study, ChaosConfig,
    ChaosScenario, PopulationConfig, StudyConfig,
};

/// A usage error: say why on stderr, exit 2.
fn die(why: impl std::fmt::Display) -> ! {
    eprintln!("chaos: {why}");
    std::process::exit(2)
}

fn parse_flag<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args
        .get(pos + 1)
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse::<T>()
        .unwrap_or_else(|_| panic!("{flag}: bad value"));
    args.drain(pos..pos + 2);
    Some(value)
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    pos.map(|pos| args.remove(pos)).is_some()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let kill_restart = take_switch(&mut args, "--kill-restart");
    let failover = take_switch(&mut args, "--failover");
    let (mode, unread): (&str, &[&str]) = match (kill_restart, failover) {
        (true, true) => die("--kill-restart and --failover are two modes, pick one"),
        (true, false) => (
            "kill-restart",
            &["--hours", "--metrics", "--trace-out", "--shards"],
        ),
        (false, true) => ("failover", &["--hours", "--metrics", "--trace-out"]),
        (false, false) => ("device", &["--devices", "--days", "--batch", "--shards"]),
    };
    if let Some(flag) = args.iter().find(|a| unread.contains(&a.as_str())) {
        die(format!("{flag} is not read in {mode} mode"));
    }
    let scenarios = parse_flag::<u64>(&mut args, "--scenarios");
    let seed = parse_flag::<u64>(&mut args, "--seed").unwrap_or(2021);
    let threads = parse_flag::<usize>(&mut args, "--threads").unwrap_or(0);
    let replay = parse_flag::<u64>(&mut args, "--replay");
    let csv_dir = parse_flag::<String>(&mut args, "--csv");
    let fail_on_violation = take_switch(&mut args, "--fail-on-violation");
    let hours = parse_flag::<u64>(&mut args, "--hours");
    let trace_out = parse_flag::<String>(&mut args, "--trace-out");
    let metrics = take_switch(&mut args, "--metrics") || trace_out.is_some();
    let devices = parse_flag::<usize>(&mut args, "--devices").unwrap_or(1_200);
    let days = parse_flag::<u64>(&mut args, "--days").unwrap_or(10);
    let batch_cap = parse_flag::<usize>(&mut args, "--batch").unwrap_or(48);
    let shards = parse_flag::<usize>(&mut args, "--shards").unwrap_or(2);
    if !args.is_empty() {
        die(format!("unrecognised arguments: {args:?}"));
    }

    let mut metrics_snap = None;
    let report = if mode == "device" {
        let mut cfg = ChaosConfig {
            root_seed: seed,
            threads,
            ..ChaosConfig::default()
        };
        cfg.scenarios = scenarios.unwrap_or(cfg.scenarios);
        cfg.horizon = hours.map_or(cfg.horizon, SimDuration::from_hours);
        if let Some(id) = replay {
            // Same seed derivation as the campaign run, so the outcome (and
            // any violation's event index) is identical.
            let scenario = ChaosScenario::decode(id).describe();
            eprintln!("chaos: replaying scenario {id} (seed {seed}): {scenario}");
            finish_replay(&replay_scenario(&cfg, id), fail_on_violation);
        }
        eprintln!(
            "chaos: {} scenarios (grid {}), seed {seed}, horizon {} + grace {}, threads {}",
            cfg.scenarios,
            ChaosScenario::GRID,
            cfg.horizon,
            cfg.grace,
            if threads == 0 {
                "auto".to_string()
            } else {
                threads.to_string()
            },
        );
        if metrics {
            let (report, snap) = run_chaos_campaign_metrics(&cfg, trace_out.is_some());
            metrics_snap = Some(snap);
            report
        } else {
            run_chaos_campaign(&cfg)
        }
    } else {
        let (dir, batches, scfg) = upload_stream(seed, devices, days, batch_cap.max(1));
        let kills = scenarios.unwrap_or(32);
        let plan = KillPlan { kills, seed };
        let (ccfg, dirs);
        let drill = if kill_restart {
            kill_restart_drill(&scfg, &plan, 5, &dir, &batches).unwrap_or_else(|e| die(e))
        } else {
            ccfg = ClusterConfig {
                shards: shards.max(1),
                replicas: 1,
                checkpoint_every: 8,
            };
            dirs = shard_directories(&dir, ccfg.shards);
            failover_drill(&scfg, &ccfg, &plan, &dirs, &batches).unwrap_or_else(|e| die(e))
        };
        println!("{mode}: {kills} kills over {}", drill.baseline);
        if let Some(id) = replay {
            if id >= kills {
                die(format!("--replay {id}: the plan has {kills} kills"));
            }
            let kill = drill.kill(id);
            let cursor = kill
                .restored_cursor
                .map_or("none".into(), |c| c.to_string());
            let (at, shard) = (kill.kill_at, kill.shard);
            println!("kill {id}: after batch {at} on shard {shard}, restored cursor {cursor}");
            finish_replay(&kill.outcome, fail_on_violation);
        }
        println!();
        drill.run(threads)
    };

    let mut summary = campaign_summary_table(&report);
    if mode == "device" {
        let grid = ChaosScenario::GRID.to_string();
        summary.row(vec!["scenario grid size".into(), grid]);
    }
    print!("{}", summary.render());
    println!();
    print!("{}", campaign_coverage_table(&report).render());
    if !report.violations.is_empty() {
        println!();
        print!("{}", campaign_violations_table(&report).render());
        println!();
        println!("replay any violation with the same arguments plus: --replay <scenario>");
    }

    if let Some(dir) = csv_dir {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create csv dir");
        std::fs::write(
            dir.join("campaign_summary.csv"),
            campaign_summary_csv(&report),
        )
        .expect("write summary csv");
        std::fs::write(
            dir.join("campaign_violations.csv"),
            campaign_violations_csv(&report),
        )
        .expect("write violations csv");
        eprintln!("chaos: CSV written to {}", dir.display());
    }

    if let Some(snap) = &metrics_snap {
        println!();
        print!("{}", render_metrics(snap));
        if let Some(path) = &trace_out {
            std::fs::write(path, snap.trace_sink().to_chrome_json()).expect("write trace file");
            eprintln!(
                "chaos: wrote Chrome trace to {path} ({} events)",
                snap.trace().len()
            );
        }
    }

    println!("digest: {:016x}", report.digest());

    if fail_on_violation && !report.violations.is_empty() {
        std::process::exit(1);
    }
}

/// `--replay`: print one scenario's outcome — events, coverage labels,
/// violations — and stop; exit 1 for a violation under `--fail-on-violation`.
fn finish_replay(outcome: &ScenarioOutcome, fail_on_violation: bool) -> ! {
    let (id, events, violations) = (outcome.scenario, outcome.events, &outcome.violations);
    let count = violations.len();
    println!("scenario {id}: {events} events, {count} violation(s)");
    println!("  coverage: {}", outcome.coverage.join(" "));
    for v in violations {
        println!("  {v}");
    }
    std::process::exit(i32::from(fail_on_violation && !violations.is_empty()))
}

/// The live-ordered upload stream both recovery drills replay: one seeded
/// macro study cut into upload batches, plus the pipeline configuration
/// every node in the drill runs.
fn upload_stream(
    seed: u64,
    devices: usize,
    days: u64,
    batch_cap: usize,
) -> (DeviceDirectory, Vec<Vec<u8>>, StreamConfig) {
    eprintln!(
        "chaos: upload stream — {devices} devices x {days} days \
         (seed {seed}, batch cap {batch_cap})"
    );
    let data = run_macro_study(&StudyConfig {
        population: PopulationConfig {
            devices,
            ..Default::default()
        },
        days,
        bs_count: 2_000,
        seed,
    });
    let cfg = StreamConfig {
        window_ms: 86_400_000,
        lateness_ms: 2 * 3_600_000,
        hot_windows: 3,
        late_flush: 512,
        ..StreamConfig::default()
    };
    let dir = DeviceDirectory::from_population(&data.population);
    (dir, batches_from_events(&data.events, batch_cap), cfg)
}
