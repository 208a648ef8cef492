//! `chaos` — run a deterministic fault campaign with cross-stack invariant
//! checking, or replay one scenario from a violation report.
//!
//! ```sh
//! cargo run --release -p cellrel-bench --bin chaos -- --scenarios 256
//! cargo run --release -p cellrel-bench --bin chaos -- --replay 41
//! cargo run --release -p cellrel-bench --bin chaos -- --scenarios 64 \
//!     --threads 2 --fail-on-violation --csv out/
//! ```
//!
//! Flags: `--scenarios N` (default 256), `--seed S` (default 2021),
//! `--threads N` (0 = auto), `--hours H` (fault horizon, default 6),
//! `--replay ID` (run one scenario and print its violations),
//! `--csv DIR` (write summary + violations CSV into DIR),
//! `--fail-on-violation` (exit 1 if any invariant fails),
//! `--metrics` (run with telemetry attached and print the metrics tables
//! plus a thread-count-invariant `registry digest:` line),
//! `--trace-out FILE` (implies `--metrics`; write device spans — stall
//! recoveries, OOS outages — as Chrome trace-event JSON for Perfetto).
//!
//! `--kill-restart` switches to the streaming-pipeline kill/restart
//! campaign instead: `--kills N` (default 32) random kill points over a
//! live-ordered upload stream (`--devices`, `--days`, `--batch` size the
//! fleet; `--seed` seeds both the fleet and the kill points), each
//! restored from its last durable checkpoint and replayed to the end —
//! any divergence from the uninterrupted run (store digest, manifest,
//! Tables 1/2, counters) exits non-zero. The final `digest:` line is the
//! campaign content digest, identical across reruns.
//!
//! `--failover` runs the cluster's leader-kill campaign over the same
//! stream instead: `--shards P` (default 2) shard leaders with one
//! follower each, `--kills N` random (batch, shard) kill points, each
//! promoted from the follower's last checkpoint and re-driven to the end
//! — any divergence from the uninterrupted cluster exits non-zero, and
//! the final `digest:` line is again the cross-run campaign digest.
//!
//! The final `digest: <hex>` line is the campaign's content digest: it is
//! identical at any thread count and across re-runs — CI compares it to
//! catch nondeterminism.

// Wall-clock only times the recovery campaigns for the operator's stderr
// line, never simulation state — benches are outside the workspace-wide
// Instant/SystemTime gate.
#![allow(clippy::disallowed_types)]

use cellrel::analysis::export::{
    campaign_coverage_table, campaign_summary_csv, campaign_summary_table, campaign_violations_csv,
    campaign_violations_table,
};
use cellrel::analysis::render_metrics;
use cellrel::cluster::{run_failover, shard_directories, ClusterConfig, FailoverConfig};
use cellrel::ingest::CollectorConfig;
use cellrel::store::{DeviceDirectory, StoreConfig};
use cellrel::stream::{batches_from_events, run_kill_restart, KillRestartConfig, StreamConfig};
use cellrel::types::SimDuration;
use cellrel::workload::{
    replay_scenario, run_chaos_campaign, run_chaos_campaign_metrics, run_macro_study, ChaosConfig,
    ChaosScenario, PopulationConfig, StudyConfig,
};
use std::time::Instant;

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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ChaosConfig::default();
    if let Some(n) = parse_flag::<u64>(&mut args, "--scenarios") {
        cfg.scenarios = n;
    }
    if let Some(s) = parse_flag::<u64>(&mut args, "--seed") {
        cfg.root_seed = s;
    }
    if let Some(t) = parse_flag::<usize>(&mut args, "--threads") {
        cfg.threads = t;
    }
    if let Some(h) = parse_flag::<u64>(&mut args, "--hours") {
        cfg.horizon = SimDuration::from_hours(h);
    }
    let replay = parse_flag::<u64>(&mut args, "--replay");
    let csv_dir = parse_flag::<String>(&mut args, "--csv");
    let trace_out = parse_flag::<String>(&mut args, "--trace-out");
    let mut metrics = trace_out.is_some();
    if let Some(pos) = args.iter().position(|a| a == "--metrics") {
        args.remove(pos);
        metrics = true;
    }
    let fail_on_violation = if let Some(pos) = args.iter().position(|a| a == "--fail-on-violation")
    {
        args.remove(pos);
        true
    } else {
        false
    };
    let kill_restart = if let Some(pos) = args.iter().position(|a| a == "--kill-restart") {
        args.remove(pos);
        true
    } else {
        false
    };
    let failover = if let Some(pos) = args.iter().position(|a| a == "--failover") {
        args.remove(pos);
        true
    } else {
        false
    };
    let kills = parse_flag::<usize>(&mut args, "--kills").unwrap_or(32);
    let kr_devices = parse_flag::<usize>(&mut args, "--devices").unwrap_or(1_200);
    let kr_days = parse_flag::<u64>(&mut args, "--days").unwrap_or(10);
    let batch_cap = parse_flag::<usize>(&mut args, "--batch")
        .unwrap_or(48)
        .max(1);
    let shards = parse_flag::<usize>(&mut args, "--shards")
        .unwrap_or(2)
        .max(1);
    assert!(args.is_empty(), "unrecognised arguments: {args:?}");

    if kill_restart || failover {
        let fleet = UploadStream::generate(cfg.root_seed, kr_devices, kr_days, batch_cap);
        if kill_restart {
            stream_kill_restart(&fleet, kills);
        } else {
            cluster_failover(&fleet, kills, shards);
        }
        return;
    }

    if let Some(id) = replay {
        // Replay one scenario: same seed derivation as the campaign run,
        // so the outcome (and any violation's event index) is identical.
        let scenario = ChaosScenario::decode(id);
        eprintln!(
            "chaos: replaying scenario {id} (seed {}): {}",
            cfg.root_seed,
            scenario.describe()
        );
        let outcome = replay_scenario(&cfg, id);
        println!(
            "scenario {id}: {} events, {} violation(s)",
            outcome.events,
            outcome.violations.len()
        );
        for v in &outcome.violations {
            println!("  {v}");
        }
        if fail_on_violation && !outcome.violations.is_empty() {
            std::process::exit(1);
        }
        return;
    }

    eprintln!(
        "chaos: {} scenarios (grid {}), seed {}, horizon {} + grace {}, threads {}",
        cfg.scenarios,
        ChaosScenario::GRID,
        cfg.root_seed,
        cfg.horizon,
        cfg.grace,
        if cfg.threads == 0 {
            "auto".to_string()
        } else {
            cfg.threads.to_string()
        },
    );
    let (report, metrics_snap) = if metrics {
        let (report, snap) = run_chaos_campaign_metrics(&cfg, trace_out.is_some());
        (report, Some(snap))
    } else {
        (run_chaos_campaign(&cfg), None)
    };

    print!("{}", campaign_summary_table(&report).render());
    println!();
    print!("{}", campaign_coverage_table(&report).render());
    if !report.violations.is_empty() {
        println!();
        print!("{}", campaign_violations_table(&report).render());
        println!();
        println!(
            "replay any violation with: chaos --seed {} --replay <scenario>",
            cfg.root_seed
        );
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

/// The live-ordered upload stream both recovery campaigns replay: one
/// seeded macro study cut into upload batches, plus the pipeline
/// configuration every node in the campaign runs.
struct UploadStream {
    seed: u64,
    dir: DeviceDirectory,
    batches: Vec<Vec<u8>>,
    cfg: StreamConfig,
}

impl UploadStream {
    fn generate(seed: u64, devices: usize, days: u64, batch_cap: usize) -> Self {
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
        UploadStream {
            seed,
            dir: DeviceDirectory::from_population(&data.population),
            batches: batches_from_events(&data.events, batch_cap),
            cfg: StreamConfig {
                window_ms: 86_400_000,
                lateness_ms: 2 * 3_600_000,
                hot_windows: 3,
                late_flush: 512,
                collector: CollectorConfig::default(),
                store: StoreConfig::default(),
            },
        }
    }
}

/// The streaming-pipeline kill/restart campaign: `kills` random crash
/// points over one live-ordered upload stream, each restored from its
/// last durable checkpoint and required to reproduce the uninterrupted
/// run byte for byte. Exits non-zero on any divergence.
fn stream_kill_restart(fleet: &UploadStream, kills: usize) {
    let t0 = Instant::now();
    let kcfg = KillRestartConfig {
        kills,
        seed: fleet.seed,
        checkpoint_every: 5,
    };
    let report =
        run_kill_restart(&fleet.cfg, &kcfg, &fleet.dir, &fleet.batches).expect("campaign runs");
    for o in report.outcomes.iter().filter(|o| !o.ok) {
        println!(
            "kill at batch {} (restored cursor {}): {}",
            o.kill_at, o.restored_cursor, o.detail
        );
    }
    println!(
        "kill/restart: {} kills over {} batches, {} mid-window, {} diverged \
         (baseline: {} segments, digest {:016x})",
        report.outcomes.len(),
        fleet.batches.len(),
        report.mid_window_kills,
        report.failures,
        report.baseline_segments,
        report.baseline_digest,
    );
    println!("digest: {:016x}", report.digest);
    finish_campaign("kill/restart", t0, report.failures);
}

/// The cluster leader-kill campaign: `kills` random (batch, shard) kill
/// points over the same stream partitioned across `shards` leaders with
/// one follower each; every kill promotes the follower and must converge
/// to the uninterrupted cluster byte for byte. Exits non-zero on any
/// divergence.
fn cluster_failover(fleet: &UploadStream, kills: usize, shards: usize) {
    let t0 = Instant::now();
    let ccfg = ClusterConfig {
        shards,
        replicas: 1,
        checkpoint_every: 8,
    };
    let fcfg = FailoverConfig {
        kills,
        seed: fleet.seed,
    };
    let dirs = shard_directories(&fleet.dir, shards);
    let report =
        run_failover(&fleet.cfg, &ccfg, &fcfg, &dirs, &fleet.batches).expect("campaign runs");
    for o in report.outcomes.iter().filter(|o| !o.ok) {
        println!(
            "kill of shard {} at batch {} (restored cursor {}): {}",
            o.shard, o.kill_at, o.restored_cursor, o.detail
        );
    }
    println!(
        "failover: {} kills over {} batches across {shards} shard(s), {} mid-window, \
         {} diverged (baseline digest {:016x})",
        report.outcomes.len(),
        fleet.batches.len(),
        report.mid_window_kills,
        report.failures,
        report.baseline_digest,
    );
    println!("digest: {:016x}", report.digest);
    finish_campaign("failover", t0, report.failures);
}

fn finish_campaign(name: &str, t0: Instant, failures: u64) {
    eprintln!(
        "chaos: {name} campaign finished in {:.2} s",
        t0.elapsed().as_secs_f64()
    );
    if failures > 0 {
        eprintln!("chaos: FAIL — {failures} kill(s) diverged from the uninterrupted run");
        std::process::exit(1);
    }
}
