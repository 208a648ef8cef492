//! Large-scale parallel study: run a fleet one order of magnitude beyond
//! what the materialised API comfortably holds, in bounded memory, by
//! streaming events into mergeable online aggregators — one per shard,
//! folded at the end. Output is bit-identical at any thread count.
//!
//! ```sh
//! cargo run --release --example large_scale [devices] [--threads N]
//! # default 200,000 devices; threads default to CELLREL_THREADS or
//! # the machine's available parallelism
//!
//! cargo run --release --example large_scale -- 1000000 --fleet --days 30
//! # --fleet switches to the event-driven fleet simulation: live
//! # per-device state (RAT occupancy + thinned failure arrivals) on a
//! # timer wheel, reporting events/s and hot bytes/device
//! ```

// Wall-clock is the *measurement* here (events/s), not simulation state —
// the one place outside bench harnesses the workspace-wide gate is lifted.
#![allow(clippy::disallowed_types)]

use cellrel::analysis::streaming::FleetAccumulator;
use cellrel::sim::resolve_threads;
use cellrel::types::FailureKind;
use cellrel::workload::{
    run_fleet_event_driven, run_macro_study_parallel, FleetConfig, PopulationConfig, StudyConfig,
};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut devices = 200_000usize;
    let mut threads = 0usize;
    let mut fleet = false;
    let mut days: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            threads = it
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--threads needs a number");
        } else if a == "--days" {
            days = Some(
                it.next()
                    .and_then(|s| s.parse().ok())
                    .expect("--days needs a number"),
            );
        } else if a == "--fleet" {
            fleet = true;
        } else if let Ok(n) = a.parse() {
            devices = n;
        }
    }
    let threads = resolve_threads(threads);
    if fleet {
        run_fleet(devices, days.unwrap_or(30), threads);
        return;
    }
    let cfg = StudyConfig {
        population: PopulationConfig {
            devices,
            ..Default::default()
        },
        bs_count: 100_000,
        seed: 2020,
        ..Default::default()
    };

    eprintln!(
        "streaming {} devices over {} days on {} thread(s) ...",
        devices, cfg.days, threads
    );
    let t0 = Instant::now();
    let (population, per_device, _bs, acc) =
        run_macro_study_parallel(&cfg, threads, FleetAccumulator::new);
    let elapsed = t0.elapsed();

    let total = acc.agg.records;
    let failing = per_device.iter().filter(|&&c| c > 0).count();

    println!(
        "generated {} failures for {} devices in {:.1} s ({:.0} events/s, {} threads)",
        total,
        population.len(),
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64().max(1e-9),
        threads
    );
    println!(
        "prevalence {:.1}% (paper 23%) | frequency {:.1} (paper 33)",
        failing as f64 / population.len() as f64 * 100.0,
        total as f64 / population.len() as f64
    );
    println!(
        "mean duration {:.0} s (paper 188 s) | <30 s {:.1}% (paper 70.8%) | max {:.0} s",
        acc.mean_duration_secs(),
        acc.under_30s_share() * 100.0,
        acc.agg.max_duration_ms as f64 / 1000.0
    );
    println!(
        "Data_Stall: {:.1}% of failures, {:.1}% of duration (paper ~40% / 94%)",
        acc.kind_share(FailureKind::DataStall) * 100.0,
        acc.kind_duration_share(FailureKind::DataStall) * 100.0
    );
    if let (Some(p50), Some(p90), Some(p99)) = (
        acc.duration_quantile_secs(0.50),
        acc.duration_quantile_secs(0.90),
        acc.duration_quantile_secs(0.99),
    ) {
        println!(
            "sketched duration p50 {p50:.1} s | p90 {p90:.1} s | p99 {p99:.1} s \
             (streaming sketch, ≤1% rank error)"
        );
    }
}

/// The event-driven fleet path: live per-device state on a timer wheel —
/// the 10⁶-devices × 30-days configuration the scheduler refactor targets.
fn run_fleet(devices: usize, days: u64, threads: usize) {
    let cfg = FleetConfig {
        population: PopulationConfig {
            devices,
            ..Default::default()
        },
        days,
        bs_count: 100_000,
        ..FleetConfig::default()
    };
    eprintln!("event-driven fleet: {devices} devices over {days} days on {threads} thread(s) ...");
    let t0 = Instant::now();
    let r = run_fleet_event_driven(&cfg, threads);
    let elapsed = t0.elapsed().as_secs_f64();
    println!(
        "processed {} events in {:.1} s ({:.0} events/s, {} threads)",
        r.events(),
        elapsed,
        r.events() as f64 / elapsed.max(1e-9),
        threads
    );
    println!(
        "failures {} ({:.2}/device) | candidates {} | RAT jumps {} ({} changes)",
        r.failures,
        r.failures as f64 / r.devices.max(1) as f64,
        r.candidates,
        r.radio_events,
        r.rat_changes
    );
    println!(
        "hot state: {:.1} bytes/device ({} MiB total for the fleet)",
        r.bytes_per_device(),
        r.hot_bytes / (1024 * 1024)
    );
    println!("digest: {:016x}", r.digest);
}
