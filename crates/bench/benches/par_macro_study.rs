//! Criterion bench for the sharded macro-study driver, parameterized over
//! thread counts {1, 2, 4, max}. Before timing, each configuration prints
//! its measured events/s so `cargo bench` output doubles as the speedup
//! record. Device count is tunable via `CELLREL_BENCH_DEVICES`
//! (default 100,000).
//!
//! The generated output is bit-identical across all thread counts (the
//! bench asserts the event totals agree), so the only thing varying here
//! is wall-clock.

// Wall-clock is the measurement itself in this bench (speedup vs threads).
#![allow(clippy::disallowed_types)]

use cellrel::analysis::streaming::FleetAccumulator;
use cellrel::sim::auto_threads;
use cellrel::workload::{run_macro_study_parallel, PopulationConfig, StudyConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

fn bench_cfg() -> StudyConfig {
    let devices = std::env::var("CELLREL_BENCH_DEVICES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    StudyConfig {
        population: PopulationConfig {
            devices,
            ..Default::default()
        },
        bs_count: 20_000,
        seed: 2020,
        ..Default::default()
    }
}

fn bench_par_macro_study(c: &mut Criterion) {
    let cfg = bench_cfg();
    let max = auto_threads();
    let mut counts: Vec<(usize, u64)> = Vec::new();
    let mut thread_list = vec![1usize, 2, 4, max];
    thread_list.sort_unstable();
    thread_list.dedup();

    for &threads in &thread_list {
        // One measured pass up front: events/s at this thread count.
        let t0 = Instant::now();
        let (_, _, _, acc) = run_macro_study_parallel(&cfg, threads, FleetAccumulator::new);
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "par_macro_study: {} devices, {} threads -> {} events in {:.2} s ({:.0} events/s)",
            cfg.population.devices,
            threads,
            acc.agg.records,
            secs,
            acc.agg.records as f64 / secs.max(1e-9)
        );
        counts.push((threads, acc.agg.records));

        c.bench_function(&format!("par_macro_study_{threads}t"), |b| {
            b.iter(|| {
                let (_, _, _, acc) =
                    run_macro_study_parallel(black_box(&cfg), threads, FleetAccumulator::new);
                black_box(acc.agg.records)
            })
        });
    }

    // Invariance cross-check: every thread count generated the same fleet.
    for w in counts.windows(2) {
        assert_eq!(w[0].1, w[1].1, "event totals differ across thread counts");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(3)
        .measurement_time(std::time::Duration::from_secs(30));
    targets = bench_par_macro_study
}
criterion_main!(benches);
