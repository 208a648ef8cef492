//! `repro` — regenerate every table and figure of the paper as text.
//!
//! ```sh
//! cargo run --release -p cellrel-bench --bin repro -- all
//! cargo run --release -p cellrel-bench --bin repro -- table1 fig15 timp
//! ```
//!
//! Experiment ids: headline, table1, table2, fig2 (= fig5), fig3, fig4,
//! fig6 (= fig7 fig8 fig9), fig10, fig11, fig12 (= fig13), fig14,
//! fig15 (= fig16), fig17, fig19 (= fig20), fig21, timp, overhead,
//! hardware, measurement.
//!
//! `repro export-csv <dir>` additionally writes the full event dataset and
//! per-device counts as CSV into `<dir>` for external plotting.
//!
//! Observability: `--metrics` appends the fleet metrics tables (counters
//! per kind/RAT/fault layer, per-kind duration histograms) and the
//! `registry digest:` line, which is bit-identical at any `--threads`
//! value; `--trace-out FILE` (implies `--metrics`) additionally writes
//! every failure as a Chrome trace-event span, loadable in Perfetto or
//! `chrome://tracing`.

// Wall-clock is the *measurement* in the fleet experiment (events/s), not
// simulation state — benches are outside the workspace-wide
// Instant/SystemTime gate.
#![allow(clippy::disallowed_types)]

use cellrel::analysis as an;
use cellrel::sim::SimRng;
use cellrel::telephony::RecoveryConfig;
use cellrel::timp::{anneal_probations, AnnealConfig, TimpModel};
use cellrel::types::SimDuration;
use cellrel::workload::durations::sample_auto_heal_secs;
use cellrel::workload::{
    run_fleet_event_driven, run_fleet_per_tick, run_rat_policy_ab, run_recovery_ab, FleetConfig,
    PopulationConfig,
};
use cellrel_bench::{ab_config, recovery_ab_config, standard_config, standard_study};
use std::time::Instant;

const ALL: &[&str] = &[
    "headline",
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig17",
    "fig19",
    "fig21",
    "fleet",
    "timp",
    "overhead",
    "hardware",
    "measurement",
];

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    // `--threads N` routes through the CELLREL_THREADS knob so every
    // driver below (macro study, A/B arms, sweeps) picks it up.
    if let Some(pos) = raw.iter().position(|w| w == "--threads") {
        let n = raw
            .get(pos + 1)
            .and_then(|s| s.parse::<usize>().ok())
            .expect("--threads needs a number");
        std::env::set_var(cellrel::sim::par::THREADS_ENV, n.to_string());
        raw.drain(pos..pos + 2);
    }
    let mut metrics = false;
    if let Some(pos) = raw.iter().position(|w| w == "--metrics") {
        raw.remove(pos);
        metrics = true;
    }
    let mut trace_out: Option<String> = None;
    if let Some(pos) = raw.iter().position(|w| w == "--trace-out") {
        let file = raw
            .get(pos + 1)
            .cloned()
            .expect("--trace-out needs a file path");
        raw.drain(pos..pos + 2);
        trace_out = Some(file);
        metrics = true;
    }
    let mut wanted = raw;
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ALL.iter().map(|s| s.to_string()).collect();
    }
    // Alias figure pairs that share one computation.
    fn canon(w: &str) -> &str {
        match w {
            "fig5" => "fig2",
            "fig7" | "fig8" | "fig9" => "fig6",
            "fig13" => "fig12",
            "fig16" => "fig15",
            "fig20" => "fig19",
            other => other,
        }
    }

    let cfg = standard_config();
    eprintln!(
        "repro: {} devices, {} BSes, {} days, seed {}, {} thread(s)",
        cfg.population.devices,
        cfg.bs_count,
        cfg.days,
        cfg.seed,
        cellrel::sim::auto_threads()
    );

    // Special form: `repro export-csv <dir>`.
    if let Some(pos) = wanted.iter().position(|w| w == "export-csv") {
        let dir = wanted
            .get(pos + 1)
            .cloned()
            .unwrap_or_else(|| "cellrel-export".to_string());
        std::fs::create_dir_all(&dir).expect("create export dir");
        let data = standard_study();
        let events_path = format!("{dir}/events.csv");
        let counts_path = format!("{dir}/device_counts.csv");
        std::fs::write(&events_path, an::export::dataset_csv(data)).expect("write events csv");
        std::fs::write(&counts_path, an::export::counts_csv(data)).expect("write counts csv");
        eprintln!(
            "wrote {} events to {events_path} and {} devices to {counts_path}",
            data.events.len(),
            data.population.len()
        );
        return;
    }

    let mut done = std::collections::BTreeSet::new();
    for w in &wanted {
        let id = canon(w);
        if !done.insert(id.to_string()) {
            continue;
        }
        match id {
            "headline" => println!("{}", an::headline::compute(standard_study()).render()),
            "table1" => println!("{}", an::table1::compute(standard_study()).render()),
            "table2" => println!("{}", an::table2::compute(standard_study(), 10).render()),
            "fig2" => println!(
                "{}",
                an::per_model::render(&an::per_model::compute(standard_study()))
            ),
            "fig3" => println!("{}", an::counts::compute(standard_study()).render()),
            "fig4" => println!("{}", an::duration_stats::compute(standard_study()).render()),
            "fig6" => println!("{}", an::groups::compute(standard_study()).render()),
            "fig10" => println!("{}", an::stall_recovery::compute(standard_study()).render()),
            "fig11" => println!("{}", an::zipf::compute(standard_study()).render()),
            "fig12" => println!("{}", an::isp::render(&an::isp::compute(standard_study()))),
            "fig14" => println!(
                "{}",
                an::per_rat::render(&an::per_rat::compute(standard_study()))
            ),
            "fig15" => println!("{}", an::signal::compute(standard_study()).render()),
            "hardware" => println!("{}", an::hardware::compute(standard_study()).render()),
            "measurement" => {
                let mut rng = SimRng::new(22);
                println!(
                    "{}",
                    an::measurement::compare_estimators(5_000, &mut rng).render()
                );
            }
            "fig17" => {
                let mut rng = SimRng::new(17);
                println!("{}", an::transitions::compute(4_000, &mut rng).render());
            }
            "fig19" => {
                eprintln!("running RAT-policy A/B fleets ...");
                let (v, p) = run_rat_policy_ab(&ab_config());
                println!("{}", an::ab::compare_rat_policy(v, p).render());
            }
            "fig21" => {
                eprintln!("running recovery A/B fleets ...");
                let (v, t) = run_recovery_ab(&recovery_ab_config());
                println!("{}", an::ab::compare_recovery(v, t).render());
            }
            "export-csv" => { /* handled below, needs the path argument */ }
            "fleet" => println!("{}", fleet_report()),
            "timp" => println!("{}", timp_report()),
            "overhead" => println!("{}", overhead_report()),
            other => eprintln!("unknown experiment id: {other}"),
        }
    }

    if metrics {
        eprintln!("repro: running fleet metrics pass ...");
        let (snap, devices) = cellrel::workload::run_fleet_metrics(&cfg, 0, trace_out.is_some());
        eprintln!("repro: fleet metrics over {devices} devices");
        print!("{}", an::metrics::render_metrics(&snap));
        if let Some(path) = trace_out {
            std::fs::write(&path, snap.trace_sink().to_chrome_json()).expect("write trace file");
            eprintln!(
                "repro: wrote Chrome trace to {path} ({} events)",
                snap.trace().len()
            );
        }
    }
}

/// The event-driven fleet experiment: run the same fleet twice — once with
/// the per-tick (1 s) scanner, once with the timer-wheel event-driven
/// driver — assert the reports are bit-identical, and print the measured
/// events/s of both to stderr. The speedup claim is only meaningful
/// because the baseline produces the *same bytes*.
fn fleet_report() -> String {
    let fcfg = FleetConfig {
        population: PopulationConfig {
            devices: 2_000,
            ..Default::default()
        },
        days: 2,
        bs_count: 2_000,
        ..FleetConfig::default()
    };
    let tick = SimDuration::from_secs(1);
    eprintln!(
        "fleet: per-tick baseline, {} devices x {} days at a {} tick ...",
        fcfg.population.devices, fcfg.days, tick
    );
    let t_scan = Instant::now();
    let scan = run_fleet_per_tick(&fcfg, tick, 0);
    let scan_wall = t_scan.elapsed().as_secs_f64();
    eprintln!("fleet: event-driven driver, same configuration ...");
    let t_ev = Instant::now();
    let ev = run_fleet_event_driven(&fcfg, 0);
    let ev_wall = t_ev.elapsed().as_secs_f64();

    assert_eq!(
        ev.digest, scan.digest,
        "event-driven and per-tick fleet drivers diverged"
    );
    assert_eq!(
        ev.metrics, scan.metrics,
        "fleet drivers produced different metrics"
    );

    let events = ev.events();
    let scan_eps = events as f64 / scan_wall.max(1e-9);
    let ev_eps = events as f64 / ev_wall.max(1e-9);
    let speedup = ev_eps / scan_eps.max(1e-9);
    eprintln!(
        "fleet: per-tick {scan_wall:.3} s ({scan_eps:.0} events/s), \
         event-driven {ev_wall:.3} s ({ev_eps:.0} events/s), {speedup:.1}x"
    );

    // Deterministic summary (stdout): counts and the shared digest only.
    format!(
        "== Event-driven fleet (scheduler tentpole) ==\n\
         devices: {}, days: {}\n\
         events: {events} ({} failure candidates, {} accepted failures, {} RAT jumps)\n\
         digest: {:016x} (identical for per-tick and event-driven drivers)\n\
         hot bytes/device (event-driven): {:.1}\n",
        ev.devices,
        ev.days,
        ev.candidates,
        ev.failures,
        ev.radio_events,
        ev.digest,
        ev.bytes_per_device(),
    )
}

fn timp_report() -> String {
    let mut rng = SimRng::new(7);
    let samples: Vec<f64> = (0..50_000)
        .map(|_| sample_auto_heal_secs(&mut rng))
        .collect();
    let recovery = RecoveryConfig::vanilla();
    let model = TimpModel::from_durations(
        &samples,
        recovery.op_success,
        recovery.op_cost.map(|c| c.as_secs_f64()),
    );
    let t_vanilla = model.expected_recovery_time([60.0, 60.0, 60.0]);
    let t_paper = model.expected_recovery_time([21.0, 6.0, 16.0]);
    let result = anneal_probations(&model, &AnnealConfig::default());
    format!(
        "== TIMP optimisation (§4.2) ==\n\
         expected recovery time, vanilla (60,60,60): {t_vanilla:.1} s (paper: 38 s)\n\
         expected recovery time, paper (21,6,16):    {t_paper:.1} s (paper: 27.8 s)\n\
         annealed optimum {:?}: {:.1} s ({:.0}% better than vanilla)\n",
        result.probations,
        result.expected_time,
        result.improvement() * 100.0
    )
}

/// Encode a representative `n`-record batch with the real wire codec and
/// return its size in bytes — upload accounting uses measured encodings,
/// not a compression-factor estimate.
fn encoded_batch_bytes(n: u64, mean_gap_secs: u64, mean_duration_secs: u64) -> u64 {
    use cellrel::ingest::codec::encode_batch;
    use cellrel::types::{
        Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
        SignalLevel, SimDuration, SimTime,
    };
    let device = DeviceId(7);
    let events: Vec<FailureEvent> = (0..n)
        .map(|i| FailureEvent {
            device,
            kind: FailureKind::from_index((i % 3) as usize).expect("major kind"),
            start: SimTime::from_secs(i * mean_gap_secs + 13 * (i % 7)),
            duration: SimDuration::from_secs(mean_duration_secs + 17 * (i % 5)),
            cause: (i % 3 == 0).then(|| DataFailCause::from_code(2157 + (i % 4) as i32)),
            ctx: InSituInfo {
                rat: Rat::from_index((i % 4) as usize).expect("rat < 4"),
                signal: SignalLevel::new((i % 6) as u8),
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(1, (i % 9) as u16, 40_000 + i as u32)),
                isp: Isp::A,
            },
        })
        .collect();
    encode_batch(device, 0, &events).len() as u64
}

fn overhead_report() -> String {
    use cellrel::monitor::OverheadAccounting;
    use cellrel::types::SimDuration;
    // Typical user: the paper's ~33 failures over 8 months.
    let mut typical = OverheadAccounting::new();
    for _ in 0..33 {
        typical.on_event();
        typical.on_probe(4, 1200);
        typical.on_record(35);
        typical.add_failure_window(SimDuration::from_secs(188));
    }
    // ~33 failures spread over 8 months ≈ one every 7 days.
    typical.on_upload(33, encoded_batch_bytes(33, 7 * 24 * 3600, 188));
    // Worst case: 40k failures/month with WiFi-batched uploads.
    let mut worst = OverheadAccounting::new();
    let batch_bytes = encoded_batch_bytes(1000, 65, 60); // ~40k/month ≈ one per 65 s
    let mut pending = 0u64;
    for i in 0..40_000u64 {
        worst.on_event();
        if i % 5 < 2 {
            worst.on_probe(3, 900);
        }
        worst.on_record(35);
        pending += 1;
        worst.add_failure_window(SimDuration::from_secs(60));
        if pending == 1000 {
            worst.on_upload(pending, batch_bytes);
            pending = 0;
        }
    }
    format!(
        "== Android-MOD overhead (§2.2) ==\n\
         typical user:    cpu {:.2}% (paper <2%), mem {} KB (paper <40 KB), \
         storage {} KB (paper <100 KB), network {} KB/mo (paper <100 KB)\n\
         worst-case user: cpu {:.2}% (paper <8%), mem {} KB (paper <2 MB), \
         storage {} KB (paper <20 MB), network {:.1} MB/mo (paper ~20 MB)\n\
         within budgets: typical={}, worst-case={}\n",
        typical.cpu_utilization() * 100.0,
        typical.peak_memory_bytes() / 1024,
        typical.storage_bytes() / 1024,
        typical.network_bytes() / 1024,
        worst.cpu_utilization() * 100.0,
        worst.peak_memory_bytes() / 1024,
        worst.storage_bytes() / 1024,
        worst.network_bytes() as f64 / (1024.0 * 1024.0),
        typical.within_typical_budget(),
        worst.within_worst_case_budget(),
    )
}
