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
//! hardware, measurement, ablations. An unknown id is a usage error
//! (exit 2) before anything runs.
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
// simulation state, so this file opts out of the workspace-wide
// Instant/SystemTime gate.
#![allow(clippy::disallowed_types)]

use cellrel::analysis as an;
use cellrel::sim::SimRng;
use cellrel::telephony::RecoveryConfig;
use cellrel::timp::{anneal_probations, AnnealConfig, TimpModel};
use cellrel::types::SimDuration;
use cellrel::workload::durations::sample_auto_heal_secs;
use cellrel::workload::{
    run_fleet_event_driven, run_fleet_per_tick, run_macro_study, run_rat_policy_ab,
    run_recovery_ab, AbConfig, FleetConfig, PopulationConfig, StudyConfig, StudyDataset,
};
use std::sync::OnceLock;
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
    "ablations",
];

/// The standard macro study every §3 table and figure is computed from
/// (medium size: large enough for stable statistics, small enough to
/// regenerate in seconds), as the paper derives all of §3 from one dataset.
fn standard_study() -> &'static StudyDataset {
    static DATA: OnceLock<StudyDataset> = OnceLock::new();
    DATA.get_or_init(|| run_macro_study(&standard_config()))
}

/// The configuration behind [`standard_study`].
fn standard_config() -> StudyConfig {
    StudyConfig {
        population: PopulationConfig {
            devices: 20_000,
            ..Default::default()
        },
        bs_count: 20_000,
        seed: 2020,
        ..Default::default()
    }
}

/// A/B experiment configuration for the enhancement figures (Figs. 19–21):
/// paired fleets of fully simulated devices.
fn ab_config() -> AbConfig {
    AbConfig {
        devices: 24,
        days: 3,
        seed: 2021,
        stall_rate_per_hour: 2.0,
        suppress_user_reset: false,
        threads: 0,
    }
}

/// Recovery-focused A/B configuration (Fig. 21: user resets suppressed so
/// the recovery mechanism's effect is isolated).
fn recovery_ab_config() -> AbConfig {
    AbConfig {
        devices: 16,
        days: 4,
        seed: 2022,
        stall_rate_per_hour: 4.0,
        suppress_user_reset: true,
        threads: 0,
    }
}

/// A parsed command line.
#[derive(Debug, Default)]
struct Args {
    /// `--threads N`.
    threads: Option<usize>,
    /// `--metrics`, also implied by `--trace-out`.
    metrics: bool,
    /// `--trace-out FILE`, as typed.
    trace_out: Option<String>,
    /// `export-csv [DIR]`, as typed; the export replaces the experiments.
    export_dir: Option<String>,
    /// Canonical experiment ids in the order asked for, each once.
    ids: Vec<&'static str>,
}

/// Alias figure pairs that share one computation.
fn canon(id: &str) -> &str {
    match id {
        "fig5" => "fig2",
        "fig7" | "fig8" | "fig9" => "fig6",
        "fig13" => "fig12",
        "fig16" => "fig15",
        "fig20" => "fig19",
        other => other,
    }
}

/// Read the command line. Flags and ids are case-insensitive; the paths
/// after `--trace-out` and `export-csv` are kept as typed. Every id is
/// checked here, so a typo fails before any experiment runs.
fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut all = false;
    let mut words = raw.into_iter().peekable();
    while let Some(word) = words.next() {
        match word.to_lowercase().as_str() {
            "--threads" => {
                let n = words.next().and_then(|s| s.parse().ok());
                args.threads = Some(n.ok_or("--threads needs a number")?);
            }
            "--metrics" => args.metrics = true,
            "--trace-out" => {
                args.trace_out = Some(words.next().ok_or("--trace-out needs a file path")?);
                args.metrics = true;
            }
            "export-csv" => {
                let dir = words.next_if(|w| !w.starts_with("--"));
                args.export_dir = Some(dir.unwrap_or_else(|| "cellrel-export".to_string()));
            }
            "all" => all = true,
            id => {
                let known = ALL.iter().copied().find(|known| *known == canon(id));
                args.ids
                    .push(known.ok_or_else(|| format!("unknown experiment id: {id}"))?);
            }
        }
    }
    if all || args.ids.is_empty() {
        args.ids = ALL.to_vec();
    }
    let mut seen = std::collections::BTreeSet::new();
    args.ids.retain(|id| seen.insert(*id));
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|why| {
        eprintln!("repro: {why}");
        std::process::exit(2)
    });
    // `--threads N` routes through the CELLREL_THREADS knob so every
    // driver below (macro study, A/B arms, sweeps) picks it up.
    if let Some(n) = args.threads {
        std::env::set_var(cellrel::sim::par::THREADS_ENV, n.to_string());
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

    if let Some(dir) = &args.export_dir {
        std::fs::create_dir_all(dir).expect("create export dir");
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

    for &id in &args.ids {
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
            "fleet" => println!("{}", fleet_report()),
            "timp" => println!("{}", timp_report()),
            "overhead" => println!("{}", overhead_report()),
            "ablations" => ablations(),
            other => unreachable!("parse_args admits only ids in ALL, not {other}"),
        }
    }

    if args.metrics {
        eprintln!("repro: running fleet metrics pass ...");
        let trace = args.trace_out.is_some();
        let (snap, devices) = cellrel::workload::run_fleet_metrics(&cfg, 0, trace);
        eprintln!("repro: fleet metrics over {devices} devices");
        print!("{}", an::metrics::render_metrics(&snap));
        if let Some(path) = args.trace_out {
            std::fs::write(&path, snap.to_chrome_json()).expect("write trace file");
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

/// The ablations behind the design choices DESIGN.md calls out: the
/// recovery probation trigger (a grid over probation triples, and the TIMP
/// optimum against the operation-cost model, §4.2), the stability-compatible
/// policy's pieces (Figs. 19–20), the probe's DNS-timeout bound (§2.2) and
/// the §4.1 guideline sweeps.
fn ablations() {
    ablate_probation_grid();
    ablate_op_cost();
    ablate_policy_pieces();
    ablate_probe_timeout();
    ablate_guidelines();
}

fn heal_samples(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| sample_auto_heal_secs(&mut rng)).collect()
}

fn ablate_probation_grid() {
    let samples = heal_samples(30_000, 7);
    let rec = RecoveryConfig::vanilla();
    let model = TimpModel::from_durations(
        &samples,
        rec.op_success,
        rec.op_cost.map(|d| d.as_secs_f64()),
    );
    println!("== ablation: expected recovery time over probation triples ==");
    for p0 in [5u64, 15, 21, 30, 60, 120] {
        print!("Pro0={p0:>3}s:");
        for p1 in [6u64, 20, 60] {
            let t = model.expected_recovery_time([p0 as f64, p1 as f64, 16.0]);
            print!("  (Pro1={p1:>2},Pro2=16) {t:5.1}s");
        }
        println!();
    }
}

fn ablate_op_cost() {
    let samples = heal_samples(30_000, 8);
    println!("== ablation: TIMP optimum vs operation-cost model ==");
    for (label, costs) in [
        ("cheap ops (1.5/4/9 s)", [1.5, 4.0, 9.0]),
        ("default ops (12/30/60 s)", [12.0, 30.0, 60.0]),
        ("heavy ops (30/60/120 s)", [30.0, 60.0, 120.0]),
    ] {
        let model = TimpModel::from_durations(&samples, [0.75, 0.90, 0.97], costs);
        let r = anneal_probations(&model, &AnnealConfig::default());
        println!(
            "{label:>26}: optimum {:?} → {:.1}s ({:+.0}% vs vanilla {:.1}s)",
            r.probations,
            r.expected_time,
            -r.improvement() * 100.0,
            r.vanilla_time
        );
    }
}

fn ablate_policy_pieces() {
    use cellrel::telephony::RatPolicyKind::{StabilityNoDualConnectivity, StabilityThreshold};
    use cellrel::types::SignalLevel;
    use cellrel::workload::ab::run_custom_arm;
    let cfg = AbConfig {
        devices: 12,
        days: 2,
        ..ab_config()
    };
    println!("== ablation: stability-compatible policy pieces ==");
    let (vanilla, full) = run_rat_policy_ab(&cfg);
    let mut arms = vec![
        ("vanilla android 10", vanilla.frequency),
        ("full fix (threshold+DC)", full.frequency),
    ];
    for (label, kind) in [
        ("no dual connectivity", StabilityNoDualConnectivity),
        (
            "threshold L2 (stricter)",
            StabilityThreshold(SignalLevel::L2),
        ),
        (
            "threshold L3 (strictest)",
            StabilityThreshold(SignalLevel::L3),
        ),
    ] {
        arms.push((label, run_custom_arm(kind, &cfg).frequency));
    }
    for (label, frequency) in arms {
        println!("{label:>28}: {frequency:.1} failures/device");
    }
}

fn ablate_probe_timeout() {
    use cellrel::monitor::{ProbeConfig, ProbeSession};
    use cellrel::netstack::LinkCondition;
    println!("== ablation: probe round length (DNS timeout) vs accuracy/overhead ==");
    let mut rng = SimRng::new(9);
    for dns_secs in [2u64, 5, 10, 20] {
        let cfg = ProbeConfig {
            dns_timeout: SimDuration::from_secs(dns_secs),
            ..ProbeConfig::default()
        };
        let mut rounds = 0u64;
        let mut err = 0.0;
        let n = 300;
        for _ in 0..n {
            let truth = rng.range_f64(60.0, 300.0);
            let m = ProbeSession.measure_with(
                SimDuration::from_secs_f64(truth),
                LinkCondition::NetworkBlackhole,
                &cfg,
                &mut rng,
            );
            rounds += m.rounds as u64;
            err += (m.measured.expect("measured").as_secs_f64() - truth).abs();
        }
        println!(
            "dns timeout {dns_secs:>2}s: {:.1} rounds/stall, mean |error| {:.1}s{}",
            rounds as f64 / n as f64,
            err / n as f64,
            if dns_secs == 5 {
                "   <- the paper's design point"
            } else {
                ""
            }
        );
    }
}

fn ablate_guidelines() {
    use cellrel::workload::guidelines::{
        cross_isp_gap_sweep, density_sweep, idle_3g_offload_sweep,
    };
    println!("== ablation: §4.1 guideline sweeps ==");
    let density = density_sweep(60, 10);
    println!(
        "hub density 0→60 neighbours: P(fail|L5) {:.3} → {:.3}",
        density.first().expect("non-empty").l5_failure_prob,
        density.last().expect("non-empty").l5_failure_prob
    );
    let gaps = cross_isp_gap_sweep(&[0.0, 5.0, 15.0, 40.0, 100.0, 300.0]);
    println!(
        "cross-ISP gap 0→300 MHz:     P(fail|L5) {:.3} → {:.3}",
        gaps.first().expect("non-empty").l5_failure_prob,
        gaps.last().expect("non-empty").l5_failure_prob
    );
    let offload = idle_3g_offload_sweep(0.95, 20);
    let best = offload
        .iter()
        .min_by(|a, b| {
            a.total_rejection
                .partial_cmp(&b.total_rejection)
                .expect("finite")
        })
        .expect("non-empty");
    println!(
        "idle-3G offload optimum:     {:.0}% of 4G demand (rejections {:.3} → {:.3})",
        best.offload_fraction * 100.0,
        offload[0].total_rejection,
        best.total_rejection
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_study_builds() {
        let d = standard_study();
        assert!(d.events.len() > 100_000);
    }

    #[test]
    fn paths_pass_verbatim_and_unknown_ids_are_refused() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--Trace-Out Trace.json TABLE1 Fig16 table1").expect("valid");
        assert_eq!(args.trace_out.as_deref(), Some("Trace.json"));
        assert!(args.metrics);
        assert_eq!(args.ids, ["table1", "fig15"]);
        let args = parse("--threads 2 export-csv OutDir").expect("valid");
        assert_eq!(args.export_dir.as_deref(), Some("OutDir"));
        assert_eq!(args.threads, Some(2));
        // The export directory is not an id, whatever it is called.
        let args = parse("export-csv ablation").expect("valid");
        assert_eq!(args.export_dir.as_deref(), Some("ablation"));
        assert_eq!(parse("").expect("valid").ids, ALL);
        assert_eq!(parse("fig3 all").expect("valid").ids, ALL);
        assert_eq!(
            parse("headline ablation").unwrap_err(),
            "unknown experiment id: ablation"
        );
        assert!(parse("all no-such-id").is_err());
        assert!(parse("--threads x headline").is_err());
        assert!(parse("headline --trace-out").is_err());
    }
}
