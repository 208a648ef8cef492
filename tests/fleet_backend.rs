//! Integration: a fully simulated fleet, bottom-up — devices run the whole
//! micro stack with Android-MOD attached and upload their traces to the
//! backend the stack serves from, `ingest::Collector`; what the collector
//! reports must be what the devices hold, and must show the same
//! qualitative structure the macro study encodes top-down.

use cellrel::analysis::streaming::FleetAccumulator;
use cellrel::ingest::{Collector, CollectorConfig};
use cellrel::monitor::MonitoringService;
use cellrel::radio::{DeploymentConfig, RadioEnvironment};
use cellrel::sim::{SimRng, TimerWheel};
use cellrel::telephony::{DeviceConfig, DeviceSim, RatPolicyKind};
use cellrel::types::{DeviceId, EventSink, FailureEvent, FailureKind, Isp, Rat, RatSet, SimTime};

/// The devices after their end-of-run flush, and what each put on the wire.
struct Fleet {
    monitors: Vec<MonitoringService>,
    payloads: Vec<Vec<u8>>,
}

fn run_fleet(devices: u32, hours: u64, seed: u64) -> Fleet {
    let mut rng = SimRng::new(seed);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut rng);
    let mut fleet = Fleet {
        monitors: Vec::new(),
        payloads: Vec::new(),
    };

    for i in 0..devices {
        let mut dev_rng = rng.fork(i as u64 + 1);
        let city = env.city_centers()[i as usize % env.city_centers().len()];
        let home = city.offset(dev_rng.normal(0.0, 3.0), dev_rng.normal(0.0, 3.0));
        let mut cfg = DeviceConfig::new(DeviceId(i), Isp::A, home);
        cfg.rats = RatSet::up_to(Rat::G5);
        cfg.policy = RatPolicyKind::Android10;
        // Heterogeneous hazards so some devices never fail (prevalence < 1).
        cfg.stall_rate_per_hour = if i % 3 == 0 { 2.0 } else { 0.05 };

        let monitor = MonitoringService::new(DeviceId(i), dev_rng.fork(1));
        let mut queue = TimerWheel::new();
        let mut sim = DeviceSim::new(cfg, &env, monitor, dev_rng.fork(2), &mut queue);
        queue.run_until(&mut sim, SimTime::from_secs(hours * 3600));
        // Ship the traces the way real devices do: an end-of-run WiFi
        // flush encodes a wire batch.
        let mut monitor = sim.into_listener();
        if let Some(up) = monitor.upload_opportunity(SimTime::from_secs(hours * 3600), true) {
            fleet.payloads.push(up.payload);
        }
        fleet.monitors.push(monitor);
    }
    fleet
}

/// Deliver every payload to a fresh collector, echoing what it accepts
/// into `sink`.
fn collect<S: EventSink>(payloads: &[Vec<u8>], sink: &mut S) -> Collector {
    let mut collector = Collector::new(&CollectorConfig::default());
    for p in payloads {
        collector.ingest_with(p, sink);
    }
    collector
}

#[test]
fn fleet_summary_has_macro_structure() {
    let fleet = run_fleet(18, 24, 51);
    let mut acc = FleetAccumulator::new();
    // A backend that has taken nothing reports zero shares, not NaN.
    assert_eq!(acc.kind_share(FailureKind::DataStall), 0.0);
    assert_eq!(acc.kind_duration_share(FailureKind::DataStall), 0.0);
    let report = collect(&fleet.payloads, &mut acc).report();
    let c = report.counters;

    assert!(c.records > 0, "fleet produced no failures");
    assert_eq!(c.records, acc.agg.records);
    assert_eq!(c.decode_errors + report.unroutable, 0);
    assert_eq!(
        c.bytes,
        fleet.payloads.iter().map(|p| p.len() as u64).sum::<u64>()
    );
    // Only failing devices upload; zero-failure ones are the rest of the
    // enrolment.
    let prevalence = report.devices as f64 / fleet.monitors.len() as f64;
    assert!(
        prevalence > 0.0 && prevalence < 1.0,
        "prevalence {prevalence} should be strictly between 0 and 1 with mixed hazards"
    );
    // Data-connection kinds dominate (the >99 % property).
    let major: f64 = FailureKind::MAJOR.iter().map(|&k| acc.kind_share(k)).sum();
    assert!(major > 0.9, "major kinds {major} of {} failures", c.records);
    // Stalls carry a disproportionate share of duration.
    let stall_duration_share = acc.kind_duration_share(FailureKind::DataStall);
    assert!(
        stall_duration_share > acc.kind_share(FailureKind::DataStall),
        "stall duration share {stall_duration_share} vs count share {}",
        acc.kind_share(FailureKind::DataStall)
    );

    // Every record a device holds is accounted for: accepted, collapsed as
    // an in-batch duplicate, dropped as noise, or still on the device
    // behind a setup episode the run ended inside.
    let held: u64 = fleet
        .monitors
        .iter()
        .map(|m| m.records().len() as u64)
        .sum();
    let held_back: u64 = fleet.monitors.iter().map(|m| m.pending_records()).sum();
    assert_eq!(
        held,
        c.records + c.duplicate_records + c.filtered_noise + held_back
    );
    // The monitor's filter already dropped what the collector's would, so
    // what the collector accepted is exactly what the devices shipped —
    // durations included: a setup error arrives with the episode span
    // `records()` shows, not the 0 it was created with.
    assert_eq!(c.duplicate_records + c.filtered_noise, 0);
    let mut device_ms_by_kind = [0u64; 5];
    for m in &fleet.monitors {
        let shipped = m.uploader().uploaded_records() as usize;
        for r in &m.records()[..shipped] {
            device_ms_by_kind[r.kind.index()] += r.duration.as_millis();
        }
    }
    assert_eq!(acc.duration_ms_by_kind, device_ms_by_kind);
    assert!(device_ms_by_kind[FailureKind::DataSetupError.index()] > 0);
    let device_total: u64 = device_ms_by_kind.iter().sum();
    let device_stall_share =
        device_ms_by_kind[FailureKind::DataStall.index()] as f64 / device_total as f64;
    assert_eq!(stall_duration_share, device_stall_share);
    assert!(
        (device_stall_share - 0.447).abs() < 0.0005,
        "the devices recorded a Data_Stall duration share of {device_stall_share}"
    );
}

#[test]
fn backend_events_feed_the_analysis_layer() {
    let fleet = run_fleet(10, 24, 52);
    let mut events: Vec<FailureEvent> = Vec::new();
    let report = collect(&fleet.payloads, &mut events).report();
    assert_eq!(events.len() as u64, report.counters.records);

    // The stall-duration series drives the Fig. 10 estimator directly.
    let stalls: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == FailureKind::DataStall)
        .map(|e| e.duration.as_secs_f64())
        .collect();
    if stalls.len() >= 5 {
        let fig10 = cellrel::analysis::stall_recovery::from_durations(stalls);
        assert!(fig10.within_1200s >= fig10.within_300s);
    }

    // And the CSV exporter accepts the bottom-up events unchanged.
    let csv = cellrel::analysis::export::events_csv(&events);
    assert_eq!(csv.lines().count(), events.len() + 1);
}

#[test]
fn fleet_run_is_deterministic() {
    let a = run_fleet(6, 12, 53);
    let b = run_fleet(6, 12, 53);
    assert_eq!(a.payloads, b.payloads);
    assert!(!a.payloads.is_empty());

    // A payload delivered twice is dropped by `(device, seq)`: one more
    // duplicate batch, nothing else moves.
    let mut once = FleetAccumulator::new();
    let mut twice = FleetAccumulator::new();
    let clean = collect(&a.payloads, &mut once).report();
    let mut redelivered = a.payloads.clone();
    redelivered.insert(1, a.payloads[0].clone());
    let mut dup = collect(&redelivered, &mut twice).report();
    assert_eq!(dup.counters.duplicate_batches, 1);
    dup.counters.duplicate_batches = 0;
    assert_eq!(dup.counters, clean.counters);
    assert_eq!(dup.aggregate, clean.aggregate);
    assert_eq!(dup.devices, clean.devices);
    assert_eq!(twice.agg, once.agg);
    assert_ne!(dup.digest, clean.digest, "the digest counts the duplicate");
}
