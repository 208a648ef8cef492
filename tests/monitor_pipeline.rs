//! Integration: a fully simulated device with the Android-MOD monitor
//! attached — the complete §2 measurement pipeline, from telephony events
//! through false-positive filtering and stall probing to trace records.

use cellrel::monitor::MonitoringService;
use cellrel::radio::{DeploymentConfig, RadioEnvironment};
use cellrel::sim::{SimRng, TimerWheel};
use cellrel::telephony::{DeviceConfig, DeviceSim, RatPolicyKind, RecordingBoth};
use cellrel::types::{DeviceId, FailureKind, Isp, Rat, RatSet, SimTime};

struct Run {
    raw_events: usize,
    records: Vec<cellrel::types::FailureEvent>,
    fp_total: u64,
    monitor: MonitoringService,
}

fn run_monitored_device(seed: u64, hours: u64, fp_prob: f64) -> Run {
    let mut rng = SimRng::new(seed);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut rng);
    let mut cfg = DeviceConfig::new(DeviceId(1), Isp::A, env.city_centers()[0]);
    cfg.rats = RatSet::up_to(Rat::G5);
    cfg.policy = RatPolicyKind::Android10;
    cfg.stall_rate_per_hour = 5.0;
    cfg.fp_condition_prob = fp_prob;

    let listener = RecordingBoth::new(MonitoringService::new(DeviceId(1), rng.fork(1)));
    let mut queue = TimerWheel::new();
    let mut dev = DeviceSim::new(cfg, &env, listener, rng.fork(2), &mut queue);
    queue.run_until(&mut dev, SimTime::from_secs(hours * 3600));
    let listener = dev.into_listener();
    Run {
        raw_events: listener.log.len(),
        records: listener.inner.records().to_vec(),
        fp_total: listener.inner.fp_counters().total(),
        monitor: listener.inner,
    }
}

#[test]
fn monitor_records_fewer_than_raw_events() {
    let run = run_monitored_device(1, 24, 0.2);
    assert!(run.raw_events > 0);
    assert!(
        run.records.len() < run.raw_events,
        "monitor must filter: {} records vs {} raw",
        run.records.len(),
        run.raw_events
    );
    assert!(run.fp_total > 0, "a noisy day must produce false positives");
}

#[test]
fn recorded_stalls_have_probed_durations() {
    let run = run_monitored_device(2, 48, 0.1);
    let stalls: Vec<_> = run
        .records
        .iter()
        .filter(|r| r.kind == FailureKind::DataStall)
        .collect();
    assert!(!stalls.is_empty(), "expected recorded stalls");
    for s in &stalls {
        // Probing quantises in ≤5 s rounds; measured durations are positive
        // and bounded by the paper's observed maximum.
        assert!(s.duration.as_secs_f64() > 0.0);
        assert!(s.duration.as_secs_f64() <= 92_000.0);
    }
}

#[test]
fn fp_heavy_world_is_mostly_filtered() {
    // With 90 % of stall conditions being device-side/DNS false positives,
    // the monitor's stall record count must be far below the suspicion count.
    let run = run_monitored_device(3, 48, 0.9);
    let recorded_stalls = run
        .records
        .iter()
        .filter(|r| r.kind == FailureKind::DataStall)
        .count() as u64;
    assert!(
        run.fp_total > recorded_stalls,
        "fp {} vs recorded stalls {}",
        run.fp_total,
        recorded_stalls
    );
}

#[test]
fn setup_error_records_carry_codes_and_context() {
    let run = run_monitored_device(4, 24, 0.1);
    let setups: Vec<_> = run
        .records
        .iter()
        .filter(|r| r.kind == FailureKind::DataSetupError)
        .collect();
    assert!(!setups.is_empty(), "expected setup-error records");
    for r in &setups {
        let cause = r.cause.expect("setup errors carry a cause");
        assert!(cause.is_true_failure(), "{cause} leaked through the filter");
        assert!(r.ctx.bs.is_some(), "in-situ BS identity missing");
    }
}

#[test]
fn monitor_overhead_stays_reasonable() {
    let run = run_monitored_device(5, 72, 0.1);
    let o = run.monitor.overhead();
    // Not the paper's strict typical budget (we inject far more failures
    // than a typical device sees), but the worst-case envelope must hold.
    assert!(o.cpu_utilization() < 0.08, "cpu {}", o.cpu_utilization());
    assert!(o.peak_memory_bytes() < 2 * 1024 * 1024);
    assert!(o.storage_bytes() < 20 * 1024 * 1024);
}

#[test]
fn uploads_drain_the_queue() {
    let mut run = run_monitored_device(6, 24, 0.1);
    let pending_before = run.monitor.pending_records();
    assert_eq!(pending_before, run.records.len() as u64);
    run.monitor
        .upload_opportunity(SimTime::from_secs(90_000), true);
    let held = run.monitor.pending_records();
    assert_eq!(
        run.monitor.uploader().uploaded_records() + held,
        pending_before
    );
    // Whatever a WiFi flush leaves behind starts at a setup error whose
    // episode the run ended inside.
    if held > 0 {
        let first_held = &run.records[(pending_before - held) as usize];
        assert_eq!(first_held.kind, FailureKind::DataSetupError);
        assert_eq!(first_held.duration.as_millis(), 0);
    }
}
