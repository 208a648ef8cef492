//! Integration: fault injection drives the rare paths end to end —
//! forced causes, recovery stage 3 (radio restart), barring storms at dense
//! hubs, and the monitor's long-stall backoff.

use cellrel::device::{
    DcTracker, DeploymentConfig, DeviceConfig, DeviceSim, EmmStateMachine, FaultProfile, Modem,
    MonitoringService, RadioEnvironment, RatPolicyKind, RecordingBoth, RecoveryConfig, RetryPolicy,
    RiskFactors, TelephonyEvent,
};
use cellrel::sim::{SimRng, TimerWheel};
use cellrel::types::{Apn, DataFailCause, DeviceId, Isp, Rat, RatSet, SimTime};

#[test]
fn forced_cause_flows_from_modem_to_monitor_records() {
    // A forced permanent cause must surface in the monitor's records with
    // exactly that cause attached.
    let mut rng = SimRng::new(1);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut rng);
    let city = env.city_centers()[0];
    let views = env.scan_salted(city, Isp::A, RatSet::up_to(Rat::G4), 3, &mut rng);
    let view = views[0];
    let risk = env.risk(&view);

    let mut modem = Modem::new();
    modem.camp_on(view);
    modem.set_fault(FaultProfile::forcing(DataFailCause::ForbiddenPlmn));
    let mut tracker = DcTracker::new(Apn::Internet, RetryPolicy::default());
    let mut monitor = MonitoringService::new(DeviceId(9), rng.fork(1));

    use cellrel::device::TelephonyListener;
    let verdict = tracker.attempt_setup(&mut modem, &risk, &mut rng);
    if let cellrel::device::SetupVerdict::GaveUp(cause) = verdict {
        monitor.on_event(
            SimTime::ZERO,
            &TelephonyEvent::DataSetupError {
                cause,
                ctx: cellrel::types::InSituInfo {
                    rat: view.rat,
                    signal: view.level,
                    apn: Apn::Internet,
                    bs: Some(env.bs(view.bs).id),
                    isp: Isp::A,
                },
            },
        );
    } else {
        panic!("forced permanent cause must give up, got {verdict:?}");
    }
    assert_eq!(monitor.records().len(), 1);
    assert_eq!(
        monitor.records()[0].cause,
        Some(DataFailCause::ForbiddenPlmn)
    );
}

#[test]
fn ineffective_early_stages_reach_radio_restart() {
    // Cripple stages 1 and 2 so the engine escalates to stage 3, which
    // must actually restart the radio.
    let mut rng = SimRng::new(2);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut rng);
    let mut cfg = DeviceConfig::new(DeviceId(0), Isp::A, env.city_centers()[0]);
    cfg.stall_rate_per_hour = 6.0;
    cfg.user_reset_median_secs = 1e9; // keep the user out of it
    let mut recovery = RecoveryConfig::timp_optimized();
    recovery.op_success = [0.0, 0.0, 1.0];
    cfg.recovery = recovery;

    let mut queue = TimerWheel::new();
    let listener = RecordingBoth::new(MonitoringService::new(DeviceId(0), rng.fork(1)));
    let mut dev = DeviceSim::new(cfg, &env, listener, rng.fork(2), &mut queue);
    queue.run_until(&mut dev, SimTime::from_secs(48 * 3600));

    assert!(
        dev.modem().restart_count() > 0,
        "stage 3 never restarted the radio: {:?}",
        dev.stats()
    );
    let log = &dev.listener().log;
    let stage3 = log
        .iter()
        .filter(|(_, e)| matches!(e, TelephonyEvent::RecoveryActionExecuted { stage: 3, .. }))
        .count();
    assert!(stage3 > 0, "no stage-3 recovery events observed");
}

#[test]
fn barring_storm_at_a_saturated_hub() {
    // A hostile hub risk profile produces a stream of EMM_ACCESS_BARRED
    // outcomes and an escalating barred streak.
    let risk = RiskFactors {
        signal_risk: 0.022,
        interference: 1.0,
        overload_prob: 0.0,
        emm_pressure: 1.0,
        disrepair: false,
    };
    let mut rng = SimRng::new(3);
    let mut emm = EmmStateMachine::new();
    let mut barred = 0;
    for _ in 0..300 {
        if emm.attach(Rat::G5, &risk, &mut rng) == Err(DataFailCause::EmmAccessBarred) {
            barred += 1;
        } else {
            emm.detach();
        }
    }
    assert!(barred > 20, "expected a barring storm, got {barred}/300");
}

#[test]
fn scaled_hazards_degrade_everything_proportionally() {
    // FaultProfile::scaled is the modem-wide chaos knob: a 10× profile must
    // visibly raise the setup failure rate on a quiet cell.
    let mut rng = SimRng::new(4);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut rng);
    let city = env.city_centers()[0];
    let views = env.scan_salted(city, Isp::A, RatSet::up_to(Rat::G4), 5, &mut rng);
    let view = views[0];
    let risk = env.risk(&view);

    let attempts = |fault: FaultProfile, rng: &mut SimRng| {
        let mut failures = 0;
        for _ in 0..400 {
            let mut modem = Modem::new();
            modem.camp_on(view);
            modem.set_fault(fault);
            if modem.setup_data_call(Apn::Internet, &risk, rng).is_err() {
                failures += 1;
            }
        }
        failures
    };
    let base = attempts(FaultProfile::none(), &mut rng);
    let chaotic = attempts(FaultProfile::scaled(10.0), &mut rng);
    assert!(
        chaotic > base * 2 + 10,
        "chaos knob had no bite: base {base}, scaled {chaotic}"
    );
}

#[test]
fn fp_only_world_records_nothing_but_counts_everything() {
    // All stall conditions are device-side false positives: the monitor
    // must classify them all and record no Data_Stall failures.
    let mut rng = SimRng::new(5);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut rng);
    let mut cfg = DeviceConfig::new(DeviceId(0), Isp::A, env.city_centers()[0]);
    cfg.stall_rate_per_hour = 6.0;
    cfg.fp_condition_prob = 1.0;
    cfg.policy = RatPolicyKind::Android9;

    let mut queue = TimerWheel::new();
    let monitor = MonitoringService::new(DeviceId(0), rng.fork(1));
    let mut dev = DeviceSim::new(cfg, &env, monitor, rng.fork(2), &mut queue);
    queue.run_until(&mut dev, SimTime::from_secs(36 * 3600));

    let monitor = dev.into_listener();
    let stall_records = monitor
        .records()
        .iter()
        .filter(|r| r.kind == cellrel::types::FailureKind::DataStall)
        .count();
    assert_eq!(
        stall_records, 0,
        "system-side conditions must never become stall records"
    );
    use cellrel::types::FalsePositiveClass;
    let fp_stalls = monitor.fp_counters().get(FalsePositiveClass::SystemSide)
        + monitor
            .fp_counters()
            .get(FalsePositiveClass::DnsServiceDown);
    assert!(fp_stalls > 0, "the FP classes must be counted");
}
