//! Criterion benches for the micro stack: the hot paths of the simulated
//! Android telephony pipeline — radio scans, modem setups, stall probing,
//! and a full simulated device-day.

use cellrel::modem::{FaultProfile, Modem};
use cellrel::monitor::ProbeSession;
use cellrel::netstack::LinkCondition;
use cellrel::radio::{DeploymentConfig, EmmStateMachine, RadioEnvironment};
use cellrel::sim::{SimRng, TimerWheel};
use cellrel::telephony::{DeviceConfig, DeviceSim, NullListener, RatPolicyKind};
use cellrel::types::{Apn, DeviceId, Isp, Rat, RatSet, SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_deployment_generation(c: &mut Criterion) {
    c.bench_function("radio_deployment_600_sites", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(1);
            black_box(RadioEnvironment::generate(
                DeploymentConfig::small(),
                &mut rng,
            ))
            .bs_count()
        })
    });
}

fn bench_scan(c: &mut Criterion) {
    let mut rng = SimRng::new(2);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut rng);
    let city = env.city_centers()[0];
    c.bench_function("radio_scan_city_center", |b| {
        b.iter(|| {
            black_box(env.scan_salted(black_box(city), Isp::A, RatSet::up_to(Rat::G5), 7, &mut rng))
        })
    });
}

fn bench_modem_setup(c: &mut Criterion) {
    let mut rng = SimRng::new(3);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut rng);
    let city = env.city_centers()[0];
    let views = env.scan_salted(city, Isp::A, RatSet::up_to(Rat::G4), 7, &mut rng);
    let view = views[0];
    let risk = env.risk(&view);
    c.bench_function("modem_data_call_setup", |b| {
        b.iter(|| {
            let mut modem = Modem::new();
            modem.set_fault(FaultProfile::none());
            modem.camp_on(view);
            black_box(modem.setup_data_call(Apn::Internet, &risk, SimTime::ZERO, &mut rng)).ok()
        })
    });
}

fn bench_emm_attach(c: &mut Criterion) {
    let mut rng = SimRng::new(4);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut rng);
    let city = env.city_centers()[0];
    let views = env.scan_salted(city, Isp::A, RatSet::up_to(Rat::G4), 7, &mut rng);
    let risk = env.risk(&views[0]);
    c.bench_function("emm_attach_service_cycle", |b| {
        b.iter(|| {
            let mut emm = EmmStateMachine::new();
            let _ = emm.attach(Rat::G4, &risk, &mut rng);
            let _ = emm.service_request(&risk, &mut rng);
            black_box(emm.state())
        })
    });
}

fn bench_probe_session(c: &mut Criterion) {
    let mut rng = SimRng::new(5);
    c.bench_function("monitor_probe_40s_stall", |b| {
        b.iter(|| {
            black_box(ProbeSession.measure(
                SimDuration::from_secs(40),
                LinkCondition::NetworkBlackhole,
                &mut rng,
            ))
        })
    });
}

fn bench_device_day(c: &mut Criterion) {
    let mut world_rng = SimRng::new(6);
    let env = RadioEnvironment::generate(DeploymentConfig::small(), &mut world_rng);
    let home = env.city_centers()[0];
    c.bench_function("device_sim_one_day", |b| {
        b.iter(|| {
            let mut cfg = DeviceConfig::new(DeviceId(0), Isp::A, home);
            cfg.policy = RatPolicyKind::Android9;
            cfg.stall_rate_per_hour = 2.0;
            let mut queue = TimerWheel::new();
            let mut dev = DeviceSim::new(cfg, &env, NullListener, SimRng::new(9), &mut queue);
            queue.run_until(&mut dev, SimTime::from_secs(86_400));
            black_box(*dev.stats())
        })
    });
}

criterion_group!(
    name = micro_stack;
    config = Criterion::default().sample_size(10);
    targets = bench_deployment_generation,
        bench_scan,
        bench_modem_setup,
        bench_emm_attach,
        bench_probe_session,
        bench_device_day
);
criterion_main!(micro_stack);
