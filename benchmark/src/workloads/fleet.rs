//! `fleet_sim`: the simulator is the work — the event-driven fleet on the
//! timer wheel and the `DeviceSim` chaos campaign on the event queue — and
//! the events reach Tables 1/2 the way the offline analysis does it: batch
//! load, in-process queries, no daemon.

use cellrel::types::SimDuration;
use cellrel::workload::{
    run_chaos_campaign, run_fleet_event_driven, ChaosConfig, FleetConfig, PopulationConfig,
};
use std::time::Instant;

use super::read::{read_rounds, Port};
use super::serve::{batch_load, restore_image};
use super::Rep;
use crate::calib::Calibrator;
use crate::fixture::{Fixture, Sizes, STUDY_SEED};
use crate::trace::Tracer;

/// The fleet of `sizes.fleet_devices` devices over 14 days, for `seed`.
fn fleet_config(sizes: &Sizes, seed: u64) -> FleetConfig {
    FleetConfig {
        population: PopulationConfig {
            devices: sizes.fleet_devices,
            ..Default::default()
        },
        days: 14,
        bs_count: 2_000,
        seed,
        ..Default::default()
    }
}

/// The campaign of `sizes.scenarios` scenarios of 6 h each. Its seed is the
/// study's, whatever `--seed` says: a dozen single-device scenarios are too
/// few for seeds to average out (their events cost 140–200 k/s depending on
/// what the seed draws), and that difference is work, not speed. The fleet's
/// 25 000 devices do average out and take `--seed`.
fn chaos_config(sizes: &Sizes) -> ChaosConfig {
    ChaosConfig {
        root_seed: STUDY_SEED,
        scenarios: sizes.scenarios,
        threads: 1,
        horizon: SimDuration::from_hours(6),
        grace: SimDuration::from_hours(1),
    }
}

/// One repetition: both simulators on one thread, then the fixture's events
/// through the batch path to tables.
pub fn fleet_sim(
    fx: &Fixture,
    sizes: &Sizes,
    seed: u64,
    tr: &mut Tracer,
    cal: &mut Calibrator,
) -> Rep {
    let t_rep = Instant::now();
    let mut rep = Rep::default();

    tr.next_op();
    let fleet = tr.span("workload.fleet", || {
        run_fleet_event_driven(&fleet_config(sizes, seed), 1)
    });
    tr.arg("events", fleet.events());
    let fleet_s = t_rep.elapsed().as_secs_f64();
    tr.next_op();
    let campaign = tr.span("workload.chaos", || {
        run_chaos_campaign(&chaos_config(sizes))
    });
    tr.arg("events", campaign.events);
    let generate_s = t_rep.elapsed().as_secs_f64();
    rep.speed.generate = cal.mark();
    rep.generated = (fleet.events() + campaign.events, generate_s);
    rep.check(campaign.violations.is_empty(), "0 campaign violations");
    rep.attempted += campaign.scenarios;
    rep.digest = fleet.digest ^ campaign.digest().rotate_left(32);
    rep.notes.insert(
        "workload.fleet_events_per_s",
        fleet.events() as f64 / fleet_s.max(1e-9),
    );
    rep.notes.insert(
        "workload.chaos_events_per_s",
        campaign.events as f64 / (generate_s - fleet_s).max(1e-9),
    );
    rep.notes.insert(
        "workload.chaos_scenarios_per_s",
        campaign.scenarios as f64 / (generate_s - fleet_s).max(1e-9),
    );
    rep.notes.insert(
        "workload.fleet_hot_bytes_per_device",
        fleet.bytes_per_device(),
    );

    tr.next_op();
    let t_write = Instant::now();
    let (store, image) = batch_load(fx, tr);
    rep.write_s = t_write.elapsed().as_secs_f64();
    rep.speed.write = cal.mark();
    rep.visible_ms.push(rep.write_s * 1e3);
    rep.records = store.inserted();
    rep.attempted += fx.batches.len() as u64;
    rep.durable_bytes = image.len() as u64;

    let (restored, _) = restore_image(&image, fx, tr, &mut rep);
    rep.speed.recover = cal.mark();
    let reads = read_rounds(&mut Port::Direct(&restored), fx, sizes.rounds, tr);
    rep.speed.read = cal.mark();
    rep.read_s = reads.read_s;
    rep.absorb_reads(reads);
    rep.wall_s = t_rep.elapsed().as_secs_f64();
    rep
}
