//! End-to-end wiring: device uploads enter the ingest collector as CRC-framed
//! wire batches, the collector streams every accepted record into a
//! [`StoreSink`] (its `EventSink`), and the resulting store answers queries —
//! identical to a store built directly from the clean event list.

use cellrel_ingest::codec::encode_batch;
use cellrel_ingest::{Collector, CollectorConfig};
use cellrel_store::{
    build_sharded, DeviceDirectory, Dim, Metric, Query, Region, Store, StoreConfig, StoreSink,
};
use cellrel_types::{
    Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
    SignalLevel, SimDuration, SimTime,
};
use cellrel_workload::{
    run_macro_study, run_macro_study_parallel, PopulationConfig, StudyConfig, StudyDataset,
};

fn ev(device: u32, start_s: u64, dur_s: u64, kind: FailureKind) -> FailureEvent {
    FailureEvent {
        device: DeviceId(device),
        kind,
        start: SimTime::from_secs(start_s),
        duration: SimDuration::from_secs(dur_s),
        cause: (kind == FailureKind::DataSetupError).then_some(DataFailCause::SignalLost),
        ctx: InSituInfo {
            rat: Rat::ALL[device as usize % 4],
            signal: SignalLevel::L3,
            apn: Apn::Internet,
            bs: Some(BsId::gsm_cn(0, 1, 2)),
            isp: Isp::ALL[device as usize % 3],
        },
    }
}

/// Per-device batches for a small fleet: 40 devices, 10 records each.
fn batches() -> (Vec<Vec<u8>>, Vec<FailureEvent>) {
    let mut batches = Vec::new();
    let mut all = Vec::new();
    for d in 0..40u32 {
        let events: Vec<FailureEvent> = (0..10u64)
            .map(|i| {
                ev(
                    d,
                    u64::from(d) * 100 + i * 86_400,
                    3 + i,
                    FailureKind::ALL[(d as u64 + i) as usize % 5],
                )
            })
            .collect();
        batches.push(encode_batch(DeviceId(d), 0, &events));
        all.extend_from_slice(&events);
    }
    (batches, all)
}

fn ingest_into_store(dir: &DeviceDirectory) -> Store {
    let (wire, _) = batches();
    let mut collector = Collector::new(&CollectorConfig::default());
    let mut sink = StoreSink::new(&StoreConfig::default(), dir);
    for b in &wire {
        collector.ingest_with(b, &mut sink);
    }
    sink.into_store()
}

#[test]
fn collector_fed_store_matches_direct_build() {
    let dir = DeviceDirectory::default();
    let (_, events) = batches();
    let direct = build_sharded(&StoreConfig::default(), &dir, &events, 1);
    let fed = ingest_into_store(&dir);
    assert_eq!(fed, direct, "wire-fed store must equal the direct build");
    assert_eq!(fed.digest(), direct.digest());
}

#[test]
fn collector_fed_store_answers_queries() {
    let dir = DeviceDirectory::default();
    let s = ingest_into_store(&dir);
    let rs = s.query(&Query::count_by(vec![Dim::Kind])).unwrap();
    assert_eq!(rs.rows.len(), 5);
    let total: u64 = rs.rows.iter().map(|r| r.count).sum();
    assert_eq!(total, 400, "every accepted record lands in the cube");
}

/// A small macro study: 600 devices over four weeks, every one of them in
/// the directory with its model, region and ISP.
fn study() -> (StudyConfig, StudyDataset) {
    let cfg = StudyConfig {
        population: PopulationConfig {
            devices: 600,
            ..Default::default()
        },
        days: 28,
        bs_count: 500,
        seed: 2021,
    };
    (cfg, run_macro_study(&cfg))
}

#[test]
fn collector_fed_store_carries_directory_dimensions() {
    let (_, data) = study();
    let dir = DeviceDirectory::from_population(&data.population);
    let mut collector = Collector::new(&CollectorConfig::default());
    let mut sink = StoreSink::new(&StoreConfig::default(), &dir);
    // The study emits each device's records together: one upload each.
    let mut rest = &data.events[..];
    while let Some(first) = rest.first() {
        let n = rest.iter().take_while(|e| e.device == first.device).count();
        collector.ingest_with(&encode_batch(first.device, 0, &rest[..n]), &mut sink);
        rest = &rest[n..];
    }
    let fed = sink.into_store();
    let mut by_record = Store::new(&StoreConfig::default());
    for e in &data.events {
        by_record.record(e, dir.dim_of(e.device));
    }
    by_record.register_population(&dir);
    assert_eq!(
        fed, by_record,
        "wire-fed store must equal one insert a record"
    );
    assert_eq!(fed.digest(), by_record.digest());
    assert_eq!(fed.inserted(), data.events.len() as u64);

    let by = |dim, metric| {
        let q = Query {
            group_by: vec![dim],
            metric,
            ..Query::count_by(vec![])
        };
        fed.query(&q).unwrap().rows
    };
    let models = by(Dim::Model, Metric::Count);
    assert!(models.len() > 1, "records spread over several models");
    assert!(
        models.iter().all(|r| r.key[0] != 0),
        "no record lacks a model"
    );
    let regions = by(Dim::Region, Metric::Count);
    let unknown = Region::Unknown.index() as u64;
    assert!(regions.iter().all(|r| r.key[0] != unknown));
    let devices: u64 = by(Dim::Isp, Metric::Devices).iter().map(|r| r.count).sum();
    assert_eq!(devices, 600, "the whole population is in the denominators");
}

#[test]
fn parallel_study_sinks_equal_the_one_thread_build() {
    let (cfg, data) = study();
    let dir = DeviceDirectory::from_population(&data.population);
    let store_cfg = StoreConfig::default();
    let want = build_sharded(&store_cfg, &dir, &data.events, 1);
    for threads in [1, 2, 8] {
        let (_, _, _, sink) =
            run_macro_study_parallel(&cfg, threads, || StoreSink::new(&store_cfg, &dir));
        let got = sink.into_store();
        assert_eq!(got, want, "threads={threads}");
        assert_eq!(got.digest(), want.digest(), "threads={threads}");
    }
}
