//! End-to-end wiring: device uploads enter the ingest collector as CRC-framed
//! wire batches, the collector streams every accepted record into a
//! [`StoreSink`] (its `EventSink`), and the resulting store answers queries —
//! identical to a store built directly from the clean event list.

use cellrel_ingest::codec::encode_batch;
use cellrel_ingest::{Collector, CollectorConfig};
use cellrel_store::{build_sharded, DeviceDirectory, Dim, Query, Store, StoreConfig, StoreSink};
use cellrel_types::{
    Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
    SignalLevel, SimDuration, SimTime,
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
