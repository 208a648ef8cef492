//! End-to-end ingestion pipeline: fleet traces → wire batches → sharded
//! collector → aggregate, checked for checkpoint/restore transparency and
//! conservation of every record.

use cellrel::ingest::codec::encode_batch;
use cellrel::ingest::{restore_checkpoint, save_checkpoint, Collector, CollectorConfig};
use cellrel::types::{DeviceId, FailureEvent};
use cellrel::workload::{run_macro_study_parallel, PopulationConfig, StudyConfig};

fn fleet_cfg() -> StudyConfig {
    StudyConfig {
        population: PopulationConfig {
            devices: 1_500,
            ..Default::default()
        },
        days: 14,
        bs_count: 500,
        seed: 2021,
    }
}

/// Encode the fleet's traces exactly as device uploaders would: per-device
/// batches of at most `cap` records with increasing sequence numbers.
fn encode_fleet(cfg: &StudyConfig, cap: usize) -> (Vec<Vec<u8>>, u64, u64) {
    let mut batches = Vec::new();
    let mut records = 0u64;
    let mut noise = 0u64;
    let mut cur: Option<DeviceId> = None;
    let mut seq = 0u64;
    let mut buf: Vec<FailureEvent> = Vec::new();
    let (_, _, _, events) = run_macro_study_parallel(cfg, 1, Vec::new);
    for e in &events {
        if cur != Some(e.device) {
            if let Some(d) = cur {
                if !buf.is_empty() {
                    batches.push(encode_batch(d, seq, &buf));
                    buf.clear();
                }
            }
            cur = Some(e.device);
            seq = 0;
        }
        buf.push(*e);
        records += 1;
        if e.cause_is_false_positive() {
            noise += 1;
        }
        if buf.len() >= cap {
            batches.push(encode_batch(e.device, seq, &buf));
            seq += 1;
            buf.clear();
        }
    }
    if let (Some(d), false) = (cur, buf.is_empty()) {
        batches.push(encode_batch(d, seq, &buf));
    }
    (batches, records, noise)
}

#[test]
fn checkpoint_midway_is_transparent() {
    let (batches, _, _) = encode_fleet(&fleet_cfg(), 48);
    let ccfg = CollectorConfig::default();

    let mut full = Collector::new(&ccfg);
    for b in &batches {
        full.ingest(b);
    }

    // Ingest half, checkpoint, restore in a "new process", finish.
    let half = batches.len() / 2;
    let mut first = Collector::new(&ccfg);
    for b in &batches[..half] {
        first.ingest(b);
    }
    let snapshot = save_checkpoint(&first);
    drop(first);
    let mut resumed = restore_checkpoint(&snapshot).expect("own checkpoint restores");
    for b in &batches[half..] {
        resumed.ingest(b);
    }

    assert_eq!(resumed.digest(), full.digest());
    assert_eq!(resumed, full);
}

#[test]
fn aggregate_conserves_every_record() {
    let (batches, records, noise) = encode_fleet(&fleet_cfg(), 48);
    let mut collector = Collector::new(&CollectorConfig::default());
    let mut accepted: Vec<FailureEvent> = Vec::new();
    for b in &batches {
        collector.ingest_with(b, &mut accepted);
    }
    let report = collector.report();
    assert_eq!(report.counters.decode_errors, 0);
    assert_eq!(report.unroutable, 0);
    // The sink saw exactly what the aggregate was built from.
    assert_eq!(accepted.len() as u64, records - noise);

    // Every wire record is accounted for: aggregated or filtered as noise.
    assert_eq!(report.counters.records, records);
    assert_eq!(report.counters.filtered_noise, noise);
    assert_eq!(report.aggregate.records, records - noise);
    assert_eq!(report.counters.batches, batches.len() as u64);
    assert_eq!(report.counters.duplicate_batches, 0);

    // The sketch and the by-kind partition both saw every kept record.
    assert_eq!(report.aggregate.sketch_all().count(), records - noise);
    let by_kind: u64 = report.aggregate.by_kind.iter().sum();
    assert_eq!(by_kind, records - noise);

    // Replaying the same batches is pure duplication: nothing new lands.
    let mut twice = Collector::new(&CollectorConfig::default());
    for b in batches.iter().chain(batches.iter()) {
        twice.ingest(b);
    }
    let twice_report = twice.report();
    assert_eq!(
        twice_report.counters.duplicate_batches,
        batches.len() as u64
    );
    assert_eq!(twice_report.aggregate.records, records - noise);
}
