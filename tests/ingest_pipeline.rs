//! End-to-end ingestion pipeline: fleet traces → wire batches → sharded
//! collector → the §3.1 aggregate as its sink, checked for
//! checkpoint/restore transparency and conservation of every record.

use cellrel::ingest::codec::encode_batch;
use cellrel::ingest::{
    restore_checkpoint, save_checkpoint, Collector, CollectorConfig, IngestAggregate,
};
use cellrel::types::{DataFailCause, DeviceId, FailureEvent, FailureKind};
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
/// The study draws setup-error causes from Table 2's true-failure mix, so
/// it uploads no §2.1 rational rejection; as an unfiltered uploader would,
/// every `noise_every`-th setup error here (none at 0) carries one of two
/// rational-rejection causes instead of its own.
fn encode_fleet(cfg: &StudyConfig, cap: usize, noise_every: usize) -> (Vec<Vec<u8>>, u64, u64) {
    let mut batches = Vec::new();
    let mut records = 0u64;
    let mut noise = 0u64;
    let mut cur: Option<DeviceId> = None;
    let mut seq = 0u64;
    let mut buf: Vec<FailureEvent> = Vec::new();
    let (_, _, _, mut events) = run_macro_study_parallel(cfg, 1, Vec::new);
    if noise_every > 0 {
        let setup_errors = events
            .iter_mut()
            .filter(|e| e.kind == FailureKind::DataSetupError);
        for (i, e) in setup_errors.step_by(noise_every).enumerate() {
            e.cause = Some(if i % 2 == 0 {
                DataFailCause::InsufficientResources
            } else {
                DataFailCause::RadioPowerOff
            });
        }
    }
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
    let (batches, _, _) = encode_fleet(&fleet_cfg(), 48, 0);
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
    let (batches, records, noise) = encode_fleet(&fleet_cfg(), 48, 7);
    assert!(noise > 0, "the fixture uploads rational rejections");
    let mut collector = Collector::new(&CollectorConfig::default());
    let mut sinks: (IngestAggregate, Vec<FailureEvent>) = Default::default();
    for b in &batches {
        collector.ingest_with(b, &mut sinks);
    }
    let (aggregate, accepted) = sinks;
    let report = collector.report();
    assert_eq!(report.counters.decode_errors, 0);
    assert_eq!(report.unroutable, 0);
    // Both halves of the pair saw exactly the accepted stream.
    assert_eq!(accepted.len() as u64, records - noise);

    // Every wire record is accounted for. `counters.records` counts the
    // records accepted and handed to the sink, `filtered_noise` those
    // dropped as rational rejections, `duplicate_records` identical copies
    // collapsed within a batch (the study makes none); the three partition
    // what the wire carried.
    assert_eq!(report.counters.duplicate_records, 0);
    assert_eq!(
        report.counters.records + report.counters.filtered_noise,
        records
    );
    assert_eq!(report.counters.filtered_noise, noise);
    assert_eq!(report.counters.records, records - noise);
    assert_eq!(aggregate.records, records - noise);
    assert_eq!(report.counters.batches, batches.len() as u64);
    assert_eq!(report.counters.duplicate_batches, 0);

    // The sketch and the by-kind partition both saw every kept record.
    assert_eq!(aggregate.sketch_all().count(), records - noise);
    let by_kind: u64 = aggregate.by_kind.iter().sum();
    assert_eq!(by_kind, records - noise);

    // Replaying the same batches is pure duplication: nothing new lands.
    let mut twice = Collector::new(&CollectorConfig::default());
    let mut twice_aggregate = IngestAggregate::default();
    for b in batches.iter().chain(batches.iter()) {
        twice.ingest_with(b, &mut twice_aggregate);
    }
    let twice_report = twice.report();
    assert_eq!(
        twice_report.counters.duplicate_batches,
        batches.len() as u64
    );
    assert_eq!(twice_aggregate, aggregate);
}
