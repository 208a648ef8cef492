//! The continuous windowed pipeline end to end on a real fleet: the
//! merged view and incremental Tables 1/2 byte-identical to the one-shot
//! batch pipeline over the same upload stream, kill/restart
//! digest-transparency across random kill points (including mid-window),
//! the query daemon serving epoch-consistent answers from per-window
//! published snapshots, and where the benchmark fixture's late-lane
//! traffic comes from.

use cellrel::analysis::store_tables::{
    table1_from_results, table1_from_store, table1_queries, table2_from_result, table2_from_store,
    table2_query,
};
use cellrel::ingest::{encode_batch, Collector, CollectorConfig};
use cellrel::queryd::{InProcClient, QuerydCore, Snapshot};
use cellrel::sim::campaign::CampaignReport;
use cellrel::sim::Digest64;
use cellrel::store::{DeviceDirectory, Store, StoreConfig, StoreSink};
use cellrel::stream::{
    batches_from_events, kill_restart_drill, run_kill_restart, KillPlan, MemSegments, SegmentStore,
    StreamConfig, StreamError, StreamPipeline,
};
use cellrel::types::{DeviceId, FailureEvent};
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One fleet, encoded once: ~1,200 devices over 10 days, batches ordered
/// by upload time (the live interleaving).
fn fixture() -> &'static (Vec<Vec<u8>>, DeviceDirectory) {
    static FIX: OnceLock<(Vec<Vec<u8>>, DeviceDirectory)> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = run_macro_study(&StudyConfig {
            population: PopulationConfig {
                devices: 1_200,
                ..Default::default()
            },
            days: 10,
            bs_count: 500,
            seed: 2021,
        });
        let dir = DeviceDirectory::from_population(&data.population);
        (batches_from_events(&data.events, 48), dir)
    })
}

fn stream_cfg() -> StreamConfig {
    StreamConfig {
        // Daily windows sealed two hours past the watermark.
        window_ms: 86_400_000,
        lateness_ms: 2 * 3_600_000,
        hot_windows: 3,
        late_flush: 512,
        collector: CollectorConfig::default(),
        store: StoreConfig::default(),
    }
}

/// The one-shot batch ground truth: the same batches through the same
/// collector into one store.
fn batch_store(batches: &[Vec<u8>], dir: &DeviceDirectory, cfg: &StreamConfig) -> Store {
    let mut collector = Collector::new(&cfg.collector);
    let mut sink = StoreSink::new(&cfg.store, dir);
    for b in batches {
        collector.ingest_with(b, &mut sink);
    }
    sink.into_store()
}

#[test]
fn incremental_tables_match_one_shot_batch_after_final_seal() {
    let (batches, dir) = fixture();
    let cfg = stream_cfg();
    let mut segs = MemSegments::new();
    let mut p = StreamPipeline::new(&cfg, dir).expect("valid config");
    // Re-derive the tables at every seal: each must be a valid render,
    // and the last must equal the one-shot batch answer byte for byte.
    let mut seals = 0u64;
    let mut seq = Digest64::new();
    for b in batches {
        if !p.offer(b, &mut segs).expect("offer").is_empty() {
            seals += 1;
            let (t1, t2) = p.tables(10).expect("valid queries");
            seq.write_bytes(t1.render().as_bytes());
            seq.write_bytes(t2.render().as_bytes());
            // The view comes out ready to publish: no row tier left for a
            // caller's `seal_columnar` to move.
            let view = p.store();
            assert_eq!(view.sealed_cells(), view.cells(), "seal {seals}");
        }
    }
    p.flush(&mut segs).expect("flush");
    assert!(seals >= 5, "only {seals} sealing offers in 10 days");
    assert!(p.counters().windows_sealed >= 8);

    let batch = batch_store(batches, dir, &cfg);
    assert_eq!(p.digest(), batch.digest(), "merged view == batch store");
    let (t1, t2) = p.tables(10).expect("valid queries");
    assert_eq!(
        t1.render(),
        table1_from_store(&batch).expect("valid query").render(),
        "incremental Table 1 == one-shot batch"
    );
    assert_eq!(
        t2.render(),
        table2_from_store(&batch, 10).expect("valid query").render(),
        "incremental Table 2 == one-shot batch"
    );

    // The incremental sequence itself is deterministic: a second run
    // produces the same digest over every per-seal table render.
    let mut segs2 = MemSegments::new();
    let mut q = StreamPipeline::new(&cfg, dir).expect("valid config");
    let mut seq2 = Digest64::new();
    for b in batches {
        if !q.offer(b, &mut segs2).expect("offer").is_empty() {
            let (t1, t2) = q.tables(10).expect("valid queries");
            seq2.write_bytes(t1.render().as_bytes());
            seq2.write_bytes(t2.render().as_bytes());
        }
    }
    assert_eq!(seq.finish(), seq2.finish());
}

#[test]
fn kill_restart_campaign_is_digest_transparent() {
    let (batches, dir) = fixture();
    let plan = KillPlan {
        kills: 8,
        seed: 2021,
    };
    let cfg = stream_cfg();
    let drill = kill_restart_drill(&cfg, &plan, 5, dir, batches).expect("baseline runs");
    let report = drill.run(1);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert_eq!(report.scenarios, 8);
    assert!(
        report.coverage["mid-window"] > 0,
        "no kill landed on a mid-window checkpoint"
    );

    // Engine contract: one report at any thread count and across runs, and
    // every kill replays to its outcome inside the campaign.
    for threads in [1, 2, 8] {
        let again = run_kill_restart(&cfg, &plan, 5, dir, batches, threads);
        assert_eq!(again.as_ref(), Ok(&report), "threads={threads}");
    }
    let mut replayed = CampaignReport::default();
    (0..8).for_each(|id| replayed.absorb(drill.kill(id).outcome));
    assert_eq!(replayed, report);
}

/// Drive a pipeline over `batches`, publishing the merged view into a
/// query-daemon core after **every call that seals at least one segment**
/// and once more after the end-of-stream flush. `on_publish` receives each
/// published snapshot (epoch + store), so the test can retain them and
/// replay served answers against the exact state that produced them.
/// Returns the final epoch.
fn run_published(
    pipeline: &mut StreamPipeline<'_>,
    batches: &[Vec<u8>],
    segs: &mut dyn SegmentStore,
    core: &QuerydCore,
    mut on_publish: impl FnMut(&Arc<Snapshot>),
) -> Result<u64, StreamError> {
    core.publish(pipeline.store());
    on_publish(&core.snapshot());
    for bytes in batches {
        if !pipeline.offer(bytes, segs)?.is_empty() {
            core.publish(pipeline.store());
            on_publish(&core.snapshot());
        }
    }
    pipeline.flush(segs)?;
    let epoch = core.publish(pipeline.store());
    on_publish(&core.snapshot());
    Ok(epoch)
}

#[test]
fn queryd_serves_epoch_consistent_answers_from_per_window_snapshots() {
    let (batches, dir) = fixture();
    let cfg = stream_cfg();
    let core = QuerydCore::new(Store::new(&cfg.store));
    let mut segs = MemSegments::new();
    let mut p = StreamPipeline::new(&cfg, dir).expect("valid config");

    // Retain every published snapshot so served answers can be replayed
    // against the exact store state that produced them.
    let retained: Arc<Mutex<Vec<Arc<Snapshot>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = retained.clone();
    let final_epoch = run_published(&mut p, batches, &mut segs, &core, move |snap| {
        sink.lock().expect("retain lock").push(snap.clone());
    })
    .expect("published run");

    let retained = retained.lock().expect("retain lock");
    assert!(
        retained.len() as u64 >= p.counters().windows_sealed,
        "at least one publish per sealed window"
    );
    assert_eq!(
        retained.last().expect("publishes happened").epoch,
        final_epoch
    );

    // Served tables pinned to the final epoch equal the pipeline's own.
    let client = InProcClient::new(core.clone());
    let [qd, qf, qc] = table1_queries();
    let (e1, devices) = client.query(&qd).expect("devices query");
    let (e2, failing) = client.query(&qf).expect("failing query");
    let (e3, counts) = client.query(&qc).expect("counts query");
    let (e4, causes) = client.query(&table2_query()).expect("causes query");
    assert!(e1 == e2 && e2 == e3 && e3 == e4, "pinned set is one epoch");
    assert_eq!(e1, final_epoch);
    let (t1, t2) = p.tables(10).expect("valid queries");
    assert_eq!(
        table1_from_results(&[devices, failing, counts]).render(),
        t1.render()
    );
    assert_eq!(table2_from_result(&causes, 10).render(), t2.render());

    // Epoch consistency across the whole history: every retained snapshot
    // answers its own queries identically to what it answered live (the
    // epochs are strictly increasing, so no publish was lost or torn).
    let mut prev_epoch = 0;
    for snap in retained.iter() {
        assert!(
            snap.epoch == 0 || snap.epoch > prev_epoch,
            "publish epochs strictly increase"
        );
        prev_epoch = snap.epoch;
        let answer = snap.store.query(&table2_query()).expect("valid query");
        let again = snap.store.query(&table2_query()).expect("valid query");
        assert_eq!(answer, again);
    }
    // The final retained snapshot is the final merged view.
    assert_eq!(
        retained.last().expect("publishes happened").store.digest(),
        p.digest()
    );
}

/// `batches_from_events` with one more reason to close a batch: a device
/// uploads once its oldest unsent record is `span_ms` old, instead of
/// holding records until it has `cap` of them.
fn time_capped_batches(events: &[FailureEvent], cap: usize, span_ms: u64) -> Vec<Vec<u8>> {
    let mut per_device: BTreeMap<u32, Vec<FailureEvent>> = BTreeMap::new();
    for e in events {
        per_device.entry(e.device.0).or_default().push(*e);
    }
    let mut batches: Vec<(u64, u32, u64, Vec<u8>)> = Vec::new();
    for (device, mut evs) in per_device {
        evs.sort_by_key(|e| e.start.as_millis());
        let (mut seq, mut from) = (0u64, 0usize);
        for i in 1..=evs.len() {
            let first_ms = evs[from].start.as_millis();
            let full = i - from == cap;
            if i == evs.len() || full || evs[i].start.as_millis() - first_ms > span_ms {
                let chunk = &evs[from..i];
                let upload_ms = chunk[chunk.len() - 1].start.as_millis();
                let bytes = encode_batch(DeviceId(device), seq, chunk);
                batches.push((upload_ms, device, seq, bytes));
                seq += 1;
                from = i;
            }
        }
    }
    batches.sort_by_key(|b| (b.0, b.1, b.2));
    batches.into_iter().map(|b| b.3).collect()
}

/// Why half of the `ingest_stream` fixture's records take the late lane
/// (its geometry: 500 devices x 14 days, daily windows, 2 h lateness).
/// `batches_from_events` closes a batch by count, so a device that fails
/// twice a week uploads its first week on day 14: the late records are the
/// older records of batches that span days. No batch ever arrives behind
/// its shard's watermark, so the watermark does not run ahead of the data,
/// and the same events uploaded within an hour put nothing in the lane.
/// The collector's own `late_records` counter (what the benchmark reports
/// as `ingest.late_share`) measures something else: records behind its
/// 30 min per-shard bound, sealed window or not.
#[test]
fn the_late_lane_is_fed_by_batches_that_span_days_not_by_the_watermark() {
    let data = run_macro_study(&StudyConfig {
        population: PopulationConfig {
            devices: 500,
            ..Default::default()
        },
        days: 14,
        bs_count: 2_000,
        seed: 2021,
    });
    let dir = DeviceDirectory::from_population(&data.population);
    let cfg = stream_cfg();

    let run = |batches: &[Vec<u8>]| {
        let mut segs = MemSegments::new();
        let mut p = StreamPipeline::new(&cfg, &dir).expect("valid config");
        for b in batches {
            p.offer(b, &mut segs).expect("offer");
        }
        p.flush(&mut segs).expect("flush");
        let mut collector = Collector::new(&cfg.collector);
        let mut sink = StoreSink::new(&cfg.store, &dir);
        for b in batches {
            collector.ingest_with(b, &mut sink);
        }
        assert_eq!(p.digest(), sink.into_store().digest(), "view == batch");
        assert_eq!(p.collector_digest(), collector.digest());
        (*p.counters(), collector.report().counters)
    };

    let by_count = batches_from_events(&data.events, 48);
    let (stream, collector) = run(&by_count);
    assert_eq!(collector.out_of_order_batches, 0);
    let lane_share = stream.late_records as f64 / stream.records as f64;
    assert!(lane_share > 0.4, "late-lane share {lane_share:.3}");
    assert!(stream.late_segments > 0);
    // Not the same count: the collector's bound is 30 min per shard.
    assert!(collector.late_records < stream.late_records);

    let by_hour = time_capped_batches(&data.events, 48, 3_600_000);
    assert!(by_hour.len() > by_count.len());
    let (stream, collector) = run(&by_hour);
    assert_eq!(collector.out_of_order_batches, 0);
    assert_eq!(stream.late_records, 0);
    assert_eq!(stream.late_segments, 0);
}
