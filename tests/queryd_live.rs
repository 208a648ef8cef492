//! Concurrency determinism for the query daemon: the same query set issued
//! from 1, 4 and 16 concurrent TCP clients against a **live-ingesting**
//! server yields byte-identical `ResultSet`s to running the in-process
//! engine on the exact snapshot each answer was served from — and once the
//! feed finishes, the served Table 1 / Table 2 are byte-identical to the
//! batch analysis of the raw dataset.
//!
//! The feed retains every snapshot it publishes (via `feed_events`'
//! `on_publish` hook), so each recorded `(epoch, answer)` pair can be
//! replayed offline against the very store state that produced it. Any
//! torn read, lost publish, or cross-thread nondeterminism shows up as a
//! byte diff.

use cellrel::analysis::store_tables::{
    table1_from_results, table1_queries, table2_from_result, table2_query,
};
use cellrel::analysis::{table1, table2};
use cellrel::queryd::proto::{encode_response, Response};
use cellrel::queryd::{serve, QuerydCore, Snapshot, TcpClient};
use cellrel::store::{
    build_sharded, DeviceDirectory, Dim, Filter, Metric, Query, Store, StoreConfig, StoreSink,
};
use cellrel::types::{EventSink, FailureEvent, FailureKind};
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig, StudyDataset};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

fn fixture() -> &'static (StudyDataset, DeviceDirectory) {
    static FIX: OnceLock<(StudyDataset, DeviceDirectory)> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = run_macro_study(&StudyConfig {
            seed: 2021,
            population: PopulationConfig {
                devices: 2_000,
                ..Default::default()
            },
            days: 7,
            bs_count: 800,
        });
        let dir = DeviceDirectory::from_population(&data.population);
        (data, dir)
    })
}

/// Replay `events` into the core the way a live backend would: append
/// through a [`StoreSink`] (the same `EventSink` the ingest collector
/// feeds) and publish an immutable snapshot every `chunk` events, plus a
/// final one. `on_publish` sees each snapshot as it becomes current, so
/// the test retains the exact states concurrent clients can observe.
/// Returns the final epoch.
fn feed_events(
    core: &QuerydCore,
    cfg: &StoreConfig,
    dir: &DeviceDirectory,
    events: &[FailureEvent],
    chunk: usize,
    mut on_publish: impl FnMut(&Arc<Snapshot>),
) -> u64 {
    let chunk = chunk.max(1);
    let mut sink = StoreSink::new(cfg, dir);
    // Published snapshots are immutable, so they are built in the columnar
    // layout: concurrent readers scan segments instead of the row map.
    // Pure layout change — answers and digests are invariant (the store's
    // differential suite proves it).
    let mut publish = |sink: &mut StoreSink<'_>| {
        let mut snap = Store::sealed_union(cfg, &[sink.store()]);
        snap.register_population(dir);
        let epoch = core.publish(snap);
        on_publish(&core.snapshot());
        epoch
    };
    let mut pending = 0usize;
    for e in events {
        sink.record(e);
        pending += 1;
        if pending == chunk {
            pending = 0;
            publish(&mut sink);
        }
    }
    publish(&mut sink)
}

/// The workload every client runs: the table queries plus a spread of
/// grouping/metric shapes (time windows, quantiles, top-k, filters).
fn workload(week_ms: u64) -> Vec<Query> {
    let [t1_devices, t1_failing, t1_counts] = table1_queries();
    vec![
        t1_devices,
        t1_failing,
        t1_counts,
        table2_query(),
        Query::count_by(vec![Dim::Kind, Dim::Isp]),
        Query {
            filters: vec![Filter::Kind(FailureKind::DataSetupError)],
            group_by: vec![Dim::Time],
            window_ms: week_ms,
            metric: Metric::Count,
            top_k: 0,
        },
        Query {
            filters: vec![],
            group_by: vec![Dim::Isp],
            window_ms: 0,
            metric: Metric::QuantileMs(0.95),
            top_k: 0,
        },
        Query {
            filters: vec![Filter::HasCause],
            group_by: vec![Dim::Cause],
            window_ms: 0,
            metric: Metric::Count,
            top_k: 5,
        },
        Query {
            filters: vec![],
            group_by: vec![Dim::Region],
            window_ms: 0,
            metric: Metric::Under30sShare,
            top_k: 0,
        },
    ]
}

/// One recorded exchange: which query, the epoch the server answered from,
/// and the answer as decoded by the client.
type Record = (usize, u64, cellrel::store::ResultSet);

/// Drive `clients` concurrent TCP clients against a server whose store is
/// being fed live, then replay every recorded answer against the retained
/// snapshot it came from.
fn run_live_session(clients: usize) {
    let (data, dir) = fixture();
    let store_cfg = StoreConfig::default();
    let week_ms = u64::from(store_cfg.rollup_buckets) * store_cfg.bucket_ms;
    let queries = workload(week_ms);
    let chunk = (data.events.len() / 8).max(1);

    let core = QuerydCore::new(Store::new(&store_cfg));
    let server = serve(core.clone(), "127.0.0.1:0").expect("bind queryd");
    let addr = server.addr();

    // Every store state any client could have observed: the initial epoch-0
    // snapshot plus each published one.
    let retained: Mutex<Vec<Arc<Snapshot>>> = Mutex::new(vec![core.snapshot()]);
    let feeding = AtomicBool::new(true);

    let mut records: Vec<Record> = Vec::new();
    let mut final_epoch = 0u64;
    std::thread::scope(|s| {
        let feed = s.spawn(|| {
            let epoch = feed_events(&core, &store_cfg, dir, &data.events, chunk, |snap| {
                retained.lock().expect("retain lock").push(snap.clone());
            });
            feeding.store(false, Ordering::Release);
            epoch
        });
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let (queries, feeding) = (&queries, &feeding);
                s.spawn(move || {
                    let mut client = TcpClient::connect(addr).expect("connect");
                    let mut recs: Vec<Record> = Vec::new();
                    let mut passes = 0usize;
                    // Keep racing the feed while it runs (bounded), then one
                    // guaranteed pass over the final state.
                    while (feeding.load(Ordering::Acquire) && passes < 64) || passes == 0 {
                        for (i, q) in queries.iter().enumerate() {
                            let (epoch, result) = client.query(q).expect("query");
                            recs.push((i, epoch, result));
                        }
                        passes += 1;
                    }
                    recs
                })
            })
            .collect();
        for w in workers {
            records.extend(w.join().expect("client thread"));
        }
        final_epoch = feed.join().expect("feed thread");
    });

    // Replay: every answer must be byte-identical to the in-process engine
    // on the snapshot that served it.
    let by_epoch: HashMap<u64, Arc<Snapshot>> = retained
        .into_inner()
        .expect("retain lock")
        .into_iter()
        .map(|s| (s.epoch, s))
        .collect();
    assert!(
        records.len() >= clients * queries.len(),
        "every client completes at least one pass"
    );
    for (i, epoch, served) in &records {
        let snap = by_epoch
            .get(epoch)
            .unwrap_or_else(|| panic!("answer from unretained epoch {epoch}"));
        let expected = snap.store.query(&queries[*i]).expect("legal query");
        let served_frame = encode_response(&Response::Rows {
            epoch: *epoch,
            result: served.clone(),
        });
        let expected_frame = encode_response(&Response::Rows {
            epoch: *epoch,
            result: expected,
        });
        assert_eq!(
            served_frame, expected_frame,
            "query {i} at epoch {epoch} diverged ({clients} clients)"
        );
    }

    // After the final publish the served tables are byte-identical to the
    // batch analysis of the raw dataset.
    let mut client = TcpClient::connect(addr).expect("connect");
    let [qd, qf, qc] = table1_queries();
    let (e1, rd) = client.query(&qd).expect("devices");
    let (e2, rf) = client.query(&qf).expect("failing");
    let (e3, rc) = client.query(&qc).expect("counts");
    let (e4, causes) = client.query(&table2_query()).expect("causes");
    assert_eq!([e1, e2, e3], [final_epoch; 3]);
    assert_eq!(e4, final_epoch);
    assert_eq!(
        table1_from_results(&[rd, rf, rc]).render(),
        table1::compute(data).render(),
        "served Table 1 != batch ({clients} clients)"
    );
    assert_eq!(
        table2_from_result(&causes, 10).render(),
        table2::compute(data, 10).render(),
        "served Table 2 != batch ({clients} clients)"
    );
    // The store the feed ends on is the batch-built store, so its content
    // digest is the same on every run and at every client count.
    assert_eq!(
        by_epoch[&final_epoch].store.digest(),
        build_sharded(&store_cfg, dir, &data.events, 1).digest(),
        "final served store != batch store ({clients} clients)"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn one_client_matches_the_in_process_engine_exactly() {
    run_live_session(1);
}

#[test]
fn four_clients_match_the_in_process_engine_exactly() {
    run_live_session(4);
}

#[test]
fn sixteen_clients_match_the_in_process_engine_exactly() {
    run_live_session(16);
}
