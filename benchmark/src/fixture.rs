//! Inputs and the batch reference every run is checked against. Everything
//! here derives from the seed; the program under test only ever sees the
//! generated batches.

use cellrel::analysis::store_tables::{table1_from_store, table2_from_store};
use cellrel::cluster::{shard_directories, shard_of_batch, ClusterConfig, ShardLeader};
use cellrel::ingest::{Collector, CollectorConfig};
use cellrel::sim::SimRng;
use cellrel::store::{workload, DeviceDirectory, Query, ResultRow, Store, StoreConfig, StoreSink};
use cellrel::stream::{batches_from_events, MemSegments, StreamConfig};
use cellrel::types::{FailureEvent, InSituInfo};
use cellrel::workload::{run_macro_study_parallel, Population, PopulationConfig, StudyConfig};
use std::sync::OnceLock;
use std::time::Instant;

use crate::trace::Tracer;
use crate::workloads::stream::{fresh_stream, write_loop};

/// Records per upload batch (the `BENCH_stream.json` value).
pub const BATCH_CAP: usize = 48;
/// Besides every sealing offer, the write path checkpoints every this many
/// offers.
pub const CHECKPOINT_EVERY: usize = 16;
/// Rows of Table 2.
pub const TABLE2_K: usize = 10;
/// Shards of the cluster workload.
pub const SHARDS: usize = 2;

/// Seed of the study every fixture comes from. Who uploads when, and how
/// much, is the same for every `--seed`: fleets of different seeds differ
/// by ±20 % in records and ±10 % in sealing offers, which is work, and no
/// bound on a time could tell that from a regression. `--seed` decides what
/// the events say instead (see [`shuffle_payloads`]).
pub const STUDY_SEED: u64 = 2021;

/// Deal the events' payloads — kind, duration, cause, RAT, signal, APN, base
/// station — out again in an order drawn from `seed`, leaving device, start
/// time and ISP where they were. Batches, windows and lateness keep their
/// shape; which cells the records fall into, and so what every query and
/// table answers, changes with the seed.
fn shuffle_payloads(events: &mut [FailureEvent], seed: u64) {
    let mut payloads: Vec<FailureEvent> = events.to_vec();
    SimRng::new(seed).shuffle(&mut payloads);
    for (e, p) in events.iter_mut().zip(payloads) {
        *e = FailureEvent {
            device: e.device,
            start: e.start,
            ctx: InSituInfo {
                isp: e.ctx.isp,
                ..p.ctx
            },
            ..p
        };
    }
}

/// The stream configuration `BENCH_stream.json` uses.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        window_ms: 86_400_000,
        lateness_ms: 2 * 3_600_000,
        hot_windows: 3,
        late_flush: 512,
        collector: CollectorConfig::default(),
        store: StoreConfig::default(),
    }
}

/// The cluster configuration `BENCH_cluster.json` uses.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        shards: SHARDS,
        replicas: 1,
        checkpoint_every: 8,
    }
}

/// The study the fixture of `sizes` comes from.
pub fn study_config(sizes: &Sizes) -> StudyConfig {
    StudyConfig {
        population: PopulationConfig {
            devices: sizes.devices,
            ..Default::default()
        },
        days: sizes.days,
        bs_count: 2_000,
        seed: STUDY_SEED,
    }
}

/// The study of `sizes`, generated on one thread: its population and its
/// failure events. The generator's answer is the same at any thread count,
/// and two threads sharing 30 ms of work on two shared cores made its rate
/// the noisiest number of the benchmark.
pub fn run_study(sizes: &Sizes) -> (Population, Vec<FailureEvent>) {
    let (population, _counts, _stations, events) =
        run_macro_study_parallel(&study_config(sizes), 1, Vec::new);
    (population, events)
}

/// The batch path: `batches` through one collector into one unsealed store.
/// It builds the reference, and it is the write path of the workloads that
/// load in one go.
pub fn batch_build(cfg: &StreamConfig, dir: &DeviceDirectory, batches: &[Vec<u8>]) -> Store {
    let mut collector = Collector::new(&cfg.collector);
    let mut sink = StoreSink::new(&cfg.store, dir);
    for b in batches {
        collector.ingest_with(b, &mut sink);
    }
    sink.into_store()
}

/// How much work one workload does. README.md says why each value was
/// chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Devices of the study fixture.
    pub devices: usize,
    /// Days the study fixture spans.
    pub days: u64,
    /// Rounds of canonical queries plus one table fetch, per client and
    /// repetition.
    pub rounds: usize,
    /// Devices of the event-driven fleet (`fleet_sim`).
    pub fleet_devices: usize,
    /// Scenarios of the chaos campaign (`fleet_sim`).
    pub scenarios: u64,
    /// Passes of the study generator in the generate stage of a serving
    /// repetition: one pass is 4–60 ms, too short to time steadily on its
    /// own, so each size runs enough of them for about 100 ms.
    pub study_passes: u32,
    /// Times the fixture is built; `setup_s` is their median.
    pub setups: usize,
    /// Timers scheduled and popped by the `sim` queue probes.
    pub timers: u64,
}

impl Sizes {
    /// The sizes of `workload`: of record, or `--quick`.
    pub fn of(workload: &str, quick: bool) -> Sizes {
        if quick {
            Sizes::quick()
        } else {
            Sizes::full(workload)
        }
    }

    /// The sizes of record.
    fn full(workload: &str) -> Sizes {
        let base = Sizes {
            devices: 500,
            days: 14,
            rounds: 30,
            fleet_devices: 2_000,
            scenarios: 2,
            study_passes: 6,
            setups: 15,
            timers: 200_000,
        };
        match workload {
            "serve_static" => Sizes {
                devices: 2_000,
                rounds: 20,
                study_passes: 2,
                ..base
            },
            "cluster" => Sizes {
                devices: 250,
                days: 7,
                rounds: 60,
                study_passes: 24,
                ..base
            },
            "fleet_sim" => Sizes {
                fleet_devices: 12_000,
                scenarios: 6,
                rounds: 50,
                ..base
            },
            _ => base,
        }
    }

    /// Small sizes for the smoke test: the whole set in a few seconds.
    fn quick() -> Sizes {
        Sizes {
            devices: 300,
            days: 7,
            rounds: 20,
            fleet_devices: 2_000,
            scenarios: 4,
            study_passes: 1,
            setups: 1,
            timers: 50_000,
        }
    }
}

/// The first quarter of the stream, already ingested and sealed: where a
/// `serve_live` repetition starts from.
#[derive(Debug, Clone)]
pub struct Preload {
    /// Batches the checkpoint covers.
    pub batches: usize,
    /// Pipeline checkpoint after those batches.
    pub checkpoint: Vec<u8>,
    /// The segments that checkpoint refers to.
    pub segs: MemSegments,
}

/// One generated fleet, its upload stream, and the batch reference.
pub struct Fixture {
    /// Device dimensions (model, region, ISP) for every device.
    pub dir: DeviceDirectory,
    /// Per-shard views of `dir` for the cluster workload.
    pub shard_dirs: Vec<DeviceDirectory>,
    /// The encoded `CB` upload batches in upload order.
    pub batches: Vec<Vec<u8>>,
    /// Stream configuration shared by every write path.
    pub stream_cfg: StreamConfig,
    /// The batch reference: the same batches through one collector into
    /// one store, sealed.
    pub reference: Store,
    /// Records the reference accepted.
    pub records: u64,
    /// Digest of the reference.
    pub ref_digest: u64,
    /// The canonical query workload.
    pub canonical: Vec<(&'static str, Query)>,
    /// Rows of each canonical query on the reference.
    pub ref_rows: Vec<Vec<ResultRow>>,
    /// Table 1 rendered from the reference.
    pub ref_table1: String,
    /// Table 2 rendered from the reference.
    pub ref_table2: String,
    /// Where `serve_live` starts from, when asked for.
    pub preload: Option<Preload>,
    /// See [`Fixture::replication`].
    replication: OnceLock<(u64, u64)>,
    /// Seconds the whole build took.
    pub setup_s: f64,
}

impl Fixture {
    /// Generate the fleet for `seed`, encode its upload stream and build
    /// the reference. `preload` also ingests the first quarter for
    /// `serve_live`.
    pub fn build(sizes: &Sizes, seed: u64, preload: bool) -> Fixture {
        let t0 = Instant::now();
        let (population, mut events) = run_study(sizes);
        shuffle_payloads(&mut events, seed);
        let dir = DeviceDirectory::from_population(&population);
        let batches = batches_from_events(&events, BATCH_CAP);
        let stream_cfg = stream_config();

        let mut reference = batch_build(&stream_cfg, &dir, &batches);
        reference.seal_columnar();

        let week_ms = u64::from(stream_cfg.store.rollup_buckets) * stream_cfg.store.bucket_ms;
        let canonical = workload::canonical(week_ms);
        let ref_rows = canonical
            .iter()
            .map(|(_, q)| {
                reference
                    .query(q)
                    .expect("canonical queries are legal")
                    .rows
            })
            .collect();
        let mut fx = Fixture {
            shard_dirs: shard_directories(&dir, SHARDS),
            ref_table1: table1_from_store(&reference).expect("valid query").render(),
            ref_table2: table2_from_store(&reference, TABLE2_K)
                .expect("valid query")
                .render(),
            records: reference.inserted(),
            ref_digest: reference.digest(),
            dir,
            batches,
            stream_cfg,
            reference,
            canonical,
            ref_rows,
            preload: None,
            replication: OnceLock::new(),
            setup_s: 0.0,
        };
        if preload {
            fx.preload = Some(fx.ingest_first_quarter());
        }
        fx.setup_s = t0.elapsed().as_secs_f64();
        fx
    }

    /// The `serve_live` starting point: the first quarter of the stream
    /// through the write loop, published to a core nobody reads.
    fn ingest_first_quarter(&self) -> Preload {
        let n = self.batches.len() / 4;
        let (core, mut segs, mut p) = fresh_stream(self);
        write_loop(
            &mut p,
            &mut segs,
            &core,
            &self.batches[..n],
            false,
            &mut Tracer::off(),
        );
        Preload {
            batches: n,
            checkpoint: p.checkpoint(),
            segs,
        }
    }

    /// Frames, and their bytes, that the shard leaders emit for this
    /// stream. `Cluster` delivers frames internally, so they are counted on
    /// a second set of leaders fed the same batches, once per fixture and
    /// outside every clock; the count is exact.
    pub fn replication(&self) -> (u64, u64) {
        *self.replication.get_or_init(|| {
            let every = cluster_config().checkpoint_every;
            let mut leaders: Vec<ShardLeader<'_>> = self
                .shard_dirs
                .iter()
                .enumerate()
                .map(|(s, d)| ShardLeader::new(&self.stream_cfg, d, s, every).expect("leader"))
                .collect();
            let (mut frames, mut bytes) = (0u64, 0u64);
            let mut count = |shipped: Vec<Vec<u8>>| {
                frames += shipped.len() as u64;
                bytes += shipped.iter().map(|f| f.len() as u64).sum::<u64>();
            };
            for b in &self.batches {
                let shard = shard_of_batch(b, SHARDS).expect("routable batch");
                count(leaders[shard].offer(b).expect("offer"));
            }
            for l in &mut leaders {
                count(l.flush().expect("flush"));
            }
            (frames, bytes)
        })
    }
}
