//! The five workloads. Each repetition carries device events all the way to
//! served Tables 1/2 — generate, write, recover, read — and the workloads
//! differ in which generator, write path and read path do the work, so
//! every end-to-end metric has a value on every workload.

/// The sharded, replicated path.
pub mod cluster;
/// The simulators, then the offline analysis path.
pub mod fleet;
/// The read path and its ports.
pub mod read;
/// The batch-loaded store behind TCP.
pub mod serve;
/// The streaming write path, alone and beside a reader.
pub mod stream;

use crate::calib::Calibrator;
use crate::fixture::{run_study, Fixture, Sizes};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every workload this package runs, in the order a traced run takes them.
/// `BENCHMARK.json` names the ones the driver gates: all but `serve_live`,
/// whose two busy threads on two shared cores no calibration steadies (see
/// README.md); it still runs on demand and in every traced run.
pub const NAMES: [&str; 5] = [
    "ingest_stream",
    "serve_static",
    "serve_live",
    "cluster",
    "fleet_sim",
];

/// Restarts per repetition.
pub const RESTARTS: usize = 3;

/// The host's speed during each stage of a repetition, from the calibration
/// pass before the stage and the one after it (see [`crate::calib`]). All 1
/// when calibration is off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speeds {
    /// While the generator ran.
    pub generate: f64,
    /// While the write path ran.
    pub write: f64,
    /// While the restarts ran.
    pub recover: f64,
    /// While the read path ran.
    pub read: f64,
}

impl Default for Speeds {
    fn default() -> Speeds {
        Speeds {
            generate: 1.0,
            write: 1.0,
            recover: 1.0,
            read: 1.0,
        }
    }
}

/// What one repetition of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds of the whole repetition.
    pub wall_s: f64,
    /// Simulated events the generate stage produced, and its wall seconds.
    pub generated: (u64, f64),
    /// Records carried by the write path.
    pub records: u64,
    /// Wall seconds of the write path, up to and including the last publish.
    pub write_s: f64,
    /// Per publish: ms from the start of the offer that caused it to the
    /// publish returning.
    pub visible_ms: Vec<f64>,
    /// Per restart: ms to rebuild the serving state from durable bytes
    /// alone. A repetition restarts [`RESTARTS`] times where it can, so the
    /// median does not hang on one sample.
    pub recovery_ms: Vec<f64>,
    /// Bytes the write path made durable.
    pub durable_bytes: u64,
    /// Client-side µs of every canonical query.
    pub query_us: Vec<f64>,
    /// Per round: mean client-side µs of its 11 canonical queries.
    pub query_mean_us: Vec<f64>,
    /// Per round: client-side µs of the slowest of its 11 canonical queries.
    pub query_slowest_us: Vec<f64>,
    /// Client-side ms of every consistent Table 1 + Table 2 fetch.
    pub tables_ms: Vec<f64>,
    /// Wall seconds of the read path.
    pub read_s: f64,
    /// Identity witness: digest of the final published state (of the fleet
    /// report for `fleet_sim`).
    pub digest: u64,
    /// Operations attempted: offers, queries, table sets, identity checks.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Counts and rates only this workload has, by per-layer metric name.
    pub notes: BTreeMap<&'static str, f64>,
    /// The host's speed during each stage.
    pub speed: Speeds,
}

impl Rep {
    /// Count one identity check; a miss is a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: FAILED check: {what}");
        }
    }

    /// Fold a client thread's share of the repetition into this one.
    pub fn absorb_reads(&mut self, other: Rep) {
        self.query_us.extend(other.query_us);
        self.query_mean_us.extend(other.query_mean_us);
        self.query_slowest_us.extend(other.query_slowest_us);
        self.tables_ms.extend(other.tables_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.notes {
            *self.notes.entry(k).or_default() += v;
        }
    }
}

/// The generate stage of the serving workloads: the study generator their
/// fixture came from, run again and discarded. (`fleet_sim` generates with
/// the simulators it is named after.)
fn generate(sizes: &Sizes, tr: &mut Tracer) -> (u64, f64) {
    let t = Instant::now();
    let mut events = 0;
    for _ in 0..sizes.study_passes {
        tr.next_op();
        events += tr.span("workload.study", || run_study(sizes)).1.len() as u64;
    }
    (events, t.elapsed().as_secs_f64())
}

/// Run one repetition of the workload called `name`. `cal` has just made a
/// pass; every stage ends with [`Calibrator::mark`], so that each is timed
/// between two passes.
pub fn run_rep(
    name: &str,
    fx: &Fixture,
    sizes: &Sizes,
    seed: u64,
    tr: &mut Tracer,
    cal: &mut Calibrator,
) -> Rep {
    if name == "fleet_sim" {
        return fleet::fleet_sim(fx, sizes, seed, tr, cal);
    }
    let generated = generate(sizes, tr);
    let speed = cal.mark();
    let mut rep = match name {
        "ingest_stream" => stream::ingest_stream(fx, sizes, tr, cal),
        "serve_static" => serve::serve_static(fx, sizes, tr, cal),
        "serve_live" => stream::serve_live(fx, tr, cal),
        "cluster" => cluster::cluster(fx, sizes, tr, cal),
        other => panic!("unknown workload `{other}`"),
    };
    rep.generated = generated;
    rep.speed.generate = speed;
    rep.wall_s += generated.1;
    rep
}
