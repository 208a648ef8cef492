//! The streaming write path — `offer` → `checkpoint` → `store` +
//! `seal_columnar` → `publish` — and the two workloads built on it:
//! `ingest_stream` (the write path alone) and `serve_live` (the same loop
//! beside a querying client).

use cellrel::queryd::{serve, InProcClient, QuerydCore, TcpClient};
use cellrel::store::Store;
use cellrel::stream::{MemSegments, StreamPipeline};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::read::{one_round, read_rounds, Port};
use super::{Rep, RESTARTS};
use crate::calib::Calibrator;
use crate::fixture::{Fixture, Sizes, CHECKPOINT_EVERY};
use crate::trace::Tracer;

/// What the `serve_live` client waits between two rounds. One round is
/// about 3 ms of work for the client/server pair, so the pair is busy
/// about a third of the time: the feeder has a core of the two to itself,
/// and shares the query engine's locks and allocator with a reader.
const THINK_TIME: Duration = Duration::from_millis(5);

/// What one pass of the write loop did.
#[derive(Debug, Clone, Default)]
pub struct Written {
    /// Records the collector accepted.
    pub records: u64,
    /// Wall seconds from the first offer to the last publish returning.
    pub wall_s: f64,
    /// Per sealing offer: ms from the start of `offer` to `publish`
    /// returning — durable, then queryable.
    pub visible_ms: Vec<f64>,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Bytes of all checkpoints taken.
    pub checkpoint_bytes: u64,
    /// The newest checkpoint: what a restart would restore.
    pub last_checkpoint: Vec<u8>,
}

/// A pipeline that has seen nothing, its segment store, and the core it
/// publishes to.
pub fn fresh_stream(fx: &Fixture) -> (Arc<QuerydCore>, MemSegments, StreamPipeline<'_>) {
    (
        QuerydCore::new(Store::new(&fx.stream_cfg.store)),
        MemSegments::new(),
        StreamPipeline::new(&fx.stream_cfg, &fx.dir).expect("valid config"),
    )
}

/// Make the pipeline's merged view queryable: build it, seal it, publish it.
fn publish_view(p: &StreamPipeline<'_>, core: &QuerydCore, tr: &mut Tracer) {
    let mut view = tr.span("stream.view", || p.store());
    tr.span("store.seal_columnar", || view.seal_columnar());
    tr.span("queryd.publish", || core.publish(view));
}

/// Offer `batches` in order. Every sealing offer is followed by a
/// checkpoint (durable) and a publish (queryable); every
/// [`CHECKPOINT_EVERY`]th offer is checkpointed too. With `finish` the
/// stream ends here: flush, checkpoint, publish.
pub fn write_loop(
    p: &mut StreamPipeline<'_>,
    segs: &mut MemSegments,
    core: &QuerydCore,
    batches: &[Vec<u8>],
    finish: bool,
    tr: &mut Tracer,
) -> Written {
    let mut w = Written::default();
    let records_before = p.counters().records;
    fn checkpoint(p: &StreamPipeline<'_>, w: &mut Written, tr: &mut Tracer) {
        w.last_checkpoint = tr.span("stream.checkpoint", || p.checkpoint());
        tr.arg("bytes", w.last_checkpoint.len() as u64);
        w.checkpoints += 1;
        w.checkpoint_bytes += w.last_checkpoint.len() as u64;
    }
    let t_loop = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        tr.next_op();
        let t = Instant::now();
        let open = tr.begin("stream.offer");
        let sealed = p.offer(batch, segs).expect("offer");
        tr.end(
            open,
            &[
                ("bytes", batch.len() as u64),
                ("sealed", sealed.len() as u64),
                ("sealed_bytes", sealed.iter().map(|e| e.bytes).sum()),
            ],
        );
        let seal = !sealed.is_empty();
        if seal || (i + 1) % CHECKPOINT_EVERY == 0 {
            checkpoint(p, &mut w, tr);
        }
        if seal {
            publish_view(p, core, tr);
            w.visible_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    if finish {
        tr.next_op();
        let t = Instant::now();
        tr.span("stream.flush", || p.flush(segs)).expect("flush");
        checkpoint(p, &mut w, tr);
        publish_view(p, core, tr);
        w.visible_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    w.wall_s = t_loop.elapsed().as_secs_f64();
    w.records = p.counters().records - records_before;
    w
}

/// Restart: rebuild the pipeline from the newest checkpoint and the
/// segments alone, and check it is the pipeline that was running.
fn recover(
    fx: &Fixture,
    live: &StreamPipeline<'_>,
    checkpoint: &[u8],
    segs: &MemSegments,
    tr: &mut Tracer,
    rep: &mut Rep,
) {
    let want = live.digest();
    for _ in 0..RESTARTS {
        let t = Instant::now();
        let restored = tr.span("stream.restore", || {
            StreamPipeline::restore(checkpoint, &fx.dir, segs)
        });
        rep.recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match restored {
            Ok(r) => rep.check(r.digest() == want, "restored digest == live digest"),
            Err(e) => rep.check(false, &format!("restore: {e}")),
        }
    }
}

/// Fold the counts of a finished stream into `rep` as per-layer notes.
fn note_stream_counts(p: &StreamPipeline<'_>, segs: &MemSegments, w: &Written, rep: &mut Rep) {
    let c = p.counters();
    for (name, v) in [
        ("stream.checkpoints", w.checkpoints),
        ("stream.checkpoint_bytes_total", w.checkpoint_bytes),
        ("stream.windows_sealed", c.windows_sealed),
        ("stream.late_segments", c.late_segments),
        ("stream.base_folds", c.base_folds),
        ("stream.segment_bytes", segs.bytes()),
        ("stream.late_records", c.late_records),
    ] {
        rep.notes.insert(name, v as f64);
    }
}

/// `ingest_stream`: the whole upload stream through the write loop on one
/// thread, one restart, then a short in-process read of what was published.
pub fn ingest_stream(fx: &Fixture, sizes: &Sizes, tr: &mut Tracer, cal: &mut Calibrator) -> Rep {
    let t_rep = Instant::now();
    let (core, mut segs, mut p) = fresh_stream(fx);
    let w = write_loop(&mut p, &mut segs, &core, &fx.batches, true, tr);
    let write_speed = cal.mark();

    let mut rep = Rep {
        attempted: fx.batches.len() as u64,
        records: w.records,
        write_s: w.wall_s,
        durable_bytes: segs.bytes() + w.checkpoint_bytes,
        digest: core.snapshot().store.digest(),
        ..Rep::default()
    };
    rep.speed.write = write_speed;
    rep.check(rep.digest == fx.ref_digest, "published digest == reference");
    recover(fx, &p, &w.last_checkpoint, &segs, tr, &mut rep);
    rep.speed.recover = cal.mark();
    note_stream_counts(&p, &segs, &w, &mut rep);
    rep.visible_ms = w.visible_ms;

    let mut port = Port::InProc(InProcClient::new(core));
    let reads = read_rounds(&mut port, fx, sizes.rounds, tr);
    rep.speed.read = cal.mark();
    rep.read_s = reads.read_s;
    rep.absorb_reads(reads);
    rep.wall_s = t_rep.elapsed().as_secs_f64();
    rep
}

/// `serve_live`: the first quarter of the stream is already published; one
/// feeder thread runs the write loop over the rest while one TCP client
/// loops rounds until the feeder is done. Feeder plus the client/server
/// pair keep two threads runnable.
pub fn serve_live(fx: &Fixture, tr: &mut Tracer, cal: &mut Calibrator) -> Rep {
    let pre = fx.preload.as_ref().expect("serve_live needs the preload");
    let mut segs = pre.segs.clone();
    let mut p = StreamPipeline::restore(&pre.checkpoint, &fx.dir, &segs).expect("preload");
    let mut first = p.store();
    first.seal_columnar();
    let core = QuerydCore::new(first);
    let server = serve(core.clone(), "127.0.0.1:0").expect("bind queryd");
    let addr = server.addr();

    let t_rep = Instant::now();
    let feeding = AtomicBool::new(true);
    let mut feeder_tr = tr.fork(1);
    let mut client_tr = tr.fork(2);
    let (w, mut reads, mut port) = std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            let w = write_loop(
                &mut p,
                &mut segs,
                &core,
                &fx.batches[pre.batches..],
                true,
                &mut feeder_tr,
            );
            feeding.store(false, Ordering::Release);
            w
        });
        let client = s.spawn(|| {
            let mut port = Port::Tcp(TcpClient::connect(addr).expect("client connect"));
            let mut reads = Rep::default();
            let t = Instant::now();
            // Answers read mid-feed come from partial snapshots: they must
            // succeed and be epoch-consistent, but have no reference yet.
            while feeding.load(Ordering::Acquire) {
                one_round(&mut port, fx, false, false, &mut client_tr, &mut reads);
                std::thread::sleep(THINK_TIME);
            }
            reads.read_s = t.elapsed().as_secs_f64();
            (reads, port)
        });
        let w = feeder.join().expect("feeder thread");
        let (reads, port) = client.join().expect("client thread");
        (w, reads, port)
    });
    // The feeder and the client ran side by side: one speed for both.
    let live_speed = cal.mark();
    tr.absorb(feeder_tr);
    tr.absorb(client_tr);

    let mut rep = Rep {
        attempted: (fx.batches.len() - pre.batches) as u64,
        records: w.records,
        write_s: w.wall_s,
        durable_bytes: segs.bytes() - pre.segs.bytes() + w.checkpoint_bytes,
        digest: core.snapshot().store.digest(),
        ..Rep::default()
    };
    rep.speed.write = live_speed;
    rep.speed.read = live_speed;
    rep.check(rep.digest == fx.ref_digest, "published digest == reference");
    let queries = reads.query_us.len() as f64;
    rep.notes.insert(
        "queryd.live_queries_per_s",
        queries / reads.read_s.max(1e-9),
    );
    rep.notes.insert(
        "stream.live_records_per_s",
        w.records as f64 / w.wall_s.max(1e-9),
    );
    rep.read_s = reads.read_s;
    // The feed is over: one more round, now against the reference.
    one_round(&mut port, fx, true, true, tr, &mut reads);
    drop(port);
    server.shutdown();
    rep.absorb_reads(reads);
    recover(fx, &p, &w.last_checkpoint, &segs, tr, &mut rep);
    rep.speed.recover = cal.mark();
    note_stream_counts(&p, &segs, &w, &mut rep);
    rep.visible_ms = w.visible_ms;
    rep.wall_s = t_rep.elapsed().as_secs_f64();
    rep
}
