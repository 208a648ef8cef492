//! Stand-alone probes of single layers, and the per-layer metrics derived
//! from the spans of traced repetitions. A layer is a crate; a probe times
//! calls into its public functions.

use cellrel::analysis::store_tables::{
    table1_from_results, table1_from_store, table1_queries, table2_from_result, table2_from_store,
    table2_query,
};
use cellrel::cluster::{shard_of_batch, Follower, ShardLeader};
use cellrel::ingest::{decode_batch, encode_batch, save_checkpoint, Collector};
use cellrel::queryd::proto::{
    decode_request, decode_response, encode_request, encode_response, Request,
};
use cellrel::queryd::{serve, QuerydCore, TcpClient};
use cellrel::sim::{EventQueue, Merge, SparseSketch, TimerWheel};
use cellrel::store::{encode_partial, merge_partials, restore_store, save_store, Store, StoreSink};
use cellrel::types::SimTime;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::fixture::{batch_build, cluster_config, run_study, Fixture, Sizes, SHARDS, TABLE2_K};
use crate::stats::{median, percentile, tail_or_lower};
use crate::trace::{self_by_layer, totals_by_name, NameTotals, Span, Tracer};
use crate::workloads::stream::{fresh_stream, write_loop};
use crate::workloads::Rep;

/// Times a ms-scale call is repeated; its metric is the median.
const REPEATS: usize = 5;
/// Times each canonical query is repeated in-process.
const QUERY_REPEATS: usize = 50;
/// TCP pings sent for the round-trip time.
const PINGS: usize = 200;

/// The layers whose self-time share of a traced repetition is reported.
pub const LAYERS: [&str; 8] = [
    "ingest", "store", "stream", "queryd", "cluster", "analysis", "workload", "client",
];

/// Per-layer metric name → value.
pub type Layered = BTreeMap<String, f64>;

/// Run `f` once per input under a `probe.<metric>` span; the median of its
/// wall seconds. Inputs a call consumes are prepared outside the clock, and
/// results are dropped outside it.
fn timed_each<I, T>(
    tr: &mut Tracer,
    name: &'static str,
    inputs: Vec<I>,
    mut f: impl FnMut(I) -> T,
) -> f64 {
    let samples: Vec<f64> = inputs
        .into_iter()
        .map(|input| {
            let t = Instant::now();
            let out = tr.span(name, || f(input));
            let s = t.elapsed().as_secs_f64();
            drop(black_box(out));
            s
        })
        .collect();
    median(&samples)
}

/// [`timed_each`] for a call that borrows its input: [`REPEATS`] runs.
fn timed<T>(tr: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    timed_each(tr, name, vec![(); REPEATS], |()| f())
}

/// Median of span durations, in µs.
fn p50_us(durs_ns: impl IntoIterator<Item = u64>) -> f64 {
    let v: Vec<f64> = durs_ns.into_iter().map(|ns| ns as f64 / 1e3).collect();
    median(&v)
}

/// `ingest`: the codec and the collector alone.
fn ingest(fx: &Fixture, tr: &mut Tracer, out: &mut Layered) {
    let decoded: Vec<_> = fx
        .batches
        .iter()
        .map(|b| decode_batch(b).expect("fixture batches decode"))
        .collect();
    let records: usize = decoded.iter().map(|b| b.records.len()).sum();
    let encode_s = timed(tr, "probe.ingest.encode", || {
        for b in &decoded {
            black_box(encode_batch(b.device, b.seq, &b.records));
        }
    });
    let decode_s = timed(tr, "probe.ingest.decode", || {
        for b in &fx.batches {
            black_box(decode_batch(b).expect("decodes"));
        }
    });
    let mut collector = Collector::new(&fx.stream_cfg.collector);
    let collect_s = timed(tr, "probe.ingest.collect", || {
        collector = Collector::new(&fx.stream_cfg.collector);
        for b in &fx.batches {
            collector.ingest(b);
        }
    });
    let report = collector.report();
    let accepted = report.counters.records.max(1) as f64;
    let mut checkpoint = Vec::new();
    let checkpoint_s = timed(tr, "probe.ingest.checkpoint", || {
        checkpoint = save_checkpoint(&collector);
    });
    out.insert(
        "ingest.encode_records_per_s".into(),
        records as f64 / encode_s,
    );
    out.insert(
        "ingest.decode_records_per_s".into(),
        records as f64 / decode_s,
    );
    out.insert("ingest.collect_records_per_s".into(), accepted / collect_s);
    out.insert(
        "ingest.wire_bytes_per_record".into(),
        report.bytes_per_record(),
    );
    out.insert(
        "ingest.late_share".into(),
        report.counters.late_records as f64 / accepted,
    );
    out.insert("ingest.checkpoint_ms".into(), checkpoint_s * 1e3);
    out.insert("ingest.checkpoint_bytes".into(), checkpoint.len() as f64);
}

/// The batch build of `batches` into one unsealed store.
fn build(fx: &Fixture, batches: &[Vec<u8>]) -> Store {
    batch_build(&fx.stream_cfg, &fx.dir, batches)
}

/// `store`: build, the clone/merge/compact/seal steps every publish pays,
/// persistence, the scan kernel per canonical query, and federation.
fn store(fx: &Fixture, tr: &mut Tracer, out: &mut Layered) {
    let build_s = timed(tr, "probe.store.build", || build(fx, &fx.batches));
    out.insert(
        "store.build_records_per_s".into(),
        fx.records as f64 / build_s,
    );

    let built = build(fx, &fx.batches);
    let (front, back) = fx.batches.split_at(fx.batches.len() / 2);
    let (front, back) = (build(fx, front), build(fx, back));
    let ms = |s: f64| s * 1e3;
    out.insert(
        "store.clone_ms".into(),
        ms(timed(tr, "probe.store.clone", || built.clone())),
    );
    let halves = || {
        (0..REPEATS)
            .map(|_| (front.clone(), back.clone()))
            .collect::<Vec<_>>()
    };
    // What the stream's base tier compacts: a store that was just merged.
    let merged = halves()
        .into_iter()
        .map(|(mut a, b)| {
            a.merge(b);
            a
        })
        .collect();
    out.insert(
        "store.merge_ms".into(),
        ms(timed_each(
            tr,
            "probe.store.merge",
            halves(),
            |(mut a, b): (Store, Store)| {
                a.merge(b);
                a
            },
        )),
    );
    out.insert(
        "store.compact_ms".into(),
        ms(timed_each(
            tr,
            "probe.store.compact",
            merged,
            |mut s: Store| {
                s.compact();
                s
            },
        )),
    );
    out.insert(
        "store.seal_columnar_ms".into(),
        ms(timed_each(
            tr,
            "probe.store.seal_columnar",
            (0..REPEATS).map(|_| built.clone()).collect(),
            |mut s: Store| {
                s.seal_columnar();
                s
            },
        )),
    );
    out.insert(
        "store.digest_ms".into(),
        ms(timed(tr, "probe.store.digest", || built.digest())),
    );

    let sealed = &fx.reference;
    let mut image = Vec::new();
    out.insert(
        "store.save_ms".into(),
        ms(timed(tr, "probe.store.save", || image = save_store(sealed))),
    );
    out.insert(
        "store.restore_ms".into(),
        ms(timed(tr, "probe.store.restore", || {
            restore_store(&image).expect("image restores")
        })),
    );
    out.insert(
        "store.image_bytes_per_cell".into(),
        image.len() as f64 / sealed.cells().max(1) as f64,
    );

    let mut scanned = 0u64;
    for (name, q) in &fx.canonical {
        let open = tr.begin("probe.store.query");
        let samples: Vec<f64> = (0..QUERY_REPEATS)
            .map(|_| {
                let t = Instant::now();
                let rs = black_box(sealed.query(q).expect("canonical queries are legal"));
                scanned += rs.cells_scanned;
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        tr.end(open, &[("queries", QUERY_REPEATS as u64)]);
        out.insert(format!("store.query_us.{name}"), median(&samples));
    }
    out.insert(
        "store.cells_scanned_per_query".into(),
        scanned as f64 / (QUERY_REPEATS * fx.canonical.len()) as f64,
    );

    // Federation over two shard stores: the shard half, the wire form, and
    // the router half of one scatter-gather query.
    let mut shards: Vec<StoreSink<'_>> = fx
        .shard_dirs
        .iter()
        .map(|d| StoreSink::new(&fx.stream_cfg.store, d))
        .collect();
    let mut collector = Collector::new(&fx.stream_cfg.collector);
    for b in &fx.batches {
        let shard = shard_of_batch(b, SHARDS).expect("routable batch");
        collector.ingest_with(b, &mut shards[shard]);
    }
    let shards: Vec<Store> = shards
        .into_iter()
        .map(|s| {
            let mut s = s.into_store();
            s.seal_columnar();
            s
        })
        .collect();
    let (mut partial_us, mut merge_us, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    let open = tr.begin("probe.store.federate");
    for _ in 0..REPEATS {
        for (_, q) in &fx.canonical {
            let t = Instant::now();
            let partials: Vec<_> = shards
                .iter()
                .map(|s| s.query_partial(q).expect("canonical queries are legal"))
                .collect();
            let encoded: usize = partials.iter().map(|p| encode_partial(p).len()).sum();
            partial_us.push(t.elapsed().as_secs_f64() * 1e6);
            bytes += encoded;
            let t = Instant::now();
            black_box(merge_partials(q, &partials));
            merge_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    tr.end(open, &[("bytes", bytes as u64)]);
    out.insert("store.partial_us".into(), median(&partial_us));
    out.insert("store.merge_partials_us".into(), median(&merge_us));
    out.insert(
        "store.partial_bytes".into(),
        bytes as f64 / partial_us.len() as f64,
    );
}

/// `queryd`: the codec and `handle_frame` without a socket, then the socket
/// alone (ping) and one serial TCP client, whose median less the in-process
/// median is what the transport costs.
fn queryd(fx: &Fixture, tr: &mut Tracer, out: &mut Layered) {
    let core = QuerydCore::new(fx.reference.clone());
    let requests: Vec<Vec<u8>> = fx
        .canonical
        .iter()
        .map(|(_, q)| encode_request(&Request::Query(q.clone())))
        .collect();
    let (mut handle_us, mut codec_us, mut response_bytes) = (Vec::new(), Vec::new(), 0usize);
    let open = tr.begin("probe.queryd.handle_frame");
    for _ in 0..QUERY_REPEATS {
        for frame in &requests {
            let t = Instant::now();
            let response = core.handle_frame(frame);
            handle_us.push(t.elapsed().as_secs_f64() * 1e6);
            response_bytes += response.len();
            let t = Instant::now();
            let request = decode_request(frame).expect("own request decodes");
            black_box(encode_request(&request));
            let decoded = decode_response(&response).expect("own response decodes");
            black_box(encode_response(&decoded));
            codec_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    tr.end(open, &[("bytes", response_bytes as u64)]);
    let handle_p50 = median(&handle_us);
    out.insert("queryd.handle_frame_us".into(), handle_p50);
    out.insert("queryd.codec_us".into(), median(&codec_us));
    out.insert(
        "queryd.response_bytes_mean".into(),
        response_bytes as f64 / handle_us.len() as f64,
    );

    let server = serve(core, "127.0.0.1:0").expect("bind queryd");
    let mut client = TcpClient::connect(server.addr()).expect("client connect");
    let open = tr.begin("probe.queryd.tcp");
    let pings: Vec<f64> = (0..PINGS)
        .map(|_| {
            let t = Instant::now();
            black_box(client.call(&Request::Ping).expect("ping"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let mut tcp_us = Vec::new();
    for _ in 0..QUERY_REPEATS {
        for (_, q) in &fx.canonical {
            let t = Instant::now();
            black_box(client.query(q).expect("query"));
            tcp_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    tr.end(open, &[("queries", tcp_us.len() as u64)]);
    drop(client);
    server.shutdown();
    out.insert("queryd.ping_rtt_us".into(), median(&pings));
    out.insert(
        "queryd.tcp_overhead_us".into(),
        median(&tcp_us) - handle_p50,
    );
}

/// `cluster`: one leader and one follower over the whole stream, every
/// `offer` and every frame's `apply` timed on its own.
fn cluster_pair(fx: &Fixture, tr: &mut Tracer, out: &mut Layered) {
    let dirs = cellrel::cluster::shard_directories(&fx.dir, 1);
    let every = cluster_config().checkpoint_every;
    let mut leader = ShardLeader::new(&fx.stream_cfg, &dirs[0], 0, every).expect("leader");
    let mut follower = Follower::new(&fx.stream_cfg, &dirs[0], 0);
    let mut apply = |frames: Vec<Vec<u8>>, tr: &mut Tracer| {
        for frame in frames {
            let open = tr.begin("cluster.follower_apply");
            black_box(follower.apply(&frame));
            tr.end(open, &[("bytes", frame.len() as u64)]);
        }
    };
    for b in &fx.batches {
        tr.next_op();
        let open = tr.begin("cluster.leader_offer");
        let frames = leader.offer(b).expect("offer");
        tr.end(open, &[("frames", frames.len() as u64)]);
        apply(frames, tr);
    }
    tr.next_op();
    let frames = tr
        .span("cluster.leader_flush", || leader.flush())
        .expect("flush");
    apply(frames, tr);
    let totals = totals_by_name(tr.spans());
    let durs = |name: &str| {
        totals
            .get(name)
            .map(|t| t.durs_ns.clone())
            .unwrap_or_default()
    };
    let applies: Vec<f64> = durs("cluster.follower_apply")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    out.insert(
        "cluster.leader_offer_p50_us".into(),
        p50_us(durs("cluster.leader_offer")),
    );
    out.insert("cluster.follower_apply_p50_us".into(), median(&applies));
    out.insert(
        "cluster.follower_apply_p90_us".into(),
        percentile(&applies, 0.9),
    );
}

/// `analysis`: Tables 1/2 straight from a store, and from four result sets
/// already fetched.
fn analysis(fx: &Fixture, tr: &mut Tracer, out: &mut Layered) {
    let s = &fx.reference;
    let from_store_s = timed(tr, "probe.analysis.from_store", || {
        (
            table1_from_store(s).expect("valid query"),
            table2_from_store(s, TABLE2_K).expect("valid query"),
        )
    });
    let results = table1_queries().map(|q| s.query(&q).expect("valid query"));
    let causes = s.query(&table2_query()).expect("valid query");
    let from_results_s = timed(tr, "probe.analysis.from_results", || {
        (
            table1_from_results(&results).render(),
            table2_from_result(&causes, TABLE2_K).render(),
        )
    });
    out.insert("analysis.tables_from_store_ms".into(), from_store_s * 1e3);
    out.insert(
        "analysis.tables_from_results_us".into(),
        from_results_s * 1e6,
    );
}

/// `workload`: the study generator the fixtures come from.
fn study(sizes: &Sizes, tr: &mut Tracer, out: &mut Layered) {
    let mut events = 0;
    let s = timed(tr, "probe.workload.study", || {
        events = run_study(sizes).1.len();
    });
    out.insert("workload.study_events_per_s".into(), events as f64 / s);
}

/// `sim`: the two timer queues and the sketch, alone.
fn sim(sizes: &Sizes, tr: &mut Tracer, out: &mut Layered) {
    let n = sizes.timers;
    // Deadlines spread over a simulated day, in a fixed scrambled order.
    let deadline = |i: u64| SimTime::from_millis(i.wrapping_mul(2_654_435_761) % 86_400_000);
    let wheel_s = timed(tr, "probe.sim.wheel", || {
        let mut wheel: TimerWheel<u32> = TimerWheel::with_capacity(n as usize);
        for i in 0..n {
            wheel.schedule_at(deadline(i), i as u32);
        }
        let mut popped = 0u64;
        while wheel.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, n);
    });
    let queue_s = timed(tr, "probe.sim.queue", || {
        let mut queue: EventQueue<u32> = EventQueue::new();
        for i in 0..n {
            queue.schedule_at(deadline(i), i as u32);
        }
        let mut popped = 0u64;
        while queue.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, n);
    });
    out.insert("sim.wheel_events_per_s".into(), n as f64 / wheel_s);
    out.insert("sim.queue_events_per_s".into(), n as f64 / queue_s);

    // Durations like the store's: a few ms to an hour, heavy towards short.
    let value = |i: u64| 1 + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) % 3_600_000;
    let mut a = SparseSketch::new();
    let push_s = timed(tr, "probe.sim.sketch_push", || {
        a = SparseSketch::new();
        for i in 0..n {
            a.push(value(i));
        }
    });
    let mut b = SparseSketch::new();
    for i in 0..4_096 {
        b.push(value(i * 7 + 1));
    }
    let merges = 1_000u32;
    let merge_s = timed(tr, "probe.sim.sketch_merge", || {
        let mut acc = SparseSketch::new();
        for _ in 0..merges {
            acc.merge_ref(&b);
        }
        black_box(acc.count());
    });
    out.insert("sim.sketch_push_per_s".into(), n as f64 / push_s);
    out.insert(
        "sim.sketch_merge_us".into(),
        merge_s * 1e6 / f64::from(merges),
    );
}

/// All stand-alone probes on the run's fixture.
pub fn standalone(fx: &Fixture, sizes: &Sizes, tr: &mut Tracer) -> Layered {
    let mut out = Layered::new();
    ingest(fx, tr, &mut out);
    store(fx, tr, &mut out);
    queryd(fx, tr, &mut out);
    analysis(fx, tr, &mut out);
    study(sizes, tr, &mut out);
    sim(sizes, tr, &mut out);
    out
}

/// Records per second of a repetition's write path.
fn write_rate(rep: &Rep) -> f64 {
    rep.records as f64 / rep.write_s.max(1e-9)
}

/// What `ingest_stream`'s traced repetition is measured against: the batch
/// build of the same fixture, the layer beneath the stream loop.
pub fn stream_extras(fx: &Fixture, rep: &Rep) -> Layered {
    let t = Instant::now();
    black_box(build(fx, &fx.batches));
    let build_rate = fx.records as f64 / t.elapsed().as_secs_f64();
    let mut out = Layered::new();
    out.insert("stream.records_per_s".into(), write_rate(rep));
    out.insert("stream.efficiency".into(), write_rate(rep) / build_rate);
    out
}

/// What goes with `cluster`'s traced repetition, on its fixture: the
/// leader/follower pair, the exact replication bytes, and the plain stream
/// loop over the same batches that `cluster.efficiency` is a share of.
pub fn cluster_extras(fx: &Fixture, rep: &Rep, tr: &mut Tracer) -> Layered {
    let mut out = Layered::new();
    let mut pair_tr = tr.fork(0);
    cluster_pair(fx, &mut pair_tr, &mut out);
    tr.absorb(pair_tr);
    let (frames, bytes) = fx.replication();
    out.insert("cluster.frames".into(), frames as f64);
    out.insert(
        "cluster.replication_bytes_per_record".into(),
        bytes as f64 / fx.records.max(1) as f64,
    );
    let (core, mut segs, mut p) = fresh_stream(fx);
    let single = write_loop(&mut p, &mut segs, &core, &fx.batches, true, tr);
    out.insert("cluster.records_per_s".into(), write_rate(rep));
    out.insert(
        "cluster.efficiency".into(),
        write_rate(rep) / (single.records as f64 / single.wall_s),
    );
    out
}

/// One traced repetition of a workload: what it measured and its spans.
pub struct Traced {
    /// The repetition's measurements.
    pub rep: Rep,
    /// The spans recorded around its calls into the layers.
    pub spans: Vec<Span>,
}

/// The per-layer metrics that come from the spans and counts of the five
/// traced repetitions.
pub fn from_traces(traced: &BTreeMap<String, Traced>) -> Layered {
    let mut out = Layered::new();
    let note = |w: &str, name: &str| traced[w].rep.notes.get(name).copied().unwrap_or(f64::NAN);

    // stream.* and queryd.publish: the write loop of `ingest_stream`.
    let t = &traced["ingest_stream"];
    let totals = totals_by_name(&t.spans);
    let zero = NameTotals::default();
    let of = |name: &str| totals.get(name).unwrap_or(&zero);
    let (mut plain, mut sealing) = (Vec::new(), Vec::new());
    for s in t.spans.iter().filter(|s| s.name == "stream.offer") {
        let sealed = s.args.iter().any(|&(k, v)| k == "sealed" && v > 0);
        (if sealed { &mut sealing } else { &mut plain }).push(s.dur_ns());
    }
    out.insert("stream.offer_plain_p50_us".into(), p50_us(plain));
    out.insert("stream.offer_seal_p50_us".into(), p50_us(sealing));
    let checkpoints = of("stream.checkpoint");
    out.insert(
        "stream.checkpoint_p50_us".into(),
        p50_us(checkpoints.durs_ns.iter().copied()),
    );
    out.insert(
        "stream.checkpoint_bytes_mean".into(),
        note("ingest_stream", "stream.checkpoint_bytes_total") / checkpoints.count.max(1) as f64,
    );
    out.insert(
        "stream.view_p50_us".into(),
        p50_us(of("stream.view").durs_ns.iter().copied()),
    );
    out.insert(
        "queryd.publish_p50_us".into(),
        p50_us(of("queryd.publish").durs_ns.iter().copied()),
    );
    let loop_ns = t.rep.write_s * 1e9;
    let share = |names: &[&str]| names.iter().map(|n| of(n).self_ns).sum::<u64>() as f64 / loop_ns;
    out.insert("stream.share_offer".into(), share(&["stream.offer"]));
    out.insert(
        "stream.share_checkpoint".into(),
        share(&["stream.checkpoint"]),
    );
    out.insert(
        "stream.share_view".into(),
        share(&["stream.view", "store.seal_columnar"]),
    );
    out.insert("stream.share_publish".into(), share(&["queryd.publish"]));
    out.insert(
        "stream.flush_ms".into(),
        of("stream.flush").total_ns as f64 / 1e6,
    );
    out.insert(
        "stream.visible_p90_ms".into(),
        percentile(&t.rep.visible_ms, 0.9),
    );
    out.insert("stream.recovery_ms".into(), median(&t.rep.recovery_ms));
    for name in [
        "stream.checkpoints",
        "stream.checkpoint_bytes_total",
        "stream.windows_sealed",
        "stream.late_segments",
        "stream.base_folds",
        "stream.segment_bytes",
    ] {
        out.insert(name.into(), note("ingest_stream", name));
    }

    let t = &traced["serve_static"];
    out.insert(
        "queryd.query_p99_us".into(),
        tail_or_lower(&t.rep.query_us, 990).1,
    );
    out.insert(
        "queryd.queries_per_s".into(),
        t.rep.query_us.len() as f64 / t.rep.read_s.max(1e-9),
    );

    let t = &traced["serve_live"];
    out.insert(
        "stream.live_records_per_s".into(),
        note("serve_live", "stream.live_records_per_s"),
    );
    out.insert(
        "queryd.live_queries_per_s".into(),
        note("serve_live", "queryd.live_queries_per_s"),
    );
    out.insert(
        "queryd.live_query_p99_us".into(),
        tail_or_lower(&t.rep.query_us, 990).1,
    );
    out.insert(
        "queryd.table_retries".into(),
        note("serve_live", "queryd.table_retries"),
    );

    let t = &traced["cluster"];
    let totals = totals_by_name(&t.spans);
    let ms = |name: &str| {
        totals
            .get(name)
            .map_or(f64::NAN, |t| t.total_ns as f64 / 1e6)
    };
    out.insert("cluster.publish_ms".into(), ms("cluster.publish"));
    let promotes = totals.get("cluster.promote").map(|t| t.durs_ns.clone());
    out.insert(
        "cluster.promote_ms".into(),
        p50_us(promotes.unwrap_or_default()) / 1e3,
    );
    out.insert(
        "cluster.shard_skew".into(),
        note("cluster", "cluster.shard_skew"),
    );

    for name in [
        "workload.fleet_events_per_s",
        "workload.chaos_events_per_s",
        "workload.chaos_scenarios_per_s",
        "workload.fleet_hot_bytes_per_device",
    ] {
        out.insert(name.into(), note("fleet_sim", name));
    }
    out
}

/// What recording one span costs, in seconds: the median of five batches
/// of empty spans. A traced repetition's overhead is its span count times
/// this; the difference between a traced and an untraced repetition cannot
/// be used, because on a shared box two repetitions differ by ±10 % with
/// or without spans, a hundred times the effect.
pub fn span_cost_s() -> f64 {
    const SPANS: u32 = 100_000;
    let batches: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut tr = Tracer::on();
            let t = Instant::now();
            for _ in 0..SPANS {
                tr.span("probe.trace.span", || ());
            }
            black_box(tr.spans().len());
            t.elapsed().as_secs_f64() / f64::from(SPANS)
        })
        .collect();
    median(&batches)
}

/// Self time per layer of one traced repetition, as a share of its wall
/// time. Threads add up: two busy client threads give `client` a share
/// near 2.
pub fn self_shares(t: &Traced) -> Layered {
    let by_layer = self_by_layer(&t.spans);
    let wall_ns = t.rep.wall_s * 1e9;
    LAYERS
        .iter()
        .map(|&layer| {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            (format!("self_share.{layer}"), ns as f64 / wall_ns)
        })
        .collect()
}
