//! `cluster`: the sharded, replicated path on one thread — partitioning,
//! `CR` framing, digest-verified follower apply, federation through the
//! router, and a leader failover.

use cellrel::cluster::Cluster;
use std::time::Instant;

use super::read::{read_rounds, Port};
use super::Rep;
use crate::calib::Calibrator;
use crate::fixture::{cluster_config, Fixture, Sizes};
use crate::trace::Tracer;

/// One repetition: the stream through `Cluster::offer`/`flush`/`publish`
/// (replication to one follower per shard inline), `rounds` rounds through
/// the leaders' router, then shard 0's leader is killed and its follower
/// promoted.
pub fn cluster(fx: &Fixture, sizes: &Sizes, tr: &mut Tracer, cal: &mut Calibrator) -> Rep {
    let t_rep = Instant::now();
    let mut rep = Rep {
        attempted: fx.batches.len() as u64,
        records: fx.records,
        ..Rep::default()
    };
    let mut cluster =
        Cluster::new(&fx.stream_cfg, &cluster_config(), &fx.shard_dirs).expect("cluster");
    for b in &fx.batches {
        tr.next_op();
        let open = tr.begin("cluster.offer");
        let routed = cluster.offer(b);
        tr.end(open, &[("bytes", b.len() as u64)]);
        if let Err(e) = routed {
            rep.failed += 1;
            eprintln!("benchmark: FAILED cluster offer: {e}");
        }
    }
    // End of stream: from here to `publish` returning is what the last
    // records wait before a router can see them.
    tr.next_op();
    let t_visible = Instant::now();
    tr.span("cluster.flush", || cluster.flush()).expect("flush");
    tr.span("cluster.publish", || cluster.publish());
    rep.visible_ms.push(t_visible.elapsed().as_secs_f64() * 1e3);
    rep.write_s = t_rep.elapsed().as_secs_f64();
    rep.speed.write = cal.mark();

    rep.digest = cluster.digest();
    rep.check(
        rep.digest == fx.ref_digest,
        "merged shard digest == reference",
    );
    for shard in 0..cluster.shards() {
        let follower = cluster.followers_of(shard)[0].sealed_store().digest();
        rep.check(
            follower == cluster.leader(shard).digest(),
            "follower digest == leader",
        );
    }
    let per_shard: Vec<u64> = (0..cluster.shards())
        .map(|s| cluster.leader(s).pipeline().counters().records)
        .collect();
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    rep.notes.insert("cluster.shard_skew", max / mean.max(1.0));

    let router = cluster.router();
    let reads = read_rounds(&mut Port::Router(&router), fx, sizes.rounds, tr);
    rep.speed.read = cal.mark();
    rep.read_s = reads.read_s;
    rep.absorb_reads(reads);

    // Failover, once per shard: the leader is killed and its follower
    // promoted from its own checkpoint and segment log.
    for shard in 0..cluster.shards() {
        let t = Instant::now();
        let promoted = tr.span("cluster.promote", || cluster.promote(shard));
        rep.recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rep.check(promoted.is_ok(), "promote");
    }
    rep.speed.recover = cal.mark();
    rep.check(
        cluster.digest() == fx.ref_digest,
        "digest after failover == reference",
    );
    rep.wall_s = t_rep.elapsed().as_secs_f64();
    rep.durable_bytes = fx.replication().1;
    rep
}
