//! Leader-kill failover drill: chaos for the replicated tier, run as
//! scenarios of the [`cellrel_sim::campaign`] engine.
//!
//! The claim under test: killing any shard leader at any batch boundary
//! and promoting its follower is **answer-transparent** — after the
//! promoted leader replays the shard's batches from its restored cursor
//! and the run completes, the merged store digest and the federated
//! Tables 1/2 are byte-identical to an uninterrupted cluster's, and the
//! backfilled replica (which caught up over the wire from the promoted
//! leader) converges to the leader's sealed history. Kill `i` is scenario
//! `i`; kill points and victim shards come from the seeded [`KillPlan`],
//! so a reported violation replays exactly.

use crate::cluster::{Cluster, ClusterConfig};
use crate::error::ClusterError;
use cellrel_sim::SimRng;
use cellrel_store::DeviceDirectory;
use cellrel_stream::campaign::{Drill, KillPlan, KillReplay, Observed};
use cellrel_stream::StreamConfig;

/// Table 2's top-k, fixed across the campaign so renders are comparable.
const TABLE2_K: usize = 8;

fn observe(cluster: &Cluster<'_>) -> Result<Observed, ClusterError> {
    cluster.publish();
    let (t1, t2) = cluster.router().tables(TABLE2_K)?;
    // A replica — after a kill, the backfilled one that caught up over the
    // wire — must hold its leader's exact view after the final flush.
    let replicas = (0..cluster.shards()).map(|shard| {
        let replica = cluster.followers_of(shard)[0].sealed_store().digest();
        match cluster.leader(shard).digest() {
            leader if leader == replica => format!("shard {shard}: converged\n"),
            leader => format!("shard {shard}: replica {replica:016x}, leader {leader:016x}\n"),
        }
    });
    Ok(vec![
        ("store-digest", format!("{:016x}", cluster.digest())),
        ("table-1", t1.render()),
        ("table-2", t2.render()),
        ("replica-converged", replicas.collect()),
    ])
}

/// One run of the cluster over the whole stream. With `kill`: drop its
/// shard's leader after its batch, promote the follower, and finish.
fn run_cluster(
    scfg: &StreamConfig,
    ccfg: &ClusterConfig,
    dirs: &[DeviceDirectory],
    batches: &[Vec<u8>],
    kill: Option<&mut KillReplay>,
) -> Result<Observed, ClusterError> {
    let mut cluster = Cluster::new(scfg, ccfg, dirs)?;
    let mut offered = 0;
    if let Some(run) = kill {
        let (kill_at, shard) = (run.kill_at as usize, run.shard);
        let mut routes = Vec::with_capacity(kill_at);
        for b in &batches[..kill_at] {
            routes.push(cluster.offer(b)?);
        }
        // Kill: the leader (and all its volatile state) is dropped on the
        // floor; the shard comes back from its follower's durable state.
        let restored_cursor = cluster.promote(shard)?;
        let mid_window = cluster.leader(shard).pipeline().pending_windows() > 0;
        run.restored(restored_cursor, mid_window);
        run.outcome.coverage.push(format!("shard:{shard}"));
        // Replay the shard's batch subsequence lost with the leader, then
        // finish the stream as if nothing happened.
        let lost = (0..kill_at).filter(|&i| routes[i] == shard);
        run.outcome.events = batches.len() as u64;
        for i in lost.skip(restored_cursor as usize) {
            cluster.offer(&batches[i])?;
            run.outcome.events += 1;
        }
        offered = kill_at;
    }
    for b in &batches[offered..] {
        cluster.offer(b)?;
    }
    cluster.flush()?;
    observe(&cluster)
}

/// The failover drill over `batches`. `Err` only for what is wrong before
/// any kill: fewer than two batches (a kill needs a boundary strictly
/// inside the stream), an unreplicated cluster config, a baseline that
/// cannot run.
pub fn failover_drill<'a>(
    scfg: &'a StreamConfig,
    ccfg: &'a ClusterConfig,
    plan: &KillPlan,
    dirs: &'a [DeviceDirectory],
    batches: &'a [Vec<u8>],
) -> Result<Drill<'a>, ClusterError> {
    let (count, shards) = (batches.len() as u64, ccfg.shards as u64);
    if count < 2 {
        return Err(ClusterError::Config(
            "a failover drill needs at least two batches",
        ));
    }
    if ccfg.replicas == 0 {
        return Err(ClusterError::Config(
            "a failover drill needs a replica per shard",
        ));
    }
    let point = |rng: &mut SimRng| {
        let kill_at = rng.range_u64(1, count);
        (kill_at, rng.range_u64(0, shards) as usize)
    };
    let run_one = move |kill: Option<&mut KillReplay>| run_cluster(scfg, ccfg, dirs, batches, kill);
    let mut drill = Drill::new(plan, point, run_one)?;
    let digest = &drill.base[0].1;
    drill.baseline = format!("{count} batches across {shards} shard(s), merged digest {digest}");
    Ok(drill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::fixture;
    use crate::partition::shard_directories;
    use cellrel_sim::campaign::{CampaignReport, Violation};

    const PLAN: KillPlan = KillPlan {
        kills: 3,
        seed: 2021,
    };

    fn with_drill(test: impl FnOnce(Drill<'_>)) {
        let (dir, batches, scfg) = fixture();
        let ccfg = ClusterConfig {
            shards: 2,
            replicas: 1,
            checkpoint_every: 3,
        };
        let dirs = shard_directories(&dir, ccfg.shards);
        test(failover_drill(&scfg, &ccfg, &PLAN, &dirs, &batches).expect("baseline runs"));
    }

    #[test]
    fn a_small_campaign_converges_and_is_reproducible() {
        with_drill(|drill| {
            let report = drill.run(1);
            assert!(report.violations.is_empty(), "{:#?}", report.violations);
            assert_eq!(report.scenarios, 3);
            assert!(report.coverage["mid-window"] > 0);
            // Engine contract: one report at any thread count and across
            // runs, and every kill replays to its outcome in the campaign.
            for threads in [1, 2, 8] {
                assert_eq!(drill.run(threads), report, "threads={threads}");
            }
            let mut replayed = CampaignReport::default();
            (0..3).for_each(|id| replayed.absorb(drill.kill(id).outcome));
            assert_eq!(replayed, report);
        });
    }

    /// The drill can fail, and says everything that failed — not only the
    /// first divergence.
    #[test]
    fn a_doctored_baseline_fails_every_comparison_it_breaks() {
        with_drill(|mut drill| {
            drill.base[0].1.push('!');
            drill.base[1].1.push_str("not in table 1\n");
            let run = drill.kill(2);
            let named = |v: &Violation| (v.invariant, v.scenario, v.event_index);
            let failed: Vec<_> = run.outcome.violations.iter().map(named).collect();
            let at = run.kill_at;
            assert_eq!(failed, [("store-digest", 2, at), ("table-1", 2, at)]);
        });
    }

    #[test]
    fn unreplicated_clusters_cannot_run_the_campaign() {
        let unreplicated = ClusterConfig {
            replicas: 0,
            ..ClusterConfig::default()
        };
        let batches = [Vec::new(), Vec::new()];
        let scfg = StreamConfig::default();
        let err = failover_drill(&scfg, &unreplicated, &PLAN, &[], &batches);
        assert!(matches!(err, Err(ClusterError::Config(_))));
    }
}
