//! Scatter-gather query federation.
//!
//! The router fans one typed query to every shard, collects **partial**
//! aggregates — per-group merged [`Cell`]s, not finalized rows — and
//! merges them through the store's own `Merge` algebra before the shared
//! finalize step runs once, globally. Because counts, durations, and
//! sketches merge by exact addition, and ordering + top-k are re-applied
//! *after* the merge, the federated answer is byte-identical to a single
//! store that saw every record — at any shard count.
//!
//! [`Cell`]: cellrel_store::Cell

use std::sync::Arc;

use crate::error::ClusterError;
use crate::proto::{self, Message};
use cellrel_analysis::store_tables::{
    table1_from_results, table1_queries, table2_from_result, table2_query,
};
use cellrel_analysis::table1::Table1;
use cellrel_analysis::table2::Table2;
use cellrel_queryd::QuerydCore;
use cellrel_store::{merge_partials, Query, ResultSet};

/// Answer one query from a serving core's current snapshot, as a `CR`
/// reply frame. Shared by leaders, followers, and bare shard handles so a
/// query means exactly the same thing at every endpoint.
pub(crate) fn answer_query(core: &QuerydCore, q: &Query) -> Vec<u8> {
    let snap = core.snapshot();
    match snap.store.query_partial(q) {
        Ok(partial) => proto::encode_frame(&Message::Partial {
            epoch: snap.epoch,
            partial,
        }),
        Err(e) => proto::encode_frame(&Message::Rejection {
            code: proto::ERR_BAD_QUERY,
            detail: e.to_string(),
        }),
    }
}

/// An in-process connection to one shard's serving endpoint.
#[derive(Clone)]
pub struct ShardHandle {
    core: Arc<QuerydCore>,
}

impl ShardHandle {
    /// A handle over a shard's serving core (leader or follower).
    pub fn new(core: Arc<QuerydCore>) -> Self {
        ShardHandle { core }
    }

    /// Serve one request frame. Total: hostile bytes and non-query kinds
    /// come back as rejection frames.
    pub fn handle(&self, frame: &[u8]) -> Vec<u8> {
        match proto::decode_frame(frame) {
            Ok(Message::Query(q)) => answer_query(&self.core, &q),
            Ok(_) => proto::encode_frame(&Message::Rejection {
                code: proto::ERR_UNEXPECTED,
                detail: "this endpoint answers queries only".into(),
            }),
            Err(e) => proto::encode_frame(&proto::rejection_for(&e)),
        }
    }
}

/// A federated answer: the merged result plus per-shard snapshot epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedAnswer {
    /// The merged, finalized result — byte-identical to single-node.
    pub result: ResultSet,
    /// The snapshot epoch each shard answered from, in shard order.
    pub epochs: Vec<u64>,
}

/// The scatter-gather router: one handle per shard, merge on gather.
#[derive(Clone)]
pub struct ClusterRouter {
    shards: Vec<ShardHandle>,
}

impl ClusterRouter {
    /// A router over one serving handle per shard, in shard order.
    pub(crate) fn new(shards: Vec<ShardHandle>) -> Self {
        ClusterRouter { shards }
    }

    /// How many shards a query fans out to.
    pub fn fan_out(&self) -> usize {
        self.shards.len()
    }

    /// Evaluate `q` across every shard and merge. A shard-side validation
    /// rejection surfaces as [`ClusterError::Query`] carrying the store's
    /// own error string, so federated error behaviour matches local.
    pub fn query(&self, q: &Query) -> Result<RoutedAnswer, ClusterError> {
        if self.shards.is_empty() {
            return Err(ClusterError::Config("router has no shards"));
        }
        let frame = proto::encode_frame(&Message::Query(q.clone()));
        let mut partials = Vec::with_capacity(self.shards.len());
        let mut epochs = Vec::with_capacity(self.shards.len());
        for (shard, handle) in self.shards.iter().enumerate() {
            match proto::decode_frame(&handle.handle(&frame))? {
                Message::Partial { epoch, partial } => {
                    epochs.push(epoch);
                    partials.push(partial);
                }
                Message::Rejection { code, detail } if code == proto::ERR_BAD_QUERY => {
                    return Err(ClusterError::Query(detail))
                }
                Message::Rejection { code, detail } => {
                    return Err(ClusterError::Replication {
                        shard,
                        detail: format!("query rejected (code {code}): {detail}"),
                    })
                }
                other => {
                    return Err(ClusterError::Replication {
                        shard,
                        detail: format!("expected partial, got {other:?}"),
                    })
                }
            }
        }
        Ok(RoutedAnswer {
            result: merge_partials(q, &partials),
            epochs,
        })
    }

    /// The paper's Tables 1 and 2, assembled entirely from federated
    /// answers — the `repro --cluster` identity surface.
    pub fn tables(&self, k: usize) -> Result<(Table1, Table2), ClusterError> {
        let [q0, q1, q2] = table1_queries();
        let r0 = self.query(&q0)?.result;
        let r1 = self.query(&q1)?.result;
        let r2 = self.query(&q2)?.result;
        let t1 = table1_from_results(&[r0, r1, r2]);
        let t2 = table2_from_result(&self.query(&table2_query())?.result, k);
        Ok((t1, t2))
    }
}
