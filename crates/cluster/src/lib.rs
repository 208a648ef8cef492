//! # cellrel-cluster
//!
//! The sharded, replicated serving tier: one nationwide ingest feed split
//! across N independent shard pipelines, each shard's sealed history
//! shipped to follower replicas over a framed replication protocol, and a
//! scatter-gather router that answers any [`Query`] byte-identically to a
//! single-node store.
//!
//! Three layers:
//!
//! * **Partitioned ingest** ([`partition`]) — a device-hash partitioner
//!   routes encoded upload batches to per-shard [`StreamPipeline`]s. Shard
//!   membership is a pure function of the device id, so any shard count
//!   yields the same global record set; per-shard stores register only the
//!   devices they own, so the union of shard views *is* the fleet.
//! * **Segment-shipping replication** ([`proto`], [`node`], [`replica`]) —
//!   each shard leader ships its sealed `SG` segments and periodic `SP`
//!   checkpoints to followers as `CR`-magic frames. Followers replay the
//!   segments into their own store (digest-verified on apply), serve reads
//!   from epoch-tagged snapshots, and can be promoted into a leader from
//!   their durable checkpoint + segment log when the leader dies. A
//!   restarted or freshly spawned follower catches up by replaying the
//!   leader's manifest suffix.
//! * **Scatter-gather federation** ([`router`]) — a [`ClusterRouter`] fans
//!   a typed query to every shard, collects *partial* (pre-finalize)
//!   aggregates, and merges them through the store's own `Merge` algebra
//!   before the shared finalize step re-applies ordering and top-k. The
//!   federated answer is byte-identical to evaluating the query on one
//!   store holding every record — the invariant `tests/cluster_differential.rs`
//!   enforces at 1, 2, and 4 shards, and [`failover::failover_drill`]
//!   re-proves across leader-kill campaigns.
//!
//! Everything is std-only and deterministic. All frame decoding is total:
//! hostile bytes map onto a typed `FrameError`, never a panic.
//!
//! [`Query`]: cellrel_store::Query
//! [`StreamPipeline`]: cellrel_stream::StreamPipeline

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod error;
pub mod failover;
pub mod node;
pub mod partition;
pub mod proto;
pub mod replica;
pub mod router;

pub use cluster::{Cluster, ClusterConfig};
pub use error::ClusterError;
pub use failover::failover_drill;
pub use node::ShardLeader;
pub use partition::{shard_directories, shard_of_batch};
pub use proto::{decode_frame, encode_frame, read_frame, Message, MessageRef};
pub use replica::Follower;
pub use router::{ClusterRouter, RoutedAnswer, ShardHandle};
