//! A shard leader: one stream pipeline plus the replication log it ships.
//!
//! The leader owns the shard's [`StreamPipeline`] and its segment backend.
//! Every sealed segment becomes one [`Message::ShipSegment`] at the next
//! dense log position; checkpoints ([`Message::ShipCheckpoint`]) ride the
//! same log whenever a seal happens or the cadence fires, and always
//! *after* the segments their manifest references — so a follower that
//! applied the log prefix can always restore from the latest checkpoint it
//! holds. Reads are served from an epoch-tagged queryd snapshot, the epoch
//! being the replication position the snapshot covers.

use std::sync::Arc;

use crate::error::ClusterError;
use crate::proto::{self, Message};
use crate::router;
use cellrel_queryd::QuerydCore;
use cellrel_store::{DeviceDirectory, Store};
use cellrel_stream::{MemSegments, SegmentEntry, StreamConfig, StreamPipeline};

/// One shard's write path: pipeline, durable segments, replication log.
pub struct ShardLeader<'d> {
    shard: usize,
    pipeline: StreamPipeline<'d>,
    segs: MemSegments,
    /// Manifest entries shipped so far == the head of the replication log.
    shipped: usize,
    batches: u64,
    checkpoint_every: u64,
    core: Arc<QuerydCore>,
}

impl<'d> ShardLeader<'d> {
    /// A fresh leader for `shard` over the shard's directory view.
    pub fn new(
        cfg: &StreamConfig,
        dir: &'d DeviceDirectory,
        shard: usize,
        checkpoint_every: u64,
    ) -> Result<Self, ClusterError> {
        let pipeline = StreamPipeline::new(cfg, dir)?;
        let leader = ShardLeader {
            shard,
            pipeline,
            segs: MemSegments::new(),
            shipped: 0,
            batches: 0,
            checkpoint_every,
            core: QuerydCore::new(Store::new(&cfg.store)),
        };
        leader.publish();
        Ok(leader)
    }

    /// Rebuild a leader from a promoted follower's durable state: a
    /// restored pipeline plus the segment backend it references. The
    /// replication log head resumes at the restored manifest length, so
    /// segments re-sealed during replay ship at fresh positions.
    pub fn from_parts(
        pipeline: StreamPipeline<'d>,
        segs: MemSegments,
        shard: usize,
        checkpoint_every: u64,
    ) -> Self {
        let shipped = pipeline.manifest().len();
        let core = QuerydCore::new(Store::new(&pipeline.config().store));
        let leader = ShardLeader {
            shard,
            pipeline,
            segs,
            shipped,
            batches: 0,
            checkpoint_every,
            core,
        };
        leader.publish();
        leader
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The serving core (for routers and read clients).
    pub fn core(&self) -> Arc<QuerydCore> {
        Arc::clone(&self.core)
    }

    /// The underlying pipeline (cursor, manifest, counters, tables).
    pub fn pipeline(&self) -> &StreamPipeline<'d> {
        &self.pipeline
    }

    /// Replication log head: frames shipped so far.
    pub fn shipped(&self) -> u64 {
        self.shipped as u64
    }

    /// The merged store this leader would serve right now (the pipeline's
    /// view is already columnar-sealed).
    pub fn serving_store(&self) -> Store {
        self.pipeline.store()
    }

    /// Digest of the shard's merged view (sealed + unsealed records).
    pub fn digest(&self) -> u64 {
        self.pipeline.digest()
    }

    /// Swap a fresh snapshot into the serving core, tagged with the
    /// replication position it covers.
    pub fn publish(&self) -> bool {
        self.core
            .publish_at(self.serving_store(), self.shipped as u64)
    }

    /// Ingest one encoded batch; returns the replication frames (segments,
    /// then at most one checkpoint) the caller must deliver to this
    /// shard's followers **in order**.
    pub fn offer(&mut self, batch: &[u8]) -> Result<Vec<Vec<u8>>, ClusterError> {
        let sealed = self.pipeline.offer(batch, &mut self.segs)?;
        self.batches += 1;
        let cadence = self.checkpoint_every > 0 && self.batches % self.checkpoint_every == 0;
        self.ship(!sealed.is_empty() || cadence)
    }

    /// End of stream: seal everything pending and ship it, closing with a
    /// final checkpoint.
    pub fn flush(&mut self) -> Result<Vec<Vec<u8>>, ClusterError> {
        self.pipeline.flush(&mut self.segs)?;
        self.ship(true)
    }

    /// Ship every manifest entry past the log head; optionally close the
    /// batch of frames with a checkpoint so followers can always restore.
    fn ship(&mut self, checkpoint: bool) -> Result<Vec<Vec<u8>>, ClusterError> {
        let mut frames = Vec::new();
        let pending: Vec<SegmentEntry> = self.pipeline.manifest_suffix(self.shipped).to_vec();
        for entry in pending {
            let bytes = self.pipeline.export_segment(&entry, &self.segs)?;
            self.shipped += 1;
            frames.push(proto::encode_frame(&Message::ShipSegment {
                seq: self.shipped as u64,
                frame: bytes,
            }));
        }
        if checkpoint {
            frames.push(proto::encode_frame(&Message::ShipCheckpoint {
                seq: self.shipped as u64,
                checkpoint: self.pipeline.checkpoint(),
            }));
        }
        Ok(frames)
    }

    /// Serve one request frame. Total: hostile bytes and unexpected kinds
    /// come back as rejection frames, never a panic. Leaders answer
    /// queries and catch-up requests.
    pub fn handle(&self, frame: &[u8]) -> Vec<u8> {
        let msg = match proto::decode_frame(frame) {
            Ok(m) => m,
            Err(e) => return proto::encode_frame(&proto::rejection_for(&e)),
        };
        match msg {
            Message::Query(q) => router::answer_query(&self.core, &q),
            Message::Catchup { from_seq } => match self.catchup(from_seq) {
                Ok(reply) => proto::encode_frame(&reply),
                Err(e) => proto::encode_frame(&Message::Rejection {
                    code: proto::ERR_APPLY,
                    detail: e.to_string(),
                }),
            },
            _ => proto::encode_frame(&Message::Rejection {
                code: proto::ERR_UNEXPECTED,
                detail: "shard leaders serve queries and catch-up requests only".into(),
            }),
        }
    }

    /// The manifest suffix after `from_seq`, as shippable segment frames.
    fn catchup(&self, from_seq: u64) -> Result<Message, ClusterError> {
        let from = usize::try_from(from_seq).unwrap_or(usize::MAX);
        let mut frames = Vec::new();
        for entry in self.pipeline.manifest_suffix(from) {
            frames.push(self.pipeline.export_segment(entry, &self.segs)?);
        }
        Ok(Message::Segments { from_seq, frames })
    }
}
