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
use crate::proto::{self, Message, KIND_CHECKPOINT, KIND_SEGMENT};
use crate::router;
use cellrel_queryd::QuerydCore;
use cellrel_store::{DeviceDirectory, Store};
use cellrel_stream::{MemSegments, StreamConfig, StreamPipeline};

/// One shard's write path: pipeline, durable segments, replication log.
pub struct ShardLeader<'d> {
    pipeline: StreamPipeline<'d>,
    segs: MemSegments,
    /// Manifest entries shipped so far == the head of the replication log.
    shipped: usize,
    batches: u64,
    checkpoint_every: u64,
    core: Arc<QuerydCore>,
}

impl<'d> ShardLeader<'d> {
    /// A fresh leader over one shard's directory view. The shard index is
    /// the caller's to keep: nothing in the leader reads it.
    pub fn new(
        cfg: &StreamConfig,
        dir: &'d DeviceDirectory,
        _shard: usize,
        checkpoint_every: u64,
    ) -> Result<Self, ClusterError> {
        let pipeline = StreamPipeline::new(cfg, dir)?;
        let leader = ShardLeader {
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
    pub(crate) fn from_parts(
        pipeline: StreamPipeline<'d>,
        segs: MemSegments,
        checkpoint_every: u64,
    ) -> Self {
        let shipped = pipeline.manifest().len();
        let core = QuerydCore::new(Store::new(&pipeline.config().store));
        let leader = ShardLeader {
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

    /// The serving core (for routers and read clients).
    pub(crate) fn core(&self) -> Arc<QuerydCore> {
        Arc::clone(&self.core)
    }

    /// The underlying pipeline (cursor, manifest, counters, tables).
    pub fn pipeline(&self) -> &StreamPipeline<'d> {
        &self.pipeline
    }

    /// Replication log head: frames shipped so far.
    #[cfg(test)]
    pub(crate) fn shipped(&self) -> u64 {
        self.shipped as u64
    }

    /// The merged store this leader would serve right now (the pipeline's
    /// view is already columnar-sealed).
    pub(crate) fn serving_store(&self) -> Store {
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
    ///
    /// The entries the last offer sealed ship the very bytes `seal` wrote
    /// ([`StreamPipeline::sealed_frames`]). Only entries older than that —
    /// left behind by a ship that failed — are read back from the backend
    /// and verified first, as every [`catchup`](Self::catchup) frame is.
    /// Either way the follower verifies a frame before it applies it.
    ///
    /// Every frame shipped is one this leader sealed or verified, so each
    /// `CR` trailer sums around it instead of over it again.
    fn ship(&mut self, checkpoint: bool) -> Result<Vec<Vec<u8>>, ClusterError> {
        let pending = self.pipeline.manifest_suffix(self.shipped);
        let sealed = self.pipeline.sealed_frames();
        let (older, fresh) = pending.split_at(pending.len().saturating_sub(sealed.len()));
        let mut frames = Vec::with_capacity(pending.len() + usize::from(checkpoint));
        for entry in older {
            let frame = self.pipeline.export_segment(entry, &self.segs)?;
            self.shipped += 1;
            let seq = self.shipped as u64;
            frames.push(proto::encode_sealed_ship(KIND_SEGMENT, seq, &frame));
        }
        for frame in &sealed[sealed.len() - fresh.len()..] {
            self.shipped += 1;
            let seq = self.shipped as u64;
            frames.push(proto::encode_sealed_ship(KIND_SEGMENT, seq, frame));
        }
        if checkpoint {
            let seq = self.shipped as u64;
            let ckpt = self.pipeline.checkpoint();
            frames.push(proto::encode_sealed_ship(KIND_CHECKPOINT, seq, &ckpt));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::fixture;
    use crate::replica::Follower;
    use cellrel_stream::StreamError;

    fn segment_of(frame: &[u8]) -> Option<Vec<u8>> {
        match proto::decode_frame(frame).expect("own frame") {
            Message::ShipSegment { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// The leader ships the bytes it sealed, so damage done to its backend
    /// *after* a segment shipped cannot stall replication — while a
    /// catch-up, which has nothing but the backend to read, still refuses
    /// to hand the damaged copy out.
    #[test]
    fn a_backend_copy_damaged_after_shipping_stops_catchup_not_the_log() {
        let (dir, batches, cfg) = fixture();
        let mut leader = ShardLeader::new(&cfg, &dir, 0, 4).expect("leader");
        let mut follower = Follower::new(&cfg, &dir, 0);
        let mut offers = batches.iter();
        for b in offers.by_ref() {
            for frame in leader.offer(b).expect("offer") {
                follower.apply(&frame);
            }
            if leader.shipped() > 0 {
                break;
            }
        }
        assert!(matches!(leader.catchup(0), Ok(Message::Segments { .. })));
        let first = leader.pipeline.manifest()[0].name();
        let copy = leader.segs.raw_mut().get_mut(&first).expect("persisted");
        let mid = copy.len() / 2;
        copy[mid] ^= 0x10;

        let mut frames = Vec::new();
        for b in offers {
            frames.extend(leader.offer(b).expect("offer after the damage"));
        }
        frames.extend(leader.flush().expect("flush after the damage"));
        for frame in &frames {
            let reply = proto::decode_frame(&follower.apply(frame)).expect("reply decodes");
            assert!(matches!(reply, Message::Ack { .. }), "{reply:?}");
        }
        assert!(leader.shipped() > 1);
        assert_eq!(follower.applied(), leader.shipped());
        assert!(matches!(
            leader.catchup(0),
            Err(ClusterError::Stream(StreamError::Frame(_)))
        ));
        // Over the wire, to a replica that starts from nothing.
        let request = Follower::new(&cfg, &dir, 0).catchup_request();
        let reply = proto::decode_frame(&leader.handle(&request));
        assert!(
            matches!(reply, Ok(Message::Rejection { code, .. }) if code == proto::ERR_APPLY),
            "{reply:?}"
        );
        // Past the damaged entry the backend is intact.
        assert!(matches!(leader.catchup(1), Ok(Message::Segments { .. })));
    }

    /// The leader seals what it ships around the cargo it sealed itself;
    /// every frame is still the one `encode_frame` writes for its message —
    /// fresh segments, segments read back and checkpoints alike.
    #[test]
    fn a_leaders_frames_are_the_encoding_of_their_message() {
        let (dir, batches, cfg) = fixture();
        let mut leader = ShardLeader::new(&cfg, &dir, 0, 3).expect("leader");
        let (half, rest) = batches.split_at(batches.len() / 2);
        let mut frames = Vec::new();
        for b in half {
            frames.extend(leader.offer(b).expect("offer"));
        }
        // Every entry again: all but the last offer's are read back.
        leader.shipped = 0;
        frames.extend(leader.ship(true).expect("ship"));
        for b in rest {
            frames.extend(leader.offer(b).expect("offer"));
        }
        frames.extend(leader.flush().expect("flush"));
        let (mut segments, mut checkpoints) = (0u64, 0);
        for frame in &frames {
            let msg = proto::decode_frame(frame).expect("own frame");
            match msg {
                Message::ShipSegment { .. } => segments += 1,
                Message::ShipCheckpoint { .. } => checkpoints += 1,
                ref other => panic!("leaders ship segments and checkpoints, not {other:?}"),
            }
            assert_eq!(&proto::encode_frame(&msg), frame);
        }
        // Some entries went out twice; at least one of them read back.
        assert!(segments > leader.shipped() && checkpoints > 2);
    }

    /// A leader behind its own manifest (an earlier ship failed part-way)
    /// ships the entries older than the last offer read back and verified,
    /// then the last offer's as sealed — one log, in order.
    #[test]
    fn entries_older_than_the_last_offer_are_read_back_in_log_order() {
        let (dir, batches, cfg) = fixture();
        let mut leader = ShardLeader::new(&cfg, &dir, 0, 0).expect("leader");
        let mut shipped = Vec::new();
        let mut last_sealed = 0;
        for b in &batches {
            let frames = leader.offer(b).expect("offer");
            let sealed = frames.iter().filter_map(|f| segment_of(f));
            last_sealed = sealed.clone().count();
            shipped.extend(sealed);
            if shipped.len() >= 3 && last_sealed > 0 {
                break;
            }
        }
        assert!(shipped.len() >= 3);
        assert_eq!(leader.pipeline.sealed_frames().len(), last_sealed);
        assert!(last_sealed < shipped.len(), "some entries are older");
        leader.shipped = 0;
        let again: Vec<Vec<u8>> = leader
            .ship(false)
            .expect("ship")
            .iter()
            .filter_map(|f| segment_of(f))
            .collect();
        assert_eq!(again, shipped);
        // An older entry whose backend copy is gone is the typed error.
        leader.shipped = 0;
        let first = leader.pipeline.manifest()[0].name();
        leader.segs.raw_mut().remove(&first);
        assert!(matches!(
            leader.ship(false),
            Err(ClusterError::Stream(StreamError::SegmentMissing(_)))
        ));
    }
}
