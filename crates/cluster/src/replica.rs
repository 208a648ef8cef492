//! A follower replica: replays the leader's log, serves reads, stands by.
//!
//! Durable state is exactly what survives a follower restart: the segment
//! bytes, the manifest they decode to, and the latest checkpoint blob.
//! The merged store, applied position, and serving snapshot are volatile
//! and rebuilt by [`Follower::recover`]. Every applied segment is
//! digest-verified by the segment codec and checked against this
//! replica's store config before it merges, so a corrupt, torn or foreign
//! ship is rejected at the wire, not discovered at failover. The
//! checkpoint is likewise restore-validated on arrival — a blob that
//! cannot actually rebuild a pipeline is refused while the leader is still
//! alive to resend it.

use std::sync::Arc;

use crate::error::ClusterError;
use crate::proto::{self, Message};
use crate::router;
use cellrel_ingest::frame::crc32;
use cellrel_queryd::QuerydCore;
use cellrel_sim::Merge;
use cellrel_store::{DeviceDirectory, Store};
use cellrel_stream::{
    decode_segment, MemSegments, SegmentEntry, SegmentStore, StreamConfig, StreamError,
    StreamPipeline,
};

/// One shard's read replica and failover target.
pub struct Follower {
    shard: usize,
    dir: DeviceDirectory,
    cfg: StreamConfig,
    // -- durable --
    segs: MemSegments,
    manifest: Vec<SegmentEntry>,
    checkpoint: Option<(u64, Vec<u8>)>,
    // -- volatile --
    applied: u64,
    base: Store,
    core: Arc<QuerydCore>,
}

impl Follower {
    /// An empty replica for `shard` over the shard's directory view.
    pub fn new(cfg: &StreamConfig, dir: &DeviceDirectory, shard: usize) -> Self {
        let f = Follower {
            shard,
            dir: dir.clone(),
            cfg: *cfg,
            segs: MemSegments::new(),
            manifest: Vec::new(),
            checkpoint: None,
            applied: 0,
            base: Store::new(&cfg.store),
            core: QuerydCore::new(Store::new(&cfg.store)),
        };
        f.publish();
        f
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The serving core (for read scale-out routers).
    pub fn core(&self) -> Arc<QuerydCore> {
        Arc::clone(&self.core)
    }

    /// Highest replication position applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Replication position of the newest restore-validated checkpoint.
    pub fn checkpoint_seq(&self) -> Option<u64> {
        self.checkpoint.as_ref().map(|(seq, _)| *seq)
    }

    /// The replayed manifest.
    pub fn manifest(&self) -> &[SegmentEntry] {
        &self.manifest
    }

    /// The shard store this follower can serve: every applied segment
    /// merged, the shard's devices registered, columnar-sealed — the same
    /// shape the leader's sealed history has after a flush.
    pub fn sealed_store(&self) -> Store {
        let mut s = Store::sealed_union(&self.cfg.store, &[&self.base]);
        s.register_population(&self.dir);
        s
    }

    /// Swap a fresh snapshot into the serving core, tagged with the
    /// applied replication position.
    pub fn publish(&self) -> bool {
        self.core.publish_at(self.sealed_store(), self.applied)
    }

    /// Apply one replication or query frame. Total: every outcome is a
    /// reply frame (ack, partial, or rejection), never a panic.
    pub fn apply(&mut self, frame: &[u8]) -> Vec<u8> {
        let msg = match proto::decode_frame(frame) {
            Ok(m) => m,
            Err(e) => return proto::encode_frame(&proto::rejection_for(&e)),
        };
        let reply = match msg {
            Message::ShipSegment { seq, frame } => self.apply_segment(seq, &frame),
            Message::ShipCheckpoint { seq, checkpoint } => self.apply_checkpoint(seq, checkpoint),
            Message::Query(q) => return router::answer_query(&self.core, &q),
            _ => Message::Rejection {
                code: proto::ERR_UNEXPECTED,
                detail: "followers accept segments, checkpoints, and queries only".into(),
            },
        };
        proto::encode_frame(&reply)
    }

    /// Verify and merge one shipped segment at the next dense position.
    fn apply_segment(&mut self, seq: u64, bytes: &[u8]) -> Message {
        if seq != self.applied + 1 {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!(
                    "segment seq {seq} does not follow applied seq {}",
                    self.applied
                ),
            };
        }
        // decode_segment cross-checks the embedded digest and record
        // count, so `entry` here is verified, not merely claimed.
        let (entry, delta) = match decode_segment(bytes) {
            Ok(x) => x,
            Err(e) => {
                return Message::Rejection {
                    code: proto::ERR_APPLY,
                    detail: format!("segment rejected: {e}"),
                }
            }
        };
        // `Store::merge` asserts equal configs: a self-consistent segment
        // built under a foreign `StoreConfig` must be refused here.
        if *delta.config() != self.cfg.store {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: "segment rejected: store config mismatch".into(),
            };
        }
        if let Err(e) = self.segs.put(&entry.name(), bytes) {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!("segment store: {e}"),
            };
        }
        self.base.merge(delta);
        self.manifest.push(entry);
        self.applied = seq;
        Message::Ack {
            seq,
            digest: entry.digest,
        }
    }

    /// Validate and retain a checkpoint covering the applied prefix.
    fn apply_checkpoint(&mut self, seq: u64, bytes: Vec<u8>) -> Message {
        if seq > self.applied {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!(
                    "checkpoint seq {seq} is ahead of applied seq {}",
                    self.applied
                ),
            };
        }
        // Restore-validate now, against the segments we actually hold:
        // a checkpoint that cannot rebuild a pipeline is useless at
        // promotion time and must be refused while it is still cheap to.
        if let Err(e) = StreamPipeline::restore(&bytes, &self.dir, &self.segs) {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!("checkpoint rejected: {e}"),
            };
        }
        let digest = u64::from(crc32(&bytes));
        self.checkpoint = Some((seq, bytes));
        Message::Ack { seq, digest }
    }

    /// The catch-up request this follower would send its leader.
    pub fn catchup_request(&self) -> Vec<u8> {
        proto::encode_frame(&Message::Catchup {
            from_seq: self.applied,
        })
    }

    /// Apply a leader's catch-up reply: the manifest suffix after our
    /// applied position, replayed through the normal verified-apply path.
    pub fn ingest_catchup(&mut self, reply: &[u8]) -> Result<u64, ClusterError> {
        match proto::decode_frame(reply)? {
            Message::Segments { from_seq, frames } => {
                if from_seq != self.applied {
                    return Err(ClusterError::Replication {
                        shard: self.shard,
                        detail: format!(
                            "catch-up reply starts at {from_seq}, expected {}",
                            self.applied
                        ),
                    });
                }
                for f in frames {
                    let seq = self.applied + 1;
                    match self.apply_segment(seq, &f) {
                        Message::Ack { .. } => {}
                        Message::Rejection { code, detail } => {
                            return Err(ClusterError::Replication {
                                shard: self.shard,
                                detail: format!("catch-up apply (code {code}): {detail}"),
                            })
                        }
                        other => {
                            return Err(ClusterError::Replication {
                                shard: self.shard,
                                detail: format!("catch-up apply: unexpected {other:?}"),
                            })
                        }
                    }
                }
                self.publish();
                Ok(self.applied)
            }
            Message::Rejection { code, detail } => Err(ClusterError::Replication {
                shard: self.shard,
                detail: format!("catch-up refused (code {code}): {detail}"),
            }),
            other => Err(ClusterError::Replication {
                shard: self.shard,
                detail: format!("expected segments, got {other:?}"),
            }),
        }
    }

    /// Simulate a restart: drop all volatile state and rebuild it from the
    /// durable segment log, re-verifying every segment against its
    /// manifest entry on the way back in.
    pub fn recover(&mut self) -> Result<(), ClusterError> {
        let mut base = Store::new(&self.cfg.store);
        for entry in &self.manifest {
            let bytes = self.segs.get(&entry.name())?;
            let (decoded, delta) = decode_segment(&bytes)?;
            if decoded != *entry || *delta.config() != self.cfg.store {
                return Err(ClusterError::Stream(StreamError::SegmentMismatch(
                    entry.name(),
                )));
            }
            base.merge(delta);
        }
        self.base = base;
        self.applied = self.manifest.len() as u64;
        self.core = QuerydCore::new(Store::new(&self.cfg.store));
        self.publish();
        Ok(())
    }

    /// Promotion: rebuild a leader-grade pipeline from the durable
    /// checkpoint (or from scratch if none arrived yet) plus the segment
    /// log. Returns the pipeline and the segment backend the new leader
    /// takes over; the caller replays the shard's batches from
    /// `pipeline.cursor()`.
    pub fn promote<'d>(
        &self,
        dir: &'d DeviceDirectory,
    ) -> Result<(StreamPipeline<'d>, MemSegments), ClusterError> {
        let segs = self.segs.clone();
        let pipeline = match &self.checkpoint {
            Some((_, bytes)) => StreamPipeline::restore(bytes, dir, &segs)?,
            None => StreamPipeline::new(&self.cfg, dir)?,
        };
        Ok((pipeline, segs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_stream::{encode_segment, SegmentKind};

    /// A CRC-valid, self-consistent `SG` frame whose store has 4
    /// partitions where followers default to 16, and the stream config
    /// it was built under. An empty delta is enough: `Store::merge`
    /// asserts the configs before it looks at a cell.
    fn foreign_segment() -> (StreamConfig, Vec<u8>) {
        let mut foreign = StreamConfig::default();
        foreign.store.partitions = 4;
        let delta = Store::new(&foreign.store);
        let entry = SegmentEntry {
            kind: SegmentKind::Window,
            index: 0,
            watermark_ms: 0,
            records: 0,
            digest: delta.digest(),
            bytes: 0,
        };
        (foreign, encode_segment(&entry, &delta))
    }

    fn follower(cfg: &StreamConfig) -> Follower {
        Follower::new(cfg, &DeviceDirectory::default(), 0)
    }

    fn ship(f: &mut Follower, segment: Vec<u8>) -> Message {
        let frame = proto::encode_frame(&Message::ShipSegment {
            seq: 1,
            frame: segment,
        });
        proto::decode_frame(&f.apply(&frame)).expect("reply decodes")
    }

    fn assert_position(f: &Follower, applied: u64) {
        assert_eq!(f.applied(), applied);
        assert_eq!(f.manifest().len() as u64, applied);
        assert_eq!(f.segs.len() as u64, applied);
    }

    #[test]
    fn a_shipped_segment_with_a_foreign_store_config_is_rejected_not_merged() {
        let mut f = follower(&StreamConfig::default());
        let reply = ship(&mut f, foreign_segment().1);
        let want = Message::Rejection {
            code: proto::ERR_APPLY,
            detail: "segment rejected: store config mismatch".into(),
        };
        assert_eq!(reply, want);
        assert_position(&f, 0);
    }

    #[test]
    fn a_catchup_reply_with_a_foreign_store_config_is_refused_not_merged() {
        let mut f = follower(&StreamConfig::default());
        let reply = proto::encode_frame(&Message::Segments {
            from_seq: 0,
            frames: vec![foreign_segment().1],
        });
        let err = f.ingest_catchup(&reply).expect_err("must refuse");
        assert!(err.to_string().contains("store config mismatch"), "{err}");
        assert_position(&f, 0);
    }

    /// A follower restarted under a different `StoreConfig` over the
    /// segments it made durable under the old one.
    #[test]
    fn recover_over_segments_of_a_foreign_store_config_is_a_typed_error() {
        let (foreign, segment) = foreign_segment();
        let mut f = follower(&foreign);
        assert!(matches!(ship(&mut f, segment), Message::Ack { .. }));
        f.cfg = StreamConfig::default();
        let err = f.recover().expect_err("must refuse");
        assert!(
            matches!(err, ClusterError::Stream(StreamError::SegmentMismatch(_))),
            "{err}"
        );
        assert_position(&f, 1);
    }
}
