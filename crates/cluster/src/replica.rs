//! A follower replica: replays the leader's log, serves reads, stands by.
//!
//! Durable state is exactly what survives a follower restart: the segment
//! bytes, the manifest they decode to, and the latest checkpoint blob.
//! The merged store, applied position, and serving snapshot are volatile
//! and rebuilt by `Follower::recover`.
//!
//! **Once per segment:** every shipped segment is CRC-, count- and
//! digest-verified by the segment codec, checked against this replica's
//! store config and refused if the replica already holds its
//! `(kind, index)`, all before it is stored or merged — so a corrupt, torn,
//! foreign or overwriting ship is rejected at the wire, not discovered at
//! failover, and `manifest` is an exact index of `segs`: entry *i* is the
//! decoded header of the bytes stored under its name, and nothing else is
//! stored.
//!
//! **Once per checkpoint:** the frame is decoded and checked against
//! itself ([`StreamPipeline::decode`]), its store config must be this
//! replica's, and its manifest must equal the first `seq` entries of the
//! replayed manifest. That is what replaying the whole log through
//! [`StreamPipeline::restore`] would establish — each named segment
//! present, decodable, equal to its entry and of the right config — because
//! the apply path established exactly that for every entry of `manifest`
//! and nothing can change a stored segment afterwards. A blob that cannot
//! rebuild a pipeline at promotion is still refused while the leader is
//! alive to resend it; it just costs the size of the checkpoint, not the
//! size of the log. Not even that, mostly: the follower keeps the image the
//! accepted checkpoint decoded to and decodes the next one onto it
//! ([`StreamPipeline::decode_onto`]), which verifies every byte shipped
//! (the CRCs over the whole frame) but parses only the collector sections
//! that changed. The ack's digest is the CRC-32 of the accepted frame,
//! which for a sealed frame is [`RESIDUE`] — what `decode` already proved.
//!
//! **Once per byte:** a frame arriving here is marked as it is opened
//! ([`Marks`]), and its cargo — the `SG` segment with its `CS` image and
//! `SC` blocks, or the `SP` checkpoint with its `CK` and `CS` frames — is
//! decoded where it sits in the `CR` frame, every embedded trailer checked
//! from the marks. Nothing is copied but what is kept: a segment into the
//! segment store, the bytes of an accepted checkpoint.

use std::sync::Arc;

use crate::error::ClusterError;
use crate::proto::{self, Message, MessageRef};
use crate::router;
use cellrel_ingest::frame::{Frame, Marks, RESIDUE};
use cellrel_queryd::QuerydCore;
use cellrel_sim::Merge;
use cellrel_store::{DeviceDirectory, Store};
#[cfg(test)]
use cellrel_stream::fetch_segment;
use cellrel_stream::{
    read_segment, CheckpointImage, MemSegments, SegmentEntry, SegmentStore, StreamConfig,
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
    /// `StreamPipeline::decode` of the held checkpoint's bytes, kept as the
    /// basis the next checkpoint decodes onto; `None` after a refusal or a
    /// restart, which costs the next decode its shortcut and nothing else.
    image: Option<CheckpointImage>,
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
            image: None,
        };
        f.publish();
        f
    }

    /// The serving core (for read scale-out routers).
    pub(crate) fn core(&self) -> Arc<QuerydCore> {
        Arc::clone(&self.core)
    }

    /// Highest replication position applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Replication position of the newest accepted checkpoint.
    #[cfg(test)]
    pub(crate) fn checkpoint_seq(&self) -> Option<u64> {
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
    pub(crate) fn publish(&self) -> bool {
        self.core.publish_at(self.sealed_store(), self.applied)
    }

    /// Apply one replication or query frame. Total: every outcome is a
    /// reply frame (ack, partial, or rejection), never a panic.
    pub fn apply(&mut self, frame: &[u8]) -> Vec<u8> {
        let marks = Marks::new(frame);
        let msg = match proto::read_frame(marks.frame()) {
            Ok(m) => m,
            Err(e) => return proto::encode_frame(&proto::rejection_for(&e)),
        };
        let reply = match msg {
            MessageRef::ShipSegment { seq, frame } => self.apply_segment(seq, frame),
            MessageRef::ShipCheckpoint { seq, checkpoint } => {
                self.apply_checkpoint(seq, checkpoint)
            }
            MessageRef::Other(Message::Query(q)) => return router::answer_query(&self.core, &q),
            _ => Message::Rejection {
                code: proto::ERR_UNEXPECTED,
                detail: "followers accept segments, checkpoints, and queries only".into(),
            },
        };
        proto::encode_frame(&reply)
    }

    /// Verify and merge one shipped segment at the next dense position.
    fn apply_segment(&mut self, seq: u64, frame: Frame<'_>) -> Message {
        match self.accept_segment(seq, frame) {
            Ok((entry, delta)) => {
                self.base.merge(delta);
                Message::Ack {
                    seq,
                    digest: entry.digest,
                }
            }
            Err(detail) => Message::Rejection {
                code: proto::ERR_APPLY,
                detail,
            },
        }
    }

    /// Verify and store one shipped segment at the next dense position,
    /// advancing `manifest` and `applied` past it: everything
    /// [`Follower::apply_segment`] does but fold the segment's store into
    /// `base`, which is the caller's to do. `Err` is why it was refused.
    fn accept_segment(
        &mut self,
        seq: u64,
        frame: Frame<'_>,
    ) -> Result<(SegmentEntry, Store), String> {
        if seq != self.applied + 1 {
            return Err(format!(
                "segment seq {seq} does not follow applied seq {}",
                self.applied
            ));
        }
        // read_segment cross-checks the embedded digest and record
        // count, so `entry` here is verified, not merely claimed.
        let (entry, delta) = read_segment(frame).map_err(|e| format!("segment rejected: {e}"))?;
        // `Store::merge` asserts equal configs: a self-consistent segment
        // built under a foreign `StoreConfig` must be refused here.
        if *delta.config() != self.cfg.store {
            return Err("segment rejected: store config mismatch".into());
        }
        // One name, one set of bytes, for good: an accepted checkpoint
        // names this log by entry, so no later ship may replace a segment.
        if self
            .manifest
            .iter()
            .any(|e| (e.kind, e.index) == (entry.kind, entry.index))
        {
            return Err(format!(
                "segment rejected: {} is already held",
                entry.name()
            ));
        }
        self.segs
            .put(&entry.name(), frame.bytes())
            .map_err(|e| format!("segment store: {e}"))?;
        self.manifest.push(entry);
        self.applied = seq;
        Ok((entry, delta))
    }

    /// Validate and retain a checkpoint covering the applied prefix.
    fn apply_checkpoint(&mut self, seq: u64, frame: Frame<'_>) -> Message {
        // Whatever the outcome, the basis is spent: an accepted checkpoint
        // leaves its own image, a refused one none.
        let basis = self.image.take();
        if seq > self.applied {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!(
                    "checkpoint seq {seq} is ahead of applied seq {}",
                    self.applied
                ),
            };
        }
        // A checkpoint that cannot rebuild a pipeline is useless at
        // promotion time and must be refused while it is still cheap to.
        // The segments it names were verified one by one as they arrived
        // (module docs), so it is enough that it names exactly those.
        let image = match StreamPipeline::decode_onto(frame, basis) {
            Err(e) => Err(e.to_string()),
            Ok(image) if image.config().store != self.cfg.store => {
                Err("store config mismatch".into())
            }
            Ok(image) if image.manifest() != &self.manifest[..seq as usize] => {
                Err(format!("manifest is not the applied log up to seq {seq}"))
            }
            Ok(image) => Ok(image),
        };
        match image {
            Ok(image) => {
                self.image = Some(image);
                self.checkpoint = Some((seq, frame.bytes().to_vec()));
                // `decode` opened the frame, CRC included, so its bytes sum
                // to the residue: the digest `crc32(bytes)` would compute.
                Message::Ack {
                    seq,
                    digest: u64::from(RESIDUE),
                }
            }
            Err(why) => Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!("checkpoint rejected: {why}"),
            },
        }
    }

    /// The catch-up request this follower would send its leader.
    pub fn catchup_request(&self) -> Vec<u8> {
        proto::encode_frame(&Message::Catchup {
            from_seq: self.applied,
        })
    }

    /// Apply a leader's catch-up reply: the manifest suffix after our
    /// applied position, every frame verified and stored as a shipped one
    /// is, then folded into `base` in one [`Store::sealed_union`] rather
    /// than one merge per segment. A refused frame ends the catch-up, but
    /// the frames accepted before it are folded in first, so `base` stays
    /// the merge of exactly the segments `manifest` names.
    pub(crate) fn ingest_catchup(&mut self, reply: &[u8]) -> Result<u64, ClusterError> {
        let marks = Marks::new(reply);
        match proto::read_frame(marks.frame())? {
            MessageRef::Segments { from_seq, frames } => {
                if from_seq != self.applied {
                    return Err(ClusterError::Replication {
                        shard: self.shard,
                        detail: format!(
                            "catch-up reply starts at {from_seq}, expected {}",
                            self.applied
                        ),
                    });
                }
                let mut deltas = Vec::new();
                let mut refused = None;
                for f in frames {
                    match self.accept_segment(self.applied + 1, f) {
                        Ok((_, delta)) => deltas.push(delta),
                        Err(detail) => {
                            refused = Some(detail);
                            break;
                        }
                    }
                }
                if !deltas.is_empty() {
                    let parts: Vec<&Store> = std::iter::once(&self.base).chain(&deltas).collect();
                    self.base = Store::sealed_union(&self.cfg.store, &parts);
                }
                if let Some(detail) = refused {
                    return Err(ClusterError::Replication {
                        shard: self.shard,
                        detail: format!("catch-up apply (code {}): {detail}", proto::ERR_APPLY),
                    });
                }
                self.publish();
                Ok(self.applied)
            }
            MessageRef::Other(Message::Rejection { code, detail }) => {
                Err(ClusterError::Replication {
                    shard: self.shard,
                    detail: format!("catch-up refused (code {code}): {detail}"),
                })
            }
            other => Err(ClusterError::Replication {
                shard: self.shard,
                detail: format!("expected segments, got {:?}", other.into_message()),
            }),
        }
    }

    /// Simulate a restart: drop all volatile state and rebuild it from the
    /// durable segment log, re-verifying every segment against its
    /// manifest entry on the way back in.
    #[cfg(test)]
    pub(crate) fn recover(&mut self) -> Result<(), ClusterError> {
        let mut base = Store::new(&self.cfg.store);
        for entry in &self.manifest {
            base.merge(fetch_segment(&self.segs, entry, &self.cfg.store)?.1);
        }
        self.base = base;
        self.applied = self.manifest.len() as u64;
        self.core = QuerydCore::new(Store::new(&self.cfg.store));
        self.image = None;
        self.publish();
        Ok(())
    }

    /// Promotion: rebuild a leader-grade pipeline from the durable
    /// checkpoint (or from scratch if none arrived yet) plus the segment
    /// log. Returns the pipeline and the segment backend the new leader
    /// takes over; the caller replays the shard's batches from
    /// `pipeline.cursor()`.
    pub(crate) fn promote<'d>(
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
    use crate::node::ShardLeader;
    use cellrel_ingest::frame::{crc32, seal, write_varint, SP};
    use cellrel_stream::{
        batches_from_events, decode_manifest, encode_manifest, encode_segment, SegmentKind,
        StreamError,
    };
    use cellrel_workload::{run_macro_study, PopulationConfig, StudyConfig};
    use std::sync::OnceLock;

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
        ship_at(f, 1, segment)
    }

    fn ship_at(f: &mut Follower, seq: u64, segment: Vec<u8>) -> Message {
        let frame = proto::encode_frame(&Message::ShipSegment {
            seq,
            frame: segment,
        });
        proto::decode_frame(&f.apply(&frame)).expect("reply decodes")
    }

    fn ship_checkpoint(f: &mut Follower, seq: u64, checkpoint: Vec<u8>) -> Message {
        let frame = proto::encode_frame(&Message::ShipCheckpoint { seq, checkpoint });
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

    /// One shard leader's whole replication log over a seed-2021 stream.
    struct Shipped {
        dir: DeviceDirectory,
        cfg: StreamConfig,
        /// `SG` frames in log order: `segments[i]` ships at seq `i + 1`.
        segments: Vec<Vec<u8>>,
        /// Every checkpoint the leader shipped, with the seq it shipped at.
        checkpoints: Vec<(u64, Vec<u8>)>,
    }

    fn shipped() -> &'static Shipped {
        static SHIPPED: OnceLock<Shipped> = OnceLock::new();
        SHIPPED.get_or_init(|| {
            let data = run_macro_study(&StudyConfig {
                seed: 2021,
                population: PopulationConfig {
                    devices: 120,
                    ..Default::default()
                },
                days: 4,
                bs_count: 60,
            });
            let dir = DeviceDirectory::from_population(&data.population);
            let cfg = StreamConfig {
                window_ms: 86_400_000,
                lateness_ms: 2 * 3_600_000,
                hot_windows: 2,
                late_flush: 64,
                ..Default::default()
            };
            let (mut segments, mut checkpoints) = (Vec::new(), Vec::new());
            let mut leader = ShardLeader::new(&cfg, &dir, 0, 4).expect("leader");
            let mut frames = Vec::new();
            for b in batches_from_events(&data.events, 32) {
                frames.extend(leader.offer(&b).expect("offer"));
            }
            frames.extend(leader.flush().expect("flush"));
            for frame in frames {
                match proto::decode_frame(&frame).expect("own frame") {
                    Message::ShipSegment { seq, frame } => {
                        segments.push(frame);
                        assert_eq!(seq, segments.len() as u64);
                    }
                    Message::ShipCheckpoint { seq, checkpoint } => {
                        checkpoints.push((seq, checkpoint))
                    }
                    other => panic!("leaders ship segments and checkpoints, not {other:?}"),
                }
            }
            drop(leader);
            assert!(segments.len() >= 6, "{} segments", segments.len());
            Shipped {
                dir,
                cfg,
                segments,
                checkpoints,
            }
        })
    }

    /// A replica that applied the first `applied` segments and no checkpoint.
    fn follower_at(s: &Shipped, applied: usize) -> Follower {
        let mut f = Follower::new(&s.cfg, &s.dir, 0);
        for (i, segment) in s.segments[..applied].iter().enumerate() {
            let reply = ship_at(&mut f, i as u64 + 1, segment.clone());
            assert!(matches!(reply, Message::Ack { .. }), "{reply:?}");
        }
        f
    }

    /// `ckpt` re-sealed with `edit` applied to its 22 leading varints
    /// (configs 0..10; cursor, `sealed_before`, `late_seq` 10..13; counters
    /// 13..22) and its manifest. `segments_persisted` follows the manifest
    /// length, so the forgery gets past `decode`'s own length check.
    fn forge(ckpt: &[u8], edit: impl FnOnce(&mut [u64], &mut Vec<SegmentEntry>)) -> Vec<u8> {
        let mut r = SP.open(ckpt).expect("own frame opens");
        let mut head: Vec<u64> = (0..22).map(|_| r.varint().expect("head")).collect();
        let collector = r.blob("collector").expect("collector");
        let mut manifest = decode_manifest(&mut r).expect("manifest");
        let rest = r.take(r.remaining()).expect("pending and late");
        edit(&mut head, &mut manifest);
        head[19] = manifest.len() as u64;
        let mut out = Vec::new();
        let start = SP.begin(&mut out, SP.versions[0]);
        for v in head {
            write_varint(&mut out, v);
        }
        write_varint(&mut out, collector.len() as u64);
        out.extend_from_slice(collector);
        encode_manifest(&manifest, &mut out);
        out.extend_from_slice(rest);
        seal(&mut out, start);
        out
    }

    /// Forgeries that `decode` has no quarrel with: the manifest is a seal
    /// history some pipeline could have, just not the one this log holds.
    /// `at` picks the entry. A manifest too short to edit comes back as
    /// is, and so does any `forgery` past the last arm.
    fn forge_manifest(ckpt: &[u8], forgery: usize, at: usize) -> Vec<u8> {
        forge(ckpt, |head, m| {
            let n = m.len();
            match forgery {
                0 if n > 0 => m[at % n].digest ^= 1,
                1 if n > 0 => m[at % n].records += 1,
                2 if n > 0 => m[at % n].watermark_ms += 1,
                // Two entries of one kind trade indices: both stay inside
                // the replay position, neither repeats.
                3 if n > 1 => {
                    let i = at % n;
                    if let Some(j) = (0..n).find(|&j| j != i && m[j].kind == m[i].kind) {
                        let (a, b) = (m[i].index, m[j].index);
                        m[i].index = b;
                        m[j].index = a;
                    }
                }
                4 if n > 1 => m.swap(at % (n - 1), at % (n - 1) + 1),
                5 => {
                    m.pop();
                }
                // One more late flush than the log holds.
                6 if n > 0 => {
                    let mut extra = m[at % n];
                    (extra.kind, extra.index) = (SegmentKind::Late, head[12]);
                    head[12] += 1;
                    m.push(extra);
                }
                _ => {}
            }
        })
    }

    fn assert_refused(f: &mut Follower, seq: u64, ckpt: Vec<u8>, why: &str) {
        let held = f.checkpoint.clone();
        let reply = ship_checkpoint(f, seq, ckpt);
        let want = Message::Rejection {
            code: proto::ERR_APPLY,
            detail: why.into(),
        };
        assert_eq!(reply, want);
        assert_eq!(f.checkpoint, held, "a refused checkpoint replaces nothing");
    }

    #[test]
    fn the_leaders_own_checkpoints_ack_at_every_position() {
        let s = shipped();
        let mut f = Follower::new(&s.cfg, &s.dir, 0);
        let mut applied = 0;
        for (seq, ckpt) in &s.checkpoints {
            for segment in &s.segments[applied..*seq as usize] {
                applied += 1;
                let reply = ship_at(&mut f, applied as u64, segment.clone());
                assert!(matches!(reply, Message::Ack { .. }), "{reply:?}");
            }
            let reply = ship_checkpoint(&mut f, *seq, ckpt.clone());
            let digest = u64::from(crc32(ckpt));
            assert_eq!(reply, Message::Ack { seq: *seq, digest });
            assert_eq!(f.checkpoint_seq(), Some(*seq));
        }
        assert_position(&f, s.segments.len() as u64);
        let (pipeline, _) = f.promote(&s.dir).expect("promotes");
        assert_eq!(pipeline.manifest(), f.manifest());
    }

    #[test]
    fn a_checkpoint_that_does_not_name_the_applied_log_is_refused() {
        let s = shipped();
        let n = s.segments.len() as u64;
        let (seq, genuine) = s.checkpoints.last().expect("flush ships one");
        assert_eq!(*seq, n);
        let mut f = follower_at(s, n as usize);
        let first = &s.checkpoints[0];
        assert!(matches!(
            ship_checkpoint(&mut f, first.0, first.1.clone()),
            Message::Ack { .. }
        ));

        assert_refused(
            &mut f,
            n + 1,
            genuine.clone(),
            &format!("checkpoint seq {} is ahead of applied seq {n}", n + 1),
        );
        let not_the_log = |seq: u64| {
            format!("checkpoint rejected: manifest is not the applied log up to seq {seq}")
        };
        // The right bytes at the wrong position: a manifest one longer,
        // then one shorter, than the prefix the seq names.
        assert_refused(&mut f, n - 1, genuine.clone(), &not_the_log(n - 1));
        let (earlier, shorter) = &s.checkpoints[s.checkpoints.len() / 2];
        assert!(*earlier < n);
        assert_refused(
            &mut f,
            earlier + 1,
            shorter.clone(),
            &not_the_log(earlier + 1),
        );
        // An entry edited (digest, records, watermark, index), two entries
        // swapped, one dropped, one added.
        for forgery in 0..7 {
            let forged = forge_manifest(genuine, forgery, 1);
            assert_ne!(&forged, genuine, "forgery {forgery} is a no-op");
            assert_refused(&mut f, n, forged, &not_the_log(n));
        }
        // What `decode` refuses stays refused, with its own reason.
        let twice = forge(genuine, |_, m| m[1] = m[0]);
        assert_refused(
            &mut f,
            n,
            twice,
            "checkpoint rejected: SP frame: invalid field: manifest entry repeated",
        );
        assert_eq!(f.checkpoint_seq(), Some(first.0));
        assert!(matches!(
            ship_checkpoint(&mut f, n, genuine.clone()),
            Message::Ack { .. }
        ));
    }

    /// The image a follower holds is `decode` of the checkpoint it holds:
    /// loaded over the follower's segments, it is the pipeline `restore`
    /// builds from those bytes — content, collector and the checkpoint it
    /// writes. Consumes the image.
    fn assert_the_image_is_the_held_checkpoint(f: &mut Follower, dir: &DeviceDirectory) {
        let (_, bytes) = f.checkpoint.as_ref().expect("a checkpoint is held");
        let image = f
            .image
            .take()
            .expect("an accepted checkpoint leaves its image");
        let held = StreamPipeline::load(image, dir, &f.segs).expect("the image loads");
        let restored = StreamPipeline::restore(bytes, dir, &f.segs).expect("the bytes restore");
        assert_eq!(held.collector_digest(), restored.collector_digest());
        assert_eq!(held.digest(), restored.digest());
        assert_eq!(held.counters(), restored.counters());
        assert_eq!(held.checkpoint(), restored.checkpoint());
    }

    /// A follower decodes each checkpoint onto the image of the one it
    /// accepted last. A refusal leaves it no basis, and the next genuine
    /// checkpoint is decoded from nothing — and acks with the digest a
    /// follower always sent, the CRC-32 of the frame.
    #[test]
    fn a_refused_checkpoint_leaves_no_basis_and_the_next_still_acks() {
        let s = shipped();
        let n = s.segments.len();
        let mut f = follower_at(s, n);
        let genuine: Vec<&(u64, Vec<u8>)> = s.checkpoints.iter().rev().take(3).collect();
        let [(last, newest), (mid, middle), (first, oldest)] = genuine[..] else {
            panic!("the log ships at least three checkpoints");
        };
        let ack = |seq: u64, bytes: &[u8]| Message::Ack {
            seq,
            digest: u64::from(crc32(bytes)),
        };
        assert_eq!(
            ship_checkpoint(&mut f, *first, oldest.clone()),
            ack(*first, oldest)
        );
        assert!(f.image.is_some());
        assert_refused(
            &mut f,
            *mid,
            forge_manifest(middle, 0, 0),
            &format!("checkpoint rejected: manifest is not the applied log up to seq {mid}"),
        );
        assert!(f.image.is_none(), "a refusal leaves no basis");
        assert_eq!(
            ship_checkpoint(&mut f, *mid, middle.clone()),
            ack(*mid, middle)
        );
        assert_eq!(
            ship_checkpoint(&mut f, *last, newest.clone()),
            ack(*last, newest)
        );
        assert_the_image_is_the_held_checkpoint(&mut f, &s.dir);

        // A restart drops the image with the rest of the volatile state.
        assert_eq!(
            ship_checkpoint(&mut f, *mid, middle.clone()),
            ack(*mid, middle)
        );
        f.recover().expect("recover");
        assert!(f.image.is_none());
        assert_eq!(
            ship_checkpoint(&mut f, *last, newest.clone()),
            ack(*last, newest)
        );
    }

    /// A follower decodes the cargo where it sits in the `CR` frame, its
    /// trailers checked from the frame's marks. Damage inside a segment or
    /// a checkpoint whose own trailer was sealed again over it is reported
    /// by the embedded frame it hit, as a decode of a copy reports it.
    #[test]
    fn damage_under_a_resealed_trailer_is_reported_by_the_frame_it_hit() {
        use cellrel_ingest::frame::{Frame, SG};
        use cellrel_stream::read_segment;
        /// `frame` with one bit flipped at `at` and its trailer sealed
        /// again, so that only what `at` sits in fails.
        fn flipped(frame: &[u8], at: usize) -> Vec<u8> {
            let mut bad = frame[..frame.len() - 4].to_vec();
            bad[at] ^= 1;
            seal(&mut bad, 0);
            bad
        }
        let s = shipped();
        let segment = &s.segments[0];
        let mut r = SG.open(segment).expect("own segment");
        r.u8().expect("kind");
        for _ in 0..4 {
            r.varint().expect("header field");
        }
        let image = r.frame("image").expect("image").bytes();
        let image_at = image.as_ptr() as usize - segment.as_ptr() as usize;
        for at in [
            image_at + 4,
            image_at + image.len() / 2,
            image_at + image.len() - 1,
        ] {
            let bad = flipped(segment, at);
            let err = read_segment(Frame::from(&bad)).expect_err("damaged");
            assert_ne!(err.family, &SG, "the damage is inside the image");
            let want = Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!("segment rejected: {err}"),
            };
            assert_eq!(ship(&mut follower(&s.cfg), bad), want);
        }

        let (seq, ckpt) = &s.checkpoints[0];
        let mut f = follower_at(s, *seq as usize);
        let mut r = SP.open(ckpt).expect("own checkpoint");
        for _ in 0..22 {
            r.varint().expect("head");
        }
        let ck = r.frame("collector").expect("collector").bytes();
        let ck_at = ck.as_ptr() as usize - ckpt.as_ptr() as usize;
        for at in [ck_at + 3, ck_at + ck.len() / 2, ckpt.len() - 9] {
            let bad = flipped(ckpt, at);
            let err = StreamPipeline::decode_onto(Frame::from(&bad), None).expect_err("damaged");
            assert!(!err.to_string().starts_with("SP"), "{err}");
            assert_refused(&mut f, *seq, bad, &format!("checkpoint rejected: {err}"));
        }
    }

    /// With no segment applied yet nothing ties a checkpoint to this
    /// replica's `StoreConfig` but the check itself.
    #[test]
    fn a_checkpoint_of_a_foreign_store_config_is_refused() {
        let (foreign, _) = foreign_segment();
        let dir = DeviceDirectory::default();
        let ckpt = StreamPipeline::new(&foreign, &dir)
            .expect("valid config")
            .checkpoint();
        let mut f = follower(&StreamConfig::default());
        assert_refused(
            &mut f,
            0,
            ckpt.clone(),
            "checkpoint rejected: store config mismatch",
        );
        assert!(matches!(
            ship_checkpoint(&mut follower(&foreign), 0, ckpt),
            Message::Ack { .. }
        ));
    }

    /// An accepted checkpoint names segments by `(kind, index)`; a later
    /// ship under a held name would replace the bytes behind it.
    #[test]
    fn a_segment_the_replica_already_holds_is_refused_not_overwritten() {
        let s = shipped();
        let n = s.segments.len();
        let mut f = follower_at(s, n);
        let (seq, ckpt) = s.checkpoints.last().expect("flush ships one");
        assert!(matches!(
            ship_checkpoint(&mut f, *seq, ckpt.clone()),
            Message::Ack { .. }
        ));
        let held = f.manifest()[0];
        let empty = Store::new(&s.cfg.store);
        let usurper = SegmentEntry {
            records: 0,
            digest: empty.digest(),
            ..held
        };
        let segs = f.segs.clone();
        for segment in [encode_segment(&usurper, &empty), s.segments[0].clone()] {
            let reply = ship_at(&mut f, n as u64 + 1, segment);
            let want = Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!("segment rejected: {} is already held", held.name()),
            };
            assert_eq!(reply, want);
            assert_position(&f, n as u64);
            assert_eq!(f.segs, segs, "nothing put");
        }
        f.promote(&s.dir)
            .expect("the accepted checkpoint still restores");
    }

    /// A catch-up folds the frames it accepted in one union, and a refused
    /// frame must not cost the ones before it: whichever frame of a reply
    /// is damaged, the replica holds exactly the prefix before it — the
    /// store of a replica shipped that prefix one segment at a time — and a
    /// second catch-up from there completes the log.
    #[test]
    fn a_catchup_refused_at_any_frame_keeps_the_applied_prefix() {
        let s = shipped();
        let n = s.segments.len();
        let whole = follower_at(s, n).sealed_store();
        let reply = |from: usize, frames: Vec<Vec<u8>>| {
            proto::encode_frame(&Message::Segments {
                from_seq: from as u64,
                frames,
            })
        };
        for k in 0..n {
            let mut frames = s.segments.clone();
            let mid = frames[k].len() / 2;
            frames[k][mid] ^= 0x40;
            let mut f = Follower::new(&s.cfg, &s.dir, 0);
            let err = f
                .ingest_catchup(&reply(0, frames))
                .expect_err("must refuse");
            assert!(err.to_string().contains("catch-up apply"), "{err}");
            assert_position(&f, k as u64);
            let prefix = follower_at(s, k).sealed_store();
            assert_eq!(f.sealed_store().digest(), prefix.digest(), "refused at {k}");
            assert_eq!(f.sealed_store(), prefix, "refused at {k}");
            let rest = s.segments[k..].to_vec();
            assert_eq!(f.ingest_catchup(&reply(k, rest)).ok(), Some(n as u64));
            assert_eq!(f.sealed_store(), whole, "caught up after a refusal at {k}");
        }
    }

    proptest::proptest! {
        /// The follower no longer replays its log per checkpoint; it must
        /// still ack exactly the checkpoints the replay would have let
        /// through **and** that name the applied log: over genuine and
        /// forged checkpoints, at right and wrong positions, against
        /// replicas at any point of the log.
        #[test]
        fn a_checkpoint_acks_iff_it_restores_and_names_the_applied_log(
            behind in 0usize..6,
            pick in 0usize..1 << 16,
            shift in 0u64..4,
            forgery in 0usize..14,
            (at, prior) in (0usize..1 << 16, 0usize..1 << 16),
        ) {
            let s = shipped();
            let applied = s.segments.len() - behind;
            let mut f = follower_at(s, applied);
            // Two draws in three, the replica already holds a genuine
            // checkpoint of its applied prefix, whose image the one under
            // test decodes onto.
            let acceptable: Vec<_> =
                s.checkpoints.iter().filter(|(seq, _)| *seq as usize <= applied).collect();
            if prior % 3 != 0 && !acceptable.is_empty() {
                let (seq, bytes) = acceptable[prior % acceptable.len()];
                let reply = ship_checkpoint(&mut f, *seq, bytes.clone());
                proptest::prop_assert!(matches!(reply, Message::Ack { .. }), "{:?}", reply);
                proptest::prop_assert!(f.image.is_some());
            }
            let (taken_at, genuine) = &s.checkpoints[pick % s.checkpoints.len()];
            // Half the draws leave the bytes alone (`forge_manifest` has
            // seven forgeries); the seq is the one the leader used, the
            // one before, or one or two after.
            let ckpt = forge_manifest(genuine, forgery, at);
            let seq = (taken_at + shift).saturating_sub(1);
            let restored = StreamPipeline::restore(&ckpt, &s.dir, &f.segs);
            let want = seq <= f.applied()
                && restored.is_ok_and(|p| {
                    p.config().store == f.cfg.store && p.manifest() == &f.manifest[..seq as usize]
                });
            let held = f.checkpoint.clone();
            match ship_checkpoint(&mut f, seq, ckpt.clone()) {
                Message::Ack { seq: acked, digest } => {
                    proptest::prop_assert!(want, "acked a checkpoint the replay refuses");
                    proptest::prop_assert_eq!(acked, seq);
                    proptest::prop_assert_eq!(digest, u64::from(crc32(&ckpt)));
                    proptest::prop_assert_eq!(&f.checkpoint, &Some((seq, ckpt)));
                    assert_the_image_is_the_held_checkpoint(&mut f, &s.dir);
                }
                Message::Rejection { code, detail } => {
                    proptest::prop_assert!(!want, "refused a good checkpoint: {}", detail);
                    proptest::prop_assert_eq!(code, proto::ERR_APPLY);
                    proptest::prop_assert_eq!(&f.checkpoint, &held);
                    proptest::prop_assert!(f.image.is_none(), "a refusal leaves no basis");
                }
                other => proptest::prop_assert!(false, "unexpected reply {:?}", other),
            }
        }
    }
}
