//! The continuously running pipeline: collector → windows → tiers.

use crate::segment::{encode_segment, fetch_segment, SegmentEntry, SegmentKind, SegmentStore};
use crate::StreamError;
use cellrel_analysis::store_tables::{table1_from_store, table2_from_store};
use cellrel_analysis::table1::Table1;
use cellrel_analysis::table2::Table2;
use cellrel_ingest::{Collector, CollectorConfig};
use cellrel_sim::Merge;
use cellrel_store::{DeviceDirectory, QueryError, Store, StoreConfig};
use cellrel_types::{EventSink, FailureEvent};
use std::collections::{BTreeMap, VecDeque};

/// Stream tuning knobs. Window geometry is part of the deterministic
/// state; runtime knobs (hot-tier depth) never change answers or digests.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Width of one event-time window in ms. Must be a positive multiple
    /// of `store.bucket_ms` so window seals land on bucket edges and the
    /// store's rollup compaction stays window-transparent.
    pub window_ms: u64,
    /// Bounded out-of-orderness: a window seals once the collector
    /// watermark exceeds its end by this much.
    pub lateness_ms: u64,
    /// Sealed segments kept in the hot in-memory tier before folding into
    /// the compacted base tier. Purely a memory/latency knob.
    pub hot_windows: usize,
    /// Flush the late lane as its own segment once it holds this many
    /// records (0 = only flush at end of stream).
    pub late_flush: u64,
    /// Collector (sharding, dedup, lateness accounting) configuration.
    pub collector: CollectorConfig,
    /// Store (bucketing, rollup, partitioning) configuration.
    pub store: StoreConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            // One store bucket (a day) per window; seal after six hours of
            // watermark progress beyond the window end.
            window_ms: 86_400_000,
            lateness_ms: 6 * 3_600_000,
            hot_windows: 4,
            late_flush: 4_096,
            collector: CollectorConfig::default(),
            store: StoreConfig::default(),
        }
    }
}

impl StreamConfig {
    /// Check the window/bucket alignment constraint.
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.window_ms == 0 {
            return Err(StreamError::Config("window_ms must be positive"));
        }
        if self.store.bucket_ms == 0 || self.window_ms % self.store.bucket_ms != 0 {
            return Err(StreamError::Config(
                "window_ms must be a positive multiple of store.bucket_ms",
            ));
        }
        Ok(())
    }
}

/// Deterministic stream bookkeeping; serialized in the checkpoint, so a
/// restarted run reports the same numbers as an uninterrupted one
/// (`restores` excepted — it counts actual restarts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Batches offered to the pipeline.
    pub batches: u64,
    /// Records accepted by the collector and routed into windows.
    pub records: u64,
    /// Accepted records that arrived for an already-sealed window.
    pub late_records: u64,
    /// Time windows sealed into segments.
    pub windows_sealed: u64,
    /// Watermark-passed windows that held no records (no segment written).
    pub empty_windows: u64,
    /// Late-lane flush segments written.
    pub late_segments: u64,
    /// Segments persisted to the backend (windows + late flushes).
    pub segments_persisted: u64,
    /// Hot-tier segments folded into the compacted base tier.
    pub base_folds: u64,
    /// Times this pipeline state was rebuilt from a checkpoint.
    pub restores: u64,
}

/// Routes accepted records into pending windows or the late lane while a
/// batch is being decoded inside the collector.
struct WindowRouter<'a> {
    window_ms: u64,
    sealed_before: u64,
    store_cfg: StoreConfig,
    dir: &'a DeviceDirectory,
    pending: &'a mut BTreeMap<u64, Store>,
    late: &'a mut Store,
    counters: &'a mut StreamCounters,
}

impl EventSink for WindowRouter<'_> {
    fn record(&mut self, e: &FailureEvent) {
        self.counters.records += 1;
        let dim = self.dir.dim_of(e.device);
        let w = e.start.as_millis() / self.window_ms;
        if w < self.sealed_before {
            self.counters.late_records += 1;
            self.late.record(e, dim);
        } else {
            self.pending
                .entry(w)
                .or_insert_with(|| Store::new(&self.store_cfg))
                .record(e, dim);
        }
    }
}

/// The continuously running pipeline. Feed it encoded batches with
/// [`offer`](StreamPipeline::offer); it seals windows as the watermark
/// advances and [`flush`](StreamPipeline::flush) drains the rest at end
/// of stream. All state is deterministic: two pipelines fed the same
/// batch sequence are equal field-for-field, and
/// [`checkpoint`](StreamPipeline::checkpoint) /
/// [`restore`](StreamPipeline::restore) round-trip that state exactly.
pub struct StreamPipeline<'d> {
    pub(crate) cfg: StreamConfig,
    pub(crate) dir: &'d DeviceDirectory,
    pub(crate) collector: Collector,
    /// Batches consumed so far; the replay position after a restore.
    pub(crate) cursor: u64,
    /// First window index not yet sealed.
    pub(crate) sealed_before: u64,
    /// Open windows: index → that window's store delta.
    pub(crate) pending: BTreeMap<u64, Store>,
    /// Records that arrived after their window sealed.
    pub(crate) late: Store,
    /// Sequence number for late-lane flush segments.
    pub(crate) late_seq: u64,
    /// Compacted fold of segments evicted from the hot tier.
    pub(crate) base: Store,
    /// Most recent sealed segments, newest at the back.
    pub(crate) hot: VecDeque<Store>,
    /// Every segment ever sealed, in seal order.
    pub(crate) manifest: Vec<SegmentEntry>,
    /// The `SG` frames the last `offer`/`flush` sealed; see
    /// [`sealed_frames`](StreamPipeline::sealed_frames). Not state: a
    /// checkpoint does not carry them and a restore starts without any.
    pub(crate) sealed_frames: Vec<Vec<u8>>,
    pub(crate) counters: StreamCounters,
}

impl<'d> StreamPipeline<'d> {
    /// A fresh pipeline over a device directory.
    pub fn new(cfg: &StreamConfig, dir: &'d DeviceDirectory) -> Result<Self, StreamError> {
        cfg.validate()?;
        Ok(StreamPipeline {
            cfg: *cfg,
            dir,
            collector: Collector::new(&cfg.collector),
            cursor: 0,
            sealed_before: 0,
            pending: BTreeMap::new(),
            late: Store::new(&cfg.store),
            late_seq: 0,
            base: Store::new(&cfg.store),
            hot: VecDeque::new(),
            manifest: Vec::new(),
            sealed_frames: Vec::new(),
            counters: StreamCounters::default(),
        })
    }

    /// Offer one encoded batch. Accepted records route into windows; any
    /// window whose end the watermark has passed by the lateness bound is
    /// sealed into a segment. Returns the entries sealed by this call.
    pub fn offer(
        &mut self,
        bytes: &[u8],
        segs: &mut dyn SegmentStore,
    ) -> Result<Vec<SegmentEntry>, StreamError> {
        let mut router = WindowRouter {
            window_ms: self.cfg.window_ms,
            sealed_before: self.sealed_before,
            store_cfg: self.cfg.store,
            dir: self.dir,
            pending: &mut self.pending,
            late: &mut self.late,
            counters: &mut self.counters,
        };
        self.collector.ingest_with(bytes, &mut router);
        self.cursor += 1;
        self.counters.batches += 1;
        self.sealed_frames.clear();
        self.advance(segs)
    }

    /// Seal every window the watermark has passed, then flush the late
    /// lane if it hit its capacity.
    fn advance(&mut self, segs: &mut dyn SegmentStore) -> Result<Vec<SegmentEntry>, StreamError> {
        let wm = self.collector.watermark_ms();
        let bound = wm.saturating_sub(self.cfg.lateness_ms) / self.cfg.window_ms;
        let mut sealed = Vec::new();
        while self.sealed_before < bound {
            let w = self.sealed_before;
            self.sealed_before = w + 1;
            match self.pending.remove(&w) {
                Some(delta) => {
                    sealed.push(self.seal(SegmentKind::Window, w, wm, delta, segs)?);
                    self.counters.windows_sealed += 1;
                }
                None => self.counters.empty_windows += 1,
            }
        }
        if self.cfg.late_flush > 0 && self.late.inserted() >= self.cfg.late_flush {
            sealed.push(self.flush_late(segs)?);
        }
        Ok(sealed)
    }

    /// End of stream: seal all still-open windows (watermark regardless)
    /// and flush a non-empty late lane.
    pub fn flush(&mut self, segs: &mut dyn SegmentStore) -> Result<Vec<SegmentEntry>, StreamError> {
        let wm = self.collector.watermark_ms();
        self.sealed_frames.clear();
        let mut sealed = Vec::new();
        let open: Vec<u64> = self.pending.keys().copied().collect();
        for w in open {
            let delta = self.pending.remove(&w).expect("listed window is pending");
            sealed.push(self.seal(SegmentKind::Window, w, wm, delta, segs)?);
            self.counters.windows_sealed += 1;
            self.sealed_before = self.sealed_before.max(w + 1);
        }
        if self.late.inserted() > 0 {
            sealed.push(self.flush_late(segs)?);
        }
        Ok(sealed)
    }

    fn flush_late(&mut self, segs: &mut dyn SegmentStore) -> Result<SegmentEntry, StreamError> {
        let delta = std::mem::replace(&mut self.late, Store::new(&self.cfg.store));
        let wm = self.collector.watermark_ms();
        let seq = self.late_seq;
        self.late_seq += 1;
        let entry = self.seal(SegmentKind::Late, seq, wm, delta, segs)?;
        self.counters.late_segments += 1;
        Ok(entry)
    }

    /// Persist one delta as a segment, append it to the manifest, and slot
    /// it into the hot tier (folding the oldest into base when over depth).
    fn seal(
        &mut self,
        kind: SegmentKind,
        index: u64,
        watermark_ms: u64,
        mut delta: Store,
        segs: &mut dyn SegmentStore,
    ) -> Result<SegmentEntry, StreamError> {
        // Sealed windows are immutable from here on: flip the delta to the
        // columnar layout so both the persisted segment image and the hot
        // tier scan columnar. Pure layout change — digest, inserted count,
        // and every query answer are invariant (the store's differential
        // suite proves it), so the header cross-checks below still hold.
        delta.seal_columnar();
        let mut entry = SegmentEntry {
            kind,
            index,
            watermark_ms,
            records: delta.inserted(),
            digest: delta.digest(),
            bytes: 0,
        };
        let bytes = encode_segment(&entry, &delta);
        entry.bytes = bytes.len() as u64;
        segs.put(&entry.name(), &bytes)?;
        self.counters.segments_persisted += 1;
        self.manifest.push(entry);
        self.sealed_frames.push(bytes);
        self.tier_insert(delta);
        Ok(entry)
    }

    /// Push a sealed delta into the hot tier, folding overflow into the
    /// compacted base.
    pub(crate) fn tier_insert(&mut self, delta: Store) {
        self.hot.push_back(delta);
        while self.hot.len() > self.cfg.hot_windows.max(1) {
            let old = self.hot.pop_front().expect("hot tier is non-empty");
            self.base.merge(old);
            self.base.compact();
            self.counters.base_folds += 1;
        }
    }

    /// The merged queryable view: base + hot + pending + late, with the
    /// device population registered, columnar-sealed and ready to publish.
    /// Content-identical to the batch store over the same accepted
    /// records, at any point in the stream.
    pub fn store(&self) -> Store {
        let mut parts = vec![&self.base];
        parts.extend(&self.hot);
        parts.extend(self.pending.values());
        parts.push(&self.late);
        let mut s = Store::sealed_union(&self.cfg.store, &parts);
        s.register_population(self.dir);
        s
    }

    /// Canonical digest of the merged view (layout- and tier-invariant).
    pub fn digest(&self) -> u64 {
        self.store().digest()
    }

    /// Incremental Tables 1/2 from the merged view — byte-identical to the
    /// batch `store_tables` output over the same accepted records.
    pub fn tables(&self, k: usize) -> Result<(Table1, Table2), QueryError> {
        let s = self.store();
        Ok((table1_from_store(&s)?, table2_from_store(&s, k)?))
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The device directory the pipeline resolves dimensions from.
    pub fn directory(&self) -> &'d DeviceDirectory {
        self.dir
    }

    /// Batches consumed so far — the replay position after a restore.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// First window index not yet sealed.
    pub fn sealed_before(&self) -> u64 {
        self.sealed_before
    }

    /// Open (unsealed) windows currently holding records.
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Records currently waiting in the late lane.
    pub fn late_pending(&self) -> u64 {
        self.late.inserted()
    }

    /// The collector's event-time watermark, ms.
    pub fn watermark_ms(&self) -> u64 {
        self.collector.watermark_ms()
    }

    /// Content digest of the embedded collector state.
    pub fn collector_digest(&self) -> u64 {
        self.collector.digest()
    }

    /// Every segment sealed so far, in seal order.
    pub fn manifest(&self) -> &[SegmentEntry] {
        &self.manifest
    }

    /// The manifest entries sealed at position `from` and later — the
    /// replication export hook: a shard leader tracks how many entries it
    /// has shipped and fetches the suffix to forward (or to answer a
    /// follower's catch-up request). `from` past the end is an empty
    /// suffix, not an error.
    pub fn manifest_suffix(&self, from: usize) -> &[SegmentEntry] {
        self.manifest.get(from..).unwrap_or(&[])
    }

    /// The `SG` frames of the entries the last
    /// [`offer`](StreamPipeline::offer) or [`flush`](StreamPipeline::flush)
    /// returned, in that order: the bytes `seal` encoded and `put`, kept so
    /// a shipper need not read back, re-verify and re-decode through
    /// [`export_segment`](StreamPipeline::export_segment) what was built a
    /// moment ago. Empty on a new or restored pipeline, and after a call
    /// that sealed nothing.
    pub fn sealed_frames(&self) -> &[Vec<u8>] {
        &self.sealed_frames
    }

    /// Fetch one sealed segment's frame bytes from the backend for
    /// shipping, cross-checked against the manifest entry (kind, index,
    /// watermark, records, digest) so a corrupted backend is a typed
    /// error at export time, not a diverging follower later.
    pub fn export_segment(
        &self,
        entry: &SegmentEntry,
        segs: &dyn SegmentStore,
    ) -> Result<Vec<u8>, StreamError> {
        Ok(fetch_segment(segs, entry, &self.cfg.store)?.0)
    }

    /// Stream bookkeeping counters.
    pub fn counters(&self) -> &StreamCounters {
        &self.counters
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::segment::{MemSegments, SegmentKind};
    use cellrel_ingest::encode_batch;
    use cellrel_store::StoreSink;
    use cellrel_types::{
        Apn, DeviceId, FailureKind, InSituInfo, Isp, Rat, SignalLevel, SimDuration, SimTime,
    };

    /// Small geometry: 1 s buckets, 4-bucket rollups, 4 s windows — every
    /// window edge is also a rollup-granularity edge.
    pub(crate) fn small_cfg() -> StreamConfig {
        StreamConfig {
            window_ms: 4_000,
            lateness_ms: 0,
            hot_windows: 2,
            late_flush: 0,
            collector: CollectorConfig {
                virtual_shards: 8,
                ..CollectorConfig::default()
            },
            store: StoreConfig {
                bucket_ms: 1_000,
                rollup_buckets: 4,
                partitions: 4,
                auto_compact_every: 0,
            },
        }
    }

    fn evt(device: u32, ms: u64) -> FailureEvent {
        FailureEvent {
            device: DeviceId(device),
            kind: FailureKind::DataStall,
            start: SimTime::from_millis(ms),
            duration: SimDuration::from_millis(700),
            cause: None,
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L3,
                apn: Apn::Internet,
                bs: None,
                isp: Isp::A,
            },
        }
    }

    pub(crate) fn batch(device: u32, seq: u64, times_ms: &[u64]) -> Vec<u8> {
        let records: Vec<FailureEvent> = times_ms.iter().map(|&t| evt(device, t)).collect();
        encode_batch(DeviceId(device), seq, &records)
    }

    #[test]
    fn misaligned_window_is_a_config_error() {
        let dir = DeviceDirectory::default();
        for bad_window in [0u64, 1_500, 3_999] {
            let cfg = StreamConfig {
                window_ms: bad_window,
                ..small_cfg()
            };
            assert!(
                matches!(StreamPipeline::new(&cfg, &dir), Err(StreamError::Config(_))),
                "window_ms={bad_window} must be rejected"
            );
        }
    }

    /// Boundary alignment: an event timestamped **exactly** on a window
    /// edge belongs to the window starting there — sealing at a watermark
    /// on the edge neither drops it nor counts it in both windows.
    #[test]
    fn window_edge_event_lands_in_exactly_one_window() {
        let dir = DeviceDirectory::default();
        let mut segs = MemSegments::new();
        let mut p = StreamPipeline::new(&small_cfg(), &dir).expect("valid config");

        assert_eq!(p.offer(&batch(0, 0, &[1_000]), &mut segs).unwrap(), vec![]);
        // t=4000 sits exactly on the window-0/window-1 edge (which is also
        // a rollup edge): the watermark seals window 0 without it.
        let sealed = p.offer(&batch(0, 1, &[4_000]), &mut segs).unwrap();
        assert_eq!(sealed.len(), 1);
        assert_eq!((sealed[0].index, sealed[0].records), (0, 1));
        assert_eq!(p.pending_windows(), 1, "edge event is pending in window 1");

        // Watermark past the next edge: window 1 seals with only the edge
        // event — once, not zero times, not twice.
        let sealed = p.offer(&batch(1, 0, &[8_000]), &mut segs).unwrap();
        assert_eq!(sealed.len(), 1);
        assert_eq!((sealed[0].index, sealed[0].records), (1, 1));

        p.flush(&mut segs).unwrap();
        assert_eq!(p.counters().records, 3);
        assert_eq!(p.store().inserted(), 3, "every record exactly once");
    }

    /// The merged view equals the batch store over the same batches, with
    /// seals landing exactly on rollup-granularity edges throughout.
    #[test]
    fn merged_view_matches_batch_store_across_edge_seals() {
        let cfg = small_cfg();
        let dir = DeviceDirectory::default();
        let batches: Vec<Vec<u8>> = (0..12u64)
            .map(|i| {
                let dev = (i % 3) as u32;
                // Timestamps hit window edges (multiples of 4000) half the
                // time, interior offsets otherwise.
                let t0 = i * 2_000;
                batch(dev, i / 3, &[t0, t0 + 2_000])
            })
            .collect();

        let mut segs = MemSegments::new();
        let mut p = StreamPipeline::new(&cfg, &dir).expect("valid config");
        for b in &batches {
            p.offer(b, &mut segs).unwrap();
        }
        p.flush(&mut segs).unwrap();

        let mut collector = Collector::new(&cfg.collector);
        let mut sink = StoreSink::new(&cfg.store, &dir);
        for b in &batches {
            collector.ingest_with(b, &mut sink);
        }
        let batch_store = sink.into_store();

        assert_eq!(p.digest(), batch_store.digest());
        assert_eq!(p.store().inserted(), batch_store.inserted());
        assert_eq!(p.collector_digest(), collector.digest());
        assert!(p.counters().windows_sealed > 0);
    }

    /// Records arriving for an already-sealed window route to the late
    /// lane and flush as a `Late` segment — never dropped.
    #[test]
    fn late_records_flow_through_the_late_lane() {
        let dir = DeviceDirectory::default();
        let mut segs = MemSegments::new();
        let mut p = StreamPipeline::new(&small_cfg(), &dir).expect("valid config");

        p.offer(&batch(0, 0, &[5_000]), &mut segs).unwrap();
        assert_eq!(p.sealed_before(), 1);
        assert_eq!(p.counters().empty_windows, 1, "window 0 sealed empty");

        // A different device reports a record from the sealed window 0.
        p.offer(&batch(1, 0, &[100]), &mut segs).unwrap();
        assert_eq!(p.counters().late_records, 1);
        assert_eq!(p.late_pending(), 1);

        p.flush(&mut segs).unwrap();
        let kinds: Vec<SegmentKind> = p.manifest().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![SegmentKind::Window, SegmentKind::Late]);
        assert_eq!(p.store().inserted(), 2, "late record preserved");
        assert_eq!(p.counters().late_segments, 1);
    }

    /// Checkpoint → restore mid-stream, then continue both pipelines:
    /// every observable ends identical.
    #[test]
    fn restore_mid_stream_is_digest_transparent() {
        let cfg = StreamConfig {
            hot_windows: 1, // force base-tier folds
            ..small_cfg()
        };
        let dir = DeviceDirectory::default();
        let batches: Vec<Vec<u8>> = (0..16u64)
            .map(|i| batch((i % 4) as u32, i / 4, &[i * 1_500, i * 1_500 + 300]))
            .collect();

        let mut segs = MemSegments::new();
        let mut live = StreamPipeline::new(&cfg, &dir).expect("valid config");
        for b in &batches[..9] {
            live.offer(b, &mut segs).unwrap();
        }
        let ckpt = live.checkpoint();

        let mut restored = StreamPipeline::restore(&ckpt, &dir, &segs).expect("restores");
        assert_eq!(restored.cursor(), 9);
        assert_eq!(restored.counters().restores, 1);
        assert_eq!(restored.digest(), live.digest());

        let mut segs2 = segs.clone();
        for b in &batches[9..] {
            live.offer(b, &mut segs).unwrap();
            restored.offer(b, &mut segs2).unwrap();
        }
        live.flush(&mut segs).unwrap();
        restored.flush(&mut segs2).unwrap();

        assert_eq!(restored.digest(), live.digest());
        assert_eq!(restored.collector_digest(), live.collector_digest());
        assert_eq!(restored.manifest(), live.manifest());
        assert_eq!(segs, segs2, "persisted segment bytes identical");
        // The fence for whoever folds `load`'s replay once instead of per
        // segment: a restored base must keep the live base's layout and
        // fold counters, not only its content.
        assert_eq!(
            cellrel_store::save_store(&restored.store()),
            cellrel_store::save_store(&live.store()),
            "served view image identical"
        );
        let mut rc = *restored.counters();
        rc.restores = 0;
        assert_eq!(rc, *live.counters());
        assert!(live.counters().base_folds > 0, "base tier was exercised");
    }

    /// Regression: `restore` replays every manifest entry into the tiers,
    /// so a CRC-valid checkpoint whose manifest names a segment twice —
    /// or names one the replay position says was never sealed — used to
    /// restore into a view holding that segment's records twice
    /// (`store().inserted()` 3 against `counters().records` 2).
    #[test]
    fn restore_rejects_a_manifest_that_is_not_the_seal_history() {
        use cellrel_ingest::frame::SP;

        let cfg = StreamConfig {
            late_flush: 1,
            ..small_cfg()
        };
        let dir = DeviceDirectory::default();
        let mut segs = MemSegments::new();
        let mut p = StreamPipeline::new(&cfg, &dir).expect("valid config");
        p.offer(&batch(0, 0, &[1_000]), &mut segs).unwrap();
        p.offer(&batch(0, 1, &[5_000]), &mut segs).unwrap(); // seals window 0
        p.offer(&batch(1, 0, &[100]), &mut segs).unwrap(); // late → flushed
        let kinds: Vec<SegmentKind> = p.manifest().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![SegmentKind::Window, SegmentKind::Late]);
        assert!(StreamPipeline::restore(&p.checkpoint(), &dir, &segs).is_ok());

        let mut forge = |edit: &dyn Fn(&mut StreamPipeline<'_>)| {
            let (manifest, counters) = (p.manifest.clone(), p.counters);
            edit(&mut p);
            let result = StreamPipeline::restore(&p.checkpoint(), &dir, &segs);
            p.manifest = manifest;
            p.counters = counters;
            result.map(|r| r.store().inserted()).unwrap_err()
        };
        let invalid = |field| StreamError::Frame(SP.invalid(field));

        let twice = |p: &mut StreamPipeline<'_>| p.manifest.push(p.manifest[0]);
        assert_eq!(forge(&twice), invalid("manifest length"));
        assert_eq!(
            forge(&|p| {
                twice(p);
                p.counters.segments_persisted += 1;
            }),
            invalid("manifest entry repeated")
        );
        // Window 1 and late flush 1 have not been sealed yet; their
        // entries could only name some other pipeline's segments.
        assert_eq!(
            forge(&|p| p.manifest[0].index = p.sealed_before),
            invalid("manifest entry index")
        );
        assert_eq!(
            forge(&|p| p.manifest[1].index = p.late_seq),
            invalid("manifest entry index")
        );
    }
}
