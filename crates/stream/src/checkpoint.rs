//! Versioned pipeline checkpoint: the whole stream state as one frame.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! "SP" version(u8)
//! window_ms lateness_ms hot_windows late_flush        stream config
//! virtual_shards collector_lateness_ms                collector config
//! bucket_ms rollup_buckets partitions auto_compact    store config
//! cursor sealed_before late_seq                       replay position
//! counters x9                                         bookkeeping
//! len collector_checkpoint                            embedded "CK" frame
//! manifest                                            see segment module
//! n (window_index len store_image)*                   pending windows
//! len store_image                                     late lane
//! crc32 (u32 LE)                                      over all prior bytes
//! ```
//!
//! The checkpoint carries everything except sealed segment *contents* —
//! those reload from the [`SegmentStore`] backend and
//! are cross-checked against the manifest. Restore therefore has two
//! stages: [`StreamPipeline::decode`] checks everything the frame says
//! against itself and yields a [`CheckpointImage`];
//! [`StreamPipeline::load`] fetches and verifies the segments the image
//! names, keeps the newest as the hot tier and folds the rest into the
//! base in one pass. A reader that has already
//! verified those segments itself (a cluster follower) stops after the
//! first stage, and one that decodes every checkpoint of a stream in turn
//! hands the last image to [`StreamPipeline::decode_onto`], which parses
//! only the collector sections that changed since. Both are total:
//! truncated, bit-flipped, or garbage bytes yield a [`StreamError::Frame`].
//!
//! The frame embeds frames — the `CK` checkpoint, a `CS` image per pending
//! window and one for the late lane — each with its own trailer. A decode
//! reads the bytes once: [`StreamPipeline::decode`] marks them
//! ([`cellrel_ingest::frame::Marks`]) and every embedded trailer is checked
//! from the marks; a caller that marked a frame carrying this one hands it
//! to `decode_onto` still marked.

use crate::pipeline::{StreamConfig, StreamCounters, StreamPipeline};
use crate::segment::{
    decode_manifest, encode_manifest, fetch_segment, SegmentEntry, SegmentKind, SegmentStore,
};
use crate::StreamError;
use cellrel_ingest::frame::{seal_around, write_varint, Frame, Marks, SP};
use cellrel_ingest::{restore_checkpoint_onto, save_checkpoint, Collector, CollectorConfig};
use cellrel_store::{read_store, save_store, DeviceDirectory, Store, StoreConfig};
use cellrel_types::SimDuration;
use std::collections::{BTreeMap, BTreeSet};

/// Current pipeline checkpoint schema version.
pub(crate) const CKPT_STREAM_VERSION: u8 = 1;

impl<'d> StreamPipeline<'d> {
    /// Serialize the full pipeline state. Pure: checkpointing never
    /// mutates the pipeline, so any cadence (every seal, every batch) is
    /// behaviour-neutral.
    pub fn checkpoint(&self) -> Vec<u8> {
        // The embedded frames first: they are nearly all of the bytes, so
        // the buffer is sized once from them instead of doubling up to it.
        let ck = save_checkpoint(&self.collector);
        let pending: Vec<(u64, Vec<u8>)> = self
            .pending
            .iter()
            .map(|(&w, delta)| (w, save_store(delta)))
            .collect();
        let late = save_store(&self.late);
        let blobs = ck.len() + late.len() + pending.iter().map(|(_, i)| i.len()).sum::<usize>();
        // The rest is varints of at most ten bytes — 22 head fields, six per
        // manifest entry, two per pending window, four counts and lengths —
        // inside a seven-byte envelope.
        let varints = 26 + 6 * self.manifest.len() + 2 * pending.len();
        let room = blobs + 10 * varints + 7;
        let mut out = Vec::with_capacity(room);
        // Where each embedded frame lands: they were sealed a moment ago, so
        // the `SP` trailer sums around them instead of over them again.
        let mut sealed = Vec::with_capacity(pending.len() + 2);
        let mut embed = |out: &mut Vec<u8>, frame: &[u8]| {
            write_varint(out, frame.len() as u64);
            sealed.push(out.len()..out.len() + frame.len());
            out.extend_from_slice(frame);
        };
        let start = SP.begin(&mut out, CKPT_STREAM_VERSION);
        write_varint(&mut out, self.cfg.window_ms);
        write_varint(&mut out, self.cfg.lateness_ms);
        write_varint(&mut out, self.cfg.hot_windows as u64);
        write_varint(&mut out, self.cfg.late_flush);
        write_varint(&mut out, self.cfg.collector.virtual_shards as u64);
        write_varint(&mut out, self.cfg.collector.lateness.as_millis());
        write_varint(&mut out, self.cfg.store.bucket_ms);
        write_varint(&mut out, u64::from(self.cfg.store.rollup_buckets));
        write_varint(&mut out, self.cfg.store.partitions as u64);
        write_varint(&mut out, self.cfg.store.auto_compact_every);
        write_varint(&mut out, self.cursor);
        write_varint(&mut out, self.sealed_before);
        write_varint(&mut out, self.late_seq);
        for c in counters_fields(&self.counters) {
            write_varint(&mut out, c);
        }
        embed(&mut out, &ck);
        encode_manifest(&self.manifest, &mut out);
        write_varint(&mut out, pending.len() as u64);
        for (w, img) in &pending {
            write_varint(&mut out, *w);
            embed(&mut out, img);
        }
        embed(&mut out, &late);
        seal_around(&mut out, start, &sealed);
        debug_assert!(out.len() <= room, "the frame outgrew its estimate");
        out
    }

    /// Rebuild a pipeline from a checkpoint and its segment backend:
    /// [`decode`](StreamPipeline::decode), then
    /// [`load`](StreamPipeline::load).
    pub fn restore(
        bytes: &[u8],
        dir: &'d DeviceDirectory,
        segs: &dyn SegmentStore,
    ) -> Result<Self, StreamError> {
        Self::load(Self::decode(bytes)?, dir, segs)
    }

    /// Stage one of a restore: parse a checkpoint frame and check it
    /// against itself — envelope, stream config, the embedded collector
    /// checkpoint, the manifest against the counters and replay position,
    /// the pending windows and late lane against the store config — without
    /// touching a segment.
    pub fn decode(bytes: &[u8]) -> Result<CheckpointImage, StreamError> {
        Self::decode_onto(Marks::new(bytes).frame(), None)
    }

    /// [`decode`](StreamPipeline::decode) of a frame that is plain bytes or
    /// marked, reusing `basis` — the image the previous checkpoint of the
    /// same stream decoded to — for the collector shards whose `CK`
    /// sections did not change since ([`restore_checkpoint_onto`]). The
    /// image and every error are those of `decode(frame.bytes())`; the
    /// basis is consumed either way.
    pub fn decode_onto(
        frame: Frame<'_>,
        basis: Option<CheckpointImage>,
    ) -> Result<CheckpointImage, StreamError> {
        let mut r = SP.open(frame)?;
        let window_ms = r.varint()?;
        let lateness_ms = r.varint()?;
        let hot_windows = r.narrow("hot_windows")?;
        let late_flush = r.varint()?;
        let virtual_shards = r.narrow("virtual_shards")?;
        let collector_lateness = r.varint()?;
        let store = StoreConfig {
            bucket_ms: r.varint()?,
            rollup_buckets: r.narrow("rollup_buckets")?,
            partitions: r.narrow("partitions")?,
            auto_compact_every: r.varint()?,
        };
        let cfg = StreamConfig {
            window_ms,
            lateness_ms,
            hot_windows,
            late_flush,
            collector: CollectorConfig {
                virtual_shards,
                lateness: SimDuration::from_millis(collector_lateness),
            },
            store,
        };
        cfg.validate()?;
        let cursor = r.varint()?;
        let sealed_before = r.varint()?;
        let late_seq = r.varint()?;
        let mut cfields = [0u64; 9];
        for c in cfields.iter_mut() {
            *c = r.varint()?;
        }
        let counters = counters_from_fields(cfields);

        let basis = basis.map(|image| image.collector);
        let collector = restore_checkpoint_onto(r.frame("collector length")?, basis)?;
        let manifest = decode_manifest(&mut r)?;
        // `load` replays the manifest entry by entry, so it must be the
        // seal history the counters and replay position describe: one
        // entry per persisted segment, each sealed once, none from the
        // future. Otherwise a segment would merge into the view twice.
        if manifest.len() as u64 != counters.segments_persisted {
            return Err(r.invalid("manifest length").into());
        }
        let mut seen = BTreeSet::new();
        for e in &manifest {
            let bound = match e.kind {
                SegmentKind::Window => sealed_before,
                SegmentKind::Late => late_seq,
            };
            if e.index >= bound {
                return Err(r.invalid("manifest entry index").into());
            }
            if !seen.insert((e.kind, e.index)) {
                return Err(r.invalid("manifest entry repeated").into());
            }
        }

        // Each pending window costs at least an index and an image length.
        let npending = r.count("pending count", 2)?;
        let mut pending = BTreeMap::new();
        let mut prev: Option<u64> = None;
        for _ in 0..npending {
            let w = r.varint()?;
            if w < sealed_before || prev.is_some_and(|p| w <= p) {
                return Err(r.invalid("pending window order").into());
            }
            prev = Some(w);
            let delta = read_store(r.frame("pending image length")?)?;
            if *delta.config() != cfg.store {
                return Err(r.invalid("pending window store config").into());
            }
            pending.insert(w, delta);
        }
        let late = read_store(r.frame("late image length")?)?;
        if *late.config() != cfg.store {
            return Err(r.invalid("late lane store config").into());
        }
        r.finish()?;
        Ok(CheckpointImage {
            cfg,
            collector,
            cursor,
            sealed_before,
            late_seq,
            counters,
            manifest,
            pending,
            late,
        })
    }

    /// Stage two of a restore: reload every segment the image's manifest
    /// names and verify it against its entry (missing or tampered segments
    /// are typed errors), then rebuild the tiers: the newest
    /// `hot_windows` segments are the hot tier, and every older one folds
    /// into the base in one [`Store::fold_in`] — the same base, layout and
    /// counters, that folding them one by one on eviction built. So the
    /// merged view, and the behaviour of every subsequent
    /// [`offer`](StreamPipeline::offer), is exactly what the uninterrupted
    /// pipeline would have produced.
    pub fn load(
        image: CheckpointImage,
        dir: &'d DeviceDirectory,
        segs: &dyn SegmentStore,
    ) -> Result<Self, StreamError> {
        let cfg = image.cfg;
        let mut p = StreamPipeline {
            cfg,
            dir,
            collector: image.collector,
            cursor: image.cursor,
            sealed_before: image.sealed_before,
            pending: image.pending,
            late: image.late,
            late_seq: image.late_seq,
            base: Store::new(&cfg.store),
            hot: Default::default(),
            manifest: Vec::with_capacity(image.manifest.len()),
            sealed_frames: Vec::new(),
            counters: StreamCounters::default(),
        };
        let depth = cfg.hot_windows.max(1);
        let evicted = image.manifest.len().saturating_sub(depth);
        let mut folded = Vec::with_capacity(evicted);
        for entry in image.manifest {
            let (_, delta) = fetch_segment(segs, &entry, &cfg.store)?;
            p.manifest.push(entry);
            if folded.len() < evicted {
                folded.push(delta);
            } else {
                p.hot.push_back(delta);
            }
        }
        // One fold of every evicted segment leaves the base, counters and
        // all, that folding them one at a time on eviction left; the
        // image's stream counters already hold those folds.
        p.base.fold_in(folded);
        p.counters = image.counters;
        p.counters.restores += 1;
        Ok(p)
    }
}

/// What one `SP` frame says, parsed and checked against itself by
/// [`StreamPipeline::decode`]: everything a pipeline needs except the
/// contents of the segments its manifest names.
#[derive(Debug)]
pub struct CheckpointImage {
    cfg: StreamConfig,
    collector: Collector,
    cursor: u64,
    sealed_before: u64,
    late_seq: u64,
    counters: StreamCounters,
    manifest: Vec<SegmentEntry>,
    pending: BTreeMap<u64, Store>,
    late: Store,
}

impl CheckpointImage {
    /// The stream configuration the checkpointed pipeline ran under.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Every segment the checkpointed pipeline had sealed, in seal order.
    pub fn manifest(&self) -> &[SegmentEntry] {
        &self.manifest
    }
}

fn counters_fields(c: &StreamCounters) -> [u64; 9] {
    [
        c.batches,
        c.records,
        c.late_records,
        c.windows_sealed,
        c.empty_windows,
        c.late_segments,
        c.segments_persisted,
        c.base_folds,
        c.restores,
    ]
}

fn counters_from_fields(f: [u64; 9]) -> StreamCounters {
    StreamCounters {
        batches: f[0],
        records: f[1],
        late_records: f[2],
        windows_sealed: f[3],
        empty_windows: f[4],
        late_segments: f[5],
        segments_persisted: f[6],
        base_folds: f[7],
        restores: f[8],
    }
}
