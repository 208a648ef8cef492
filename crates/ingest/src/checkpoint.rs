//! Checkpoint / restore of collector state.
//!
//! A 243-day campaign's ingestion should survive a backend restart without
//! replaying months of uploads, so the full collector state — per-shard
//! aggregates, sketches (in sparse form), dedup maps, and watermarks —
//! serializes to a versioned byte format framed exactly like the wire
//! codec: magic + version up front, CRC-32 at the back, varints throughout.
//! Restoring a checkpoint and continuing a stream produces the same digest
//! as ingesting the whole stream in one run (the pipeline test asserts it).
//!
//! ```text
//! ckpt  := "CK" version:u8 virtual_shards:varint lateness_ms:varint
//!          unroutable:varint shard* crc32:u32le
//! shard := counters:varint^9 watermark:varint
//!          nseq:varint (device:varint seq:varint)*
//!          agg
//! agg   := records:varint by_kind:varint^5 by_isp:varint^3 by_rat:varint^4
//!          duration_ms_total:varint under_30s:varint max_duration_ms:varint
//!          sketch sketch^5
//! sketch:= count:varint min:varint max:varint pairs
//! ```
//!
//! `pairs` is the one run sequence every family shares
//! ([`crate::frame::write_pairs`]). Sketches serialize sparsely — only
//! non-empty buckets, with delta-coded indices — and are held sparsely
//! once restored, so an idle shard costs a
//! handful of bytes on the wire and in memory. The first sketch of an `agg`
//! is the all-kinds one: the collector never holds it — it is written as
//! the bucket sum of the per-kind sketches that follow, built in buffers a
//! checkpoint reuses from shard to shard — and restore refuses a frame
//! where it is anything but that sum. A shard's
//! `(device, seq)` pairs come in strictly ascending device order, as the
//! map they are written from holds them; restore refuses any other, so one
//! collector state has one frame. Restore is total: corrupt or truncated checkpoints
//! yield a [`FrameError`], never a panic or a half-restored collector.
//!
//! Both directions cost what changed. A shard keeps its section (and the
//! section's CRC) from the last save or restore until it next takes a
//! batch, so [`save_checkpoint`] encodes and sums only the shards that
//! did, and [`restore_checkpoint_onto`] parses only the sections that
//! differ from the ones its basis — the last image restored — was read from.

use crate::collector::{
    Collector, IngestAggregate, IngestCounters, Section, SectionCache, ShardState,
};
use crate::frame::{
    crc32, crc32_combine_op, read_pairs, write_pairs, write_varint, Frame, FrameError, Reader, CK,
};
use cellrel_sim::sketch::{check_run, sum_runs_into, SparseSketch};
use std::collections::BTreeMap;

/// Current checkpoint format version.
pub(crate) const CKPT_VERSION: u8 = 1;

/// One `sketch` of the grammar above: its header, then the pairs.
fn write_counted(
    out: &mut Vec<u8>,
    (count, min, max): (u64, u64, u64),
    nnz: usize,
    pairs: impl Iterator<Item = (u32, u64)>,
) {
    write_varint(out, count);
    write_varint(out, min);
    write_varint(out, max);
    write_pairs(out, nnz, pairs);
}

/// The `(count, min, max)` a sketch's wire header carries: zero extremes
/// beside no samples.
fn header(s: &SparseSketch) -> (u64, u64, u64) {
    (s.count(), s.min().unwrap_or(0), s.max().unwrap_or(0))
}

fn read_counted(r: &mut Reader<'_>) -> Result<SparseSketch, FrameError> {
    let count = r.varint()?;
    let (min, max) = (r.varint()?, r.varint()?);
    let mut run = Vec::new();
    read_pairs(r, (min, max), &mut run)?;
    let s = SparseSketch::from_run(min, max, run).ok_or(r.invalid("sketch buckets"))?;
    if s.count() != count {
        return Err(r.invalid("sketch count"));
    }
    Ok(s)
}

/// The wire header of an aggregate's all-kinds sketch, which is never
/// built: the per-kind counts summed, the outermost of their extremes.
/// `None` when the counts do not sum to a `u64` (only a forged frame's).
fn all_kinds_header(kinds: &[SparseSketch; 5]) -> Option<(u64, u64, u64)> {
    let count = kinds
        .iter()
        .try_fold(0u64, |n, s| n.checked_add(s.count()))?;
    let min = kinds.iter().filter_map(SparseSketch::min).min();
    let max = kinds.iter().filter_map(SparseSketch::max).max();
    Some((count, min.unwrap_or(0), max.unwrap_or(0)))
}

/// The buffers an aggregate's all-kinds sketch passes through, kept from
/// one shard section to the next: its buckets as the per-kind runs sum to,
/// the spare that sum alternates with, and on restore the pairs the frame
/// spells.
#[derive(Default)]
struct AllKinds {
    buckets: Vec<(u32, u64)>,
    spare: Vec<(u32, u64)>,
    read: Vec<(u32, u64)>,
}

impl AllKinds {
    /// Sum the per-kind runs into `buckets`; their counts must sum to a
    /// `u64` ([`all_kinds_header`] says whether they do).
    fn sum(&mut self, kinds: &[SparseSketch; 5]) {
        let runs: [_; 5] = std::array::from_fn(|k| kinds[k].as_run().2);
        sum_runs_into(&runs, &mut self.buckets, &mut self.spare);
    }

    /// [`read_counted`] into `read` instead of a sketch of its own: the
    /// header, with the pairs checked as sketch content that counts what
    /// it says.
    fn read(&mut self, r: &mut Reader<'_>) -> Result<(u64, u64, u64), FrameError> {
        let count = r.varint()?;
        let (min, max) = (r.varint()?, r.varint()?);
        self.read.clear();
        read_pairs(r, (min, max), &mut self.read)?;
        match check_run(min, max, &self.read) {
            None => Err(r.invalid("sketch buckets")),
            Some(n) if n != count => Err(r.invalid("sketch count")),
            Some(_) => Ok((count, min, max)),
        }
    }
}

fn write_agg(out: &mut Vec<u8>, a: &IngestAggregate, all: &mut AllKinds) {
    write_varint(out, a.records);
    for c in a.by_kind.iter().chain(&a.by_isp).chain(&a.by_rat) {
        write_varint(out, *c);
    }
    write_varint(out, a.duration_ms_total);
    write_varint(out, a.under_30s);
    write_varint(out, a.max_duration_ms);
    let counted = all_kinds_header(&a.sketch_by_kind).expect("a collector counts in u64");
    all.sum(&a.sketch_by_kind);
    write_counted(out, counted, all.buckets.len(), all.buckets.iter().copied());
    for s in &a.sketch_by_kind {
        write_counted(out, header(s), s.nnz(), s.as_run().2.iter().copied());
    }
}

fn read_agg(r: &mut Reader<'_>, all: &mut AllKinds) -> Result<IngestAggregate, FrameError> {
    let mut a = IngestAggregate {
        records: r.varint()?,
        ..IngestAggregate::default()
    };
    for c in a
        .by_kind
        .iter_mut()
        .chain(&mut a.by_isp)
        .chain(&mut a.by_rat)
    {
        *c = r.varint()?;
    }
    a.duration_ms_total = r.varint()?;
    a.under_30s = r.varint()?;
    a.max_duration_ms = r.varint()?;
    let spelled = all.read(r)?;
    for s in &mut a.sketch_by_kind {
        *s = read_counted(r)?;
    }
    // The all-kinds sketch is the bucket sum of the five. The header goes
    // first: once the counts are known to sum to a `u64`, no bucket of the
    // sum can overflow.
    if all_kinds_header(&a.sketch_by_kind) != Some(spelled) {
        return Err(r.invalid("all-kinds sketch"));
    }
    all.sum(&a.sketch_by_kind);
    if all.buckets != all.read {
        return Err(r.invalid("all-kinds sketch"));
    }
    Ok(a)
}

/// Encode one `shard` section of the grammar above.
fn encode_shard(s: &ShardState, all: &mut AllKinds) -> Vec<u8> {
    #[cfg(test)]
    SECTIONS_ENCODED.with(|n| n.set(n.get() + 1));
    let mut out = Vec::with_capacity(64);
    let k = &s.counters;
    for v in [
        k.batches,
        k.bytes,
        k.records,
        k.decode_errors,
        k.duplicate_batches,
        k.duplicate_records,
        k.filtered_noise,
        k.late_records,
        k.out_of_order_batches,
    ] {
        write_varint(&mut out, v);
    }
    write_varint(&mut out, s.watermark_ms);
    write_varint(&mut out, s.last_seq.len() as u64);
    for (&dev, &seq) in &s.last_seq {
        write_varint(&mut out, u64::from(dev));
        write_varint(&mut out, seq);
    }
    write_agg(&mut out, &s.agg, all);
    out
}

#[cfg(test)]
thread_local! {
    /// Shard sections encoded by this thread (cache misses).
    static SECTIONS_ENCODED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Shard sections parsed by this thread (not skipped against a basis).
    static SECTIONS_PARSED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Serialize the collector's full state: the header, then every shard's
/// section. A section is cached beside its shard, with its CRC-32, until
/// the shard next takes a batch, so a checkpoint after *k* batches encodes
/// and sums at most *k* sections: the rest are copied and their CRCs
/// combined into the frame's (`crate::frame::crc32_combine`). The bytes
/// are the same either way.
pub fn save_checkpoint(c: &Collector) -> Vec<u8> {
    let mut all = AllKinds::default();
    let sections: Vec<&Section> = c
        .shards
        .iter()
        .map(|s| s.section.get_or_encode(|| encode_shard(s, &mut all)))
        .collect();
    let body: usize = sections.iter().map(|s| s.bytes.len()).sum();
    // Magic and version, three varints, the sections, the CRC.
    let mut out = Vec::with_capacity(3 + 30 + body + 4);
    let start = CK.begin(&mut out, CKPT_VERSION);
    write_varint(&mut out, c.virtual_shards as u64);
    write_varint(&mut out, c.lateness_ms);
    write_varint(&mut out, c.unroutable);
    let mut crc = crc32(&out[start..]);
    for section in sections {
        out.extend_from_slice(&section.bytes);
        let (own, op) = section.sum();
        crc = crc32_combine_op(crc, own, op);
    }
    debug_assert_eq!(crc, crc32(&out[start..]), "a cached section CRC is stale");
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Rebuild a collector from checkpoint bytes. Total: malformed input yields
/// a [`FrameError`].
pub fn restore_checkpoint(bytes: &[u8]) -> Result<Collector, FrameError> {
    restore_checkpoint_onto(bytes, None)
}

/// [`restore_checkpoint`], reusing what `basis` — typically the collector
/// the previous checkpoint of the same stream restored to — has already
/// parsed. Where a basis shard's cached section is a prefix of the unread
/// bytes, that shard moves across and the reader steps past its section;
/// every other section is parsed. A basis of another shard count is
/// ignored. The result, its cached sections and every error are those of
/// `restore_checkpoint(bytes)`.
///
/// Skipping is exact because a section parse reads nothing but its own
/// bytes: the shard a parse of these bytes would build is the basis shard,
/// which was read from (or encodes to) the same bytes. The one input from
/// outside a section is what [`Reader::count`] measures a count against —
/// the bytes that remain in the frame — and every count bound a parse of the
/// section passed is met by items inside the section itself, so it holds
/// at any position the bytes can sit. The envelope, CRC included, is still
/// checked over the whole frame first — from the marks, when the frame is
/// a marked one embedded in a checkpoint of the stream pipeline.
pub fn restore_checkpoint_onto<'a>(
    frame: impl Into<Frame<'a>>,
    basis: Option<Collector>,
) -> Result<Collector, FrameError> {
    let mut r = CK.open(frame)?;
    // Each shard costs ≥ 11 bytes on the wire (9 counters, watermark,
    // nseq), so the claim is bounded before `shards` is sized from it.
    let virtual_shards = r.count("virtual_shards", 11)?;
    if virtual_shards == 0 || virtual_shards > 1 << 20 {
        return Err(r.invalid("virtual_shards"));
    }
    let lateness_ms = r.varint()?;
    let unroutable = r.varint()?;
    let mut basis = basis
        .filter(|b| b.virtual_shards == virtual_shards)
        .map(|b| b.shards.into_iter());
    let mut shards = Vec::with_capacity(virtual_shards);
    let mut all = AllKinds::default();
    for _ in 0..virtual_shards {
        let held = basis.as_mut().and_then(Iterator::next);
        let shard = match held {
            Some(s) if s.section.get().is_some_and(|sec| r.skip_known(&sec.bytes)) => s,
            _ => {
                let (mut s, read) = r.spanned(|r| read_shard(r, &mut all))?;
                s.section = SectionCache::holding(read);
                s
            }
        };
        shards.push(shard);
    }
    r.finish()?;
    Ok(Collector {
        virtual_shards,
        lateness_ms,
        shards,
        unroutable,
    })
}

/// Parse one `shard` section of the grammar above.
fn read_shard(r: &mut Reader<'_>, all: &mut AllKinds) -> Result<ShardState, FrameError> {
    #[cfg(test)]
    SECTIONS_PARSED.with(|n| n.set(n.get() + 1));
    let mut k = IngestCounters::default();
    for v in [
        &mut k.batches,
        &mut k.bytes,
        &mut k.records,
        &mut k.decode_errors,
        &mut k.duplicate_batches,
        &mut k.duplicate_records,
        &mut k.filtered_noise,
        &mut k.late_records,
        &mut k.out_of_order_batches,
    ] {
        *v = r.varint()?;
    }
    let watermark_ms = r.varint()?;
    // Each entry costs ≥ 2 bytes.
    let nseq = r.count("nseq", 2)?;
    let mut last_seq: Vec<(u32, u64)> = Vec::with_capacity(nseq);
    for _ in 0..nseq {
        let dev = r.narrow("device")?;
        // `encode_shard` walks a map: ids ascend. A frame where they do
        // not would restore to a collector that re-encodes to other bytes.
        if last_seq.last().is_some_and(|&(prev, _)| dev <= prev) {
            return Err(r.invalid("device order"));
        }
        last_seq.push((dev, r.varint()?));
    }
    Ok(ShardState {
        agg: read_agg(r, all)?,
        counters: k,
        // Sorted input: one bulk build, no per-key descent.
        last_seq: BTreeMap::from_iter(last_seq),
        watermark_ms,
        section: SectionCache::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_batch;
    use crate::collector::CollectorConfig;
    use crate::frame::{seal, FrameErrorKind};
    use cellrel_types::{
        Apn, BsId, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat, SignalLevel,
        SimDuration, SimTime,
    };

    fn ev(device: u32, start_s: u64, dur_s: u64) -> FailureEvent {
        FailureEvent {
            device: DeviceId(device),
            kind: FailureKind::DataStall,
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(dur_s),
            cause: None,
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L2,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(0, 3, 9)),
                isp: Isp::C,
            },
        }
    }

    fn populated() -> Collector {
        let cfg = CollectorConfig {
            virtual_shards: 8,
            ..CollectorConfig::default()
        };
        let mut c = Collector::new(&cfg);
        for d in 0..40u32 {
            let records: Vec<FailureEvent> = (0..6)
                .map(|i| ev(d, 100 * i + u64::from(d), 3 + i))
                .collect();
            c.ingest(&encode_batch(DeviceId(d), 0, &records));
        }
        c
    }

    #[test]
    fn round_trip_preserves_digest() {
        let c = populated();
        let bytes = save_checkpoint(&c);
        let r = restore_checkpoint(&bytes).expect("restore");
        assert_eq!(r.digest(), c.digest());
        assert_eq!(r.report().counters, c.report().counters);
    }

    #[test]
    fn restored_collector_continues_identically() {
        let mut full = populated();
        let mut resumed = restore_checkpoint(&save_checkpoint(&populated())).unwrap();
        for d in 0..40u32 {
            let b = encode_batch(DeviceId(d), 1, &[ev(d, 10_000 + u64::from(d), 9)]);
            full.ingest(&b);
            resumed.ingest(&b);
        }
        assert_eq!(full.digest(), resumed.digest());
    }

    #[test]
    fn empty_collector_round_trips_small() {
        let c = Collector::new(&CollectorConfig::default());
        let bytes = save_checkpoint(&c);
        // ~51 bytes per empty shard: sketches serialize sparsely.
        assert!(
            bytes.len() < 4096,
            "empty checkpoint is {} bytes",
            bytes.len()
        );
        let r = restore_checkpoint(&bytes).unwrap();
        assert_eq!(r.digest(), c.digest());
    }

    /// After a first checkpoint, `k` batches to `k` distinct shards make
    /// the next checkpoint encode exactly `k` sections — rejected batches
    /// included, since they move a counter.
    #[test]
    fn a_checkpoint_encodes_only_the_shards_that_took_a_batch() {
        let encoded = || SECTIONS_ENCODED.with(std::cell::Cell::get);
        let mut c = populated();
        let t0 = encoded();
        let first = save_checkpoint(&c);
        assert_eq!(encoded() - t0, 8, "cold: every shard");
        assert_eq!(save_checkpoint(&c), first);
        assert_eq!(encoded() - t0, 8, "warm: none");

        // Shards 1 and 2 take a fresh batch, shard 5 a duplicate; the
        // unroutable batch touches only the header.
        c.ingest(&encode_batch(DeviceId(1), 1, &[ev(1, 9_000, 4)]));
        c.ingest(&encode_batch(DeviceId(2), 1, &[ev(2, 9_000, 4)]));
        c.ingest(&encode_batch(DeviceId(5), 0, &[ev(5, 9_000, 4)]));
        c.ingest(&[0x00]);
        let t1 = encoded();
        let second = save_checkpoint(&c);
        assert_eq!(encoded() - t1, 3);
        assert_ne!(second, first);
        assert_eq!(restore_checkpoint(&second).expect("restore"), c);
    }

    /// The follower's side of the same count: restored onto the image of
    /// the checkpoint before, a checkpoint after `k` batches to `k`
    /// distinct shards parses exactly `k` sections — and a restored
    /// collector, whose sections are the bytes it was read from, encodes
    /// none when it is checkpointed again.
    #[test]
    fn restoring_onto_the_last_image_parses_only_the_shards_that_took_a_batch() {
        let parsed = || SECTIONS_PARSED.with(std::cell::Cell::get);
        let encoded = || SECTIONS_ENCODED.with(std::cell::Cell::get);
        let mut c = populated();
        let first = save_checkpoint(&c);
        let t0 = parsed();
        let image = restore_checkpoint(&first).expect("restore");
        assert_eq!(parsed() - t0, 8, "cold: every shard");
        let e0 = encoded();
        assert_eq!(save_checkpoint(&image), first);
        assert_eq!(encoded() - e0, 0, "a restored collector re-encodes nothing");

        for d in [1, 2, 5] {
            c.ingest(&encode_batch(DeviceId(d), 1, &[ev(d, 9_000, 4)]));
        }
        let second = save_checkpoint(&c);
        let t1 = parsed();
        let onto = restore_checkpoint_onto(&second, Some(image)).expect("restore onto");
        assert_eq!(parsed() - t1, 3);
        assert_eq!(onto, c);
        assert_eq!(save_checkpoint(&onto), second);
        assert_eq!(save_checkpoint(&onto.clone()), second, "cold re-encode");

        // A basis of another shard count is no basis: every section parses.
        let t2 = parsed();
        let foreign = Collector::new(&CollectorConfig::default());
        let plain = restore_checkpoint_onto(&second, Some(foreign)).expect("restore");
        assert_eq!((parsed() - t2, plain), (8, c));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = save_checkpoint(&Collector::new(&CollectorConfig::default()));
        bytes[2] = 99;
        assert_eq!(
            restore_checkpoint(&bytes),
            Err(CK.error(FrameErrorKind::UnsupportedVersion(99)))
        );
    }

    /// Regression: `restore` inserted a shard's `(device, seq)` pairs into
    /// a map one by one, so a CRC-valid frame whose ids repeat or descend
    /// restored — last pair wins — into a collector that re-encodes to
    /// other bytes than it was restored from. One state, one frame.
    #[test]
    fn device_ids_that_repeat_or_descend_are_refused() {
        let one_shard = |pairs: &[(u32, u64)]| {
            let mut out = Vec::new();
            let start = CK.begin(&mut out, CKPT_VERSION);
            // One shard, no lateness, nothing unroutable; nine counters and
            // a watermark of zero.
            out.extend_from_slice(&[1, 0, 0]);
            out.extend_from_slice(&[0; 10]);
            write_varint(&mut out, pairs.len() as u64);
            for &(dev, seq) in pairs {
                write_varint(&mut out, u64::from(dev));
                write_varint(&mut out, seq);
            }
            // An empty aggregate: 16 counts, then six empty sketches.
            out.extend_from_slice(&[0; 16 + 6 * 4]);
            seal(&mut out, start);
            out
        };
        let canonical = one_shard(&[(3, 9), (5, 1), (70_000, 2)]);
        let restored = restore_checkpoint(&canonical).expect("ascending ids restore");
        assert_eq!(save_checkpoint(&restored), canonical);
        for forged in [
            one_shard(&[(5, 1), (3, 9), (70_000, 2)]),
            one_shard(&[(3, 9), (5, 1), (5, 7)]),
            one_shard(&[(0, 1), (0, 1)]),
        ] {
            assert_eq!(restore_checkpoint(&forged), Err(CK.invalid("device order")));
        }
    }

    /// Write `a` as `write_agg` does, but with `all` where the all-kinds
    /// sketch goes.
    fn agg_bytes_with(a: &IngestAggregate, all: &SparseSketch) -> Vec<u8> {
        let mut out = Vec::new();
        write_agg(
            &mut out,
            &IngestAggregate::default(),
            &mut AllKinds::default(),
        );
        out.truncate(16); // the scalar fields; no test reads them
        for s in std::iter::once(all).chain(&a.sketch_by_kind) {
            write_counted(&mut out, header(s), s.nnz(), s.as_run().2.iter().copied());
        }
        out
    }

    proptest::proptest! {
        /// The pair-by-pair check against the comparison it replaced:
        /// `read_agg` accepts an all-kinds sketch exactly when it equals
        /// `sketch_all()`, on random aggregates (idle kinds included) and on
        /// forgeries one sample off — a neighbouring bucket, a moved
        /// extreme, a count one too high — and `write_agg` writes the one
        /// it accepts.
        #[test]
        fn the_five_way_check_is_equality_with_sketch_all(
            parts in proptest::collection::vec(
                proptest::collection::vec((0u32..50, proptest::prelude::any::<u64>()), 0..10),
                5,
            ),
            forgery in 0usize..4,
            at in 0usize..1 << 16,
        ) {
            let mut a = IngestAggregate::default();
            let mut samples = Vec::new();
            for (s, part) in a.sketch_by_kind.iter_mut().zip(&parts) {
                for &(shift, v) in part {
                    s.push(v >> shift);
                    samples.push(v >> shift);
                }
            }
            let n = samples.len().max(1);
            match forgery {
                1 if !samples.is_empty() => {
                    samples[at % n] = samples[at % n].saturating_add(1 + samples[at % n] / 100)
                }
                2 if !samples.is_empty() => samples[at % n] /= 2,
                3 => samples.push(at as u64),
                _ => {}
            }
            let mut all = SparseSketch::new();
            for &v in &samples {
                all.push(v);
            }
            let bytes = agg_bytes_with(&a, &all);
            let mut r = Reader::bare(&CK, &bytes);
            let read = read_agg(&mut r, &mut AllKinds::default());
            if all == a.sketch_all() {
                proptest::prop_assert_eq!(read.as_ref(), Ok(&a));
                proptest::prop_assert_eq!(r.finish(), Ok(()));
                let mut written = Vec::new();
                write_agg(&mut written, &a, &mut AllKinds::default());
                proptest::prop_assert_eq!(written, bytes);
            } else {
                proptest::prop_assert_eq!(read, Err(CK.invalid("all-kinds sketch")));
            }
        }
    }

    /// Regression: a ~25-byte CRC-valid frame claiming 2^20 shards used to
    /// reserve ~400 MB of `ShardState`s before the first shard failed to
    /// parse. The claim must be bounded by the bytes that remain.
    #[test]
    fn shard_count_lie_is_rejected_before_allocating() {
        let mut lie = Vec::new();
        let start = CK.begin(&mut lie, CKPT_VERSION);
        write_varint(&mut lie, 1 << 20); // virtual_shards
        lie.extend_from_slice(&[0; 16]); // lateness, unroutable, a few counters
        seal(&mut lie, start);
        assert_eq!(restore_checkpoint(&lie), Err(CK.invalid("virtual_shards")));
    }
}
