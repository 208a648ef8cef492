//! Checkpoint / restore of collector state.
//!
//! A 243-day campaign's ingestion should survive a backend restart without
//! replaying months of uploads, so the full collector state — per-shard
//! counters, dedup maps and watermarks — serializes to a versioned byte
//! format framed exactly like the wire codec: magic + version up front,
//! CRC-32 at the back, varints throughout. Restoring a checkpoint and
//! continuing a stream produces the same digest as ingesting the whole
//! stream in one run (the pipeline test asserts it).
//!
//! ```text
//! ckpt  := "CK" version:u8 virtual_shards:varint lateness_ms:varint
//!          unroutable:varint shard* crc32:u32le
//! shard := counters:varint^9 watermark:varint
//!          nseq:varint (device:varint seq:varint)*
//! ```
//!
//! A shard section holds no record content, so its size follows the
//! devices a shard has seen, never the records or durations it passed on:
//! an idle shard is 11 bytes. A shard's `(device, seq)` pairs come in
//! strictly ascending device order, as the map they are written from holds
//! them; restore refuses any other, so one collector state has one frame.
//! Restore is total: corrupt or truncated checkpoints yield a
//! [`FrameError`], never a panic or a half-restored collector.
//!
//! **Version 2.** Version 1 frames also carried each shard's §3.1
//! aggregate (16 counters and six duration sketches). The collector no
//! longer keeps one, and a version-1 frame's shards cannot be restored
//! without it: skipping the aggregate would give a collector whose digest
//! matches neither the one that wrote the frame nor one replayed from the
//! same uploads. So a version-1 frame — bare, or embedded in a stream or
//! cluster frame — is refused with [`FrameErrorKind::UnsupportedVersion`],
//! and a stream checkpoint written before the bump is replaced by one
//! taken after it, not translated.
//!
//! Both directions cost what changed. A shard keeps its section (and the
//! section's CRC) from the last save or restore until it next takes a
//! batch, so [`save_checkpoint`] encodes and sums only the shards that
//! did, and [`restore_checkpoint_onto`] parses only the sections that
//! differ from the ones its basis — the last image restored — was read from.
//!
//! [`FrameErrorKind::UnsupportedVersion`]: crate::frame::FrameErrorKind::UnsupportedVersion

use crate::collector::{Collector, IngestCounters, Section, SectionCache, ShardState};
use crate::frame::{crc32, crc32_combine_op, write_varint, Frame, FrameError, Reader, CK};
use std::collections::BTreeMap;

/// Current checkpoint format version.
pub(crate) const CKPT_VERSION: u8 = 2;

/// Encode one `shard` section of the grammar above.
fn encode_shard(s: &ShardState) -> Vec<u8> {
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
    let sections: Vec<&Section> = c
        .shards
        .iter()
        .map(|s| s.section.get_or_encode(|| encode_shard(s)))
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
    for _ in 0..virtual_shards {
        let held = basis.as_mut().and_then(Iterator::next);
        let shard = match held {
            Some(s) if s.section.get().is_some_and(|sec| r.skip_known(&sec.bytes)) => s,
            _ => {
                let (mut s, read) = r.spanned(read_shard)?;
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
fn read_shard(r: &mut Reader<'_>) -> Result<ShardState, FrameError> {
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
        // 11 bytes per empty shard: nine counters, a watermark, no devices.
        assert!(
            bytes.len() <= 16 + 64 * 11,
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

    /// A version-1 frame carried a §3.1 aggregate per shard that this
    /// collector no longer keeps; it is refused by its version byte, before
    /// its CRC or body is read, never parsed past or half-restored.
    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = save_checkpoint(&Collector::new(&CollectorConfig::default()));
        bytes[2] = 99;
        assert_eq!(
            restore_checkpoint(&bytes),
            Err(CK.error(FrameErrorKind::UnsupportedVersion(99)))
        );
        // A well-formed version-1 frame: one idle shard, then its empty
        // aggregate (16 counts and six empty sketches).
        let mut v1 = b"CK\x01".to_vec();
        v1.extend_from_slice(&[1, 0, 0]);
        v1.extend_from_slice(&[0; 11 + 16 + 6 * 4]);
        seal(&mut v1, 0);
        let refused = Err(CK.error(FrameErrorKind::UnsupportedVersion(1)));
        assert_eq!(restore_checkpoint(&v1), refused);
        // And this version's frame relabelled as version 1.
        let mut relabelled = save_checkpoint(&populated());
        relabelled[2] = 1;
        let n = relabelled.len();
        relabelled.truncate(n - 4);
        seal(&mut relabelled, 0);
        assert_eq!(restore_checkpoint(&relabelled), refused);
        let basis = restore_checkpoint(&save_checkpoint(&populated())).ok();
        assert_eq!(restore_checkpoint_onto(&relabelled, basis), refused);
    }

    /// A checkpoint holds no record content: two collectors that took the
    /// same devices, upload seqs, timestamps and record counts save to frames
    /// of one length, whether the records spelled one duration or 600
    /// spread over the whole three-byte varint range. A frame that held a
    /// duration sketch per shard would grow with the second's buckets.
    #[test]
    fn checkpoint_size_does_not_grow_with_the_durations_folded() {
        let collect = |duration_ms: &dyn Fn(u64) -> u64| {
            let mut c = populated();
            for d in 0..40u32 {
                let records: Vec<FailureEvent> = (0..15)
                    .map(|i| {
                        let mut e = ev(d, 20_000 + 10 * i + u64::from(d), 0);
                        e.duration = SimDuration::from_millis(duration_ms(15 * u64::from(d) + i));
                        e
                    })
                    .collect();
                c.ingest(&encode_batch(DeviceId(d), 1, &records));
            }
            c
        };
        // Three-byte varints: 16 384 ..= 2 097 151.
        let equal = collect(&|_| 16_384);
        let spread = collect(&|n| 16_384 + 3_400 * n);
        let (equal_ck, spread_ck) = (save_checkpoint(&equal), save_checkpoint(&spread));
        assert_eq!(equal.report().counters, spread.report().counters);
        assert_eq!(spread.report().counters.records, 40 * 6 + 600);
        assert_eq!(equal_ck.len(), spread_ck.len());
        assert_eq!(restore_checkpoint(&spread_ck), Ok(spread));
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
