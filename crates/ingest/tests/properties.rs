//! Property-based tests for the ingestion wire codec and the streaming
//! quantile sketch: primitive roundtrips, whole-batch roundtrips on
//! arbitrary records, totality of the decoder on hostile input, totality
//! of checkpoint restore, the checkpoint's cached sections and
//! by-difference restore, and the algebra of sketch merging. (Garbage
//! input to every decoder is `tests/frame_totality.rs`'s job.)

use cellrel_ingest::codec::{decode_batch, encode_batch, peek_device};
use cellrel_ingest::frame::{crc32, seal, unzigzag, write_varint, zigzag, Reader, CB, CK};
use cellrel_ingest::{
    restore_checkpoint, restore_checkpoint_onto, save_checkpoint, Collector, CollectorConfig,
    IngestAggregate,
};
use cellrel_sim::{Digest64, Merge, QuantileSketch, SparseSketch};
use cellrel_types::{
    Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
    SignalLevel, SimDuration, SimTime,
};
use proptest::prelude::*;
use std::ops::Range;

/// The field material of one record, minus the device (batches are
/// single-device; the device comes from the batch header). Grouped into
/// nested tuples because the vendored proptest implements `Strategy` for
/// tuples of ≤ 5 elements only.
type RecordParts = (
    (usize, u64, u64),                      // kind index, start ms, duration ms
    (Option<i32>, usize, u8, usize),        // cause code, rat, signal, apn
    (Option<(bool, u16, u16, u32)>, usize), // bs (is_gsm, a, b, c), isp
);

fn parts_strategy() -> impl Strategy<Value = RecordParts> {
    (
        (0usize..5, 0u64..1 << 60, 0u64..1 << 60),
        (prop::option::of(any::<i32>()), 0usize..4, 0u8..6, 0usize..4),
        (
            prop::option::of((any::<bool>(), any::<u16>(), any::<u16>(), any::<u32>())),
            0usize..3,
        ),
    )
}

fn build_event(device: DeviceId, p: &RecordParts) -> FailureEvent {
    let ((kind, start, duration), (cause, rat, signal, apn), (bs, isp)) = *p;
    FailureEvent {
        device,
        kind: FailureKind::from_index(kind).expect("kind < 5"),
        start: SimTime::from_millis(start),
        duration: SimDuration::from_millis(duration),
        cause: cause.map(DataFailCause::from_code),
        ctx: InSituInfo {
            rat: Rat::from_index(rat).expect("rat < 4"),
            signal: SignalLevel::new(signal),
            apn: Apn::from_index(apn).expect("apn < 4"),
            bs: bs.map(|(is_gsm, a, b, c)| {
                if is_gsm {
                    BsId::Gsm {
                        mcc: a,
                        mnc: b,
                        lac: a.wrapping_add(b),
                        cid: c,
                    }
                } else {
                    BsId::Cdma {
                        sid: a,
                        nid: b,
                        bid: c,
                    }
                }
            }),
            isp: Isp::from_index(isp).expect("isp < 3"),
        },
    }
}

/// Build a collector holding a few devices' worth of ingested batches, so
/// its checkpoint bytes cover populated shards, sketches and dedup state.
fn populated_collector(devices: u32, per_device: usize) -> Collector {
    let cfg = CollectorConfig {
        virtual_shards: 8,
        ..CollectorConfig::default()
    };
    let mut c = Collector::new(&cfg);
    for d in 0..devices {
        let device = DeviceId(d);
        let events: Vec<FailureEvent> = (0..per_device)
            .map(|i| {
                build_event(
                    device,
                    &(
                        ((i % 5), (1000 * i as u64), (3_000 + 17 * i as u64)),
                        ((i % 3 == 0).then_some(2157), i % 4, (i % 6) as u8, 0),
                        (None, (d as usize) % 3),
                    ),
                )
            })
            .collect();
        c.ingest(&encode_batch(device, 0, &events));
    }
    c
}

/// The byte ranges of a `CK` frame's shard sections, walked with the
/// grammar in `cellrel_ingest::checkpoint`'s docs: every field a varint.
fn ck_sections(frame: &[u8]) -> Vec<Range<usize>> {
    fn skip(r: &mut Reader<'_>, n: u64) {
        for _ in 0..n {
            r.varint().expect("varint field");
        }
    }
    let mut r = CK.open(frame).expect("own frame");
    let end = frame.len() - 4;
    let shards = r.varint().expect("virtual_shards");
    skip(&mut r, 2); // lateness, unroutable
    (0..shards)
        .map(|_| {
            let start = end - r.remaining();
            skip(&mut r, 10); // counters, watermark
            let nseq = r.varint().expect("nseq");
            skip(&mut r, 2 * nseq);
            skip(&mut r, 16); // records, by_kind/isp/rat, three duration scalars
            for _ in 0..6 {
                skip(&mut r, 3); // count, min, max
                let nnz = r.varint().expect("nnz");
                skip(&mut r, 2 * nnz);
            }
            start..end - r.remaining()
        })
        .collect()
}

/// Forgeries of checkpoint `b`, taken after `a`, for the by-difference
/// parse to disagree with the plain one on if it can: a byte flipped inside
/// a section `b` shares with `a`, two sections swapped and the body cut
/// short — each sealed again — and `b` cut short as it is. `pick` chooses
/// the section, byte, mask and cut.
fn forgeries(a: &[u8], b: &[u8], pick: usize) -> Vec<Vec<u8>> {
    let (in_a, in_b) = (ck_sections(a), ck_sections(b));
    let body = &b[..b.len() - 4];
    let sealed = |mut body: Vec<u8>| {
        seal(&mut body, 0);
        body
    };
    let mut out = Vec::new();
    let shared: Vec<&Range<usize>> = in_b
        .iter()
        .zip(&in_a)
        .filter(|(sb, sa)| b[(*sb).clone()] == a[(*sa).clone()])
        .map(|(sb, _)| sb)
        .collect();
    if !shared.is_empty() {
        let section = shared[pick % shared.len()];
        let mut flipped = body.to_vec();
        flipped[section.start + pick % section.len()] ^= 1 + (pick % 255) as u8;
        out.push(sealed(flipped));
    }
    let n = in_b.len();
    let i = pick % n;
    let j = (i + 1 + (pick / n) % (n - 1).max(1)) % n;
    let mut swapped = body[..in_b[0].start].to_vec();
    for k in 0..n {
        let from = if k == i {
            j
        } else if k == j {
            i
        } else {
            k
        };
        swapped.extend_from_slice(&b[in_b[from].clone()]);
    }
    out.push(sealed(swapped));
    let head = in_b[0].start;
    out.push(sealed(body[..head + pick % (body.len() - head)].to_vec()));
    out.push(b[..b.len() - 1 - pick % (b.len() - 1)].to_vec());
    out
}

proptest! {
    #[test]
    fn varint_roundtrips_every_u64(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        prop_assert!(buf.len() <= 10);
        let mut r = Reader::bare(&CB, &buf);
        prop_assert_eq!(r.varint(), Ok(v));
        prop_assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn zigzag_roundtrips_every_i64(v in any::<i64>()) {
        prop_assert_eq!(unzigzag(zigzag(v)), v);
    }

    #[test]
    fn truncated_varints_are_errors(v in any::<u64>(), cut in 0usize..10) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        if cut < buf.len() {
            buf.truncate(cut);
            prop_assert!(Reader::bare(&CB, &buf).varint().is_err());
        }
    }

    #[test]
    fn batches_roundtrip_arbitrary_records(
        device in any::<u32>(),
        seq in any::<u64>(),
        parts in prop::collection::vec(parts_strategy(), 0..40),
    ) {
        let device = DeviceId(device);
        let events: Vec<FailureEvent> =
            parts.iter().map(|p| build_event(device, p)).collect();
        let bytes = encode_batch(device, seq, &events);

        prop_assert_eq!(peek_device(&bytes), Ok(device));
        let batch = decode_batch(&bytes).expect("own encoding decodes");
        prop_assert_eq!(batch.device, device);
        prop_assert_eq!(batch.seq, seq);
        prop_assert_eq!(batch.records.len(), events.len());
        for r in &batch.records {
            prop_assert_eq!(r.device, device);
        }
        // Encoding is canonical: re-encoding the decoded records reproduces
        // the exact bytes, so decode lost nothing the wire format carries.
        prop_assert_eq!(encode_batch(device, seq, &batch.records), bytes);
    }

    #[test]
    fn truncated_batches_are_errors_never_panics(
        device in any::<u32>(),
        parts in prop::collection::vec(parts_strategy(), 1..20),
        cut_seed in any::<usize>(),
    ) {
        let device = DeviceId(device);
        let events: Vec<FailureEvent> =
            parts.iter().map(|p| build_event(device, p)).collect();
        let bytes = encode_batch(device, 0, &events);
        let cut = cut_seed % bytes.len(); // strictly shorter prefix
        prop_assert!(decode_batch(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupted_batches_are_errors_never_panics(
        device in any::<u32>(),
        parts in prop::collection::vec(parts_strategy(), 1..20),
        at_seed in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let device = DeviceId(device);
        let events: Vec<FailureEvent> =
            parts.iter().map(|p| build_event(device, p)).collect();
        let mut bytes = encode_batch(device, 0, &events);
        let at = at_seed % bytes.len();
        bytes[at] ^= mask;
        // A single flipped byte is always caught: by the CRC if it lands in
        // the payload, or by the CRC comparison if it lands in the trailer.
        prop_assert!(decode_batch(&bytes).is_err());
    }

    #[test]
    fn crc_detects_any_single_byte_change(
        bytes in prop::collection::vec(any::<u8>(), 1..128),
        at_seed in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let before = crc32(&bytes);
        let mut changed = bytes;
        let at = at_seed % changed.len();
        changed[at] ^= mask;
        prop_assert_ne!(crc32(&changed), before);
    }

    /// Checkpoint restore is total on truncation: every strict prefix of a
    /// valid checkpoint is a typed error, never a panic.
    #[test]
    fn truncated_checkpoints_are_errors_never_panics(
        devices in 1u32..12,
        per_device in 1usize..8,
        cut_seed in any::<usize>(),
    ) {
        let bytes = save_checkpoint(&populated_collector(devices, per_device));
        let cut = cut_seed % bytes.len(); // strictly shorter prefix
        prop_assert!(restore_checkpoint(&bytes[..cut]).is_err());
    }

    /// Checkpoint restore is total on corruption: a single flipped byte is
    /// always a typed error (the CRC trailer catches payload flips; trailer
    /// flips fail the comparison).
    #[test]
    fn corrupted_checkpoints_are_errors_never_panics(
        devices in 1u32..12,
        per_device in 1usize..8,
        at_seed in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = save_checkpoint(&populated_collector(devices, per_device));
        let at = at_seed % bytes.len();
        bytes[at] ^= mask;
        prop_assert!(restore_checkpoint(&bytes).is_err());
    }

    /// Arbitrary garbage never panics restore.
    #[test]
    fn garbage_never_panics_checkpoint_restore(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = restore_checkpoint(&bytes);
    }

    /// The per-shard `CK` section cache can never be observed. Over a
    /// stream of good, duplicate, out-of-order, undecodable and unroutable
    /// batches with checkpoints taken at arbitrary points, a checkpoint's
    /// bytes equal those re-encoded cold from its own restore and those of
    /// a collector that never checkpointed before; `==` and `digest()` do
    /// not see the cache; and a clone taken after a checkpoint encodes its
    /// own later state, not the original's.
    ///
    /// Nor can restoring onto a basis, the follower's by-difference parse:
    /// with `A` the checkpoint before and `B` this one,
    /// `restore_checkpoint_onto(B, Some(restore(A)))` equals
    /// `restore_checkpoint(B)` — value, re-encoded bytes (warm and cold)
    /// and, on forgeries of `B`, error for error. The forgeries are
    /// re-sealed, so they reach the section parse: a byte flipped inside a
    /// section that matches `A`'s, two sections swapped, the body cut
    /// short; and `B` cut short without a new CRC.
    #[test]
    fn checkpoint_section_cache_is_unobservable(
        ops in prop::collection::vec(
            (0u8..9, 0u32..12, prop::collection::vec(parts_strategy(), 0..4)),
            1..40,
        ),
    ) {
        let cfg = CollectorConfig { virtual_shards: 4, ..CollectorConfig::default() };
        let mut cached = Collector::new(&cfg);
        let mut cold = Collector::new(&cfg);
        let mut next_seq = [0u64; 12];
        let mut sent: Vec<Vec<u8>> = Vec::new();
        let mut previous: Option<Vec<u8>> = None;
        for (kind, d, parts) in &ops {
            let device = DeviceId(*d);
            let events: Vec<FailureEvent> =
                parts.iter().map(|p| build_event(device, p)).collect();
            let good = || encode_batch(device, next_seq[*d as usize], &events);
            let batch = match kind {
                // Random timestamps against the shard watermark make many
                // of these out-of-order or late.
                0..=3 => {
                    let b = good();
                    next_seq[*d as usize] += 1;
                    sent.push(b.clone());
                    b
                }
                4 if !sent.is_empty() => sent[*d as usize % sent.len()].clone(),
                5 => {
                    let mut b = good();
                    *b.last_mut().expect("framed") ^= 0xff;
                    b
                }
                6 => vec![0x00],
                _ => {
                    let last = save_checkpoint(&cached);
                    let restored = restore_checkpoint(&last);
                    prop_assert!(restored.is_ok(), "own checkpoint restores: {restored:?}");
                    let restored = restored.expect("checked");
                    prop_assert_eq!(&save_checkpoint(&restored), &last, "sections as read");
                    prop_assert_eq!(&save_checkpoint(&restored.clone()), &last, "cold");
                    prop_assert_eq!(&save_checkpoint(&cold.clone()), &last);
                    prop_assert_eq!(&save_checkpoint(&cached), &last, "warm re-encode");
                    if let Some(a) = previous.replace(last.clone()) {
                        let basis = || restore_checkpoint(&a).ok();
                        let onto = restore_checkpoint_onto(&last, basis());
                        prop_assert_eq!(onto.as_ref(), Ok(&restored));
                        let onto = onto.expect("checked");
                        prop_assert_eq!(&save_checkpoint(&onto), &last, "sections kept or read");
                        prop_assert_eq!(&save_checkpoint(&onto.clone()), &last, "cold");
                        for forged in forgeries(&a, &last, *d as usize) {
                            prop_assert_eq!(
                                restore_checkpoint_onto(&forged, basis()),
                                restore_checkpoint(&forged)
                            );
                        }
                    }
                    continue;
                }
            };
            cached.ingest(&batch);
            cold.ingest(&batch);
            prop_assert!(cached == cold);
            prop_assert_eq!(cached.digest(), cold.digest());
        }

        let last = save_checkpoint(&cached);
        let mut fork = cached.clone();
        let one_more = encode_batch(DeviceId(3), next_seq[3], &[]);
        fork.ingest(&one_more);
        cold.ingest(&one_more);
        let forked = save_checkpoint(&fork);
        prop_assert_eq!(&forked, &save_checkpoint(&cold));
        prop_assert_ne!(&forked, &last);
        prop_assert_eq!(&save_checkpoint(&cached), &last, "the original is untouched");
    }

    /// The collector keeps one sparse sketch per kind and derives the
    /// all-kinds one. Over any stream the derived sketch is the one a
    /// second push per record would have built, sparse or dense, whether
    /// read from one aggregate, from a merge across shards, or after a
    /// checkpoint round trip.
    #[test]
    fn derived_all_kinds_sketch_equals_one_pushed_with_every_record(
        streams in prop::collection::vec(prop::collection::vec(parts_strategy(), 0..24), 1..6),
    ) {
        let mut collector = Collector::new(&CollectorConfig {
            virtual_shards: 4,
            ..CollectorConfig::default()
        });
        let mut accepted: Vec<FailureEvent> = Vec::new();
        for (d, parts) in streams.iter().enumerate() {
            let device = DeviceId(d as u32);
            // Durations up to 2^40 ms: the aggregate also sums them in a u64.
            let events: Vec<FailureEvent> = parts
                .iter()
                .map(|p| build_event(device, &((p.0 .0, p.0 .1, p.0 .2 >> 20), p.1, p.2)))
                .collect();
            collector.ingest_with(&encode_batch(device, 0, &events), &mut accepted);
        }
        let mut single = IngestAggregate::default();
        let mut sparse = SparseSketch::new();
        let mut dense = QuantileSketch::new();
        for e in &accepted {
            single.push(e);
            sparse.push(e.duration.as_millis());
            dense.push(e.duration.as_millis());
        }
        let digest_of = |absorb: &dyn Fn(&mut Digest64)| {
            let mut d = Digest64::new();
            absorb(&mut d);
            d.finish()
        };
        let restored = restore_checkpoint(&save_checkpoint(&collector)).expect("own checkpoint");
        for (what, aggregate) in [
            ("one aggregate", single),
            ("merged shards", collector.report().aggregate),
            ("restored and merged", restored.report().aggregate),
        ] {
            let derived = aggregate.sketch_all();
            prop_assert_eq!(&derived, &sparse, "{}: {:?} vs {:?}", what, derived, sparse);
            let digest = digest_of(&|d| derived.absorb_into(d));
            prop_assert_eq!(digest, digest_of(&|d| sparse.absorb_into(d)), "{}: sparse digest", what);
            prop_assert_eq!(digest, digest_of(&|d| dense.absorb_into(d)), "{}: dense digest", what);
            prop_assert_eq!(derived.count(), dense.count(), "{}: count", what);
            prop_assert_eq!(derived.min(), dense.min(), "{}: min", what);
            prop_assert_eq!(derived.max(), dense.max(), "{}: max", what);
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(derived.quantile(q), dense.quantile(q), "{}: q={}", what, q);
            }
        }
    }

    #[test]
    fn sketch_merge_is_commutative(
        xs in prop::collection::vec(0u64..1 << 50, 0..200),
        ys in prop::collection::vec(0u64..1 << 50, 0..200),
    ) {
        let mut a = QuantileSketch::new();
        xs.iter().for_each(|&v| a.push(v));
        let mut b = QuantileSketch::new();
        ys.iter().for_each(|&v| b.push(v));

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        prop_assert_eq!(&ab, &ba);

        // Merging equals pushing the concatenated stream.
        let mut all = QuantileSketch::new();
        xs.iter().chain(ys.iter()).for_each(|&v| all.push(v));
        prop_assert_eq!(&ab, &all);
    }

    #[test]
    fn sketch_merge_is_associative(
        xs in prop::collection::vec(0u64..1 << 50, 0..100),
        ys in prop::collection::vec(0u64..1 << 50, 0..100),
        zs in prop::collection::vec(0u64..1 << 50, 0..100),
    ) {
        let build = |vals: &[u64]| {
            let mut s = QuantileSketch::new();
            vals.iter().for_each(|&v| s.push(v));
            s
        };
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));

        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());

        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);

        prop_assert_eq!(left, right);
    }

    #[test]
    fn sketch_quantiles_stay_within_bucket_resolution(
        mut xs in prop::collection::vec(1u64..1 << 40, 1..300),
        q in 0.0f64..1.0,
    ) {
        let mut s = QuantileSketch::new();
        xs.iter().for_each(|&v| s.push(v));
        xs.sort_unstable();
        let v = s.quantile(q).expect("non-empty");
        prop_assert!(v >= xs[0] && v <= xs[xs.len() - 1]);
        // Relative value error is bounded by the sub-bucket width (1/128).
        let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        let exact = xs[rank - 1] as f64;
        prop_assert!(
            (v as f64 - exact).abs() <= exact / 128.0 + 1.0,
            "q={q}: sketched {v}, exact {exact}"
        );
    }
}
