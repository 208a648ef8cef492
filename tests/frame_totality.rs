//! One hostile-input harness for every framed format in the workspace.
//!
//! [`check`] is a single generic routine; the table at the bottom
//! instantiates it for `CB`, `CK`, `CS`, `SC`, `SG`, `SP`, `CQ` request,
//! `CQ` response, `CR` and the bare partial-aggregate form. For each sample
//! it proves:
//!
//! * the round trip is canonical — `decode(encode(v)) == v` and re-encoding
//!   the decoded value reproduces the bytes;
//! * an enveloped frame sums to `frame::RESIDUE` and carries the trailer
//!   `seal` writes, however its writer arrived at it;
//! * every strict prefix is an error;
//! * every single-bit flip is an error (for the un-CRC'd partial form: a
//!   typed result, never a panic);
//! * a CRC-valid frame whose first count/length field claims `u64::MAX` is
//!   rejected, and no decode of hostile input allocates out of proportion
//!   to the input — neither in one request nor summed over the decode;
//! * random bytes — raw, and wrapped in a valid envelope so the field
//!   grammar sees them — never panic.
//!
//! The families that embed frames (`CR`, `SP`, `SG`, `CS`) decode every
//! sample twice, from plain bytes and from marked ones (`frame::Marks`,
//! whose sums the embedded trailers are checked from), and the two must
//! agree on every value and every error.
//!
//! Below the table, one cross-family property splices the same hostile
//! sketch `pairs` into each of the four families that carry a sketch (`CK`,
//! `CS`, `SC`, partial) and requires the same refusal from all of them; a
//! flip inside a frame embedded in a re-sealed one is reported by the
//! embedded family on both paths; and a field spelled with a spare zero
//! group is refused by every family.
//!
//! Round-trip properties over *arbitrary* values, and the properties about
//! server state not advancing on hostile frames, stay with each crate.

use cellrel::cluster::{decode_frame, encode_frame, read_frame, Message, MessageRef};
use cellrel::ingest::frame::{
    self, seal, write_varint, Family, Frame, Marks, Reader, CB, CK, CQ, CR, CS, PARTIAL, SC, SG, SP,
};
use cellrel::ingest::{
    decode_batch, encode_batch, peek_device, restore_checkpoint, save_checkpoint, Collector,
    CollectorConfig, FrameErrorKind,
};
use cellrel::queryd::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    ServerStats, WireError,
};
use cellrel::sim::sketch::BUCKETS;
use cellrel::sim::SparseSketch;
use cellrel::store::workload::canonical;
use cellrel::store::{
    decode_partial, encode_partial, merge_partials, read_store, restore_store, save_store,
    Cell as StoreCell, ColumnSegment, DeviceDirectory, Dim, Metric, PartialResultSet, Query, Store,
    StoreConfig,
};
use cellrel::stream::{
    decode_manifest, decode_segment, encode_manifest, encode_segment, read_segment, MemSegments,
    SegmentEntry, SegmentKind, StreamConfig, StreamError, StreamPipeline,
};
use cellrel::types::{
    Apn, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat, SignalLevel,
    SimDuration, SimTime,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Range;

// ---------------------------------------------------------------------------
// Allocation accounting: the largest single request each thread has made,
// and the sum of all of them (many small requests add up: 4 000 idle `CK`
// shards once restored to 1.36 GB in 58 KiB pieces).
// ---------------------------------------------------------------------------

struct Watermark;

thread_local! {
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
    static TOTAL_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// Note one request of `size` bytes against this thread.
fn note_request(size: usize) {
    let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(size)));
    let _ = TOTAL_ALLOC.try_with(|t| t.set(t.get().saturating_add(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two thread-local integer
// stores that neither allocate nor unwind (`try_with` covers thread teardown).
unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watermark = Watermark;

/// Run `f` and return the largest single allocation it requested and the
/// sum of every request it made (a `realloc` counts its new size in full).
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    LARGEST_ALLOC.with(|m| m.set(0));
    TOTAL_ALLOC.with(|t| t.set(0));
    let r = f();
    (
        r,
        LARGEST_ALLOC.with(Cell::get),
        TOTAL_ALLOC.with(Cell::get),
    )
}

/// Hostile inputs here are at most 1 KiB; the worst honest amplification
/// is a `Vec` of ~500-byte shard states sized by `remaining / 11`. The one
/// bound holds for the largest request and for the sum of all requests of
/// a decode alike: no family's decoder needs more.
const ALLOC_BOUND: usize = 1 << 20;

// ---------------------------------------------------------------------------
// The generic routine.
// ---------------------------------------------------------------------------

type Encode<'a, T> = &'a dyn Fn(&T) -> Vec<u8>;

/// What the harness needs to know about one format.
struct Subject<'a, T, E> {
    /// `None` for the bare partial form, which has no envelope or CRC.
    family: Option<&'static Family>,
    decode: &'a dyn Fn(&[u8]) -> Result<T, E>,
    /// `None` where decoding is not invertible (`SP` restore counts itself).
    encode: Option<Encode<'a, T>>,
    /// Body bytes up to, not including, the first count or length field.
    lie_prefix: Vec<u8>,
}

/// `body` inside `family`'s envelope: header, body, CRC.
fn framed(family: &'static Family, version: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let start = family.begin(&mut out, version);
    out.extend_from_slice(body);
    seal(&mut out, start);
    out
}

impl<T, E> Subject<'_, T, E> {
    /// `body` inside a valid envelope (or bare, for the partial form).
    fn wrap(&self, body: &[u8]) -> Vec<u8> {
        match self.family {
            Some(family) => framed(family, family.versions[0], body),
            None => body.to_vec(),
        }
    }

    /// Decode hostile bytes: any typed result is fine, a panic or an
    /// allocation out of proportion to the input is not.
    fn decode_hostile(&self, bytes: &[u8]) -> Result<Result<T, E>, TestCaseError> {
        let (result, largest, total) = allocs_during(|| (self.decode)(bytes));
        let bound = ALLOC_BOUND.max(64 * bytes.len());
        prop_assert!(
            largest <= bound,
            "{largest}-byte allocation decoding {} hostile bytes",
            bytes.len()
        );
        prop_assert!(
            total <= bound,
            "{total} bytes allocated in all decoding {} hostile bytes",
            bytes.len()
        );
        Ok(result)
    }
}

/// splitmix64: the harness's own noise, so one `seed` reproduces a case.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*seed ^ (*seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn check<T: PartialEq + Debug, E: Debug>(
    s: &Subject<'_, T, E>,
    value: &T,
    bytes: &[u8],
    mut seed: u64,
) -> Result<(), TestCaseError> {
    // Canonical round trip.
    let decoded = (s.decode)(bytes);
    prop_assert!(
        decoded.as_ref().ok() == Some(value),
        "decoded {decoded:?}, expected {value:?}"
    );
    if let Some(encode) = s.encode {
        prop_assert_eq!(encode(&decoded.expect("just compared")), bytes);
    }

    // A sealed frame sums to the residue, and its trailer is the one `seal`
    // writes — whether its writer summed every byte, combined cached
    // sections (`CK`) or summed around frames it embeds (`SP`, `SG`).
    if s.family.is_some() {
        prop_assert_eq!(frame::crc32(bytes), frame::RESIDUE);
        let mut resealed = bytes[..bytes.len() - 4].to_vec();
        seal(&mut resealed, 0);
        prop_assert_eq!(&resealed[..], bytes);
    }

    // Every strict prefix fails.
    for cut in 0..bytes.len() {
        prop_assert!((s.decode)(&bytes[..cut]).is_err(), "prefix {cut} decoded");
    }

    // Every single-bit flip fails (all bytes of small frames, the header,
    // the trailer and a random sample of large ones).
    let n = bytes.len();
    let at: Vec<usize> = if n <= 256 {
        (0..n).collect()
    } else {
        let sampled = (0..256).map(|_| next(&mut seed) as usize % n);
        (0..8).chain(n - 8..n).chain(sampled).collect()
    };
    for i in at {
        for bit in 0..8 {
            let mut bad = bytes.to_vec();
            bad[i] ^= 1 << bit;
            let result = (s.decode)(&bad);
            prop_assert!(
                s.family.is_none() || result.is_err(),
                "flip of byte {i} bit {bit} decoded"
            );
        }
    }

    // A length lie inside a valid envelope is rejected before allocating.
    let mut lie = s.lie_prefix.clone();
    write_varint(&mut lie, u64::MAX);
    lie.extend((0..64).map(|_| next(&mut seed) as u8));
    prop_assert!(
        s.decode_hostile(&s.wrap(&lie))?.is_err(),
        "length lie decoded"
    );

    // Garbage never panics: raw, then behind a valid envelope.
    let junk: Vec<u8> = (0..next(&mut seed) % 256)
        .map(|_| next(&mut seed) as u8)
        .collect();
    let _ = s.decode_hostile(&junk)?;
    let _ = s.decode_hostile(&s.wrap(&junk))?;
    Ok(())
}

/// Parse `bytes` plain and marked: the two must agree, value or error,
/// and the plain result is returned.
fn plain_and_marked<T: PartialEq + Debug, E: PartialEq + Debug>(
    bytes: &[u8],
    parse: impl Fn(Frame<'_>) -> Result<T, E>,
) -> Result<T, E> {
    let plain = parse(Frame::from(bytes));
    let marks = Marks::new(bytes);
    assert_eq!(
        parse(marks.frame()),
        plain,
        "marked and plain parses differ"
    );
    plain
}

// ---------------------------------------------------------------------------
// Samples: everything derives from one generated event list.
// ---------------------------------------------------------------------------

/// (device, start ms, duration ms), (kind, cause code), (rat, isp).
type EventParts = ((u32, u64, u64), (usize, Option<i32>), (usize, usize));

fn events() -> impl Strategy<Value = Vec<EventParts>> {
    prop::collection::vec(
        (
            (0u32..5, 0u64..40_000, 0u64..1 << 22),
            (0usize..5, prop::option::of(-20i32..4000)),
            (0usize..4, 0usize..3),
        ),
        1..24,
    )
}

fn event(p: &EventParts) -> FailureEvent {
    let ((device, start, duration), (kind, cause), (rat, isp)) = *p;
    FailureEvent {
        device: DeviceId(device),
        kind: FailureKind::ALL[kind],
        start: SimTime::from_millis(start),
        duration: SimDuration::from_millis(duration),
        cause: cause.map(DataFailCause::from_code),
        ctx: InSituInfo {
            rat: Rat::ALL[rat],
            signal: SignalLevel::L3,
            apn: Apn::Internet,
            bs: None,
            isp: Isp::ALL[isp],
        },
    }
}

/// One encoded batch per device, in device order.
fn batches(parts: &[EventParts]) -> Vec<Vec<u8>> {
    (0..5)
        .map(|d| {
            let mine: Vec<FailureEvent> = parts
                .iter()
                .map(event)
                .filter(|e| e.device.0 == d)
                .collect();
            encode_batch(DeviceId(d), 0, &mine)
        })
        .collect()
}

const STORE_CFG: StoreConfig = StoreConfig {
    bucket_ms: 1_000,
    rollup_buckets: 4,
    partitions: 2,
    auto_compact_every: 0,
};

/// A store over the events; `layout` 0 stays row-only (a v1 image), 1
/// compacts and 2 seals (v2 images with `SC` blocks).
fn store(parts: &[EventParts], layout: usize) -> Store {
    let dir = DeviceDirectory::default();
    let mut s = Store::new(&STORE_CFG);
    for e in parts.iter().map(event) {
        s.record(&e, dir.dim_of(e.device));
    }
    match layout {
        0 => {}
        1 => s.compact(),
        _ => s.seal_columnar(),
    }
    s
}

fn segment(parts: &[EventParts]) -> (SegmentEntry, Store) {
    let s = store(parts, 0);
    let entry = SegmentEntry {
        kind: SegmentKind::Window,
        index: 3,
        watermark_ms: 40_000,
        records: s.inserted(),
        digest: s.digest(),
        bytes: 0,
    };
    decode_segment(&encode_segment(&entry, &s)).expect("own segment decodes")
}

fn stream_cfg() -> StreamConfig {
    StreamConfig {
        window_ms: 4_000,
        lateness_ms: 0,
        hot_windows: 1,
        late_flush: 2,
        collector: CollectorConfig {
            virtual_shards: 8,
            ..CollectorConfig::default()
        },
        store: STORE_CFG,
    }
}

fn varints(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in values {
        write_varint(&mut out, v);
    }
    out
}

/// A frame whose body is varints only (`CK`, a row-only `CS` image), with
/// `edit` applied to the decoded values and the envelope sealed again: a
/// CRC-valid frame saying something its encoder never would.
fn reframe(family: &'static Family, bytes: &[u8], edit: impl FnOnce(&mut Vec<u64>)) -> Vec<u8> {
    let mut r = family.open(bytes).expect("own frame opens");
    let version = r.version();
    let mut values = Vec::new();
    while r.remaining() > 0 {
        values.push(r.varint().expect("varint body"));
    }
    edit(&mut values);
    framed(family, version, &varints(&values))
}

/// Index of the `max` of the first non-empty sketch in a `CK` body — the
/// all-kinds sketch of the first shard that took a record. Its `count` and
/// `min` sit before it, `nnz` and the `(delta, count)` pairs after.
fn ck_first_sketch_max(v: &[u64]) -> usize {
    let mut i = 3; // virtual_shards, lateness, unroutable
    loop {
        i += 10; // counters, watermark
        i += 1 + 2 * v[i] as usize; // dedup map
        i += 16; // records, by_kind/isp/rat, three duration scalars
        for _ in 0..6 {
            if v[i] > 0 {
                return i + 2; // count, min, max
            }
            i += 4 + 2 * v[i + 3] as usize;
        }
    }
}

/// Index of the `max` of the first cell's sketch in a row-only `CS` body.
fn cs_first_sketch_max(v: &[u64]) -> usize {
    let mut i = 4; // bucket_ms, rollup, partitions, auto_compact
    loop {
        if v[i + 4] > 0 {
            return i + 5 + 11 + 1; // counters, ncells, key, aggregates, min
        }
        i += 6 + 5 * v[i + 5] as usize; // an empty partition's device table
    }
}

fn decode_block(bytes: &[u8]) -> Result<ColumnSegment, frame::FrameError> {
    let mut r = Reader::bare(&SC, bytes);
    let seg = ColumnSegment::decode(&mut r)?;
    r.finish()?;
    Ok(seg)
}

fn encode_block(seg: &ColumnSegment) -> Vec<u8> {
    let mut out = Vec::new();
    seg.encode(&mut out);
    out
}

fn query(pick: usize) -> Query {
    let mut workload = canonical(STORE_CFG.bucket_ms * u64::from(STORE_CFG.rollup_buckets));
    workload.swap_remove(pick % workload.len()).1
}

// ---------------------------------------------------------------------------
// The table: one row per format.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn cb(parts in events(), seed in any::<u64>()) {
        let bytes = batches(&parts).swap_remove(parts[0].0.0 as usize);
        let subject = Subject {
            family: Some(&CB),
            // The router's header peek sees the same hostile bytes.
            decode: &|b| {
                let _ = peek_device(b);
                decode_batch(b)
            },
            encode: Some(&|v| encode_batch(v.device, v.seq, &v.records)),
            lie_prefix: varints(&[7, 0]), // device, seq → count
        };
        let value = decode_batch(&bytes).expect("own batch decodes");
        check(&subject, &value, &bytes, seed)?;
    }

    #[test]
    fn ck(parts in events(), seed in any::<u64>(), (at, mask) in (any::<usize>(), 1u8..=255)) {
        let mut value = Collector::new(&stream_cfg().collector);
        for b in batches(&parts) {
            value.ingest(&b);
        }
        let subject = Subject {
            family: Some(&CK),
            decode: &restore_checkpoint,
            encode: Some(&save_checkpoint),
            lie_prefix: Vec::new(), // → virtual_shards
        };
        let bytes = save_checkpoint(&value);
        check(&subject, &value, &bytes, seed)?;
        // A whole byte changed, by any mask, anywhere: the CRC catches
        // every error burst of up to 32 bits.
        let mut corrupted = bytes.clone();
        corrupted[at % bytes.len()] ^= mask;
        prop_assert!(restore_checkpoint(&corrupted).is_err());
        // `quantile(1.0)` answers `max` verbatim: one that does not fall
        // in the last non-empty bucket is a lie, however valid the CRC.
        let lie = reframe(&CK, &bytes, |v| {
            let at = ck_first_sketch_max(v);
            v[at] = u64::MAX;
        });
        prop_assert_eq!(restore_checkpoint(&lie), Err(CK.invalid("sketch buckets")));
        // The writer emits occupied buckets only: a zero-count pair behind
        // the last one would restore and re-encode to different bytes.
        let lie = reframe(&CK, &bytes, |v| {
            let nnz = ck_first_sketch_max(v) + 1;
            v[nnz] += 1;
            let end = nnz + 1 + 2 * (v[nnz] as usize - 1);
            v.splice(end..end, [1, 0]);
        });
        prop_assert_eq!(restore_checkpoint(&lie), Err(CK.invalid("sketch buckets")));
        // The all-kinds sketch is the sum of the per-kind ones: one more
        // sample in its first bucket (its own count kept in step) is a
        // state no collector reaches.
        let lie = reframe(&CK, &bytes, |v| {
            let max = ck_first_sketch_max(v);
            v[max - 2] += 1; // count
            v[max + 3] += 1; // first pair's count
        });
        prop_assert_eq!(restore_checkpoint(&lie), Err(CK.invalid("all-kinds sketch")));
        // An idle shard is ~51 bytes on the wire. As many as fit in 1 KiB
        // must restore in proportion to the frame, not to a dense sketch
        // per shard and kind.
        let idle = (1..)
            .map(|virtual_shards| {
                save_checkpoint(&Collector::new(&CollectorConfig {
                    virtual_shards,
                    ..stream_cfg().collector
                }))
            })
            .take_while(|frame| frame.len() <= 1024)
            .last()
            .expect("one idle shard fits");
        prop_assert!(subject.decode_hostile(&idle)?.is_ok());
    }

    #[test]
    fn cs(parts in events(), layout in 0usize..3, seed in any::<u64>()) {
        let value = store(&parts, layout);
        let subject = Subject {
            family: Some(&CS),
            decode: &|b| plain_and_marked(b, read_store),
            encode: Some(&save_store),
            lie_prefix: varints(&[1_000, 4]), // bucket_ms, rollup → partitions
        };
        let bytes = save_store(&value);
        check(&subject, &value, &bytes, seed)?;
        // Same lie as in `ck`, in the row image (`SC` blocks go through
        // the same constructor and have their own row).
        let lie = reframe(&CS, &save_store(&store(&parts, 0)), |v| {
            let at = cs_first_sketch_max(v);
            v[at] = u64::MAX;
        });
        prop_assert_eq!(restore_store(&lie), Err(CS.invalid("sketch buckets")));
    }

    #[test]
    fn sc(parts in events(), seed in any::<u64>()) {
        let bytes = store(&parts, 2).segment_blocks().swap_remove(0);
        let subject = Subject {
            family: Some(&SC),
            decode: &decode_block,
            encode: Some(&encode_block),
            lie_prefix: Vec::new(), // → row count
        };
        let value = decode_block(&bytes).expect("own block decodes");
        check(&subject, &value, &bytes, seed)?;
    }

    #[test]
    fn sg(parts in events(), seed in any::<u64>()) {
        let value = segment(&parts);
        let subject = Subject {
            family: Some(&SG),
            decode: &|b| plain_and_marked(b, read_segment),
            encode: Some(&|(entry, store)| encode_segment(entry, store)),
            lie_prefix: varints(&[0, 3, 40_000, 1, 9]), // kind … digest → image length
        };
        let bytes = encode_segment(&value.0, &value.1);
        check(&subject, &value, &bytes, seed)?;
    }

    #[test]
    fn sp(parts in events(), seed in any::<u64>()) {
        let dir = DeviceDirectory::default();
        let mut segs = MemSegments::new();
        let mut p = StreamPipeline::new(&stream_cfg(), &dir).expect("valid config");
        for b in batches(&parts) {
            p.offer(&b, &mut segs).expect("offer succeeds");
        }
        let view = |p: &StreamPipeline| {
            (p.digest(), p.collector_digest(), p.cursor(), p.manifest().to_vec())
        };
        let restore = |f: Frame<'_>| {
            let image = StreamPipeline::decode_onto(f, None)?;
            StreamPipeline::load(image, &dir, &segs).map(|p| view(&p))
        };
        let subject = Subject {
            family: Some(&SP),
            decode: &|b| plain_and_marked(b, restore),
            encode: None,
            // A valid config, replay position and counters → collector length.
            lie_prefix: varints(&[
                4_000, 0, 1, 2, 8, 0, 1_000, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ]),
        };
        let bytes = p.checkpoint();
        check(&subject, &view(&p), &bytes, seed)?;
        // A manifest naming its first segment twice, with the length and
        // the persisted-segments counter kept in step, would merge that
        // segment into the restored view twice.
        if let Some(first) = p.manifest().first() {
            let mut r = SP.open(&bytes).expect("own frame opens");
            // Configs (10), replay position (3), counters (9).
            let mut head: Vec<u64> = (0..22).map(|_| r.varint().expect("head")).collect();
            head[19] += 1; // segments_persisted
            let collector = r.blob("collector").expect("collector");
            let mut manifest = decode_manifest(&mut r).expect("manifest");
            manifest.push(*first);
            let mut forged = Vec::new();
            let start = SP.begin(&mut forged, SP.versions[0]);
            forged.extend(varints(&head));
            write_varint(&mut forged, collector.len() as u64);
            forged.extend_from_slice(collector);
            encode_manifest(&manifest, &mut forged);
            forged.extend_from_slice(r.take(r.remaining()).expect("pending and late"));
            seal(&mut forged, start);
            prop_assert_eq!(
                (subject.decode)(&forged),
                Err(SP.invalid("manifest entry repeated").into())
            );
        }
    }

    #[test]
    fn cq_request(pick in 0usize..16, seed in any::<u64>()) {
        let value = match pick {
            0 => Request::Ping,
            1 => Request::Stats,
            _ => Request::Query(query(pick)),
        };
        let subject = Subject {
            family: Some(&CQ),
            // Both decoders share the envelope; neither may panic on the
            // other's frames.
            decode: &|b| {
                let _ = decode_response(b);
                decode_request(b)
            },
            encode: Some(&encode_request),
            lie_prefix: vec![0x02], // KIND_QUERY → filter count
        };
        let bytes = encode_request(&value);
        check(&subject, &value, &bytes, seed)?;
    }

    #[test]
    fn cq_response(parts in events(), pick in 0usize..16, seed in any::<u64>()) {
        let value = match pick {
            0 => Response::Pong,
            1 => Response::Stats(ServerStats { epoch: 3, inserted: 1 << 40, ..ServerStats::default() }),
            2 => Response::Error(WireError { code: 4, detail: "quantile 1.5 outside [0, 1]".into() }),
            _ => match store(&parts, pick % 3).query(&query(pick)) {
                Ok(result) => Response::Rows { epoch: pick as u64, result },
                Err(e) => Response::Error(WireError::bad_query(&e)),
            },
        };
        let subject = Subject {
            family: Some(&CQ),
            decode: &|b| {
                let _ = decode_request(b);
                decode_response(b)
            },
            encode: Some(&encode_response),
            lie_prefix: vec![0x82, 1], // KIND_ROWS, epoch → group_by count
        };
        let bytes = encode_response(&value);
        check(&subject, &value, &bytes, seed)?;
    }

    #[test]
    fn cr(parts in events(), pick in 0usize..8, seq in any::<u64>(), seed in any::<u64>()) {
        let (entry, delta) = segment(&parts);
        let sg = encode_segment(&entry, &delta);
        let value = match pick {
            0 => Message::ShipSegment { seq, frame: sg },
            1 => Message::ShipCheckpoint { seq, checkpoint: save_store(&delta) },
            2 => Message::Catchup { from_seq: seq },
            3 => Message::Query(query(seq as usize)),
            4 => Message::Ack { seq, digest: entry.digest },
            5 => Message::Segments { from_seq: seq, frames: vec![sg.clone(), Vec::new(), sg] },
            6 => Message::Partial {
                epoch: seq,
                partial: delta.query_partial(&Query::count_by(vec![Dim::Kind])).expect("legal"),
            },
            _ => Message::Rejection { code: 6, detail: "segment seq 4 does not follow 2".into() },
        };
        let subject = Subject {
            family: Some(&CR),
            decode: &|b| plain_and_marked(b, |f| read_frame(f).map(MessageRef::into_message)),
            encode: Some(&encode_frame),
            lie_prefix: vec![0x01, 1], // KIND_SEGMENT, seq → segment length
        };
        let bytes = encode_frame(&value);
        check(&subject, &value, &bytes, seed)?;
    }

    #[test]
    fn partial(parts in events(), layout in 0usize..3, seed in any::<u64>()) {
        let q = Query::count_by(vec![Dim::Kind, Dim::Isp]);
        let value = store(&parts, layout).query_partial(&q).expect("legal query");
        let subject = Subject {
            family: None,
            decode: &decode_partial,
            encode: Some(&encode_partial),
            lie_prefix: varints(&[1, 0, 0, 2]), // window, scanned, matched, key width → groups
        };
        let bytes = encode_partial(&value);
        check(&subject, &value, &bytes, seed)?;
    }
}

// ---------------------------------------------------------------------------
// One sketch, four carriers. `CK` shards, `CS` cells, `SC` rows and partial
// groups each put their own header fields around the one `pairs` sequence
// `frame::read_pairs` reads; whatever is wrong with the pairs, all four
// must say so in the same words.
// ---------------------------------------------------------------------------

/// A sketch as the wire spells it: header values, then `(delta, count)`
/// pairs — free to say what no writer would.
#[derive(Debug, Clone)]
struct WireSketch {
    count: u64,
    min: u64,
    max: u64,
    pairs: Vec<(u64, u64)>,
}

impl WireSketch {
    fn of(s: &SparseSketch) -> Self {
        let mut prev = 0;
        let pairs = s.as_run().2.iter().map(|&(i, c)| {
            let delta = u64::from(i - prev);
            prev = i;
            (delta, c)
        });
        WireSketch {
            count: s.count(),
            min: s.min().unwrap_or(0),
            max: s.max().unwrap_or(0),
            pairs: pairs.collect(),
        }
    }

    /// `fields` (picked from count, min, max by the family), then `pairs`.
    fn bytes(&self, fields: &[u64]) -> Vec<u8> {
        let mut out = varints(fields);
        write_varint(&mut out, self.pairs.len() as u64);
        for &(delta, count) in &self.pairs {
            out.extend(varints(&[delta, count]));
        }
        out
    }
}

/// A one-shard checkpoint whose first kind holds `s`, so the all-kinds
/// sketch — read first — is `s` too.
fn ck_with(s: &WireSketch) -> Vec<u8> {
    let sketch = s.bytes(&[s.count, s.min, s.max]);
    framed(
        &CK,
        CK.versions[0],
        &[
            &[1u8, 0, 0][..], // virtual_shards, lateness, unroutable
            &[0; 11],         // counters, watermark, nseq
            &[0; 16],         // records, by_kind/isp/rat, three duration scalars
            &sketch,
            &sketch,
            &[0; 4 * 4], // four idle kinds: count, min, max, nnz
        ]
        .concat(),
    )
}

/// A one-partition row image holding one cell.
fn cs_with(s: &WireSketch) -> Vec<u8> {
    framed(
        &CS,
        CS.versions[0],
        &[
            &varints(&[1_000, 4, 1, 0])[..], // bucket_ms, rollup, partitions, auto_compact
            &[0, 0, 0, 0, 1],                // four counters, one cell
            &[0; 8],                         // its key
            &varints(&[s.count, 0, 0]),      // count, duration total, under 30 s
            &s.bytes(&[s.min, s.max]),
            &[0], // no devices
        ]
        .concat(),
    )
}

/// A one-row column block.
fn sc_with(s: &WireSketch) -> Vec<u8> {
    framed(
        &SC,
        SC.versions[0],
        &[
            &[1u8][..],                                  // rows
            &[0; 7],                                     // bucket, six key bytes
            &varints(&[0, s.count, 0, 0, s.min, s.max]), // cause … sk_min, sk_max
            &s.bytes(&[]),
            &[0; 16], // zones of the all-zero key
        ]
        .concat(),
    )
}

/// A partial holding one group under the empty key.
fn partial_with(s: &WireSketch) -> Vec<u8> {
    let mut out = varints(&[1, 0, 0, 0, 1]); // window, scanned, matched, key width, groups
    out.extend(varints(&[s.count, 0, 0])); // count, duration total, under 30 s
    out.extend(s.bytes(&[s.min, s.max]));
    out
}

/// Decode `s` inside each carrier: `Ok` only when the frame also
/// re-encodes to itself, else the error.
fn carried(s: &WireSketch) -> [Result<(), frame::FrameError>; 4] {
    fn canonical<T>(
        bytes: Vec<u8>,
        decode: impl Fn(&[u8]) -> Result<T, frame::FrameError>,
        encode: impl Fn(&T) -> Vec<u8>,
    ) -> Result<(), frame::FrameError> {
        assert_eq!(encode(&decode(&bytes)?), bytes, "not the canonical frame");
        Ok(())
    }
    [
        canonical(ck_with(s), restore_checkpoint, save_checkpoint),
        canonical(cs_with(s), restore_store, save_store),
        canonical(sc_with(s), decode_block, encode_block),
        canonical(partial_with(s), decode_partial, encode_partial),
    ]
}

/// The same refusal, `field`, from every carrier.
fn refused(field: &'static str) -> [Result<(), frame::FrameError>; 4] {
    [&CK, &CS, &SC, &PARTIAL].map(|family| Err(family.invalid(field)))
}

/// Regression: `CK`, `CS` and the partial form restored a sketch with no
/// pairs and non-zero extremes — its constructor ignores extremes beside
/// an empty run — and re-encoded it with zeros, to other bytes than it was
/// restored from; only `SC` refused. One state has one frame in all four.
#[test]
fn extremes_beside_an_empty_run_are_refused_by_every_family() {
    let empty = WireSketch::of(&SparseSketch::new());
    assert_eq!(carried(&empty), [Ok(()), Ok(()), Ok(()), Ok(())]);
    for (min, max) in [(0, 9), (7, 0), (7, 9)] {
        let forged = WireSketch {
            min,
            max,
            ..empty.clone()
        };
        assert_eq!(carried(&forged), refused("sketch extremes"));
    }
}

proptest! {
    #[test]
    fn hostile_pairs_are_refused_alike_by_every_family(
        values in prop::collection::vec((0u32..30, 1u64..1 << 40), 0..12),
        forgery in 0usize..9,
        at in any::<usize>(),
    ) {
        // Two buckets at least, none of them bucket 0.
        let mut sketch = SparseSketch::new();
        for v in [3, 70_000].into_iter().chain(values.iter().map(|&(shift, v)| (v >> shift).max(1))) {
            sketch.push(v);
        }
        let good = WireSketch::of(&sketch);
        prop_assert_eq!(carried(&good), [Ok(()), Ok(()), Ok(()), Ok(())]);

        let mut s = good.clone();
        let n = s.pairs.len();
        let field = match forgery {
            0 => {
                s.pairs[1 + at % (n - 1)].0 = 0;
                "sketch index delta"
            }
            1 => {
                s.pairs[at % n].0 += BUCKETS as u64;
                "sketch buckets"
            }
            2 => {
                s.pairs[at % n].1 = 0;
                "sketch buckets"
            }
            3 => {
                s.pairs[0].1 = u64::MAX;
                "sketch buckets"
            }
            4 => {
                s.min = 0;
                "sketch buckets"
            }
            5 => {
                s.max = u64::MAX;
                "sketch buckets"
            }
            6 => {
                s.pairs[0].0 = u64::MAX;
                "sketch index"
            }
            7 => {
                s.pairs[at % n].0 += 1 << 32;
                "sketch buckets"
            }
            _ => {
                s = WireSketch { min: 1 + at as u64 % 2, ..WireSketch::of(&SparseSketch::new()) };
                "sketch extremes"
            }
        };
        prop_assert_eq!(carried(&s), refused(field), "{:?}", s);
    }
}

// ---------------------------------------------------------------------------
// Nested trailers. A marked frame checks each embedded trailer from the
// marks of the outermost buffer; whatever it embeds is damaged, the family
// that embeds it must still say so, in the words a plain decode uses.
// ---------------------------------------------------------------------------

/// Where `inner`, a slice of `outer`, sits in it.
fn range_in(outer: &[u8], inner: &[u8]) -> Range<usize> {
    let start = inner.as_ptr() as usize - outer.as_ptr() as usize;
    assert!(start + inner.len() <= outer.len(), "not a slice of outer");
    start..start + inner.len()
}

/// `bytes` with one bit at `at` flipped and the frames at `frames` —
/// innermost first, the whole buffer last — sealed again, so only the
/// frame around `at` that is not among them fails its check.
fn flip_and_reseal(bytes: &[u8], at: usize, frames: &[Range<usize>]) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    bad[at] ^= 1;
    for f in frames {
        let crc = frame::crc32(&bad[f.start..f.end - 4]);
        bad[f.end - 4..f.end].copy_from_slice(&crc.to_le_bytes());
    }
    bad
}

fn fixed_parts() -> Vec<EventParts> {
    (0..40usize)
        .map(|i| {
            let ms = i as u64;
            (
                (i as u32 % 5, 997 * ms, 1 + 7_919 * ms),
                (i % 5, None),
                (i % 4, i % 3),
            )
        })
        .collect()
}

#[test]
fn a_flip_inside_an_embedded_frame_is_reported_by_its_family_plain_and_marked() {
    let parts = fixed_parts();

    // `SC` blocks inside the `CS` image inside an `SG` segment.
    let sealed = store(&parts, 2);
    let entry = SegmentEntry {
        kind: SegmentKind::Window,
        index: 0,
        watermark_ms: 0,
        records: sealed.inserted(),
        digest: sealed.digest(),
        bytes: 0,
    };
    let sg = encode_segment(&entry, &sealed);
    let mut r = SG.open(&sg).expect("own segment opens");
    let _kind = r.u8().expect("kind");
    for _ in 0..4 {
        r.varint().expect("header field");
    }
    let cs = range_in(&sg, r.frame("image").expect("image").bytes());
    let whole = 0..sg.len();
    let blocks = sealed.segment_blocks();
    let block = blocks.last().expect("a sealed store has blocks");
    let at = cs.start
        + sg[cs.clone()]
            .windows(block.len())
            .position(|w| w == &block[..])
            .unwrap();
    let sc = at..at + block.len();
    let segment = |bytes: &[u8]| plain_and_marked(bytes, read_segment).map(|_| ());
    assert_eq!(segment(&sg), Ok(()));
    for (flip, resealed, family) in [
        (
            sc.start + sc.len() / 2,
            vec![cs.clone(), whole.clone()],
            &SC,
        ),
        (sc.end - 2, vec![cs.clone(), whole.clone()], &SC),
        (cs.start + 5, vec![whole.clone()], &CS),
        (cs.end - 6, vec![whole.clone()], &CS),
    ] {
        let err = segment(&flip_and_reseal(&sg, flip, &resealed)).expect_err("a flipped frame");
        assert_eq!(err.family, family, "flip at {flip}: {err}");
    }

    // The `CK` checkpoint and the `CS` images inside an `SP` checkpoint.
    let dir = DeviceDirectory::default();
    let mut segs = MemSegments::new();
    let mut p = StreamPipeline::new(&stream_cfg(), &dir).expect("valid config");
    for b in batches(&parts) {
        p.offer(&b, &mut segs).expect("offer succeeds");
    }
    let sp = p.checkpoint();
    let mut r = SP.open(&sp).expect("own frame opens");
    for _ in 0..22 {
        r.varint().expect("head");
    }
    let ck = range_in(&sp, r.frame("collector").expect("collector").bytes());
    decode_manifest(&mut r).expect("manifest");
    for _ in 0..r.varint().expect("pending count") {
        r.varint().expect("window");
        r.frame("pending").expect("pending image");
    }
    let late = range_in(&sp, r.frame("late").expect("late image").bytes());
    let decode = |bytes: &[u8]| {
        plain_and_marked(bytes, |f| StreamPipeline::decode_onto(f, None).map(|_| ()))
    };
    assert_eq!(decode(&sp), Ok(()));
    let whole = 0..sp.len();
    for (flip, family) in [
        (ck.start + ck.len() / 2, &CK),
        (ck.end - 1, &CK),
        (late.start + 3, &CS),
        (late.end - 5, &CS),
    ] {
        let err = decode(&flip_and_reseal(&sp, flip, std::slice::from_ref(&whole)));
        assert!(
            matches!(err, Err(StreamError::Frame(e)) if e.family == family && matches!(e.kind, FrameErrorKind::BadCrc { .. })),
            "flip at {flip}: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// One value, one spelling. LEB128 can spell any value with spare zero
// groups (`0x80 0x00` for 0); the writers never do, and a frame that does
// is refused by the one reader every family shares — else a collector
// restored from such a `CK` would hand the spelling on, section by section.
// ---------------------------------------------------------------------------

/// `frame` with the varint `at` bytes into its body spelled with one spare
/// zero group, and sealed again if `family` has an envelope.
fn respelled(family: Option<&'static Family>, frame: &[u8], at: usize) -> Vec<u8> {
    let body = match family {
        Some(_) => &frame[3..frame.len() - 4],
        None => frame,
    };
    let mut r = Reader::bare(&PARTIAL, &body[at..]);
    let value = r.varint().expect("a varint at the offset");
    let end = body.len() - r.remaining();
    let mut spelled = varints(&[value]);
    *spelled.last_mut().expect("one byte at least") |= 0x80;
    spelled.push(0);
    let body = [&body[..at], &spelled, &body[end..]].concat();
    match family {
        Some(family) => framed(family, frame[2], &body),
        None => body,
    }
}

#[test]
fn a_field_spelled_with_a_spare_zero_group_is_refused_by_every_family() {
    type Decode = Box<dyn Fn(&[u8]) -> Result<(), frame::FrameError>>;
    fn ok<T, E>(r: Result<T, E>) -> Result<(), E> {
        r.map(|_| ())
    }
    let parts = fixed_parts();
    let mut collector = Collector::new(&stream_cfg().collector);
    for b in batches(&parts) {
        collector.ingest(&b);
    }
    let ck = save_checkpoint(&collector);
    // The first counter of the first shard, behind the three header fields.
    let mut r = CK.open(&ck).expect("own frame opens");
    for _ in 0..3 {
        r.varint().expect("header");
    }
    let first_section = ck.len() - 7 - r.remaining();
    let dir = DeviceDirectory::default();
    let mut p = StreamPipeline::new(&stream_cfg(), &dir).expect("valid config");
    for b in batches(&parts) {
        p.offer(&b, &mut MemSegments::new())
            .expect("offer succeeds");
    }
    let (entry, delta) = segment(&parts);
    let rows = Response::Rows {
        epoch: 1,
        result: store(&parts, 1)
            .query(&query(3))
            .expect("a canonical query runs"),
    };
    let partial = store(&parts, 0)
        .query_partial(&Query::count_by(vec![Dim::Kind]))
        .expect("legal query");
    // (family, decoder, a frame of it, where in its body a varint starts)
    let cases: Vec<(Option<&'static Family>, Decode, Vec<u8>, usize)> = vec![
        (
            Some(&CB),
            Box::new(|b| ok(decode_batch(b))),
            batches(&parts).swap_remove(1),
            0,
        ),
        (
            Some(&CK),
            Box::new(|b| ok(restore_checkpoint(b))),
            ck.clone(),
            0,
        ),
        (
            Some(&CK),
            Box::new(|b| ok(restore_checkpoint(b))),
            ck,
            first_section,
        ),
        (
            Some(&CS),
            Box::new(|b| ok(restore_store(b))),
            save_store(&store(&parts, 0)),
            0,
        ),
        (
            Some(&SC),
            Box::new(|b| ok(decode_block(b))),
            store(&parts, 2).segment_blocks().swap_remove(0),
            0,
        ),
        (
            Some(&SG),
            Box::new(|b| ok(decode_segment(b))),
            encode_segment(&entry, &delta),
            1,
        ),
        (
            Some(&SP),
            Box::new(|b| {
                ok(StreamPipeline::decode(b)).map_err(|e| match e {
                    StreamError::Frame(e) => e,
                    other => panic!("not a frame error: {other}"),
                })
            }),
            p.checkpoint(),
            0,
        ),
        (
            Some(&CQ),
            Box::new(|b| ok(decode_request(b))),
            encode_request(&Request::Query(query(3))),
            1,
        ),
        (
            Some(&CQ),
            Box::new(|b| ok(decode_response(b))),
            encode_response(&rows),
            1,
        ),
        (
            Some(&CR),
            Box::new(|b| ok(decode_frame(b))),
            encode_frame(&Message::Catchup { from_seq: 0 }),
            1,
        ),
        (
            None,
            Box::new(|b| ok(decode_partial(b))),
            encode_partial(&partial),
            0,
        ),
    ];
    for (family, decode, bytes, at) in cases {
        let name = family.map_or("partial", |f| f.name);
        assert_eq!(
            decode(&bytes),
            Ok(()),
            "{name}: the canonical frame decodes"
        );
        let refusal = family
            .unwrap_or(&PARTIAL)
            .error(FrameErrorKind::OverlongVarint);
        assert_eq!(
            decode(&respelled(family, &bytes, at)),
            Err(refusal),
            "{name} at {at}"
        );
    }
}

// ---------------------------------------------------------------------------
// `merge_partials` is the one consumer documented total on whatever
// `decode_partial` accepts, and a decoded partial names its own window
// width, keys, counts and sketches. Each case below is decodable wire input
// that used to panic the merge in this profile (and wrap in release).
// ---------------------------------------------------------------------------

/// `p` as a router would see it: through the wire form.
fn over_the_wire(p: &PartialResultSet) -> PartialResultSet {
    decode_partial(&encode_partial(p)).expect("a decodable partial")
}

fn one_group(window_ms: u64, key: u64, cell: StoreCell) -> PartialResultSet {
    PartialResultSet {
        window_ms,
        groups: vec![(vec![key], cell)],
        cells_scanned: 1,
        cells_matched: 1,
    }
}

#[test]
fn merge_partials_labels_a_window_of_any_width() {
    let q = Query::count_by(vec![Dim::Time]);
    let cell = StoreCell {
        count: 1,
        ..StoreCell::default()
    };
    for (window_ms, key) in [(u64::MAX, 3), (u64::MAX, u64::MAX), (1 << 63, 2), (0, 7)] {
        let rs = merge_partials(
            &q,
            &[over_the_wire(&one_group(window_ms, key, cell.clone()))],
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0].key, vec![key]);
        assert!(rs.rows[0].labels[0].starts_with('['), "{:?}", rs.rows[0]);
    }
}

#[test]
fn merge_partials_saturates_sums_past_u64() {
    let q = Query {
        metric: Metric::MeanDurationMs,
        ..Query::count_by(vec![Dim::Kind])
    };
    let big = StoreCell {
        count: u64::MAX - 2,
        duration_ms_total: u64::MAX - 1,
        under_30s: u64::MAX - 2,
        ..StoreCell::default()
    };
    let p = over_the_wire(&one_group(1, 0, big));
    let rs = merge_partials(&q, &[p.clone(), p.clone(), p]);
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0].count, u64::MAX);
    assert_eq!(rs.rows[0].value, 1.0);
}

#[test]
fn merge_partials_leaves_out_a_sketch_it_cannot_count() {
    let q = Query {
        metric: Metric::QuantileMs(0.5),
        ..Query::count_by(vec![Dim::Kind])
    };
    // Two sketches of 2⁶³ samples each: one more than a count can hold.
    let sketch = |value: u64, count: u64| StoreCell {
        count,
        sketch: SparseSketch::from_run(value, value, vec![(value as u32, count)])
            .expect("a value below the linear limit is its own bucket"),
        ..StoreCell::default()
    };
    let fives = over_the_wire(&one_group(1, 0, sketch(5, 1 << 63)));
    let nines = over_the_wire(&one_group(1, 0, sketch(9, 1 << 63)));
    let rs = merge_partials(&q, &[fives, nines.clone()]);
    assert_eq!((rs.rows[0].count, rs.rows[0].value), (u64::MAX, 5.0));
    // One that fits is ranked with the rest: a third fives, two thirds nines.
    let fives = over_the_wire(&one_group(1, 0, sketch(5, 1 << 62)));
    let rs = merge_partials(&q, &[fives, nines]);
    assert_eq!((rs.rows[0].count, rs.rows[0].value), (3 << 62, 9.0));
}
