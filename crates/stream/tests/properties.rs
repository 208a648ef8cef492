//! Property-based totality and round-trip tests for the stream formats:
//! the pipeline checkpoint, the segment frame, and the manifest must
//! restore exactly from their own bytes and map every truncated,
//! bit-flipped, or garbage input onto a typed [`StreamError`] — never a
//! panic (mirror of `crates/ingest/tests/properties.rs`).

use cellrel_ingest::frame::{Reader, SP};
use cellrel_ingest::{encode_batch, CollectorConfig};
use cellrel_store::{DeviceDirectory, StoreConfig};
use cellrel_stream::{
    decode_manifest, decode_segment, encode_segment, MemSegments, SegmentEntry, SegmentKind,
    StreamConfig, StreamError, StreamPipeline,
};
use cellrel_types::{
    Apn, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat, SignalLevel, SimDuration,
    SimTime,
};
use proptest::prelude::*;

fn small_cfg() -> StreamConfig {
    StreamConfig {
        window_ms: 4_000,
        lateness_ms: 0,
        hot_windows: 1,
        late_flush: 2,
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
        kind: FailureKind::ALL[(device as usize + ms as usize / 900) % 5],
        start: SimTime::from_millis(ms),
        duration: SimDuration::from_millis(400 + ms % 1_700),
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

/// A pipeline driven over synthetic batches far enough to seal windows,
/// fold the hot tier, and route late records (device 0 lags behind the
/// watermark). Returns (checkpoint bytes, surviving segments, digest).
fn populated(devices: u32, rounds: usize) -> (Vec<u8>, MemSegments, u64) {
    let cfg = small_cfg();
    let dir = DeviceDirectory::default();
    let mut p = StreamPipeline::new(&cfg, &dir).expect("valid config");
    let mut segs = MemSegments::new();
    for s in 0..rounds {
        for d in 0..devices {
            let t = (s as u64 * u64::from(devices) + u64::from(d)) * 2_100;
            let t = if d == 0 { t.saturating_sub(9_000) } else { t };
            let b = encode_batch(DeviceId(d), s as u64, &[evt(d, t), evt(d, t + 350)]);
            p.offer(&b, &mut segs).expect("offer succeeds");
        }
    }
    (p.checkpoint(), segs, p.digest())
}

proptest! {
    /// Checkpoint → restore reproduces the pipeline exactly: same cursor,
    /// same merged digest, same manifest length.
    #[test]
    fn checkpoint_roundtrips_mid_stream(devices in 1u32..6, rounds in 1usize..6) {
        let (ckpt, segs, digest) = populated(devices, rounds);
        let dir = DeviceDirectory::default();
        let p = StreamPipeline::restore(&ckpt, &dir, &segs).expect("own checkpoint restores");
        prop_assert_eq!(p.cursor(), u64::from(devices) * rounds as u64);
        prop_assert_eq!(p.digest(), digest);
        // Re-checkpointing the restored pipeline reproduces the bytes
        // except the restore counter; restoring *that* agrees again.
        let again = StreamPipeline::restore(&p.checkpoint(), &dir, &segs)
            .expect("second-generation checkpoint restores");
        prop_assert_eq!(again.digest(), digest);
        prop_assert_eq!(again.counters().restores, 2);
    }

    /// Every strict prefix of a valid pipeline checkpoint is a typed
    /// error, never a panic.
    #[test]
    fn truncated_pipeline_checkpoints_are_errors(
        devices in 1u32..5,
        rounds in 1usize..4,
        cut_seed in any::<usize>(),
    ) {
        let (ckpt, segs, _) = populated(devices, rounds);
        let dir = DeviceDirectory::default();
        let cut = cut_seed % ckpt.len(); // strictly shorter prefix
        prop_assert!(StreamPipeline::restore(&ckpt[..cut], &dir, &segs).is_err());
    }

    /// A single flipped byte anywhere in the checkpoint is always a typed
    /// error (CRC for payload flips, CRC comparison for trailer flips).
    #[test]
    fn corrupted_pipeline_checkpoints_are_errors(
        devices in 1u32..5,
        rounds in 1usize..4,
        at_seed in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let (mut ckpt, segs, _) = populated(devices, rounds);
        let dir = DeviceDirectory::default();
        let at = at_seed % ckpt.len();
        ckpt[at] ^= mask;
        prop_assert!(StreamPipeline::restore(&ckpt, &dir, &segs).is_err());
    }

    /// Arbitrary garbage never panics restore.
    #[test]
    fn garbage_never_panics_pipeline_restore(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let dir = DeviceDirectory::default();
        let segs = MemSegments::new();
        let _ = StreamPipeline::restore(&bytes, &dir, &segs);
    }

    /// Restore notices a segment the manifest names but the backend lost.
    #[test]
    fn missing_segment_is_a_typed_error(
        devices in 2u32..6,
        rounds in 2usize..6,
        pick in any::<usize>(),
    ) {
        let (ckpt, mut segs, _) = populated(devices, rounds);
        prop_assume!(!segs.is_empty());
        let dir = DeviceDirectory::default();
        let names: Vec<String> = segs.raw_mut().keys().cloned().collect();
        let victim = names[pick % names.len()].clone();
        segs.raw_mut().remove(&victim);
        match StreamPipeline::restore(&ckpt, &dir, &segs) {
            Err(StreamError::SegmentMissing(name)) => prop_assert_eq!(name, victim),
            other => prop_assert!(false, "expected SegmentMissing, got {:?}", other.map(|_| ())),
        }
    }

    /// Restore notices a tampered persisted segment.
    #[test]
    fn corrupted_segment_is_a_typed_error(
        devices in 2u32..6,
        rounds in 2usize..6,
        pick in any::<usize>(),
        at_seed in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let (ckpt, mut segs, _) = populated(devices, rounds);
        prop_assume!(!segs.is_empty());
        let dir = DeviceDirectory::default();
        let names: Vec<String> = segs.raw_mut().keys().cloned().collect();
        let victim = names[pick % names.len()].clone();
        let bytes = segs.raw_mut().get_mut(&victim).expect("victim exists");
        let at = at_seed % bytes.len();
        bytes[at] ^= mask;
        prop_assert!(StreamPipeline::restore(&ckpt, &dir, &segs).is_err());
    }

    /// Segment frames round-trip and their decoder is total on truncation
    /// and corruption.
    #[test]
    fn segment_frames_roundtrip_and_decode_totally(
        device in 0u32..8,
        n in 1usize..20,
        cut_seed in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut store = cellrel_store::Store::new(&small_cfg().store);
        let dir = DeviceDirectory::default();
        for i in 0..n {
            let e = evt(device, i as u64 * 777);
            store.record(&e, dir.dim_of(e.device));
        }
        let entry = SegmentEntry {
            kind: SegmentKind::Window,
            index: u64::from(device),
            watermark_ms: n as u64 * 777,
            records: store.inserted(),
            digest: store.digest(),
            bytes: 0,
        };
        let bytes = encode_segment(&entry, &store);
        let (got, back) = decode_segment(&bytes).expect("own encoding decodes");
        prop_assert_eq!(got.bytes, bytes.len() as u64);
        prop_assert_eq!((got.kind, got.index, got.records), (entry.kind, entry.index, entry.records));
        prop_assert_eq!(back.digest(), store.digest());

        let cut = cut_seed % bytes.len();
        prop_assert!(decode_segment(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        flipped[cut] ^= mask;
        prop_assert!(decode_segment(&flipped).is_err());
    }

    /// Garbage never panics the segment or manifest decoders.
    #[test]
    fn garbage_never_panics_segment_and_manifest_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_segment(&bytes);
        let _ = decode_manifest(&mut Reader::bare(&SP, &bytes));
    }
}
