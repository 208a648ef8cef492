//! CRC-framed persistence for the store, mirroring the `cellrel-ingest`
//! checkpoint machinery: magic + version header, LEB128 varints, sketches
//! as the shared `pairs` run sequence (`cellrel_ingest::frame::write_pairs`),
//! and a CRC-32 trailer over everything.
//!
//! Restore is **total**: truncated, corrupted, or adversarial bytes return
//! a typed [`FrameError`], never panic, and never allocate proportionally
//! to a length claim that exceeds the input. A successful restore
//! reproduces the saved store exactly (`==`, same digest, same query
//! answers) — asserted by the round-trip and property tests.

use crate::columnar::ColumnSegment;
use crate::cube::{Cell, CellKey, DeviceRec, Store, StoreConfig, UNDER_30S_MS};
use cellrel_ingest::frame::{
    read_pairs, seal_around, write_pairs, write_varint, Frame, FrameError, Marks, Reader, CS,
};
use cellrel_sim::SparseSketch;
use std::collections::BTreeMap;

/// Row-only format version. Stores with no sealed segments save exactly
/// as they always have — byte-identical v1 images — so old readers and
/// golden snapshots of row-only stores are untouched.
pub(crate) const STORE_VERSION: u8 = 1;
/// Columnar format version: identical to v1 except each partition writes
/// a segment count followed by CRC-framed `SC` blocks (see
/// [`crate::columnar`]) between its cells and its device table. Emitted
/// only when at least one partition holds a sealed segment.
pub(crate) const STORE_VERSION_COLUMNAR: u8 = 2;

/// A cell's sketch as the `CS` image and the partial form carry it: exact
/// extremes (zeros beside no samples), then the shared `pairs` sequence.
pub(crate) fn write_run(out: &mut Vec<u8>, s: &SparseSketch) {
    write_varint(out, s.min().unwrap_or(0));
    write_varint(out, s.max().unwrap_or(0));
    let run = s.as_run().2;
    write_pairs(out, run.len(), run.iter().copied());
}

/// Inverse of [`write_run`]; the pairs land in the sketch's own vector.
pub(crate) fn read_run(r: &mut Reader<'_>) -> Result<SparseSketch, FrameError> {
    let (min, max) = (r.varint()?, r.varint()?);
    let mut run = Vec::new();
    read_pairs(r, (min, max), &mut run)?;
    SparseSketch::from_run(min, max, run).ok_or(r.invalid("sketch buckets"))
}

/// Serialize the full store state.
pub fn save_store(store: &Store) -> Vec<u8> {
    let columnar = store.partitions.iter().any(|p| !p.segments.is_empty());
    let mut out = Vec::new();
    let version = if columnar {
        STORE_VERSION_COLUMNAR
    } else {
        STORE_VERSION
    };
    let start = CS.begin(&mut out, version);
    // Where each `SC` block lands: sealed as it was written, so the image's
    // trailer sums around the blocks instead of over them again.
    let mut blocks = Vec::new();
    let cfg = store.config();
    write_varint(&mut out, cfg.bucket_ms);
    write_varint(&mut out, u64::from(cfg.rollup_buckets));
    write_varint(&mut out, cfg.partitions as u64);
    write_varint(&mut out, cfg.auto_compact_every);
    for p in &store.partitions {
        write_varint(&mut out, p.inserted);
        write_varint(&mut out, p.compactions);
        write_varint(&mut out, p.cells_folded);
        write_varint(&mut out, p.since_compact);
        write_varint(&mut out, p.cells.len() as u64);
        for (k, c) in &p.cells {
            write_varint(&mut out, u64::from(k.bucket));
            write_varint(&mut out, u64::from(k.kind));
            write_varint(&mut out, u64::from(k.isp));
            write_varint(&mut out, u64::from(k.rat));
            write_varint(&mut out, u64::from(k.model));
            write_varint(&mut out, u64::from(k.region));
            write_varint(&mut out, u64::from(k.cause_class));
            write_varint(&mut out, k.cause);
            write_varint(&mut out, c.count);
            write_varint(&mut out, c.duration_ms_total);
            write_varint(&mut out, c.under_30s);
            write_run(&mut out, &c.sketch);
        }
        if columnar {
            write_varint(&mut out, p.segments.len() as u64);
            for seg in &p.segments {
                let at = out.len();
                seg.encode(&mut out);
                blocks.push(at..out.len());
            }
        }
        write_varint(&mut out, p.devices.len() as u64);
        let mut prev: Option<u32> = None;
        for (&id, rec) in &p.devices {
            // First id raw, then strictly positive deltas (ids ascend).
            let v = match prev {
                None => u64::from(id),
                Some(last) => u64::from(id - last),
            };
            prev = Some(id);
            write_varint(&mut out, v);
            write_varint(&mut out, u64::from(rec.model));
            write_varint(&mut out, u64::from(rec.region));
            write_varint(&mut out, u64::from(rec.isp));
            write_varint(&mut out, rec.failures);
        }
    }
    seal_around(&mut out, start, &blocks);
    out
}

/// Restore a store image. Total: every failure mode is a [`FrameError`].
/// The bytes are marked first, so the `SC` blocks a columnar image embeds
/// are checked without a second read ([`read_store`]).
pub fn restore_store(bytes: &[u8]) -> Result<Store, FrameError> {
    read_store(Marks::new(bytes).frame())
}

/// [`restore_store`] of a frame that is plain bytes or marked — an image
/// embedded in a segment or a checkpoint frame that was marked as a whole.
/// The store and every error are the same either way.
pub fn read_store(frame: Frame<'_>) -> Result<Store, FrameError> {
    let mut r = CS.open(frame)?;
    let bucket_ms = r.varint()?;
    let rollup = r.varint()?;
    // Each partition costs ≥ 6 bytes (four counters, two counts).
    let nparts = r.count("partition count", 6)?;
    let auto_compact_every = r.varint()?;
    if bucket_ms == 0 || rollup == 0 || rollup > u64::from(u32::MAX) {
        return Err(r.invalid("invalid bucket geometry"));
    }
    if nparts == 0 {
        return Err(r.invalid("partition count"));
    }
    let cfg = StoreConfig {
        bucket_ms,
        rollup_buckets: rollup as u32,
        partitions: nparts,
        auto_compact_every,
    };
    let mut store = Store::new(&cfg);
    for p in store.partitions.iter_mut() {
        p.inserted = r.varint()?;
        p.compactions = r.varint()?;
        p.cells_folded = r.varint()?;
        p.since_compact = r.varint()?;
        // Eight key fields, three aggregates, a three-field sketch header.
        let ncells = r.count("cell count", 14)?;
        // Checked ascending as they are read, so each map is built in one
        // bulk pass over a sorted `Vec` instead of an insert per item.
        let mut cells = Vec::with_capacity(ncells);
        let mut prev_key: Option<CellKey> = None;
        for _ in 0..ncells {
            let key = CellKey {
                bucket: r.narrow("bucket exceeds u32")?,
                kind: r.narrow("field exceeds u8")?,
                isp: r.narrow("field exceeds u8")?,
                rat: r.narrow("field exceeds u8")?,
                model: r.narrow("field exceeds u8")?,
                region: r.narrow("field exceeds u8")?,
                cause_class: r.narrow("field exceeds u8")?,
                cause: r.varint()?,
            };
            if prev_key.is_some_and(|pk| key <= pk) {
                return Err(r.invalid("cells out of order"));
            }
            prev_key = Some(key);
            let count = r.varint()?;
            let duration_ms_total = r.varint()?;
            let under_30s = r.varint()?;
            let sketch = read_run(&mut r)?;
            if sketch.count() != count || under_30s > count {
                return Err(r.invalid("cell/sketch count mismatch"));
            }
            // A one-record cell is what `Cell::push` made of its duration,
            // all a sealed row of it keeps (`crate::columnar`): any other
            // could not be sealed and saved as itself.
            let d = duration_ms_total;
            if count == 1
                && (under_30s != u64::from(d < UNDER_30S_MS)
                    || (sketch.min(), sketch.max()) != (Some(d), Some(d)))
            {
                return Err(r.invalid("one-record cell"));
            }
            cells.push((
                key,
                Cell {
                    count,
                    duration_ms_total,
                    under_30s,
                    sketch,
                },
            ));
        }
        p.cells = BTreeMap::from_iter(cells);
        if r.version() == STORE_VERSION_COLUMNAR {
            // A segment costs at least a header + CRC.
            let nsegs = r.count("segment count", 8)?;
            for _ in 0..nsegs {
                p.segments.push(ColumnSegment::decode(&mut r)?);
            }
        }
        // Id, model, region, isp, failures.
        let ndevices = r.count("device count", 5)?;
        let mut devices = Vec::with_capacity(ndevices);
        let mut prev_id: Option<u32> = None;
        for _ in 0..ndevices {
            let v: u32 = r.narrow("device id")?;
            let id = match prev_id {
                None => v,
                Some(_) if v == 0 => return Err(r.invalid("zero device id delta")),
                Some(last) => last.checked_add(v).ok_or(r.invalid("device id overflow"))?,
            };
            prev_id = Some(id);
            let rec = DeviceRec {
                model: r.narrow("field exceeds u8")?,
                region: r.narrow("field exceeds u8")?,
                isp: r.narrow("field exceeds u8")?,
                failures: r.varint()?,
            };
            devices.push((id, rec));
        }
        p.devices = BTreeMap::from_iter(devices);
    }
    r.finish()?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{build_sharded, DeviceDirectory};
    use cellrel_ingest::FrameErrorKind;
    use cellrel_types::{
        Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
        SignalLevel, SimDuration, SimTime,
    };

    fn fixture() -> Store {
        let events: Vec<FailureEvent> = (0..250u32)
            .map(|i| FailureEvent {
                device: DeviceId(i % 25),
                kind: FailureKind::ALL[i as usize % 5],
                start: SimTime::from_secs(u64::from(i) * 5_000),
                duration: SimDuration::from_secs(1 + u64::from(i % 90)),
                cause: (i % 4 == 0).then_some(DataFailCause::NoService),
                ctx: InSituInfo {
                    rat: Rat::ALL[i as usize % 4],
                    signal: SignalLevel::L2,
                    apn: Apn::Internet,
                    bs: Some(BsId::gsm_cn(0, 3, 9)),
                    isp: Isp::ALL[i as usize % 3],
                },
            })
            .collect();
        build_sharded(
            &StoreConfig {
                partitions: 5,
                auto_compact_every: 40,
                ..StoreConfig::default()
            },
            &DeviceDirectory::default(),
            &events,
            1,
        )
    }

    #[test]
    fn round_trip_is_exact() {
        let store = fixture();
        assert!(
            store.sealed_segments() > 0,
            "fixture auto-compacts, so it must exercise the v2 path"
        );
        let bytes = save_store(&store);
        assert_eq!(bytes[2], STORE_VERSION_COLUMNAR);
        let restored = restore_store(&bytes).unwrap();
        assert_eq!(restored, store);
        assert_eq!(restored.digest(), store.digest());
    }

    #[test]
    fn row_only_stores_still_save_as_v1() {
        // No compaction → no segments → the image must be plain v1, so
        // pre-columnar readers and golden row-store snapshots never see
        // the new framing.
        let store = build_sharded(
            &StoreConfig {
                partitions: 5,
                auto_compact_every: 0,
                ..StoreConfig::default()
            },
            &DeviceDirectory::default(),
            &[],
            1,
        );
        let bytes = save_store(&store);
        assert_eq!(bytes[2], STORE_VERSION);
        assert_eq!(restore_store(&bytes).unwrap(), store);
    }

    #[test]
    fn sealed_store_round_trips_exactly() {
        let mut store = fixture();
        store.seal_columnar();
        assert_eq!(store.sealed_cells(), store.cells());
        let bytes = save_store(&store);
        assert_eq!(bytes[2], STORE_VERSION_COLUMNAR);
        let restored = restore_store(&bytes).unwrap();
        assert_eq!(restored, store);
        assert_eq!(restored.digest(), store.digest());
    }

    #[test]
    fn empty_store_round_trips() {
        let store = Store::new(&StoreConfig::default());
        let restored = restore_store(&save_store(&store)).unwrap();
        assert_eq!(restored, store);
    }

    /// (Every prefix and every bit flip: `frame_totality`'s `cs` row.)
    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let bytes = save_store(&fixture());
        assert_eq!(restore_store(&[]), Err(CS.error(FrameErrorKind::Truncated)));
        // A byte behind the trailer shifts what is read as the trailer.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            restore_store(&trailing).map_err(|e| (e.family, e.kind)),
            Err((family, FrameErrorKind::BadCrc { .. })) if *family == CS
        ));
    }

    #[test]
    fn version_and_magic_are_checked() {
        let mut bytes = save_store(&Store::new(&StoreConfig::default()));
        bytes[2] = 9;
        assert_eq!(
            restore_store(&bytes),
            Err(CS.error(FrameErrorKind::UnsupportedVersion(9)))
        );
        bytes[0] = b'X';
        assert_eq!(
            restore_store(&bytes),
            Err(CS.error(FrameErrorKind::BadMagic { found: *b"XS" }))
        );
    }
}
