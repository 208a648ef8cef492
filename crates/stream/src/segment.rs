//! Tiered segment storage: CRC-framed persisted window deltas plus the
//! manifest that names them.
//!
//! A **segment** is one sealed store delta — the cells contributed by a
//! single time window (or one flush of the late lane) — wrapped in a
//! versioned frame: magic, header fields, the `cellrel-store` persistence
//! image, CRC-32 trailer. Segments are immutable once written and are
//! re-written idempotently on replay (a restart may reseal a window whose
//! segment already landed; the bytes are identical by determinism).
//!
//! The **manifest** is the ordered list of [`SegmentEntry`] headers, one
//! per seal, serialized inside the pipeline checkpoint. On restore every
//! entry is reloaded from the [`SegmentStore`] backend and cross-checked
//! against the manifest (kind, index, watermark, record count, digest) —
//! a missing or tampered segment is a typed error, not a wrong answer.

use crate::StreamError;
use cellrel_ingest::frame::{seal_around, write_varint, Frame, FrameError, Marks, Reader, SG};
use cellrel_store::{read_store, save_store, Store, StoreConfig};
use std::collections::BTreeMap;

/// Current segment frame schema version.
pub(crate) const SEG_VERSION: u8 = 1;

/// What a segment holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// One sealed time window's delta; `index` is the window index.
    Window,
    /// One flush of the late lane; `index` is the flush sequence number.
    Late,
}

impl SegmentKind {
    fn as_u8(self) -> u8 {
        match self {
            SegmentKind::Window => 0,
            SegmentKind::Late => 1,
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8()? {
            0 => Ok(SegmentKind::Window),
            1 => Ok(SegmentKind::Late),
            _ => Err(r.invalid("segment kind")),
        }
    }
}

/// One manifest line: everything needed to name, reload, and verify a
/// persisted segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Window segment or late-lane flush.
    pub kind: SegmentKind,
    /// Window index (`start_ms / window_ms`) or late-flush sequence.
    pub index: u64,
    /// Collector watermark at seal time, ms.
    pub watermark_ms: u64,
    /// Records folded into the segment's delta.
    pub records: u64,
    /// `Store::digest` of the delta (canonical, layout-invariant).
    pub digest: u64,
    /// Encoded frame length in bytes (not part of the frame header).
    pub bytes: u64,
}

impl SegmentEntry {
    /// The backend name the segment persists under.
    pub fn name(&self) -> String {
        match self.kind {
            SegmentKind::Window => format!("w{:010}.seg", self.index),
            SegmentKind::Late => format!("l{:010}.seg", self.index),
        }
    }
}

/// Encode one sealed delta as a segment frame. The returned bytes are a
/// pure function of `(entry, store)` — replays overwrite identically.
pub fn encode_segment(entry: &SegmentEntry, store: &Store) -> Vec<u8> {
    let image = save_store(store);
    let mut out = Vec::with_capacity(image.len() + 32);
    let start = SG.begin(&mut out, SEG_VERSION);
    out.push(entry.kind.as_u8());
    write_varint(&mut out, entry.index);
    write_varint(&mut out, entry.watermark_ms);
    write_varint(&mut out, entry.records);
    write_varint(&mut out, entry.digest);
    write_varint(&mut out, image.len() as u64);
    let embedded = out.len()..out.len() + image.len();
    out.extend_from_slice(&image);
    // The image is a sealed `CS` frame: it is not summed a second time.
    seal_around(&mut out, start, &[embedded]);
    out
}

/// Decode a segment frame back into its header and delta. Total: hostile
/// bytes yield a typed [`FrameError`]. The returned entry's `bytes` field
/// is the frame length. The bytes are marked first, so the image and its
/// blocks are checked without reading them again ([`read_segment`]).
pub fn decode_segment(bytes: &[u8]) -> Result<(SegmentEntry, Store), FrameError> {
    read_segment(Marks::new(bytes).frame())
}

/// [`decode_segment`] of a frame that is plain bytes or marked — a segment
/// a replication frame carries, say. The result and every error are the
/// same either way.
pub fn read_segment(frame: Frame<'_>) -> Result<(SegmentEntry, Store), FrameError> {
    let mut r = SG.open(frame)?;
    let kind = SegmentKind::read(&mut r)?;
    let index = r.varint()?;
    let watermark_ms = r.varint()?;
    let records = r.varint()?;
    let digest = r.varint()?;
    let image = r.frame("segment image length")?;
    r.finish()?;
    let store = read_store(image)?;
    if store.inserted() != records || store.digest() != digest {
        return Err(SG.invalid("segment header/image disagreement"));
    }
    let entry = SegmentEntry {
        kind,
        index,
        watermark_ms,
        records,
        digest,
        bytes: frame.bytes().len() as u64,
    };
    Ok((entry, store))
}

/// Fetch the segment a manifest `entry` names and verify it before anyone
/// uses it: the frame must decode, describe itself exactly as the entry
/// does (kind, index, watermark, records, digest, length) and have been
/// built under `store_cfg`. Returns the frame bytes and the decoded delta.
/// A missing segment is [`StreamError::SegmentMissing`], a damaged one
/// [`StreamError::Frame`], a wrong one [`StreamError::SegmentMismatch`].
pub fn fetch_segment(
    segs: &dyn SegmentStore,
    entry: &SegmentEntry,
    store_cfg: &StoreConfig,
) -> Result<(Vec<u8>, Store), StreamError> {
    let bytes = segs.get(&entry.name())?;
    let (decoded, delta) = decode_segment(&bytes)?;
    if decoded != *entry || delta.config() != store_cfg {
        return Err(StreamError::SegmentMismatch(entry.name()));
    }
    Ok((bytes, delta))
}

/// Serialize a manifest (an ordered entry list) as a bare field sequence —
/// embedded in the pipeline checkpoint, which provides framing and CRC.
pub fn encode_manifest(entries: &[SegmentEntry], out: &mut Vec<u8>) {
    write_varint(out, entries.len() as u64);
    for e in entries {
        out.push(e.kind.as_u8());
        write_varint(out, e.index);
        write_varint(out, e.watermark_ms);
        write_varint(out, e.records);
        write_varint(out, e.digest);
        write_varint(out, e.bytes);
    }
}

/// Inverse of [`encode_manifest`]. Total; bounds entry count by the bytes
/// actually present so a lying length cannot balloon the allocation.
pub fn decode_manifest(r: &mut Reader<'_>) -> Result<Vec<SegmentEntry>, FrameError> {
    // Each entry takes at least 6 bytes (kind + five 1-byte varints).
    let n = r.count("manifest length", 6)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(SegmentEntry {
            kind: SegmentKind::read(r)?,
            index: r.varint()?,
            watermark_ms: r.varint()?,
            records: r.varint()?,
            digest: r.varint()?,
            bytes: r.varint()?,
        });
    }
    Ok(entries)
}

/// Where sealed segments persist. The pipeline only needs put-by-name and
/// get-by-name; `put` must overwrite idempotently (restart replays may
/// reseal a window whose segment already landed).
pub trait SegmentStore {
    /// Persist `bytes` under `name`, replacing any previous content.
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StreamError>;
    /// Fetch the bytes persisted under `name`.
    fn get(&self, name: &str) -> Result<Vec<u8>, StreamError>;
}

/// In-memory segment backend: the hot default for tests and campaigns,
/// and the stand-in for "durable storage that survives the kill".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemSegments {
    segments: BTreeMap<String, Vec<u8>>,
}

impl MemSegments {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Segments currently held.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segment has been persisted yet.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total persisted bytes across all segments.
    pub fn bytes(&self) -> u64 {
        self.segments.values().map(|v| v.len() as u64).sum()
    }

    /// Mutable access for fault injection in tests (bit flips, deletions).
    pub fn raw_mut(&mut self) -> &mut BTreeMap<String, Vec<u8>> {
        &mut self.segments
    }
}

impl SegmentStore for MemSegments {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StreamError> {
        self.segments.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StreamError> {
        self.segments
            .get(name)
            .cloned()
            .ok_or_else(|| StreamError::SegmentMissing(name.to_string()))
    }
}

/// Filesystem segment backend: one file per segment under a directory,
/// the on-disk counterpart of [`MemSegments`]. Writes go through a temp
/// file + fsync + rename + directory fsync, so a kill mid-write never
/// leaves a torn segment under its final name **and** a crash right after
/// publish cannot lose a segment the manifest already references (the
/// rename itself is only durable once the parent directory entry is
/// synced).
#[derive(Debug, Clone)]
pub struct DirSegments {
    dir: std::path::PathBuf,
}

impl DirSegments {
    /// Open (creating if needed) a directory-backed segment store.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self, StreamError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StreamError::Io(e.to_string()))?;
        Ok(DirSegments { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

impl SegmentStore for DirSegments {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StreamError> {
        use std::io::Write;
        let io = |e: std::io::Error| StreamError::Io(e.to_string());
        let tmp = self.dir.join(format!("{name}.tmp"));
        let fin = self.dir.join(name);
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        // Contents must hit stable storage before the rename publishes the
        // final name, and the rename must hit it before the caller records
        // the segment in its manifest — hence file fsync, rename, then
        // parent-directory fsync.
        f.sync_all().map_err(io)?;
        drop(f);
        std::fs::rename(&tmp, &fin).map_err(io)?;
        std::fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(io)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StreamError> {
        match std::fs::read(self.dir.join(name)) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StreamError::SegmentMissing(name.to_string()))
            }
            Err(e) => Err(StreamError::Io(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the durability hole the cluster replication path
    /// leans on: `put` must leave no `.tmp` residue under the final name's
    /// directory, survive overwrites, and round-trip bytes exactly. (The
    /// fsync-ordering property itself is not observable in-process; this
    /// pins the publish protocol around it.)
    #[test]
    fn dir_segments_publish_leaves_no_temp_residue() {
        let dir = std::env::temp_dir().join(format!("cellrel-dirsegs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut segs = DirSegments::open(&dir).expect("open");
        segs.put("w0000000001.seg", b"first").expect("put");
        segs.put("w0000000001.seg", b"second write wins")
            .expect("overwrite");
        segs.put("l0000000001.seg", b"late lane").expect("put");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "temp residue after publish: {names:?}"
        );
        assert_eq!(
            segs.get("w0000000001.seg").expect("get"),
            b"second write wins"
        );
        assert_eq!(segs.get("l0000000001.seg").expect("get"), b"late lane");
        assert!(matches!(
            segs.get("missing.seg"),
            Err(StreamError::SegmentMissing(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
