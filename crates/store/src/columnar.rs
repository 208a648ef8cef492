//! Columnar sealed segments: sorted key runs with per-column arrays.
//!
//! A [`ColumnSegment`] is the immutable, scan-optimised layout for sealed
//! cube data: cells sorted by [`CellKey`], stored as one array per key
//! dimension and one per aggregate column, with the per-cell quantile
//! sketches pooled into a single contiguous `(bucket, count)` arena
//! addressed by an offset column. The analytical-store recipe — sorted
//! runs, struct-of-arrays columns, zone maps — applied to the cube so the
//! query engine can run tight per-column filter loops and materialise only
//! matching rows, while every answer stays byte-identical to the row
//! engine (the differential suite in `tests/store_differential.rs` holds
//! that line).
//!
//! **Zone maps.** Each segment carries the inclusive `[min, max]` of every
//! key column ([`Zones`]). A conjunctive equality filter whose wanted value
//! falls outside a column's range provably matches no row of the segment,
//! so the scan can skip it without touching any column — see
//! [`Zones::may_match_value`] for the one subtle case (raw cause codes).
//!
//! **Merging.** Segments never mutate; compaction and merges build a new
//! segment by k-way merging sorted runs (`merge_runs`), folding cells
//! with equal keys by the same exact [`Merge`] algebra the row path uses —
//! so layout changes can never change a digest or a query answer.
//!
//! **Framing.** [`ColumnSegment::encode`] emits a self-delimiting `SC`
//! block (magic, version, varint/delta-coded columns, zone maps, CRC-32
//! trailer) embedded by the v2 store image next to the v1 row sections.
//! Decoding is total: truncated, bit-flipped, or adversarial bytes return
//! a typed [`FrameError`], never panic, and never allocate past the
//! input length; decoded sketch runs are re-validated so later
//! materialisation cannot fail.

use crate::cube::{Cell, CellKey};
use cellrel_ingest::frame::{seal, write_varint, FrameError, Reader, SC};
use cellrel_sim::{Merge, SparseSketch};
use std::collections::BTreeMap;

/// Current segment block format version.
pub const SEGMENT_VERSION: u8 = 1;

/// Per-column inclusive `[min, max]` ranges over one segment's keys.
///
/// Zone maps let the scan skip a whole segment when a filter's wanted
/// value provably falls outside the column's range. They are recomputed
/// and cross-checked on decode, so a restored segment can never carry
/// zones that disagree with its columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Zones {
    /// Time-bucket range.
    pub bucket: (u32, u32),
    /// `FailureKind::index()` range.
    pub kind: (u8, u8),
    /// `Isp::index()` range.
    pub isp: (u8, u8),
    /// `Rat::index()` range.
    pub rat: (u8, u8),
    /// Model id range.
    pub model: (u8, u8),
    /// `Region::index()` range.
    pub region: (u8, u8),
    /// Cause-class range.
    pub cause_class: (u8, u8),
    /// Wire-encoded cause range (`0` = none, else `1 + zigzag(code)`).
    pub cause: (u64, u64),
}

impl Zones {
    /// True when a cell whose raw `cause` field equals `want` could exist
    /// in this segment — the pruning predicate for equality filters on the
    /// cause column.
    ///
    /// The cause filter compares *decoded* `i32` codes, and decoding
    /// truncates (`unzigzag(v - 1) as i32`), so values ≥ 2³² can alias a
    /// small code. The canonical encoding of any `i32` code is < 2³³, and
    /// every alias of it is ≥ 2³², so pruning on `want` is only sound when
    /// the segment's cause column stays below 2³² — then out-of-range
    /// `want` provably matches nothing.
    pub fn may_match_value(&self, want: u64) -> bool {
        if self.cause.1 >= 1 << 32 {
            return true; // aliasing possible: never prune
        }
        self.cause.0 <= want && want <= self.cause.1
    }
}

/// One immutable sealed run of cells in columnar layout. See the module
/// docs; build with [`ColumnSegment::from_rows`] or `merge_runs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSegment {
    // Key columns, sorted by the composite CellKey order (bucket first).
    pub(crate) buckets: Vec<u32>,
    pub(crate) kinds: Vec<u8>,
    pub(crate) isps: Vec<u8>,
    pub(crate) rats: Vec<u8>,
    pub(crate) models: Vec<u8>,
    pub(crate) regions: Vec<u8>,
    pub(crate) cause_classes: Vec<u8>,
    pub(crate) causes: Vec<u64>,
    // Aggregate columns.
    pub(crate) counts: Vec<u64>,
    pub(crate) duration_totals: Vec<u64>,
    pub(crate) under_30s: Vec<u64>,
    // Sketch pool: cell i's run is sk_pool[sk_off[i]..sk_off[i+1]] with
    // exact extremes sk_min[i]/sk_max[i]; run counts sum to counts[i].
    pub(crate) sk_min: Vec<u64>,
    pub(crate) sk_max: Vec<u64>,
    pub(crate) sk_off: Vec<u32>,
    pub(crate) sk_pool: Vec<(u32, u64)>,
    zones: Zones,
}

impl ColumnSegment {
    fn empty() -> Self {
        ColumnSegment {
            buckets: Vec::new(),
            kinds: Vec::new(),
            isps: Vec::new(),
            rats: Vec::new(),
            models: Vec::new(),
            regions: Vec::new(),
            cause_classes: Vec::new(),
            causes: Vec::new(),
            counts: Vec::new(),
            duration_totals: Vec::new(),
            under_30s: Vec::new(),
            sk_min: Vec::new(),
            sk_max: Vec::new(),
            sk_off: vec![0],
            sk_pool: Vec::new(),
            zones: Zones::default(),
        }
    }

    fn push_row(&mut self, k: CellKey, c: &Cell) {
        debug_assert!(
            self.buckets.is_empty() || self.key_at(self.len() - 1) < k,
            "segment rows must be strictly key-ascending"
        );
        self.buckets.push(k.bucket);
        self.kinds.push(k.kind);
        self.isps.push(k.isp);
        self.rats.push(k.rat);
        self.models.push(k.model);
        self.regions.push(k.region);
        self.cause_classes.push(k.cause_class);
        self.causes.push(k.cause);
        self.counts.push(c.count);
        self.duration_totals.push(c.duration_ms_total);
        self.under_30s.push(c.under_30s);
        self.sk_min.push(c.sketch.min().unwrap_or(0));
        self.sk_max.push(c.sketch.max().unwrap_or(0));
        self.sk_pool
            .extend(c.sketch.nonzero_buckets().map(|(i, n)| (i as u32, n)));
        self.sk_off.push(self.sk_pool.len() as u32);
    }

    fn finish(mut self) -> Option<Self> {
        if self.buckets.is_empty() {
            return None;
        }
        self.zones = compute_zones(&self);
        Some(self)
    }

    /// Build a segment from `(key, cell)` rows; duplicate keys merge by
    /// the exact cell algebra, and rows need not arrive sorted. Returns
    /// `None` for an empty input (empty segments are never stored).
    pub fn from_rows(rows: impl IntoIterator<Item = (CellKey, Cell)>) -> Option<Self> {
        let mut sorted: BTreeMap<CellKey, Cell> = BTreeMap::new();
        for (k, c) in rows {
            match sorted.get_mut(&k) {
                Some(mine) => mine.merge(c),
                None => {
                    sorted.insert(k, c);
                }
            }
        }
        merge_runs(vec![Run::Map(sorted.into_iter())])
    }

    /// Cells in the run.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when the run holds no cells (never stored; a decode result
    /// can still be empty).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The per-column zone maps.
    pub fn zones(&self) -> &Zones {
        &self.zones
    }

    /// Reassemble row `i`'s key.
    pub(crate) fn key_at(&self, i: usize) -> CellKey {
        CellKey {
            bucket: self.buckets[i],
            kind: self.kinds[i],
            isp: self.isps[i],
            rat: self.rats[i],
            model: self.models[i],
            region: self.regions[i],
            cause_class: self.cause_classes[i],
            cause: self.causes[i],
        }
    }

    /// Row `i`'s sketch as a raw `(min, max, run)` triple over the pool —
    /// the zero-copy form [`SparseSketch::merge_run`] accepts.
    pub(crate) fn sketch_run(&self, i: usize) -> (u64, u64, &[(u32, u64)]) {
        let lo = self.sk_off[i] as usize;
        let hi = self.sk_off[i + 1] as usize;
        (self.sk_min[i], self.sk_max[i], &self.sk_pool[lo..hi])
    }

    /// Materialise row `i` as a row-layout cell.
    pub(crate) fn cell_at(&self, i: usize) -> Cell {
        let (min, max, run) = self.sketch_run(i);
        let sketch = SparseSketch::from_parts(min, max, run.iter().map(|&(b, n)| (b as usize, n)))
            .expect("segment sketch runs are validated on build and decode");
        Cell {
            count: self.counts[i],
            duration_ms_total: self.duration_totals[i],
            under_30s: self.under_30s[i],
            sketch,
        }
    }

    /// Iterate `(key, cell)` rows in key order (materialising each cell).
    pub fn rows(&self) -> impl Iterator<Item = (CellKey, Cell)> + '_ {
        (0..self.len()).map(|i| (self.key_at(i), self.cell_at(i)))
    }

    /// Index range `[i0, i1)` of rows whose bucket lies in `[lo, hi)`.
    pub(crate) fn bucket_range(&self, lo: u32, hi: u32) -> (usize, usize) {
        let i0 = self.buckets.partition_point(|&b| b < lo);
        let i1 = self.buckets.partition_point(|&b| b < hi);
        (i0, i1)
    }

    /// Encode as a self-delimiting `SC` block (see the module docs).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = SC.begin(out, SEGMENT_VERSION);
        let n = self.len();
        write_varint(out, n as u64);
        // Buckets: first raw, then non-negative deltas (sorted run).
        let mut prev = 0u32;
        for (i, &b) in self.buckets.iter().enumerate() {
            let delta = if i == 0 { b } else { b - prev };
            write_varint(out, u64::from(delta));
            prev = b;
        }
        for col in [
            &self.kinds,
            &self.isps,
            &self.rats,
            &self.models,
            &self.regions,
            &self.cause_classes,
        ] {
            out.extend_from_slice(col);
        }
        for col in [
            &self.causes,
            &self.counts,
            &self.duration_totals,
            &self.under_30s,
            &self.sk_min,
            &self.sk_max,
        ] {
            for &v in col.iter() {
                write_varint(out, v);
            }
        }
        // Sketch pool: per-cell nnz, then delta-coded (index, count) pairs
        // exactly like the v1 row sketches.
        for i in 0..n {
            let (_, _, run) = self.sketch_run(i);
            write_varint(out, run.len() as u64);
            let mut prev_idx = 0u32;
            for (j, &(idx, cnt)) in run.iter().enumerate() {
                let delta = if j == 0 { idx } else { idx - prev_idx };
                write_varint(out, u64::from(delta));
                write_varint(out, cnt);
                prev_idx = idx;
            }
        }
        // Zone maps, written (and cross-checked on decode) so readers can
        // prune without trusting a recomputation they didn't do.
        let z = &self.zones;
        for v in [u64::from(z.bucket.0), u64::from(z.bucket.1)] {
            write_varint(out, v);
        }
        for (lo, hi) in [z.kind, z.isp, z.rat, z.model, z.region, z.cause_class] {
            write_varint(out, u64::from(lo));
            write_varint(out, u64::from(hi));
        }
        write_varint(out, z.cause.0);
        write_varint(out, z.cause.1);
        seal(out, start);
    }

    /// Decode one `SC` block at the reader's cursor, advancing it past the
    /// block's CRC trailer. Total: every failure mode is a typed
    /// [`FrameError`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let block = r.enter(&SC)?;
        // Per row: a bucket delta, six key bytes, six varint columns, nnz.
        let n = r.count("segment row count", 14)?;
        let mut seg = ColumnSegment::empty();
        let mut prev = 0u64;
        for _ in 0..n {
            // The first bucket is raw (a delta from zero).
            let b = prev
                .checked_add(r.varint()?)
                .ok_or(r.invalid("bucket overflow"))?;
            prev = b;
            seg.buckets
                .push(u32::try_from(b).map_err(|_| r.invalid("bucket exceeds u32"))?);
        }
        for col in [
            &mut seg.kinds,
            &mut seg.isps,
            &mut seg.rats,
            &mut seg.models,
            &mut seg.regions,
            &mut seg.cause_classes,
        ] {
            col.extend_from_slice(r.take(n)?);
        }
        for col in [
            &mut seg.causes,
            &mut seg.counts,
            &mut seg.duration_totals,
            &mut seg.under_30s,
            &mut seg.sk_min,
            &mut seg.sk_max,
        ] {
            col.reserve(n);
            for _ in 0..n {
                col.push(r.varint()?);
            }
        }
        // Keys must come out strictly ascending — equal-bucket runs order
        // by the remaining key columns, which the deltas above can't check.
        for i in 1..n {
            if seg.key_at(i) <= seg.key_at(i - 1) {
                return Err(r.invalid("segment keys out of order"));
            }
        }
        for i in 0..n {
            let nnz = r.count("sketch length", 2)?;
            let run_start = seg.sk_pool.len();
            let mut idx = 0u32;
            for j in 0..nnz {
                let d: u32 = r.narrow("sketch index")?;
                if j > 0 && d == 0 {
                    return Err(r.invalid("zero sketch index delta"));
                }
                idx = idx
                    .checked_add(d)
                    .ok_or(r.invalid("sketch index overflow"))?;
                let cnt = r.varint()?;
                seg.sk_pool.push((idx, cnt));
            }
            seg.sk_off.push(seg.sk_pool.len() as u32);
            // Re-validate through the sketch's own total constructor so a
            // later materialisation of this row can never fail, and pin the
            // cross-column invariants the builder guarantees.
            let run = &seg.sk_pool[run_start..];
            let sk = SparseSketch::from_parts(
                seg.sk_min[i],
                seg.sk_max[i],
                run.iter().map(|&(b, c)| (b as usize, c)),
            )
            .ok_or(r.invalid("invalid segment sketch run"))?;
            if sk.count() != seg.counts[i] || seg.under_30s[i] > seg.counts[i] {
                return Err(r.invalid("segment cell/sketch mismatch"));
            }
        }
        let mut zones = Zones {
            bucket: (
                r.narrow("zone bucket exceeds u32")?,
                r.narrow("zone bucket exceeds u32")?,
            ),
            ..Zones::default()
        };
        for field in [
            &mut zones.kind,
            &mut zones.isp,
            &mut zones.rat,
            &mut zones.model,
            &mut zones.region,
            &mut zones.cause_class,
        ] {
            *field = (
                r.narrow("zone field exceeds u8")?,
                r.narrow("zone field exceeds u8")?,
            );
        }
        zones.cause = (r.varint()?, r.varint()?);
        seg.zones = zones;
        if !seg.is_empty() && compute_zones(&seg) != zones {
            return Err(r.invalid("zone maps disagree with columns"));
        }
        r.leave(block)?;
        Ok(seg)
    }
}

fn compute_zones(seg: &ColumnSegment) -> Zones {
    fn range<T: Copy + Ord>(col: &[T]) -> (T, T) {
        let lo = *col.iter().min().expect("non-empty segment");
        let hi = *col.iter().max().expect("non-empty segment");
        (lo, hi)
    }
    Zones {
        bucket: (seg.buckets[0], seg.buckets[seg.buckets.len() - 1]),
        kind: range(&seg.kinds),
        isp: range(&seg.isps),
        rat: range(&seg.rats),
        model: range(&seg.models),
        region: range(&seg.regions),
        cause_class: range(&seg.cause_classes),
        cause: range(&seg.causes),
    }
}

/// One sorted input run for [`merge_runs`]: either an ordered map being
/// dissolved (hot cells, folded rows) or an existing segment passed
/// through by reference.
pub(crate) enum Run<'a> {
    /// Rows from an ordered map (already key-ascending).
    Map(std::collections::btree_map::IntoIter<CellKey, Cell>),
    /// Rows of an existing segment.
    Seg(&'a ColumnSegment, usize),
}

impl Iterator for Run<'_> {
    type Item = (CellKey, Cell);

    fn next(&mut self) -> Option<(CellKey, Cell)> {
        match self {
            Run::Map(it) => it.next(),
            Run::Seg(seg, i) => {
                if *i < seg.len() {
                    let row = (seg.key_at(*i), seg.cell_at(*i));
                    *i += 1;
                    Some(row)
                } else {
                    None
                }
            }
        }
    }
}

impl<'a> Run<'a> {
    /// A run over a whole segment.
    pub(crate) fn seg(seg: &'a ColumnSegment) -> Self {
        Run::Seg(seg, 0)
    }
}

/// K-way merge sorted runs into one canonical segment, folding cells with
/// equal keys by exact cell merge. The result depends only on the merged
/// *content* (cell merge is commutative and associative), never on run
/// order — which keeps partition merges commutative even when both sides
/// carry segments. Returns `None` when the runs hold no rows.
pub(crate) fn merge_runs(runs: Vec<Run<'_>>) -> Option<ColumnSegment> {
    let mut iters: Vec<std::iter::Peekable<Run<'_>>> =
        runs.into_iter().map(Iterator::peekable).collect();
    let mut seg = ColumnSegment::empty();
    loop {
        let mut min: Option<CellKey> = None;
        for it in &mut iters {
            if let Some((k, _)) = it.peek() {
                min = Some(match min {
                    None => *k,
                    Some(m) => m.min(*k),
                });
            }
        }
        let Some(key) = min else { break };
        let mut acc: Option<Cell> = None;
        for it in &mut iters {
            while it.peek().is_some_and(|(k, _)| *k == key) {
                let (_, c) = it.next().expect("peeked");
                match &mut acc {
                    Some(a) => a.merge(c),
                    None => acc = Some(c),
                }
            }
        }
        seg.push_row(key, &acc.expect("at least one run held the min key"));
    }
    seg.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(bucket: u32, kind: u8, cause: u64) -> CellKey {
        CellKey {
            bucket,
            kind,
            isp: 1,
            rat: 2,
            model: 3,
            region: 0,
            cause_class: if cause == 0 { 255 } else { 2 },
            cause,
        }
    }

    fn cell(durations: &[u64]) -> Cell {
        let mut c = Cell::default();
        for &d in durations {
            c.push(d);
        }
        c
    }

    #[test]
    fn from_rows_sorts_merges_and_zones() {
        let seg = ColumnSegment::from_rows([
            (key(9, 1, 0), cell(&[5_000])),
            (key(2, 0, 3), cell(&[40_000, 10_000])),
            (key(9, 1, 0), cell(&[7_000])),
        ])
        .unwrap();
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.key_at(0), key(2, 0, 3));
        let (k, c) = seg.rows().nth(1).unwrap();
        assert_eq!(k, key(9, 1, 0));
        assert_eq!(c.count, 2);
        assert_eq!(c.duration_ms_total, 12_000);
        assert_eq!(c.under_30s, 2);
        assert_eq!(c.sketch.max(), Some(7_000));
        let z = seg.zones();
        assert_eq!(z.bucket, (2, 9));
        assert_eq!(z.kind, (0, 1));
        assert_eq!(z.cause, (0, 3));
        assert!(ColumnSegment::from_rows([]).is_none());
    }

    #[test]
    fn merge_runs_is_run_order_invariant() {
        let a = ColumnSegment::from_rows([
            (key(1, 0, 0), cell(&[1_000])),
            (key(5, 2, 7), cell(&[2_000])),
        ])
        .unwrap();
        let b = ColumnSegment::from_rows([
            (key(1, 0, 0), cell(&[9_000])),
            (key(3, 1, 0), cell(&[4_000])),
        ])
        .unwrap();
        let ab = merge_runs(vec![Run::seg(&a), Run::seg(&b)]).unwrap();
        let ba = merge_runs(vec![Run::seg(&b), Run::seg(&a)]).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 3);
        let (_, folded) = ab.rows().next().unwrap();
        assert_eq!(folded.count, 2);
        assert_eq!(folded.duration_ms_total, 10_000);
    }

    #[test]
    fn bucket_range_brackets_edges_exactly() {
        let seg = ColumnSegment::from_rows(
            [0u32, 4, 4, 8, 9]
                .iter()
                .enumerate()
                .map(|(i, &b)| (key(b, i as u8 % 5, 0), cell(&[1_000]))),
        )
        .unwrap();
        assert_eq!(seg.bucket_range(0, u32::MAX), (0, 5));
        assert_eq!(seg.bucket_range(4, 8), (1, 3));
        assert_eq!(seg.bucket_range(8, 9), (3, 4));
        assert_eq!(seg.bucket_range(10, 20), (5, 5));
    }

    #[test]
    fn encode_decode_round_trips() {
        let seg = ColumnSegment::from_rows([
            (key(0, 0, 0), cell(&[100, 200, 400_000])),
            (key(7, 4, 9), cell(&[31_000])),
            (key(7, 4, 11), cell(&[])),
        ])
        .unwrap();
        let mut bytes = Vec::new();
        seg.encode(&mut bytes);
        let mut r = Reader::bare(&SC, &bytes);
        let back = ColumnSegment::decode(&mut r).unwrap();
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(back, seg);
    }

    #[test]
    fn decode_rejects_corruption() {
        let seg = ColumnSegment::from_rows([(key(3, 1, 5), cell(&[10_000, 20_000]))]).unwrap();
        let mut bytes = Vec::new();
        seg.encode(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                ColumnSegment::decode(&mut Reader::bare(&SC, &bytes[..cut])).is_err(),
                "truncation at {cut} must fail"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                ColumnSegment::decode(&mut Reader::bare(&SC, &bad)).is_err(),
                "bit flip at {i} must fail"
            );
        }
    }

    #[test]
    fn cause_zone_pruning_is_alias_aware() {
        let z = Zones {
            cause: (3, 9),
            ..Zones::default()
        };
        assert!(z.may_match_value(3));
        assert!(z.may_match_value(9));
        assert!(!z.may_match_value(2));
        assert!(!z.may_match_value(10));
        // A segment holding huge raw cause values can alias any code after
        // i32 truncation: pruning must switch off entirely.
        let huge = Zones {
            cause: (3, 1 << 33),
            ..Zones::default()
        };
        assert!(huge.may_match_value(2));
    }
}
