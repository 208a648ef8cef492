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
//! key column (`Zones`). A conjunctive equality filter whose wanted value
//! falls outside a column's range provably matches no row of the segment,
//! so the scan can skip it without touching any column — see
//! `Zones::may_match_value` for the one subtle case (raw cause codes).
//!
//! **Merging.** Segments never mutate; compaction, merges and views build
//! a new segment by k-way merging sorted runs (`merge_runs`): rows only one
//! run holds move column to column as whole ranges, and rows with equal
//! keys are summed by the same exact [`Merge`](cellrel_sim::Merge) algebra the row path uses —
//! so layout changes can never change a digest or a query answer.
//!
//! **Framing.** [`ColumnSegment::encode`] emits a self-delimiting `SC`
//! block (magic, version, varint/delta-coded columns, zone maps, CRC-32
//! trailer) embedded by the v2 store image next to the v1 row sections.
//! Decoding is total: truncated, bit-flipped, or adversarial bytes return
//! a typed [`FrameError`], never panic, and never allocate past the
//! input length; decoded sketch runs are re-validated so later
//! materialisation cannot fail.
//!
//! **A one-record row is its duration.** Most sealed rows hold a single
//! record (four in five of a batch-loaded store's), and such a row is what
//! `Cell::push` makes of one duration `d`: a total of `d`, sketch extremes
//! `d` and `d`, `under_30s` = `d < 30 000`, and the one sketch pair
//! `(bucket_of(d), 1)`. Block version 2 writes only `d` for those rows and
//! the decoder derives the rest into the same columns, so a decoded
//! segment — and every query, merge, zone map and digest over it — is what
//! it was under version 1, which is refused by its version byte.

use crate::cube::{Cell, CellKey, UNDER_30S_MS};
use cellrel_ingest::frame::{read_pairs, seal, write_pairs, write_varint, FrameError, Reader, SC};
use cellrel_sim::sketch::{bucket_of, check_run, merge_runs_into};
#[cfg(test)]
use cellrel_sim::Merge;
use cellrel_sim::SparseSketch;
use std::collections::{btree_map, BTreeMap};
use std::ops::Range;

/// Current segment block format version: 2 since a one-record row is
/// written as its duration alone.
pub const SEGMENT_VERSION: u8 = 2;

/// Per-column inclusive `[min, max]` ranges over one segment's keys.
///
/// Zone maps let the scan skip a whole segment when a filter's wanted
/// value provably falls outside the column's range. They are recomputed
/// and cross-checked on decode, so a restored segment can never carry
/// zones that disagree with its columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Zones {
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
    pub(crate) fn may_match_value(&self, want: u64) -> bool {
        if self.cause.1 >= 1 << 32 {
            return true; // aliasing possible: never prune
        }
        self.cause.0 <= want && want <= self.cause.1
    }
}

/// One immutable sealed run of cells in columnar layout. See the module
/// docs; `merge_runs` builds one.
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
    /// An empty segment with room for `rows` rows and `pool` sketch-pool
    /// entries: what a builder that knows a bound reserves once, instead of
    /// doubling fifteen vectors up to it.
    fn with_capacity(rows: usize, pool: usize) -> Self {
        let mut sk_off = Vec::with_capacity(rows + 1);
        sk_off.push(0);
        ColumnSegment {
            buckets: Vec::with_capacity(rows),
            kinds: Vec::with_capacity(rows),
            isps: Vec::with_capacity(rows),
            rats: Vec::with_capacity(rows),
            models: Vec::with_capacity(rows),
            regions: Vec::with_capacity(rows),
            cause_classes: Vec::with_capacity(rows),
            causes: Vec::with_capacity(rows),
            counts: Vec::with_capacity(rows),
            duration_totals: Vec::with_capacity(rows),
            under_30s: Vec::with_capacity(rows),
            sk_min: Vec::with_capacity(rows),
            sk_max: Vec::with_capacity(rows),
            sk_off,
            sk_pool: Vec::with_capacity(pool),
            zones: Zones::default(),
        }
    }

    /// Build a segment from `(key, cell)` rows; duplicate keys merge by
    /// the exact cell algebra, and rows need not arrive sorted. Returns
    /// `None` for an empty input (empty segments are never stored).
    #[cfg(test)]
    pub(crate) fn from_rows(rows: impl IntoIterator<Item = (CellKey, Cell)>) -> Option<Self> {
        let mut sorted: BTreeMap<CellKey, Cell> = BTreeMap::new();
        for (k, c) in rows {
            match sorted.get_mut(&k) {
                Some(mine) => mine.merge(c),
                None => {
                    sorted.insert(k, c);
                }
            }
        }
        merge_to_segment(vec![Run::owned(sorted)])
    }

    /// Cells in the run.
    pub(crate) fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when the run holds no cells (never stored; a decode result
    /// can still be empty).
    pub(crate) fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The per-column zone maps.
    pub(crate) fn zones(&self) -> &Zones {
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

    /// Row `i`'s aggregates and sketch run, borrowed from the columns.
    pub(crate) fn row_at(&self, i: usize) -> RowRef<'_> {
        let (min, max, run) = self.sketch_run(i);
        RowRef {
            agg: Agg {
                count: self.counts[i],
                duration_total: self.duration_totals[i],
                under_30s: self.under_30s[i],
                min,
                max,
            },
            run,
        }
    }

    /// Materialise row `i` as a row-layout cell.
    pub(crate) fn cell_at(&self, i: usize) -> Cell {
        self.row_at(i).to_cell()
    }

    /// Iterate `(key, cell)` rows in key order (materialising each cell).
    #[cfg(test)]
    pub(crate) fn rows(&self) -> impl Iterator<Item = (CellKey, Cell)> + '_ {
        (0..self.len()).map(|i| (self.key_at(i), self.cell_at(i)))
    }

    /// Index range `[i0, i1)` of rows whose bucket lies in `[lo, hi)`.
    pub(crate) fn bucket_range(&self, lo: u32, hi: u32) -> (usize, usize) {
        let i0 = self.buckets.partition_point(|&b| b < lo);
        let i1 = self.buckets.partition_point(|&b| b < hi);
        (i0, i1)
    }

    /// True when row `i`, holding one record, is what `Cell::push` makes
    /// of its duration — all a version-2 block keeps of such a row.
    fn is_its_duration(&self, i: usize) -> bool {
        let d = self.duration_totals[i];
        self.under_30s[i] == u64::from(d < UNDER_30S_MS)
            && self.sketch_run(i) == (d, d, &[(bucket_of(d) as u32, 1)][..])
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
        for col in [&self.causes, &self.counts, &self.duration_totals] {
            for &v in col.iter() {
                write_varint(out, v);
            }
        }
        // The rest of a row only where it holds other than one record: a
        // one-record row is its duration.
        debug_assert!(
            (0..n).all(|i| self.counts[i] != 1 || self.is_its_duration(i)),
            "a one-record row is not what its duration makes"
        );
        for col in [&self.under_30s, &self.sk_min, &self.sk_max] {
            for (&v, &count) in col.iter().zip(&self.counts) {
                if count != 1 {
                    write_varint(out, v);
                }
            }
        }
        // Sketch pool: one `pairs` sequence per such row, exactly like the
        // row sketches of the store image.
        for i in (0..n).filter(|&i| self.counts[i] != 1) {
            let run = self.sketch_run(i).2;
            write_pairs(out, run.len(), run.iter().copied());
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
        // Per row at least: a bucket delta, six key bytes, and a cause, a
        // count and a duration (all a one-record row holds).
        let n = r.count("segment row count", 10)?;
        // No builder makes an empty segment: one of 0 rows would carry
        // zone maps nothing checks, a second frame for no content.
        if n == 0 {
            return Err(r.invalid("segment row count"));
        }
        let mut seg = ColumnSegment::with_capacity(n, 0);
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
        for col in [&mut seg.causes, &mut seg.counts, &mut seg.duration_totals] {
            for _ in 0..n {
                col.push(r.varint()?);
            }
        }
        // Keys must come out strictly ascending — equal-bucket runs order
        // by the remaining key columns, which the deltas above can't check.
        if !keys_ascend(&seg) {
            return Err(r.invalid("segment keys out of order"));
        }
        // What a one-record row leaves out is what its duration makes.
        for (&count, &d) in seg.counts.iter().zip(&seg.duration_totals) {
            let under = if count == 1 {
                u64::from(d < UNDER_30S_MS)
            } else {
                r.varint()?
            };
            seg.under_30s.push(under);
        }
        for col in [&mut seg.sk_min, &mut seg.sk_max] {
            for (&count, &d) in seg.counts.iter().zip(&seg.duration_totals) {
                col.push(if count == 1 { d } else { r.varint()? });
            }
        }
        // A one-record row's run is one pair. Any other run holds at most a
        // pair per record its row counts, and a pair costs two bytes or
        // more: those runs are sized from whichever bound is smaller (a
        // forged count column only reaches the second), and the pool once.
        let (ones, records) = seg.counts.iter().fold((0usize, 0usize), |(ones, sum), &c| {
            if c == 1 {
                (ones + 1, sum)
            } else {
                (
                    ones,
                    sum.saturating_add(usize::try_from(c).unwrap_or(usize::MAX)),
                )
            }
        });
        seg.sk_pool.reserve(ones + records.min(r.remaining() / 2));
        for i in 0..n {
            let (count, d) = (seg.counts[i], seg.duration_totals[i]);
            if count == 1 {
                seg.sk_pool.push((bucket_of(d) as u32, 1));
                seg.sk_off.push(seg.sk_pool.len() as u32);
                continue;
            }
            let start = seg.sk_pool.len();
            let (min, max) = (seg.sk_min[i], seg.sk_max[i]);
            read_pairs(r, (min, max), &mut seg.sk_pool)?;
            seg.sk_off.push(seg.sk_pool.len() as u32);
            // Validate the run where it landed, so a later materialisation
            // of this row can never fail, and pin the cross-column
            // invariants the builder guarantees.
            let sum =
                check_run(min, max, &seg.sk_pool[start..]).ok_or(r.invalid("sketch buckets"))?;
            if sum != count || seg.under_30s[i] > count {
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
        if compute_zones(&seg) != zones {
            return Err(r.invalid("zone maps disagree with columns"));
        }
        r.leave(block)?;
        Ok(seg)
    }
}

/// True when a decoded segment's keys ascend strictly, checked in one pass
/// over its key columns: a key is `(bucket, the six key bytes packed in a
/// u64, cause)`, which orders as [`CellKey`] does.
fn keys_ascend(seg: &ColumnSegment) -> bool {
    let n = seg.len();
    let (buckets, causes) = (&seg.buckets[..n], &seg.causes[..n]);
    let bytes = [
        &seg.kinds[..n],
        &seg.isps[..n],
        &seg.rats[..n],
        &seg.models[..n],
        &seg.regions[..n],
        &seg.cause_classes[..n],
    ];
    let key = |i: usize| {
        let packed = bytes.iter().fold(0u64, |p, col| p << 8 | u64::from(col[i]));
        (buckets[i], packed, causes[i])
    };
    let mut prev = key(0);
    for i in 1..n {
        let next = key(i);
        if next <= prev {
            return false;
        }
        prev = next;
    }
    true
}

/// The zone maps of a non-empty segment's columns. Each column is one
/// fold that carries its minimum and maximum together: one loop the
/// compiler vectorises, where `Iterator::min` and `max` are two it does
/// not.
fn compute_zones(seg: &ColumnSegment) -> Zones {
    fn range<T: Copy + Ord>(col: &[T]) -> (T, T) {
        let first = *col.first().expect("non-empty segment");
        col.iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)))
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

/// One row's scalar aggregates: what a cell holds beside its sketch run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Agg {
    pub(crate) count: u64,
    pub(crate) duration_total: u64,
    pub(crate) under_30s: u64,
    /// Exact sketch extremes; both `0` beside an empty run, as the
    /// `sk_min` / `sk_max` columns hold them.
    pub(crate) min: u64,
    pub(crate) max: u64,
}

/// One row, borrowed from wherever it lives: a segment's columns and pool,
/// or a row-tier [`Cell`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRef<'a> {
    pub(crate) agg: Agg,
    pub(crate) run: &'a [(u32, u64)],
}

impl<'a> RowRef<'a> {
    pub(crate) fn of(c: &'a Cell) -> Self {
        RowRef {
            agg: Agg {
                count: c.count,
                duration_total: c.duration_ms_total,
                under_30s: c.under_30s,
                min: c.sketch.min().unwrap_or(0),
                max: c.sketch.max().unwrap_or(0),
            },
            run: c.sketch.as_run().2,
        }
    }

    /// Materialise as a row-layout cell.
    fn to_cell(self) -> Cell {
        Cell {
            count: self.agg.count,
            duration_ms_total: self.agg.duration_total,
            under_30s: self.agg.under_30s,
            sketch: SparseSketch::from_run(self.agg.min, self.agg.max, self.run.to_vec())
                .expect("segment sketch runs are validated on build and decode"),
        }
    }
}

impl Agg {
    /// Add row `o` to the row these aggregates belong to, whose sketch run
    /// occupies `pool[start..]`: run against run, straight into `pool`
    /// (`scratch` holds the old tail while the sum is written).
    pub(crate) fn fold(
        &mut self,
        o: RowRef<'_>,
        pool: &mut Vec<(u32, u64)>,
        start: usize,
        scratch: &mut Vec<(u32, u64)>,
    ) {
        self.count += o.agg.count;
        self.duration_total += o.agg.duration_total;
        self.under_30s += o.agg.under_30s;
        if o.run.is_empty() {
            return;
        }
        if pool.len() == start {
            (self.min, self.max) = (o.agg.min, o.agg.max);
            pool.extend_from_slice(o.run);
            return;
        }
        self.min = self.min.min(o.agg.min);
        self.max = self.max.max(o.agg.max);
        scratch.clear();
        scratch.extend_from_slice(&pool[start..]);
        pool.truncate(start);
        merge_runs_into(scratch, o.run, pool);
    }
}

/// Where [`merge_runs`] puts the merged rows, building a segment: whole
/// row ranges move column to column, and equal keys are summed in place in
/// the last row. Keys arrive ascending: `row` and `rows` only ever bring
/// keys above every key before them, and a key several runs hold arrives
/// as one `row` followed by a `fold` per further holder.
struct SegmentSink {
    seg: ColumnSegment,
    scratch: Vec<(u32, u64)>,
    /// The `(rows, pool entries)` reserved: no column may outgrow it.
    #[cfg(test)]
    reserved: (usize, usize),
}

impl SegmentSink {
    /// A sink for whatever `runs` merge to: at most their rows, holding at
    /// most their sketch-pool entries (see [`Run::bound`]). Every column is
    /// reserved here, once, and filled without growing.
    fn for_runs(runs: &[Run<'_>]) -> Self {
        let (rows, pool) = runs
            .iter()
            .map(Run::bound)
            .fold((0, 0), |sum, b| (sum.0 + b.0, sum.1 + b.1));
        SegmentSink {
            seg: ColumnSegment::with_capacity(rows, pool),
            scratch: Vec::new(),
            #[cfg(test)]
            reserved: (rows, pool),
        }
    }

    fn finish(self) -> Option<ColumnSegment> {
        #[cfg(test)]
        assert!(
            self.seg.len() <= self.reserved.0 && self.seg.sk_pool.len() <= self.reserved.1,
            "{} rows and {} pool entries outgrew the {:?} reserved",
            self.seg.len(),
            self.seg.sk_pool.len(),
            self.reserved
        );
        let mut seg = self.seg;
        if seg.buckets.is_empty() {
            return None;
        }
        seg.zones = compute_zones(&seg);
        Some(seg)
    }

    fn ascends_to(&self, key: CellKey) -> bool {
        self.seg.is_empty() || self.seg.key_at(self.seg.len() - 1) < key
    }

    /// A row under a new key.
    fn row(&mut self, k: CellKey, row: RowRef<'_>) {
        debug_assert!(
            self.ascends_to(k),
            "segment rows must be strictly key-ascending"
        );
        let seg = &mut self.seg;
        seg.buckets.push(k.bucket);
        seg.kinds.push(k.kind);
        seg.isps.push(k.isp);
        seg.rats.push(k.rat);
        seg.models.push(k.model);
        seg.regions.push(k.region);
        seg.cause_classes.push(k.cause_class);
        seg.causes.push(k.cause);
        seg.counts.push(row.agg.count);
        seg.duration_totals.push(row.agg.duration_total);
        seg.under_30s.push(row.agg.under_30s);
        seg.sk_min.push(row.agg.min);
        seg.sk_max.push(row.agg.max);
        seg.sk_pool.extend_from_slice(row.run);
        seg.sk_off.push(seg.sk_pool.len() as u32);
    }

    /// One more row under the key of the last `row` call: add it in.
    fn fold(&mut self, row: RowRef<'_>) {
        let seg = &mut self.seg;
        let n = seg.buckets.len() - 1;
        let mut sum = seg.row_at(n).agg;
        let start = seg.sk_off[n] as usize;
        sum.fold(row, &mut seg.sk_pool, start, &mut self.scratch);
        seg.counts[n] = sum.count;
        seg.duration_totals[n] = sum.duration_total;
        seg.under_30s[n] = sum.under_30s;
        seg.sk_min[n] = sum.min;
        seg.sk_max[n] = sum.max;
        seg.sk_off[n + 1] = seg.sk_pool.len() as u32;
    }

    /// Rows `rows` of `src`, keys as stored but for `bucket`, which
    /// replaces every row's bucket when set. No later row shares a key
    /// with any of them.
    fn rows(&mut self, src: &ColumnSegment, rows: Range<usize>, bucket: Option<u32>) {
        debug_assert!(
            bucket.is_none() || src.buckets[rows.start] == src.buckets[rows.end - 1],
            "a bucket override spans one stored bucket, or the slice is not key-sorted"
        );
        debug_assert!(
            self.ascends_to(src.key_at(rows.start).with_bucket(bucket)),
            "segment rows must be strictly key-ascending"
        );
        let seg = &mut self.seg;
        match bucket {
            Some(b) => seg.buckets.resize(seg.buckets.len() + rows.len(), b),
            None => seg.buckets.extend_from_slice(&src.buckets[rows.clone()]),
        }
        seg.kinds.extend_from_slice(&src.kinds[rows.clone()]);
        seg.isps.extend_from_slice(&src.isps[rows.clone()]);
        seg.rats.extend_from_slice(&src.rats[rows.clone()]);
        seg.models.extend_from_slice(&src.models[rows.clone()]);
        seg.regions.extend_from_slice(&src.regions[rows.clone()]);
        seg.cause_classes
            .extend_from_slice(&src.cause_classes[rows.clone()]);
        seg.causes.extend_from_slice(&src.causes[rows.clone()]);
        seg.counts.extend_from_slice(&src.counts[rows.clone()]);
        seg.duration_totals
            .extend_from_slice(&src.duration_totals[rows.clone()]);
        seg.under_30s
            .extend_from_slice(&src.under_30s[rows.clone()]);
        seg.sk_min.extend_from_slice(&src.sk_min[rows.clone()]);
        seg.sk_max.extend_from_slice(&src.sk_max[rows.clone()]);
        // The pool slice moves as it is — the source segment was validated
        // when it was built or decoded — and its offsets are rebased from
        // the source pool to this one.
        let (from, to) = (src.sk_off[rows.start], seg.sk_pool.len() as u32);
        seg.sk_off.extend(
            src.sk_off[rows.start + 1..=rows.end]
                .iter()
                .map(|&o| o - from + to),
        );
        seg.sk_pool
            .extend_from_slice(&src.sk_pool[from as usize..src.sk_off[rows.end] as usize]);
    }
}

/// One key-sorted input run for [`merge_runs`], read in place: nothing a
/// run points at is copied until a sink asks for it. A `bucket` override
/// presents every row of the run under that bucket instead of its own —
/// how a bucket fold is fed: one run per stored bucket, each still sorted
/// by the rest of the key.
pub(crate) enum Run<'a> {
    /// A whole row tier its caller is done with. Reading it through
    /// `IntoIter` frees each node and cell while it is still in cache;
    /// borrowed, the 37 k cells of a batch store were walked a second
    /// time, cold, to drop them (+17 % on `seal_columnar`).
    Owned {
        head: Option<(CellKey, Cell)>,
        rest: btree_map::IntoIter<CellKey, Cell>,
        /// Sketch-pool entries the whole tier held (an `IntoIter` cannot
        /// be walked twice, so [`Run::owned`] counts them first).
        pool: usize,
    },
    /// Row-tier cells, borrowed.
    Map {
        head: Option<(CellKey, &'a Cell)>,
        rest: btree_map::Range<'a, CellKey, Cell>,
        bucket: Option<u32>,
    },
    /// Rows `at..end` of a sealed segment.
    Seg {
        seg: &'a ColumnSegment,
        at: usize,
        end: usize,
        bucket: Option<u32>,
    },
}

impl<'a> Run<'a> {
    /// A run that consumes a whole row tier.
    pub(crate) fn owned(cells: BTreeMap<CellKey, Cell>) -> Self {
        let pool = cells.values().map(|c| c.sketch.nnz()).sum();
        let mut rest = cells.into_iter();
        Run::Owned {
            head: rest.next(),
            rest,
            pool,
        }
    }

    /// A run over a whole row tier.
    pub(crate) fn map(cells: &'a BTreeMap<CellKey, Cell>) -> Self {
        Run::map_range(cells.range(..), None)
    }

    /// A run over part of a row tier; see [`Run`] for `bucket`.
    pub(crate) fn map_range(
        mut rest: btree_map::Range<'a, CellKey, Cell>,
        bucket: Option<u32>,
    ) -> Self {
        let head = rest.next().map(|(k, c)| (k.with_bucket(bucket), c));
        Run::Map { head, rest, bucket }
    }

    /// A run over a whole segment.
    pub(crate) fn seg(seg: &'a ColumnSegment) -> Self {
        Run::slice(seg, 0..seg.len(), None)
    }

    /// A run over rows `rows` of a segment; see [`Run`] for `bucket`.
    pub(crate) fn slice(seg: &'a ColumnSegment, rows: Range<usize>, bucket: Option<u32>) -> Self {
        Run::Seg {
            seg,
            at: rows.start,
            end: rows.end,
            bucket,
        }
    }

    /// The key of the run's next row, `None` once it is spent.
    fn key(&self) -> Option<CellKey> {
        match self {
            Run::Owned { head, .. } => head.as_ref().map(|(k, _)| *k),
            Run::Map { head, .. } => head.map(|(k, _)| k),
            &Run::Seg {
                seg,
                at,
                end,
                bucket,
            } => (at < end).then(|| seg.key_at(at).with_bucket(bucket)),
        }
    }

    /// Upper bounds on the rows and the sketch-pool entries the run still
    /// holds — what a sink reserves for it. A segment run reads both off
    /// its offsets; a row-tier run counts its cells' buckets (a merge only
    /// ever sums rows and buckets away, so the totals bound the output).
    fn bound(&self) -> (usize, usize) {
        match self {
            Run::Owned { head, rest, pool } => (rest.len() + usize::from(head.is_some()), *pool),
            Run::Map { head, rest, .. } => head
                .iter()
                .map(|&(_, c)| c)
                .chain(rest.clone().map(|(_, c)| c))
                .fold((0, 0), |(rows, pool), c| (rows + 1, pool + c.sketch.nnz())),
            &Run::Seg { seg, at, end, .. } => {
                (end - at, (seg.sk_off[end] - seg.sk_off[at]) as usize)
            }
        }
    }

    /// Hand the next row to `emit` and step past it.
    fn pop(&mut self, emit: impl FnOnce(RowRef<'_>)) {
        match self {
            Run::Owned { head, rest, .. } => {
                let (_, c) = head.take().expect("pop on a spent run");
                emit(RowRef::of(&c));
                *head = rest.next();
            }
            Run::Map { head, rest, bucket } => {
                let (_, c) = head.take().expect("pop on a spent run");
                emit(RowRef::of(c));
                *head = rest.next().map(|(k, c)| (k.with_bucket(*bucket), c));
            }
            Run::Seg { seg, at, .. } => {
                emit(seg.row_at(*at));
                *at += 1;
            }
        }
    }

    /// Move every row below `bound` (all that are left, without one) into
    /// `sink`. The caller knows no other run holds a key below `bound`.
    fn drain_below(&mut self, bound: Option<CellKey>, sink: &mut SegmentSink) {
        let above = |k: &CellKey| bound.is_some_and(|b| *k >= b);
        match self {
            Run::Owned { head, rest, .. } => {
                while let Some((k, c)) = head.take() {
                    if above(&k) {
                        *head = Some((k, c));
                        break;
                    }
                    sink.row(k, RowRef::of(&c));
                    *head = rest.next();
                }
            }
            Run::Map { head, rest, bucket } => {
                while let Some((k, c)) = *head {
                    if above(&k) {
                        break;
                    }
                    sink.row(k, RowRef::of(c));
                    *head = rest.next().map(|(k, c)| (k.with_bucket(*bucket), c));
                }
            }
            Run::Seg {
                seg,
                at,
                end,
                bucket,
            } => {
                let below = |i: usize, b: CellKey| seg.key_at(i).with_bucket(*bucket) < b;
                // Gallop, then bisect: a range of n rows costs O(log n)
                // compares, so runs that interleave row by row pay one or
                // two per row and runs that do not overlap pay next to none.
                let stop = bound.map_or(*end, |b| {
                    let (mut lo, mut hi, mut step) = (*at + 1, *at + 1, 1);
                    while hi < *end && below(hi, b) {
                        lo = hi + 1;
                        hi += step;
                        step *= 2;
                    }
                    hi = hi.min(*end);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if below(mid, b) {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    lo
                });
                sink.rows(seg, *at..stop, *bucket);
                *at = stop;
            }
        }
    }
}

/// K-way merge key-sorted runs into `sink`, adding up rows with equal
/// keys by the exact cell algebra. What the sink sees depends only on the
/// merged *content* (cell merge is commutative and associative), never on
/// run order — which keeps partition merges commutative even when both
/// sides carry segments.
///
/// The smallest head is the root of a min-heap of `(key, run)` pairs, so a
/// row costs O(log runs) at most and a fold over tens of thousands of
/// one-row runs stays linearithmic. The heap is kept by hand: the
/// next-smallest head is the root's smaller child, a run that goes on
/// takes its new key at the root and sifts down once (where a pop and a
/// push sift twice), and a spent run is swapped out for the last leaf.
/// While one run alone holds the smallest keys, everything it holds below
/// the next-smallest head moves in one [`SegmentSink::rows`] /
/// [`Run::drain_below`] step without touching the heap — so a lone run, of
/// either kind, is a straight loop over its rows.
fn merge_runs(mut runs: Vec<Run<'_>>, sink: &mut SegmentSink) {
    let mut heads: Vec<(CellKey, usize)> = runs
        .iter()
        .enumerate()
        .filter_map(|(r, run)| Some((run.key()?, r)))
        .collect();
    // Pairs are distinct (each names its run), and an ascending array is a
    // min-heap.
    heads.sort_unstable();
    // The key of the sink's last row while another run may still hold it.
    let mut open: Option<CellKey> = None;
    while let Some(&(key, r)) = heads.first() {
        let bound = heads[1..heads.len().min(3)].iter().min().map(|&(k, _)| k);
        let run = &mut runs[r];
        if open == Some(key) {
            run.pop(|row| sink.fold(row));
        } else if bound == Some(key) {
            run.pop(|row| sink.row(key, row));
            open = Some(key);
        } else {
            run.drain_below(bound, sink);
            open = None;
        }
        match run.key() {
            Some(k) => heads[0].0 = k,
            None => {
                heads.swap_remove(0);
            }
        }
        sift_down(&mut heads);
    }
}

/// Restore the min-heap order of `heap` after its root changed.
fn sift_down(heap: &mut [(CellKey, usize)]) {
    let mut at = 0;
    loop {
        let left = 2 * at + 1;
        let Some(&l) = heap.get(left) else {
            return;
        };
        let child = match heap.get(left + 1) {
            Some(&right) if right < l => left + 1,
            _ => left,
        };
        if heap[at] < heap[child] {
            return;
        }
        heap.swap(at, child);
        at = child;
    }
}

/// [`merge_runs`] into one canonical segment; `None` when the runs hold no
/// rows (empty segments are never stored).
pub(crate) fn merge_to_segment(runs: Vec<Run<'_>>) -> Option<ColumnSegment> {
    let mut sink = SegmentSink::for_runs(&runs);
    merge_runs(runs, &mut sink);
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The merge as it was before rows moved by column, kept as the oracle:
    /// the smallest head by a linear scan of the runs, every row rebuilt as
    /// a [`Cell`], equal keys summed cell into cell.
    fn merge_runs_by_row(mut runs: Vec<Run<'_>>) -> Option<ColumnSegment> {
        let mut sink = SegmentSink::for_runs(&runs);
        while let Some(key) = runs.iter().filter_map(Run::key).min() {
            let mut acc: Option<Cell> = None;
            for run in &mut runs {
                while run.key() == Some(key) {
                    run.pop(|row| match &mut acc {
                        Some(a) => a.merge(row.to_cell()),
                        None => acc = Some(row.to_cell()),
                    });
                }
            }
            let cell = acc.expect("at least one run held the min key");
            sink.row(key, RowRef::of(&cell));
        }
        sink.finish()
    }

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
        let ab = merge_to_segment(vec![Run::seg(&a), Run::seg(&b)]).unwrap();
        let ba = merge_to_segment(vec![Run::seg(&b), Run::seg(&a)]).unwrap();
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

    /// One content, one layout: a row without samples carries zero
    /// extremes, so a copied `sk_min` / `sk_max` range is what a rebuilt
    /// one would have been.
    #[test]
    fn decode_rejects_extremes_beside_an_empty_run() {
        let mut seg = ColumnSegment::from_rows([(key(1, 0, 0), cell(&[]))]).unwrap();
        let round_trip = |seg: &ColumnSegment| {
            let mut bytes = Vec::new();
            seg.encode(&mut bytes);
            ColumnSegment::decode(&mut Reader::bare(&SC, &bytes))
        };
        assert_eq!(round_trip(&seg).as_ref(), Ok(&seg));
        seg.sk_max[0] = 9;
        assert_eq!(round_trip(&seg), Err(SC.invalid("sketch extremes")));
    }

    /// One generated row: `(bucket, kind, which cause)` and the durations
    /// folded into its cell — none at all is a zero-count `Cell::default()`
    /// row, an empty pool slice between its neighbours'.
    type RowParts = ((u32, u8, usize), Vec<u64>);
    /// One generated input: its rows, the form it is fed in, and a bucket
    /// shift (inputs under one shift interleave row by row, inputs under
    /// different shifts do not overlap at all).
    type InputParts = (Vec<RowParts>, usize, u32);

    fn row_strategy() -> impl Strategy<Value = RowParts> {
        (
            (0u32..4, 0u8..3, 0usize..3),
            prop::collection::vec(0u64..1 << 17, 0..4),
        )
    }

    fn inputs_strategy() -> impl Strategy<Value = Vec<InputParts>> {
        prop::collection::vec(
            (
                prop::collection::vec(row_strategy(), 0..10),
                0usize..5,
                0u32..3,
            ),
            1..13,
        )
    }

    /// Three to five non-empty inputs, each fed whole: one run apiece.
    fn whole_inputs_strategy() -> impl Strategy<Value = Vec<InputParts>> {
        prop::collection::vec(
            (
                prop::collection::vec(row_strategy(), 1..10),
                prop::sample::select(vec![0usize, 2, 4]),
                0u32..3,
            ),
            3..6,
        )
    }

    /// 100–399 inputs of one row each.
    fn single_rows_strategy() -> impl Strategy<Value = Vec<InputParts>> {
        prop::collection::vec(
            (prop::collection::vec(row_strategy(), 1), 0usize..5, 0u32..3),
            100..400,
        )
    }

    /// The inputs of one case, in one of five shapes: the general one
    /// (0), or one of the heap's edges — one, two or three runs (1); three
    /// or more runs sharing their head key, the least there is (2); a run
    /// that lies wholly below the others, so it is spent while at the root
    /// and the rest stay in the heap (3); hundreds of one-row runs (4).
    fn shaped(
        shape: usize,
        general: Vec<InputParts>,
        mut whole: Vec<InputParts>,
        singles: Vec<InputParts>,
    ) -> Vec<InputParts> {
        match shape {
            0 => general,
            1 => {
                // The general draw's length picks how many.
                whole.truncate(1 + general.len() % 3);
                whole
            }
            2 => {
                for (rows, _, shift) in &mut whole {
                    rows.insert(0, ((0, 0, 1), vec![1_000]));
                    *shift = 0;
                }
                whole
            }
            3 => {
                for (i, (_, _, shift)) in whole.iter_mut().enumerate() {
                    *shift = if i == 0 { 0 } else { 1 + *shift % 2 };
                }
                whole
            }
            _ => singles,
        }
    }

    fn build_input(rows: &[RowParts], shift: u32) -> BTreeMap<CellKey, Cell> {
        let mut map: BTreeMap<CellKey, Cell> = BTreeMap::new();
        for ((bucket, kind, cause), durations) in rows {
            // Few distinct keys, so inputs share them in ones, twos and
            // more; one cause is a raw value past 2^32.
            let k = key(bucket + 4 * shift, *kind, [0, 3, 1 << 33][*cause]);
            map.entry(k).or_default().merge(cell(durations));
        }
        map
    }

    /// The forms a caller feeds an input in: a map (borrowed or owned) or
    /// a whole segment as it is, or — the bucket fold — one run per stored
    /// bucket of either, presented under that bucket's rollup start
    /// (rollup 2).
    fn push_runs<'a>(
        map: &'a BTreeMap<CellKey, Cell>,
        seg: Option<&'a ColumnSegment>,
        form: usize,
        runs: &mut Vec<Run<'a>>,
    ) {
        let fold = |b: u32| Some(b / 2 * 2);
        match (form, seg) {
            (0, _) => runs.push(Run::map(map)),
            (4, _) => runs.push(Run::owned(map.clone())),
            (1, _) => {
                let mut buckets: Vec<u32> = map.keys().map(|k| k.bucket).collect();
                buckets.dedup();
                for b in buckets {
                    let range = map.range(CellKey::first_of(b)..CellKey::first_of(b + 1));
                    runs.push(Run::map_range(range, fold(b)));
                }
            }
            (_, None) => runs.push(Run::map(map)), // an empty input has no segment
            (2, Some(seg)) => runs.push(Run::seg(seg)),
            (_, Some(seg)) => {
                let mut buckets = seg.buckets.clone();
                buckets.dedup();
                for b in buckets {
                    let (i, j) = seg.bucket_range(b, b + 1);
                    runs.push(Run::slice(seg, i..j, fold(b)));
                }
            }
        }
    }

    /// One generated row with every key column drawn from its edges — `0`,
    /// `1`, a middle value and the type's maximum — and its durations.
    type EdgeRow = ([usize; 8], Vec<u64>);

    fn edge_row(
        ([b, kind, isp, rat, model, region, class, cause], durations): &EdgeRow,
    ) -> (CellKey, Cell) {
        let byte = |i: usize| [0, 1, 200, u8::MAX][i];
        let key = CellKey {
            bucket: [0, 1, 7, u32::MAX][*b],
            kind: byte(*kind),
            isp: byte(*isp),
            rat: byte(*rat),
            model: byte(*model),
            region: byte(*region),
            cause_class: byte(*class),
            cause: [0, 1, 1 << 33, u64::MAX][*cause],
        };
        (key, cell(durations))
    }

    proptest! {
        /// The one-fold zone scan against `min` and `max` taken apart, on
        /// segments of one row and of many, over columns that reach each
        /// type's maximum; a decode's cross-check accepts what it made.
        #[test]
        fn zones_equal_a_naive_min_and_max_of_every_column(
            rows in prop::collection::vec(
                (
                    (0usize..4, 0usize..4, 0usize..4, 0usize..4),
                    (0usize..4, 0usize..4, 0usize..4, 0usize..4),
                    prop::collection::vec(0u64..1 << 20, 0..3),
                ),
                1..12,
            ),
        ) {
            fn naive<T: Copy + Ord>(col: &[T]) -> (T, T) {
                (*col.iter().min().unwrap(), *col.iter().max().unwrap())
            }
            let rows: Vec<EdgeRow> = rows
                .into_iter()
                .map(|((a, b, c, d), (e, f, g, h), durations)| ([a, b, c, d, e, f, g, h], durations))
                .collect();
            for rows in [&rows[..1], &rows[..]] {
                let seg = ColumnSegment::from_rows(rows.iter().map(edge_row)).unwrap();
                let want = Zones {
                    bucket: naive(&seg.buckets),
                    kind: naive(&seg.kinds),
                    isp: naive(&seg.isps),
                    rat: naive(&seg.rats),
                    model: naive(&seg.models),
                    region: naive(&seg.regions),
                    cause_class: naive(&seg.cause_classes),
                    cause: naive(&seg.causes),
                };
                prop_assert_eq!(compute_zones(&seg), want);
                prop_assert_eq!(seg.zones(), &want);
                let mut bytes = Vec::new();
                seg.encode(&mut bytes);
                let back = ColumnSegment::decode(&mut Reader::bare(&SC, &bytes));
                prop_assert_eq!(back.as_ref(), Ok(&seg));
            }
        }

        /// The kernel against the oracle: the same segment — columns, pool,
        /// offsets, zones — and the same `SC` bytes, over 1–12 inputs in
        /// every form, sharing keys or not, empty ones included, and over
        /// the heap's edge cases ([`shaped`]). Every sink here also checks,
        /// as it finishes, that no column and not the pool outgrew what it
        /// reserved from its runs' bounds.
        #[test]
        fn merge_runs_equals_the_row_by_row_merge(
            shape in 0usize..5,
            general in inputs_strategy(),
            whole in whole_inputs_strategy(),
            singles in single_rows_strategy(),
        ) {
            let inputs = shaped(shape, general, whole, singles);
            let maps: Vec<BTreeMap<CellKey, Cell>> = inputs
                .iter()
                .map(|(rows, _, shift)| build_input(rows, *shift))
                .collect();
            let segs: Vec<Option<ColumnSegment>> = maps
                .iter()
                .map(|m| merge_to_segment(vec![Run::map(m)]))
                .collect();
            let runs = || {
                let mut runs = Vec::new();
                for ((map, seg), (_, form, _)) in maps.iter().zip(&segs).zip(&inputs) {
                    push_runs(map, seg.as_ref(), *form, &mut runs);
                }
                runs
            };
            let by_column = merge_to_segment(runs());
            let by_row = merge_runs_by_row(runs());
            prop_assert_eq!(&by_column, &by_row);
            let encode = |seg: &Option<ColumnSegment>| {
                let mut bytes = Vec::new();
                if let Some(seg) = seg {
                    seg.encode(&mut bytes);
                }
                bytes
            };
            prop_assert_eq!(encode(&by_column), encode(&by_row));
            // A lone input of any form is the same straight copy.
            for (map, seg) in maps.iter().zip(&segs) {
                for form in [0, 2, 4] {
                    let mut lone = Vec::new();
                    push_runs(map, seg.as_ref(), form, &mut lone);
                    prop_assert_eq!(&merge_to_segment(lone), seg);
                }
            }
        }
    }
}
