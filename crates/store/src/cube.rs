//! The cube: partitioned, mergeable multi-dimensional aggregates.
//!
//! Every accepted failure record lands in exactly one **cell**, addressed
//! by a [`CellKey`] — (time bucket, failure kind, ISP, RAT, device model,
//! region, fail-cause class, fail-cause code). A cell holds only mergeable
//! partial aggregates (counts, exact duration sums, a [`SparseSketch`]),
//! so cells, partitions and whole stores combine with the workspace
//! [`Merge`] trait by exact integer/bucket addition: commutative,
//! associative, and therefore bit-identical at any shard order or thread
//! count — the same algebra the ingest collector and the parallel study
//! drivers rely on.
//!
//! **Partitions.** Records route to `device % partitions`. A partition is
//! an ordered map from [`CellKey`] to [`Cell`] plus a per-device directory
//! (model / region / ISP / failure count) that supplies the denominators
//! for prevalence-style metrics (paper Table 1) without a second pass over
//! the population.
//!
//! **Compaction.** [`Store::compact`] folds *sealed* time buckets — those
//! strictly below the newest rollup boundary — onto rollup-aligned bucket
//! starts. Because a query merges the cells of a group anyway and cell
//! merge is associative, pre-merging them never changes an answer; the
//! query layer enforces that time windows and ranges are rollup-aligned so
//! the grouping itself cannot observe the fold. [`Store::digest`] hashes a
//! *canonical rolled-up view*, so it is additionally invariant across
//! compaction on/off and across the partition count.
//!
//! **Tiers.** A partition holds a mutable row tier (the `BTreeMap` hot
//! cells new records land in) plus at most a handful of immutable
//! [`ColumnSegment`] runs holding sealed data in columnar layout.
//! Compaction moves folded cells into a single segment by k-way merging
//! sorted runs; [`Store::seal_columnar`] moves *all* cells columnar
//! without folding (the stream pipeline seals finished windows this way).
//! Both are pure layout changes: answers, digests and merge results are
//! identical whether a cell lives in the row or the columnar tier.

use crate::columnar::{merge_to_segment, ColumnSegment, RowRef, Run};
use cellrel_ingest::codec::{unzigzag, zigzag};
use cellrel_sim::{run_sharded_merge, Digest64, Merge, SparseSketch};
use cellrel_types::{DeviceId, EventSink, FailureEvent, Isp, PhoneModelId};
use cellrel_workload::Population;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;

/// Coarse geography dimension: the population model distinguishes urban
/// from remote-region devices (§3.4's regional disparity analysis); records
/// arriving without a device directory are `Unknown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Device in an urban deployment area.
    Urban,
    /// Device in a remote/rural deployment area.
    Remote,
    /// No directory entry for the device.
    Unknown,
}

impl Region {
    /// Every region, in dense-index order.
    pub const ALL: [Region; 3] = [Region::Urban, Region::Remote, Region::Unknown];

    /// Dense index (matches [`Self::from_index`]).
    pub const fn index(self) -> usize {
        match self {
            Region::Urban => 0,
            Region::Remote => 1,
            Region::Unknown => 2,
        }
    }

    /// Inverse of [`Self::index`].
    pub const fn from_index(i: usize) -> Option<Region> {
        match i {
            0 => Some(Region::Urban),
            1 => Some(Region::Remote),
            2 => Some(Region::Unknown),
            _ => None,
        }
    }

    /// Printable label.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            Region::Urban => "urban",
            Region::Remote => "remote",
            Region::Unknown => "unknown",
        }
    }
}

/// Store tuning knobs. Routing and bucketing parameters are part of the
/// deterministic state: two stores only merge if their configs agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Width of one time bucket in milliseconds (default: one day).
    pub bucket_ms: u64,
    /// Buckets folded per rollup bucket by compaction (default: 7 — weekly
    /// rollups over daily buckets). Time windows and ranges must be
    /// multiples of `bucket_ms * rollup_buckets` so compaction stays
    /// query-transparent.
    pub rollup_buckets: u32,
    /// Partition count for `device % partitions` routing.
    pub partitions: usize,
    /// Auto-compact a partition after this many inserts (0 = manual
    /// compaction only). Answers and digests do not depend on this knob.
    pub auto_compact_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            bucket_ms: 86_400_000,
            rollup_buckets: 7,
            partitions: 16,
            auto_compact_every: 0,
        }
    }
}

/// A cell address: one point in the cube's dimension space.
///
/// Ordered with `bucket` first so a partition's cell map is time-ordered
/// and time-range queries prune to a key range instead of a full scan. The
/// order is the lexicographic one over the fields in declaration order,
/// compared as two integers (the other fields packed into one, then
/// `cause`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Time bucket index: `start_ms / bucket_ms` (possibly rollup-aligned
    /// after compaction).
    pub bucket: u32,
    /// `FailureKind::index()`.
    pub kind: u8,
    /// `Isp::index()`.
    pub isp: u8,
    /// `Rat::index()`.
    pub rat: u8,
    /// `PhoneModelId.0` (1-based), or 0 when the device is not in the
    /// directory.
    pub model: u8,
    /// `Region::index()`.
    pub region: u8,
    /// `FailureLayer::index()` of the cause, or `NO_CAUSE_CLASS`.
    pub cause_class: u8,
    /// Fail-cause code, wire-encoded like the ingest codec: 0 = no cause,
    /// else `1 + zigzag(code)` (codes can be negative).
    pub cause: u64,
}

/// Bits of [`CellKey::cause`] a record can set.
const RECORD_CAUSE_BITS: u32 = 33;

/// `cause_class` marker for records without a fail cause.
pub(crate) const NO_CAUSE_CLASS: u8 = 255;

/// `DeviceRec::isp` marker for devices without a directory entry. The
/// directory is the only ISP source for device records — falling back to an
/// event's in-situ ISP would make the record depend on which of the
/// device's events arrived first, breaking shard-order invariance.
pub(crate) const NO_ISP: u8 = 255;

impl CellKey {
    /// Decode the cause field back to the raw Android error code.
    pub(crate) fn cause_code(&self) -> Option<i32> {
        (self.cause != 0).then(|| unzigzag(self.cause - 1) as i32)
    }

    /// The smallest key of `bucket`: where that bucket's cells start in a
    /// partition's ordered map.
    pub(crate) fn first_of(bucket: u32) -> CellKey {
        CellKey {
            bucket,
            kind: 0,
            isp: 0,
            rat: 0,
            model: 0,
            region: 0,
            cause_class: 0,
            cause: 0,
        }
    }

    /// This key under `bucket` instead of its own, when one is given.
    pub(crate) fn with_bucket(mut self, bucket: Option<u32>) -> CellKey {
        if let Some(b) = bucket {
            self.bucket = b;
        }
        self
    }

    /// The cell a record lands in, `dim` supplying the device's static
    /// dimensions. A start past the last bucket there is clamps onto it.
    /// Always inlined, like [`DeviceRec::of`]: `Store::record` then
    /// compiles to the code it had with both built in place.
    #[inline(always)]
    fn of(e: &FailureEvent, dim: DeviceDim, bucket_ms: u64) -> CellKey {
        CellKey {
            bucket: (e.start.as_millis() / bucket_ms).min(u64::from(u32::MAX)) as u32,
            kind: e.kind.index() as u8,
            isp: e.ctx.isp.index() as u8,
            rat: e.ctx.rat.index() as u8,
            model: dim.model.map_or(0, |m| m.0),
            region: dim.region.index() as u8,
            cause_class: e.cause.map_or(NO_CAUSE_CLASS, |c| c.layer().index() as u8),
            cause: e.cause.map_or(0, |c| 1 + zigzag(i64::from(c.code()))),
        }
    }

    /// Every field but `cause`, most significant first, in one integer:
    /// comparing two of them is comparing the fields one by one.
    #[inline]
    fn packed(&self) -> u128 {
        (u128::from(self.bucket) << 48)
            | (u128::from(self.kind) << 40)
            | (u128::from(self.isp) << 32)
            | (u128::from(self.rat) << 24)
            | (u128::from(self.model) << 16)
            | (u128::from(self.region) << 8)
            | u128::from(self.cause_class)
    }

    /// Every field but `bucket`, most significant first, in one integer:
    /// within one bucket, comparing two of them is comparing the keys.
    #[inline]
    pub(crate) fn in_bucket(&self) -> u128 {
        ((self.packed() & ((1 << 48) - 1)) << 64) | u128::from(self.cause)
    }

    /// The key [`CellKey::in_bucket`] gave `rest` for, under `bucket`.
    fn from_in_bucket(bucket: u32, rest: u128) -> CellKey {
        let byte = |shift: u32| (rest >> shift) as u8;
        CellKey {
            bucket,
            kind: byte(104),
            isp: byte(96),
            rat: byte(88),
            model: byte(80),
            region: byte(72),
            cause_class: byte(64),
            cause: rest as u64,
        }
    }

    /// The whole key in one integer, [`CellKey::packed`] above `cause`:
    /// comparing two of them is comparing the keys. Only for a key a
    /// record builds, whose cause — `1 + zigzag` of an `i32` code — is at
    /// most 2³² and so fits in [`RECORD_CAUSE_BITS`].
    #[inline]
    fn record_order(&self) -> u128 {
        debug_assert!(self.cause >> RECORD_CAUSE_BITS == 0, "not a record's cause");
        (self.packed() << RECORD_CAUSE_BITS) | u128::from(self.cause)
    }

    /// The key [`CellKey::record_order`] gave `order` for.
    fn from_record_order(order: u128) -> CellKey {
        let cause = order as u64 & ((1 << RECORD_CAUSE_BITS) - 1);
        let packed = order >> RECORD_CAUSE_BITS;
        let rest = ((packed & ((1 << 48) - 1)) << 64) | u128::from(cause);
        CellKey::from_in_bucket((packed >> 48) as u32, rest)
    }

    /// The words a digest absorbs for this key.
    fn words(&self) -> [u64; 8] {
        [
            u64::from(self.bucket),
            u64::from(self.kind),
            u64::from(self.isp),
            u64::from(self.rat),
            u64::from(self.model),
            u64::from(self.region),
            u64::from(self.cause_class),
            self.cause,
        ]
    }
}

impl Ord for CellKey {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (self.packed(), self.cause).cmp(&(other.packed(), other.cause))
    }
}

impl PartialOrd for CellKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The §3.1 headline threshold: a record shorter than this many
/// milliseconds counts in [`Cell::under_30s`].
pub(crate) const UNDER_30S_MS: u64 = 30_000;

/// One cell's partial aggregates. Everything merges by exact addition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cell {
    /// Records aggregated.
    pub count: u64,
    /// Exact total duration, integer milliseconds.
    pub duration_ms_total: u64,
    /// Records shorter than 30 s (§3.1's headline share).
    pub under_30s: u64,
    /// Duration sketch (milliseconds) for quantile queries.
    pub sketch: SparseSketch,
}

impl Cell {
    /// Fold one record's duration in.
    pub(crate) fn push(&mut self, duration_ms: u64) {
        self.count += 1;
        self.duration_ms_total += duration_ms;
        if duration_ms < UNDER_30S_MS {
            self.under_30s += 1;
        }
        self.sketch.push(duration_ms);
    }

    /// [`Merge::merge`] without consuming the other cell — query-time group
    /// accumulation folds thousands of borrowed cells per group, and
    /// cloning each one's sketch just to consume it would dominate the
    /// scan.
    pub(crate) fn merge_ref(&mut self, o: &Cell) {
        self.count += o.count;
        self.duration_ms_total += o.duration_ms_total;
        self.under_30s += o.under_30s;
        self.sketch.merge_ref(&o.sketch);
    }
}

impl Merge for Cell {
    fn merge(&mut self, o: Self) {
        self.merge_ref(&o);
    }
}

/// A device's directory entry inside a partition: static dimensions plus
/// its recorded failure count (the Table-1 prevalence numerator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeviceRec {
    /// `PhoneModelId.0`, or 0 when unknown.
    pub model: u8,
    /// `Region::index()`.
    pub region: u8,
    /// `Isp::index()`, or [`NO_ISP`] when the directory does not list the
    /// device.
    pub isp: u8,
    /// Records stored for this device.
    pub failures: u64,
}

impl DeviceRec {
    /// A device's entry under the dimensions the directory gives it.
    #[inline(always)]
    fn of(dim: DeviceDim, failures: u64) -> DeviceRec {
        DeviceRec {
            model: dim.model.map_or(0, |m| m.0),
            region: dim.region.index() as u8,
            isp: dim.isp.map_or(NO_ISP, |i| i.index() as u8),
            failures,
        }
    }
}

impl Merge for DeviceRec {
    fn merge(&mut self, o: Self) {
        self.failures += o.failures;
        // All shards derive a device's static dims from the same directory,
        // so these agree in practice; elementwise max keeps the merge
        // commutative even on inconsistent streams.
        self.model = self.model.max(o.model);
        self.region = self.region.max(o.region);
        self.isp = self.isp.max(o.isp);
    }
}

/// The static dimensions a [`DeviceDirectory`] supplies per device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceDim {
    /// Phone model, when known.
    pub model: Option<PhoneModelId>,
    /// Deployment region.
    pub region: Region,
    /// Subscribed ISP, when known (events carry their own ISP; this one
    /// seeds the device directory for zero-failure devices).
    pub isp: Option<Isp>,
}

impl DeviceDim {
    /// The all-unknown dimension set (no directory available).
    pub(crate) const UNKNOWN: DeviceDim = DeviceDim {
        model: None,
        region: Region::Unknown,
        isp: None,
    };
}

/// Maps device ids to their static dimensions, built once from the
/// generated population (in production: the subscriber database).
#[derive(Debug, Clone, Default)]
pub struct DeviceDirectory {
    dims: Vec<DeviceDim>,
    /// Ownership mask for sharded deployments: when present, [`iter`]
    /// (and therefore [`Store::register_population`]) yields only owned
    /// ids, while [`dim_of`] keeps answering for the whole fleet — any
    /// shard may look up any device's static dimensions.
    ///
    /// [`iter`]: DeviceDirectory::iter
    /// [`dim_of`]: DeviceDirectory::dim_of
    owned: Option<Vec<bool>>,
}

impl DeviceDirectory {
    /// Build from a generated population (device ids are dense 0..n).
    pub fn from_population(pop: &Population) -> Self {
        let mut dims = vec![DeviceDim::UNKNOWN; pop.len()];
        for dev in pop.devices() {
            if let Some(slot) = dims.get_mut(dev.id.0 as usize) {
                *slot = DeviceDim {
                    model: Some(dev.model),
                    region: if dev.remote_region {
                        Region::Remote
                    } else {
                        Region::Urban
                    },
                    isp: Some(dev.isp),
                };
            }
        }
        DeviceDirectory { dims, owned: None }
    }

    /// A shard-local view: [`DeviceDirectory::dim_of`] still answers for
    /// every device, but [`DeviceDirectory::iter`] yields only the
    /// devices `keep` selects — so a sharded store's
    /// [`Store::register_population`] seeds exactly its ownership slice,
    /// and the union of shard views reproduces the full directory.
    pub fn filtered(&self, keep: impl Fn(DeviceId) -> bool) -> Self {
        let owned = (0..self.dims.len())
            .map(|i| keep(DeviceId(i as u32)))
            .collect();
        DeviceDirectory {
            dims: self.dims.clone(),
            owned: Some(owned),
        }
    }

    /// The dimensions of a device (`DeviceDim::UNKNOWN` if unlisted).
    pub fn dim_of(&self, device: DeviceId) -> DeviceDim {
        self.dims
            .get(device.0 as usize)
            .copied()
            .unwrap_or(DeviceDim::UNKNOWN)
    }

    /// Iterate `(device id, dims)` in id order, skipping devices outside
    /// the ownership mask of a [`DeviceDirectory::filtered`] view.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, DeviceDim)> + '_ {
        self.dims
            .iter()
            .enumerate()
            .filter(|(i, _)| self.owned.as_ref().map_or(true, |m| m[*i]))
            .map(|(i, d)| (DeviceId(i as u32), *d))
    }
}

/// One partition: time-ordered cells plus the device directory slice whose
/// ids route here.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Partition {
    pub(crate) cells: BTreeMap<CellKey, Cell>,
    /// Sealed columnar runs (key-sorted, immutable). Compaction and
    /// merging keep this collapsed to at most one run.
    pub(crate) segments: Vec<ColumnSegment>,
    pub(crate) devices: BTreeMap<u32, DeviceRec>,
    /// Records inserted (monotonic; not reduced by compaction).
    pub(crate) inserted: u64,
    /// Compaction sweeps run; a fold counts one per delta it took in.
    pub(crate) compactions: u64,
    /// Rows a sweep took in less the rows it left: bucket folds and the
    /// merge of equal keys alike. The rows a run of sweeps leaves are the
    /// next one's rows in, so the sum telescopes — folding deltas one at a
    /// time counts what folding them at once counts.
    pub(crate) cells_folded: u64,
    /// Inserts since the last sweep (drives `auto_compact_every`).
    pub(crate) since_compact: u64,
}

impl Partition {
    fn physical_cells(&self) -> usize {
        self.cells.len() + self.segments.iter().map(ColumnSegment::len).sum::<usize>()
    }

    /// One sweep; see [`Store::compact`].
    fn compact(&mut self, rollup: u32) {
        self.compactions += 1;
        self.sweep(Vec::new(), rollup);
    }

    /// Merge `deltas` in and sweep, in one pass; see [`Store::fold_in`].
    fn fold_in(&mut self, deltas: Vec<Partition>, rollup: u32) {
        for d in &deltas {
            self.merge_directory_and_counters(d);
        }
        self.compactions += deltas.len() as u64;
        self.sweep(deltas, rollup);
    }

    /// The cells of this partition and of `deltas` as one compacted
    /// partition: every bucket below the seal — the rollup start of the
    /// newest bucket any of them holds — folded onto its rollup start in
    /// the one sealed run, every row-tier cell at or above it kept hot and
    /// mutable. One k-way pass, however many inputs; `cells_folded` grows
    /// by the rows in less the rows out.
    fn sweep(&mut self, deltas: Vec<Partition>, rollup: u32) {
        self.since_compact = 0;
        let rows_in =
            self.physical_cells() + deltas.iter().map(Self::physical_cells).sum::<usize>();
        let newest = std::iter::once(&*self)
            .chain(&deltas)
            .flat_map(|p| {
                let hot = p.cells.keys().next_back().map(|k| k.bucket);
                hot.into_iter()
                    .chain(p.segments.iter().map(|s| s.zones().bucket.1))
            })
            .max();
        let Some(newest) = newest else {
            return;
        };
        let seal = (newest / rollup) * rollup;
        // Row-tier cells below the seal leave for the sealed run; open
        // buckets stay hot and mutable.
        let first_open = CellKey::first_of(seal);
        let open = self.cells.split_off(&first_open);
        let mut sealed_hot = vec![std::mem::replace(&mut self.cells, open)];
        let mut segments = std::mem::take(&mut self.segments);
        for d in deltas {
            let mut cells = d.cells;
            absorb(&mut self.cells, cells.split_off(&first_open));
            sealed_hot.push(cells);
            segments.extend(d.segments);
        }
        sealed_hot.retain(|m| !m.is_empty());
        let fold = Fold { seal, rollup };
        if sealed_hot.is_empty() && segments.len() <= 1 && segments.iter().all(|s| fold.settles(s))
        {
            self.segments = segments; // already the answer: nothing to add or fold
        } else {
            let mut runs = Vec::new();
            for cells in &sealed_hot {
                fold.push_cells(cells, &mut runs);
            }
            for seg in &segments {
                fold.push_segment(seg, &mut runs);
            }
            self.segments = merge_to_segment(runs).into_iter().collect();
        }
        self.cells_folded += (rows_in - self.physical_cells()) as u64;
    }

    /// The part of a partition merge that is not cells: fold `o`'s device
    /// directory slice and counters in.
    fn merge_directory_and_counters(&mut self, o: &Partition) {
        for (&id, &rec) in &o.devices {
            match self.devices.get_mut(&id) {
                Some(mine) => mine.merge(rec),
                None => {
                    self.devices.insert(id, rec);
                }
            }
        }
        self.inserted += o.inserted;
        self.compactions += o.compactions;
        self.cells_folded += o.cells_folded;
        self.since_compact += o.since_compact;
    }

    /// Move every hot cell into the (single) sealed columnar run, without
    /// any bucket folding — a pure layout change.
    fn seal_columnar(&mut self) {
        if self.cells.is_empty() && self.segments.len() <= 1 {
            return;
        }
        let hot = std::mem::take(&mut self.cells);
        let old = std::mem::take(&mut self.segments);
        let mut runs: Vec<Run<'_>> = vec![Run::owned(hot)];
        runs.extend(old.iter().map(Run::seg));
        self.segments = merge_to_segment(runs).into_iter().collect();
    }
}

/// A record waiting in a [`StoreSink`] for its partition's row tier: its
/// key as [`CellKey::record_order`], then its duration in ms. Pair order
/// is key order, so a sorted run of them is a row tier's worth of cells,
/// each cell's durations ascending.
type Staged = (u128, u64);

impl Partition {
    /// Record every record of `staged` at once, leaving it empty: one sort,
    /// one fold of equal keys, and one bulk build of the row tier when it
    /// is empty (cell by cell into it when not). The partition ends as
    /// [`Store::record`] leaves it after the same records one at a time.
    /// The buffer is freed before the tier is built, so a load's peak holds
    /// one partition's buffer beside its cells, not every buffer beside
    /// every tier.
    fn record_staged(&mut self, staged: &mut Vec<Staged>) {
        if staged.is_empty() {
            return;
        }
        let mut staged = std::mem::take(staged);
        let n = staged.len() as u64;
        staged.sort_unstable();
        let mut cells: Vec<(CellKey, Cell)> = Vec::new();
        let mut last = None;
        for &(key, duration_ms) in staged.iter() {
            if last != Some(key) {
                last = Some(key);
                cells.push((CellKey::from_record_order(key), Cell::default()));
            }
            if let Some((_, cell)) = cells.last_mut() {
                cell.push(duration_ms);
            }
        }
        drop(staged);
        if self.cells.is_empty() {
            self.cells = BTreeMap::from_iter(cells);
        } else {
            absorb(&mut self.cells, cells);
        }
        self.inserted += n;
        self.since_compact += n;
    }
}

/// Add `from`'s cells into `cells`, equal keys by the exact cell algebra.
fn absorb(cells: &mut BTreeMap<CellKey, Cell>, from: impl IntoIterator<Item = (CellKey, Cell)>) {
    for (k, c) in from {
        match cells.get_mut(&k) {
            Some(mine) => mine.merge(c),
            None => {
                cells.insert(k, c);
            }
        }
    }
}

/// A bucket fold presented as `merge_runs` input: every bucket below
/// `seal` read under its rollup start. A row tier feeds one run per stored
/// bucket, its rows' bucket overridden — each still sorted by the rest of
/// the key, so the k-way merge re-sorts and sums the fold without taking a
/// row apart. A segment feeds the same for the buckets the fold moves, and
/// each stretch of rows it leaves where they are — open buckets and rollup
/// starts — as one plain run.
#[derive(Clone, Copy)]
struct Fold {
    seal: u32,
    rollup: u32,
}

impl Fold {
    fn moves(self, b: u32) -> bool {
        b < self.seal && b % self.rollup != 0
    }

    /// Whether the fold leaves every row of `seg` where it is.
    fn settles(self, seg: &ColumnSegment) -> bool {
        !seg.buckets.iter().any(|&b| self.moves(b))
    }

    fn push_cells<'a>(self, cells: &'a BTreeMap<CellKey, Cell>, runs: &mut Vec<Run<'a>>) {
        let mut next = cells.first_key_value().map(|(k, _)| k.bucket);
        while let Some(b) = next {
            let from = CellKey::first_of(b);
            if b >= self.seal {
                runs.push(Run::map_range(cells.range(from..), None));
                break;
            }
            let rest = b.checked_add(1).map(CellKey::first_of);
            let bucket = match rest {
                Some(to) => cells.range(from..to),
                None => cells.range(from..),
            };
            runs.push(Run::map_range(
                bucket,
                Some((b / self.rollup) * self.rollup),
            ));
            next = rest.and_then(|to| cells.range(to..).next().map(|(k, _)| k.bucket));
        }
    }

    fn push_segment<'a>(self, seg: &'a ColumnSegment, runs: &mut Vec<Run<'a>>) {
        let after = |i: usize| {
            let b = seg.buckets[i];
            i + seg.buckets[i..].partition_point(|&x| x == b)
        };
        let mut i = 0;
        while i < seg.len() {
            let b = seg.buckets[i];
            if self.moves(b) {
                let j = after(i);
                runs.push(Run::slice(seg, i..j, Some((b / self.rollup) * self.rollup)));
                i = j;
            } else {
                let mut j = after(i);
                while j < seg.len() && !self.moves(seg.buckets[j]) {
                    j = after(j);
                }
                runs.push(Run::slice(seg, i..j, None));
                i = j;
            }
        }
    }
}

impl Merge for Partition {
    fn merge(&mut self, o: Self) {
        self.merge_directory_and_counters(&o);
        absorb(&mut self.cells, o.cells);
        // Segments from both sides collapse into one canonical run: the
        // k-way result depends only on the merged content (cell merge is
        // commutative and associative), so `a.merge(b) == b.merge(a)`
        // holds structurally even when both sides arrive sealed.
        if self.segments.len() + o.segments.len() >= 2 {
            let mine = std::mem::take(&mut self.segments);
            let mut runs: Vec<Run<'_>> = mine.iter().map(Run::seg).collect();
            runs.extend(o.segments.iter().map(Run::seg));
            self.segments = merge_to_segment(runs).into_iter().collect();
        } else if self.segments.is_empty() {
            self.segments = o.segments;
        }
    }
}

/// The analytics cube. See the module docs for the data model and the
/// determinism argument; see [`crate::query`] for reading it back out.
#[derive(Debug, Clone, PartialEq)]
pub struct Store {
    pub(crate) cfg: StoreConfig,
    pub(crate) partitions: Vec<Partition>,
}

impl Store {
    /// Fresh empty store.
    pub fn new(cfg: &StoreConfig) -> Self {
        let parts = cfg.partitions.max(1);
        Store {
            cfg: StoreConfig {
                partitions: parts,
                rollup_buckets: cfg.rollup_buckets.max(1),
                bucket_ms: cfg.bucket_ms.max(1),
                auto_compact_every: cfg.auto_compact_every,
            },
            partitions: vec![Partition::default(); parts],
        }
    }

    /// The (normalised) configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Route a record into its cell. `dim` carries the device's static
    /// dimensions (pass `DeviceDim::UNKNOWN` when no directory exists).
    pub fn record(&mut self, e: &FailureEvent, dim: DeviceDim) {
        let key = CellKey::of(e, dim, self.cfg.bucket_ms);
        let part = e.device.0 as usize % self.partitions.len();
        let p = &mut self.partitions[part];
        p.cells.entry(key).or_default().push(e.duration.as_millis());
        match p.devices.get_mut(&e.device.0) {
            Some(rec) => rec.failures += 1,
            None => {
                p.devices.insert(e.device.0, DeviceRec::of(dim, 1));
            }
        }
        p.inserted += 1;
        p.since_compact += 1;
        if self.cfg.auto_compact_every > 0 && p.since_compact >= self.cfg.auto_compact_every {
            p.compact(self.cfg.rollup_buckets);
        }
    }

    /// Seed the device directory with every listed device at zero
    /// failures — the denominators prevalence metrics divide by. Existing
    /// entries (devices that already recorded failures) are left untouched,
    /// so registration before or after recording yields the same state.
    pub fn register_population(&mut self, dir: &DeviceDirectory) {
        let parts = self.partitions.len();
        for (id, dim) in dir.iter() {
            self.partitions[id.0 as usize % parts]
                .devices
                .entry(id.0)
                .or_insert(DeviceRec::of(dim, 0));
        }
    }

    /// Fold every partition's sealed time buckets onto rollup boundaries,
    /// moving the folded cells into the sealed columnar tier. Query
    /// answers are unchanged (see module docs); only the physical cell
    /// count and layout change.
    pub fn compact(&mut self) {
        let rollup = self.cfg.rollup_buckets;
        for p in &mut self.partitions {
            p.compact(rollup);
        }
    }

    /// Merge `deltas` into this store and compact the result, in one k-way
    /// pass per partition: equal, field for field, to merging and
    /// compacting each delta in turn (`merge` then [`Store::compact`], one
    /// delta at a time), however many deltas there are. The seal comes
    /// from the newest bucket over all inputs, so a run of folds and one
    /// fold of the same deltas leave the same layout, and the counters
    /// add up alike: one compaction per delta plus each delta's own, and
    /// [`Store::cells_folded`] grows by the rows in less the rows out.
    ///
    /// Folding no deltas leaves the store as it is. Panics, like `merge`,
    /// if a delta was built under another config.
    pub fn fold_in(&mut self, deltas: Vec<Store>) {
        if deltas.is_empty() {
            return;
        }
        let mut parts: Vec<_> = deltas
            .into_iter()
            .map(|d| {
                assert_eq!(
                    self.cfg, d.cfg,
                    "stores with different configs do not merge"
                );
                d.partitions.into_iter()
            })
            .collect();
        let rollup = self.cfg.rollup_buckets;
        for p in &mut self.partitions {
            let deltas = parts
                .iter_mut()
                .map(|d| d.next().expect("same config, same partition count"))
                .collect();
            p.fold_in(deltas, rollup);
        }
    }

    /// Seal every partition's hot cells into its columnar run **without**
    /// bucket folding — a pure layout change (same cells, same answers,
    /// same digest) that trades the mutable row tier for branch-light
    /// columnar scans. The stream pipeline seals finished windows this way
    /// before they are encoded and tiered.
    pub fn seal_columnar(&mut self) {
        for p in &mut self.partitions {
            p.seal_columnar();
        }
    }

    /// The union of `parts` as one columnar-sealed store — the one way a
    /// served view is built. Equal, field for field, to folding the parts
    /// with [`Merge::merge`] and calling [`Store::seal_columnar`], in any
    /// order of `parts`, but without a copy of any part and in a single
    /// k-way pass per partition: every part's sealed run and every part's
    /// row tier feeds `merge_runs` by reference, a run each.
    ///
    /// Panics, like `merge`, if a part was built under another config.
    pub fn sealed_union(cfg: &StoreConfig, parts: &[&Store]) -> Store {
        let mut out = Store::new(cfg);
        for part in parts {
            assert_eq!(
                out.cfg, part.cfg,
                "stores with different configs do not merge"
            );
        }
        for (i, p) in out.partitions.iter_mut().enumerate() {
            let mut hot: Vec<Run<'_>> = Vec::new();
            let mut sealed: Vec<&ColumnSegment> = Vec::new();
            for o in parts.iter().map(|part| &part.partitions[i]) {
                if !o.cells.is_empty() {
                    hot.push(Run::map(&o.cells));
                }
                sealed.extend(&o.segments);
                p.merge_directory_and_counters(o);
            }
            p.segments = match sealed[..] {
                // A lone segment is already the canonical run of its
                // content (a follower's sealed base, a view partition
                // nothing new landed in): copy it, zones and all.
                [only] if hot.is_empty() && !only.is_empty() => vec![only.clone()],
                _ => {
                    hot.extend(sealed.into_iter().map(Run::seg));
                    merge_to_segment(hot).into_iter().collect()
                }
            };
        }
        out
    }

    /// Total live cells across partitions (row tier + sealed segments).
    pub fn cells(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.physical_cells() as u64)
            .sum()
    }

    /// Sealed columnar runs across partitions.
    pub fn sealed_segments(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.segments.len() as u64)
            .sum()
    }

    /// Cells living in sealed columnar runs (a subset of [`Store::cells`]).
    pub fn sealed_cells(&self) -> u64 {
        self.partitions
            .iter()
            .flat_map(|p| &p.segments)
            .map(|s| s.len() as u64)
            .sum()
    }

    /// Encoded `SC` blocks of every sealed segment, in partition order —
    /// the surface the golden snapshot pins the on-disk columnar layout
    /// through.
    pub fn segment_blocks(&self) -> Vec<Vec<u8>> {
        self.partitions
            .iter()
            .flat_map(|p| &p.segments)
            .map(|s| {
                let mut out = Vec::new();
                s.encode(&mut out);
                out
            })
            .collect()
    }

    /// Devices in the directory (registered or observed).
    pub fn devices(&self) -> u64 {
        self.partitions.iter().map(|p| p.devices.len() as u64).sum()
    }

    /// Records inserted (not reduced by compaction).
    pub fn inserted(&self) -> u64 {
        self.partitions.iter().map(|p| p.inserted).sum()
    }

    /// Compaction sweeps run across partitions, a [`Store::fold_in`]
    /// counting one per delta.
    pub fn compactions(&self) -> u64 {
        self.partitions.iter().map(|p| p.compactions).sum()
    }

    /// Rows compaction has removed so far: the rows every sweep
    /// ([`Store::compact`], [`Store::fold_in`]) took in, the store and each
    /// delta, less the rows it left. A sweep's rows out are the next
    /// sweep's rows in, so the count depends on the deltas folded, never on
    /// how many folds they took.
    pub fn cells_folded(&self) -> u64 {
        self.partitions.iter().map(|p| p.cells_folded).sum()
    }

    /// Content digest over the **canonical rolled-up view**: every cell's
    /// bucket is folded to its rollup boundary and all partitions are
    /// merged into one key order before hashing — the fold
    /// [`Store::compact`] makes, run over everything and into a hash
    /// instead of a segment. Physical layout — thread count, partition
    /// count, whether compaction ran — therefore cannot affect it; only
    /// the recorded data can.
    ///
    /// The view is built a rollup week at a time. Every row of the week,
    /// from every partition's row tier and segments, goes into one buffer
    /// as its key below the bucket (`CellKey::in_bucket`) beside where it
    /// lives; the buffer is sorted, equal keys are folded by the exact cell
    /// algebra (commutative, so which holder sorts first does not matter),
    /// and the cells are hashed in key order. The cell count the digest
    /// absorbs first is counted off the sorted weeks before any cell is
    /// hashed. The tests keep the digest through an ordered map of cloned
    /// cells as its oracle.
    pub fn digest(&self) -> u64 {
        let rollup = self.cfg.rollup_buckets;
        let mut hot: Vec<_> = self
            .partitions
            .iter()
            .map(|p| p.cells.iter().peekable())
            .collect();
        let segs: Vec<&ColumnSegment> = self.partitions.iter().flat_map(|p| &p.segments).collect();
        let mut at = vec![0usize; segs.len()];
        // `(key below the bucket, source)`, the source a segment's index
        // and a row of it, or `HOT` and an index into `cells`.
        const HOT: u64 = (u32::MAX as u64) << 32;
        let mut cells: Vec<&Cell> = Vec::new();
        let mut rows: Vec<(u128, u64)> = Vec::with_capacity(self.cells() as usize);
        // Each rollup start with its rows' range, ascending.
        let mut weeks: Vec<(u32, Range<usize>)> = Vec::new();
        loop {
            let heads = hot
                .iter_mut()
                .filter_map(|it| it.peek().map(|(k, _)| k.bucket));
            let segment_heads = segs.iter().zip(&at).filter_map(|(s, &i)| s.buckets.get(i));
            let Some(week) = heads
                .chain(segment_heads.copied())
                .min()
                .map(|b| b / rollup)
            else {
                break;
            };
            let start = rows.len();
            for it in &mut hot {
                while let Some((k, c)) = it.next_if(|(k, _)| k.bucket / rollup == week) {
                    rows.push((k.in_bucket(), HOT | cells.len() as u64));
                    cells.push(c);
                }
            }
            for (s, (seg, i)) in segs.iter().zip(&mut at).enumerate() {
                let end = *i + seg.buckets[*i..].partition_point(|&b| b / rollup == week);
                let source = (s as u64) << 32;
                rows.extend((*i..end).map(|r| (seg.key_at(r).in_bucket(), source | r as u64)));
                *i = end;
            }
            rows[start..].sort_unstable_by_key(|&(key, _)| key);
            weeks.push((week * rollup, start..rows.len()));
        }
        let row = |source: u64| match source & HOT {
            HOT => RowRef::of(cells[source as u32 as usize]),
            s => segs[(s >> 32) as usize].row_at(source as u32 as usize),
        };
        let count = weeks
            .iter()
            .map(|(_, range)| key_runs(&rows[range.clone()]).count() as u64)
            .sum();
        let (mut pool, mut scratch) = (Vec::new(), Vec::new());
        self.digest_of(count, |d| {
            for (bucket, range) in &weeks {
                for group in key_runs(&rows[range.clone()]) {
                    let first = row(group[0].1);
                    let (agg, run) = match &group[1..] {
                        [] => (first.agg, first.run),
                        more => {
                            let mut agg = first.agg;
                            pool.clear();
                            pool.extend_from_slice(first.run);
                            for &(_, source) in more {
                                agg.fold(row(source), &mut pool, 0, &mut scratch);
                            }
                            (agg, &pool[..])
                        }
                    };
                    for w in CellKey::from_in_bucket(*bucket, group[0].0).words() {
                        d.write_u64(w);
                    }
                    for w in [agg.count, agg.duration_total, agg.under_30s] {
                        d.write_u64(w);
                    }
                    // The sketch, as `SparseSketch::absorb_into` writes it.
                    d.write_u64(run.iter().map(|&(_, n)| n).sum());
                    d.write_u64(agg.min);
                    d.write_u64(agg.max);
                    for &(i, n) in run {
                        d.write_u64(u64::from(i));
                        d.write_u64(n);
                    }
                }
            }
        })
    }

    /// The digest around its canonical cells: config, the cell count,
    /// whatever `cells` absorbs, then the merged device directory.
    fn digest_of(&self, count: u64, cells: impl FnOnce(&mut Digest64)) -> u64 {
        // Each partition's map is a run of ascending ids, so the stable
        // sort is a k-way merge of runs it finds already sorted; an id two
        // partitions hold (never, under one routing) sums into one entry.
        // The digest absorbs the device count first, hence the buffer.
        let mut devices: Vec<(u32, DeviceRec)> =
            Vec::with_capacity(self.partitions.iter().map(|p| p.devices.len()).sum());
        for p in &self.partitions {
            devices.extend(p.devices.iter().map(|(&id, &rec)| (id, rec)));
        }
        devices.sort_by_key(|&(id, _)| id);
        devices.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1.merge(next.1);
            }
            same
        });
        let mut d = Digest64::new();
        d.write_u64(self.cfg.bucket_ms);
        d.write_u64(u64::from(self.cfg.rollup_buckets));
        d.write_u64(count);
        cells(&mut d);
        d.write_u64(devices.len() as u64);
        for &(id, rec) in &devices {
            d.write_u64(u64::from(id));
            d.write_u64(u64::from(rec.model));
            d.write_u64(u64::from(rec.region));
            d.write_u64(u64::from(rec.isp));
            d.write_u64(rec.failures);
        }
        d.finish()
    }
}

/// Sorted `rows` cut into runs of equal keys (`slice::chunk_by`, which the
/// minimum supported Rust predates).
fn key_runs<T>(mut rows: &[(u128, T)]) -> impl Iterator<Item = &[(u128, T)]> {
    std::iter::from_fn(move || {
        let key = rows.first()?.0;
        let (run, rest) = rows.split_at(rows.iter().take_while(|r| r.0 == key).count());
        rows = rest;
        Some(run)
    })
}

impl Merge for Store {
    fn merge(&mut self, o: Self) {
        assert_eq!(
            self.cfg, o.cfg,
            "stores with different configs do not merge"
        );
        for (mine, theirs) in self.partitions.iter_mut().zip(o.partitions) {
            mine.merge(theirs);
        }
    }
}

/// A sink that loads events into a [`Store`], resolving device dimensions
/// through a shared [`DeviceDirectory`]. It is an [`EventSink`], so the
/// simulation drivers and the ingest collector feed it alike, and
/// [`Merge`], so the parallel drivers fold per-shard sinks
/// deterministically.
///
/// A batch load does not insert record by record. Each record's cell key
/// and duration wait as two integers in a staging buffer of its
/// partition, and a device's failure tally is counted as its records
/// arrive (the device of the previous record first: an upload batch holds
/// one device's records). [`StoreSink::store`] and
/// [`StoreSink::into_store`] then build each partition's row tier from its
/// buffer with one sort and one bulk build. The result is the [`Store`]
/// that [`Store::record`] builds from the same records one at a time,
/// field for field, so the digest, the image bytes and every answer are
/// the same. Under [`StoreConfig::auto_compact_every`] > 0 the sink
/// records one at a time, because the sweeps fall at insert counts.
#[derive(Debug, Clone)]
pub struct StoreSink<'a> {
    store: Store,
    dir: &'a DeviceDirectory,
    /// Per partition, the records not yet in its row tier.
    staged: Vec<Vec<Staged>>,
    /// The device of the last record, its dimensions, and how many of its
    /// records are not yet in its partition's device directory.
    last: Option<(DeviceId, DeviceDim, u64)>,
}

impl<'a> StoreSink<'a> {
    /// Empty sink over a directory.
    pub fn new(cfg: &StoreConfig, dir: &'a DeviceDirectory) -> Self {
        let store = Store::new(cfg);
        StoreSink {
            staged: vec![Vec::new(); store.partitions.len()],
            store,
            dir,
            last: None,
        }
    }

    /// Consume the sink: build the row tiers from what is staged, then
    /// register the directory's population so zero-failure devices appear
    /// in the denominators.
    pub fn into_store(mut self) -> Store {
        self.settle();
        self.store.register_population(self.dir);
        self.store
    }

    /// Borrow the store built so far, every record the sink took in
    /// included (population not yet registered). The staged records are
    /// moved into the row tiers first, so this takes the sink mutably; a
    /// load that borrows it after every few records pays a cell-by-cell
    /// insert for all but the first batch.
    pub fn store(&mut self) -> &Store {
        self.settle();
        &self.store
    }

    /// Move the last device's pending tally into its partition's directory.
    fn tally_last(&mut self) {
        if let Some((device, dim, n)) = self.last.take() {
            let parts = self.store.partitions.len();
            let p = &mut self.store.partitions[device.0 as usize % parts];
            p.devices
                .entry(device.0)
                .or_insert(DeviceRec::of(dim, 0))
                .failures += n;
        }
    }

    /// Bring the store up to every record taken in.
    fn settle(&mut self) {
        self.tally_last();
        for (p, staged) in self.store.partitions.iter_mut().zip(&mut self.staged) {
            p.record_staged(staged);
        }
    }
}

impl EventSink for StoreSink<'_> {
    fn record(&mut self, event: &FailureEvent) {
        if self.store.cfg.auto_compact_every > 0 {
            let dim = self.dir.dim_of(event.device);
            self.store.record(event, dim);
            return;
        }
        let dim = match &mut self.last {
            Some((device, dim, n)) if *device == event.device => {
                *n += 1;
                *dim
            }
            _ => {
                self.tally_last();
                let dim = self.dir.dim_of(event.device);
                self.last = Some((event.device, dim, 1));
                dim
            }
        };
        let key = CellKey::of(event, dim, self.store.cfg.bucket_ms);
        let part = event.device.0 as usize % self.staged.len();
        self.staged[part].push((key.record_order(), event.duration.as_millis()));
    }
}

/// The stores merge, and the staging buffers concatenate in merge order:
/// the sort that builds the row tiers does not see which shard a record
/// came from.
impl Merge for StoreSink<'_> {
    fn merge(&mut self, mut o: Self) {
        self.tally_last();
        o.tally_last();
        self.store.merge(o.store);
        for (mine, theirs) in self.staged.iter_mut().zip(&mut o.staged) {
            mine.append(theirs);
        }
    }
}

/// Build a store by replaying `events` sharded over up to `threads` scoped
/// threads (0 = auto via `CELLREL_THREADS`) into one [`StoreSink`] each,
/// folding the shard sinks in shard order. Bit-identical to a
/// single-threaded replay at any thread count; the population in `dir` is
/// registered on the result.
pub fn build_sharded(
    cfg: &StoreConfig,
    dir: &DeviceDirectory,
    events: &[FailureEvent],
    threads: usize,
) -> Store {
    let sink = run_sharded_merge(events.len(), threads, |range| {
        let mut sink = StoreSink::new(cfg, dir);
        for e in &events[range] {
            sink.record(e);
        }
        sink
    });
    sink.into_store()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::save_store;
    use cellrel_types::{
        Apn, BsId, DataFailCause, FailureKind, InSituInfo, Rat, SignalLevel, SimDuration, SimTime,
    };
    use proptest::prelude::*;

    pub(crate) fn ev(
        device: u32,
        start_s: u64,
        dur_s: u64,
        kind: FailureKind,
        cause: Option<DataFailCause>,
    ) -> FailureEvent {
        FailureEvent {
            device: DeviceId(device),
            kind,
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(dur_s),
            cause,
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L3,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(0, 1, 2)),
                isp: Isp::A,
            },
        }
    }

    impl Store {
        /// The digest as it was before it read the merge kernel, kept as
        /// the oracle: every cell cloned into one ordered map under its
        /// folded key, then hashed.
        fn digest_by_tree(&self) -> u64 {
            let rollup = self.cfg.rollup_buckets;
            let mut canon: BTreeMap<CellKey, Cell> = BTreeMap::new();
            for p in &self.partitions {
                let hot = p.cells.iter().map(|(k, c)| (*k, c.clone()));
                for (mut key, cell) in hot.chain(p.segments.iter().flat_map(|s| s.rows())) {
                    key.bucket = (key.bucket / rollup) * rollup;
                    canon.entry(key).or_default().merge(cell);
                }
            }
            self.digest_of(canon.len() as u64, |d| {
                for (k, c) in &canon {
                    for w in k.words() {
                        d.write_u64(w);
                    }
                    d.write_u64(c.count);
                    d.write_u64(c.duration_ms_total);
                    d.write_u64(c.under_30s);
                    c.sketch.absorb_into(d);
                }
            })
        }
    }

    fn small_events(n: u32) -> Vec<FailureEvent> {
        (0..n)
            .map(|i| {
                ev(
                    i % 40,
                    u64::from(i) * 3600,
                    3 + u64::from(i % 50),
                    FailureKind::ALL[i as usize % 5],
                    (i % 3 == 0).then_some(DataFailCause::SignalLost),
                )
            })
            .collect()
    }

    #[test]
    fn cause_key_round_trips_negative_codes() {
        let dir = DeviceDirectory::default();
        let mut s = Store::new(&StoreConfig::default());
        let e = ev(
            1,
            10,
            5,
            FailureKind::DataSetupError,
            Some(DataFailCause::GprsRegistrationFail), // code -2
        );
        s.record(&e, dir.dim_of(e.device));
        let key = *s.partitions[1].cells.keys().next().unwrap();
        assert_eq!(key.cause_code(), Some(-2));
        assert_eq!(key.cause_class, 2, "network layer index");
        let none = ev(2, 10, 5, FailureKind::DataStall, None);
        s.record(&none, dir.dim_of(none.device));
        let key2 = *s.partitions[2].cells.keys().next().unwrap();
        assert_eq!(key2.cause_code(), None);
        assert_eq!(key2.cause_class, NO_CAUSE_CLASS);
    }

    #[test]
    fn digest_is_invariant_across_partition_count_and_compaction() {
        let events = small_events(600);
        let dir = DeviceDirectory::default();
        let base = build_sharded(&StoreConfig::default(), &dir, &events, 1);
        for partitions in [1usize, 4, 32] {
            let cfg = StoreConfig {
                partitions,
                ..StoreConfig::default()
            };
            let mut s = build_sharded(&cfg, &dir, &events, 1);
            assert_eq!(s.digest(), base.digest(), "partitions={partitions}");
            s.compact();
            assert_eq!(
                s.digest(),
                base.digest(),
                "compacted, partitions={partitions}"
            );
            assert!(s.cells() < base.cells() || base.cells() == s.cells());
        }
        // Auto-compaction mid-stream does not change the digest either.
        let auto = build_sharded(
            &StoreConfig {
                auto_compact_every: 16,
                partitions: 2,
                ..StoreConfig::default()
            },
            &dir,
            &events,
            1,
        );
        assert!(auto.compactions() > 0);
        assert_eq!(auto.digest(), base.digest());
    }

    /// The kernel-fed digest against the tree oracle, on every layout a
    /// store takes: row tier only, compacted (sealed run + open hot
    /// buckets), fully sealed, and a sealed history with a hot tail.
    #[test]
    fn digest_equals_the_tree_digest_on_every_layout() {
        let events = small_events(600);
        let dir = DeviceDirectory::default();
        let mut seen = Vec::new();
        for partitions in [1usize, 4, 16] {
            let cfg = StoreConfig {
                partitions,
                ..StoreConfig::default()
            };
            let hot = build_sharded(&cfg, &dir, &events, 1);
            let mut compacted = hot.clone();
            compacted.compact();
            let mut sealed = hot.clone();
            sealed.seal_columnar();
            let mut mixed = build_sharded(&cfg, &dir, &events[..400], 1);
            mixed.seal_columnar();
            for e in &events[400..] {
                mixed.record(e, dir.dim_of(e.device));
            }
            assert!(mixed.sealed_cells() > 0 && mixed.sealed_cells() < mixed.cells());
            for (layout, s) in [
                ("hot", &hot),
                ("compacted", &compacted),
                ("sealed", &sealed),
                ("mixed", &mixed),
            ] {
                assert_eq!(s.digest(), s.digest_by_tree(), "{layout} x{partitions}");
                seen.push(s.digest());
            }
        }
        assert!(
            seen.iter().all(|&d| d == seen[0]),
            "one content, one digest"
        );
        let empty = Store::new(&StoreConfig::default());
        assert_eq!(empty.digest(), empty.digest_by_tree());
        // The last bucket there is (start times past it clamp onto it) has
        // no successor to bound its run by.
        let mut edge = Store::new(&StoreConfig {
            bucket_ms: 1,
            ..StoreConfig::default()
        });
        for start_s in [1, 5_000_000, 6_000_000] {
            let e = ev(3, start_s, 2, FailureKind::DataStall, None);
            edge.record(&e, dir.dim_of(e.device));
        }
        let last = edge.partitions[3].cells.keys().next_back().unwrap().bucket;
        assert_eq!(last, u32::MAX);
        let want = edge.digest_by_tree();
        assert_eq!(edge.digest(), want);
        edge.compact();
        assert_eq!((edge.cells(), edge.sealed_cells()), (2, 1));
        assert_eq!(edge.digest(), want);
    }

    /// Routing keeps a device in one partition, but the digest does not
    /// rely on it: an id two partitions hold is one directory entry, the
    /// sum of both, wherever it falls among the other ids.
    #[test]
    fn digest_sums_a_device_two_partitions_hold() {
        let rec = |failures| DeviceRec {
            model: 3,
            region: 1,
            isp: 2,
            failures,
        };
        let cfg = |partitions| StoreConfig {
            partitions,
            ..StoreConfig::default()
        };
        let mut split = Store::new(&cfg(3));
        split.partitions[0].devices = BTreeMap::from([(3, rec(1)), (7, rec(2)), (9, rec(4))]);
        split.partitions[1].devices = BTreeMap::from([(4, rec(1)), (7, rec(3))]);
        split.partitions[2].devices = BTreeMap::from([(7, rec(1)), (8, rec(6))]);
        let mut whole = Store::new(&cfg(1));
        whole.partitions[0].devices = BTreeMap::from([
            (3, rec(1)),
            (4, rec(1)),
            (7, rec(6)),
            (8, rec(6)),
            (9, rec(4)),
        ]);
        assert_eq!(split.digest(), whole.digest());
    }

    /// A sealed run holding one row per bucket over 50 000 buckets — what
    /// the 1 s geometry of the stream tests seals, and what a follower can
    /// be shipped — folds as 50 000 one-row runs. Picking the smallest head
    /// off a heap keeps that linearithmic and this test at a tenth of a
    /// second; a scan of the heads per row is 2.5 · 10⁹ key compares here,
    /// minutes in the test profile, and fails it by timeout.
    #[test]
    fn folding_fifty_thousand_one_row_buckets_is_not_quadratic() {
        let cfg = StoreConfig {
            bucket_ms: 1_000,
            rollup_buckets: 4,
            partitions: 1,
            auto_compact_every: 0,
        };
        let dir = DeviceDirectory::default();
        let mut s = Store::new(&cfg);
        for t in 0..50_000u64 {
            let e = ev(0, t, 1 + t % 40, FailureKind::DataStall, None);
            s.record(&e, dir.dim_of(e.device));
        }
        s.seal_columnar();
        assert_eq!(s.sealed_cells(), 50_000);
        let want_digest = s.digest_by_tree();
        // The fold through a tree: rows re-keyed, re-sorted and summed by
        // `from_rows`' ordered map.
        let seal = 49_999 / 4 * 4;
        let want =
            ColumnSegment::from_rows(s.partitions[0].segments[0].rows().map(|(mut k, c)| {
                if k.bucket < seal {
                    k.bucket = k.bucket / 4 * 4;
                }
                (k, c)
            }));

        assert_eq!(s.digest(), want_digest);
        s.compact();
        assert_eq!(s.digest(), want_digest);

        assert_eq!(s.partitions[0].segments, Vec::from_iter(want));
        assert_eq!(s.cells(), 12_503, "12 499 rollup rows and 4 open ones");
        assert_eq!(s.cells_folded(), 50_000 - 12_503);
    }

    #[test]
    fn build_is_thread_invariant() {
        let events = small_events(400);
        let dir = DeviceDirectory::default();
        let cfg = StoreConfig::default();
        let base = build_sharded(&cfg, &dir, &events, 1);
        for threads in [2usize, 8] {
            let s = build_sharded(&cfg, &dir, &events, threads);
            assert_eq!(s, base, "threads={threads}");
            assert_eq!(s.digest(), base.digest());
        }
    }

    #[test]
    fn registration_order_does_not_matter() {
        let events = small_events(100);
        let dir = DeviceDirectory {
            dims: vec![DeviceDim::UNKNOWN; 40],
            owned: None,
        };
        let cfg = StoreConfig::default();

        let mut before = Store::new(&cfg);
        before.register_population(&dir);
        for e in &events {
            before.record(e, dir.dim_of(e.device));
        }

        let mut after = Store::new(&cfg);
        for e in &events {
            after.record(e, dir.dim_of(e.device));
        }
        after.register_population(&dir);

        assert_eq!(before, after);
        assert_eq!(before.devices(), 40);
    }

    #[test]
    fn compaction_folds_sealed_buckets_only() {
        let cfg = StoreConfig {
            bucket_ms: 1_000,
            rollup_buckets: 4,
            partitions: 1,
            auto_compact_every: 0,
        };
        let dir = DeviceDirectory::default();
        let mut s = Store::new(&cfg);
        // Buckets 0..=9 (one event per second, 1 s buckets).
        for t in 0..10u64 {
            let e = ev(0, t, 1, FailureKind::DataStall, None);
            s.record(&e, dir.dim_of(e.device));
        }
        assert_eq!(s.cells(), 10);
        s.compact();
        // Seal = (9/4)*4 = 8: buckets 0..8 fold to {0, 4} and move to the
        // sealed columnar run; 8 and 9 stay hot in the row tier.
        let hot: Vec<u32> = s.partitions[0].cells.keys().map(|k| k.bucket).collect();
        assert_eq!(hot, vec![8, 9]);
        assert_eq!(s.partitions[0].segments.len(), 1);
        let sealed: Vec<u32> = s.partitions[0].segments[0]
            .rows()
            .map(|(k, _)| k.bucket)
            .collect();
        assert_eq!(sealed, vec![0, 4]);
        assert_eq!(s.cells(), 4);
        assert_eq!(s.sealed_cells(), 2);
        assert_eq!(s.cells_folded(), 6);
        assert_eq!(s.inserted(), 10, "inserted count survives compaction");
        let total: u64 = s.partitions[0].cells.values().map(|c| c.count).sum::<u64>()
            + s.partitions[0].segments[0]
                .rows()
                .map(|(_, c)| c.count)
                .sum::<u64>();
        assert_eq!(total, 10, "no records lost");
    }

    /// Boundary alignment: a stream whose newest bucket lands **exactly**
    /// on a rollup-granularity edge must neither fold that boundary bucket
    /// (it is still open) nor drop or double-count anything in it.
    #[test]
    fn compaction_at_exact_rollup_edge_keeps_boundary_bucket_open() {
        let cfg = StoreConfig {
            bucket_ms: 1_000,
            rollup_buckets: 4,
            partitions: 1,
            auto_compact_every: 0,
        };
        let dir = DeviceDirectory::default();
        let mut s = Store::new(&cfg);
        // Buckets 0..=8: the max bucket (8) sits exactly on the 2nd rollup
        // edge, so seal == max_bucket. Three records land in the edge
        // bucket itself.
        for t in 0..9u64 {
            let e = ev(0, t, 1, FailureKind::DataStall, None);
            s.record(&e, dir.dim_of(e.device));
        }
        for _ in 0..2 {
            let e = ev(0, 8, 2, FailureKind::DataSetupError, None);
            s.record(&e, dir.dim_of(e.device));
        }
        let digest = s.digest();
        s.compact();
        // Seal = (8/4)*4 = 8: buckets 0..8 fold to the sealed run {0, 4};
        // bucket 8 stays hot and unfolded with both its kinds intact.
        let hot: Vec<u32> = s.partitions[0].cells.keys().map(|k| k.bucket).collect();
        assert_eq!(hot, vec![8, 8]);
        let sealed: Vec<u32> = s.partitions[0].segments[0]
            .rows()
            .map(|(k, _)| k.bucket)
            .collect();
        assert_eq!(sealed, vec![0, 4]);
        let edge_total: u64 = s.partitions[0]
            .cells
            .iter()
            .filter(|(k, _)| k.bucket == 8)
            .map(|(_, c)| c.count)
            .sum();
        assert_eq!(edge_total, 3, "boundary bucket neither dropped nor doubled");
        let total: u64 = s.partitions[0].cells.values().map(|c| c.count).sum::<u64>()
            + s.partitions[0].segments[0]
                .rows()
                .map(|(_, c)| c.count)
                .sum::<u64>();
        assert_eq!(total, 11, "no records lost");
        assert_eq!(s.digest(), digest, "canonical digest survives edge seal");
        // A second sweep over the already-sealed layout is a no-op fold.
        let cells = s.cells();
        s.compact();
        assert_eq!(s.cells(), cells);
        assert_eq!(s.digest(), digest);
    }

    #[test]
    fn seal_columnar_is_a_pure_layout_change() {
        let events = small_events(300);
        let dir = DeviceDirectory::default();
        let mut s = build_sharded(&StoreConfig::default(), &dir, &events, 1);
        let row = s.clone();
        s.seal_columnar();
        assert_eq!(s.cells(), row.cells(), "sealing never folds");
        assert_eq!(s.sealed_cells(), s.cells(), "every cell went columnar");
        assert!(s.partitions.iter().all(|p| p.cells.is_empty()));
        assert_eq!(s.digest(), row.digest());
        // Sealing again is a no-op.
        let mut again = s.clone();
        again.seal_columnar();
        assert_eq!(again, s);
        // Merging a sealed store with a row store is commutative and
        // content-equivalent to the all-row merge.
        let mut ab = s.clone();
        ab.merge(row.clone());
        let mut ba = row.clone();
        ba.merge(s.clone());
        assert_eq!(ab.digest(), ba.digest());
        assert_eq!(ab.partitions[0].segments, ba.partitions[0].segments);
    }

    /// The same edge case through the auto-compaction path: sweeps fired
    /// mid-stream while the newest bucket sits on a rollup edge answer
    /// identically to a never-compacted store.
    #[test]
    fn auto_compaction_at_rollup_edges_matches_uncompacted() {
        let cfg = StoreConfig {
            bucket_ms: 1_000,
            rollup_buckets: 4,
            partitions: 2,
            auto_compact_every: 3,
        };
        let plain = StoreConfig {
            auto_compact_every: 0,
            ..cfg
        };
        let dir = DeviceDirectory::default();
        let mut auto = Store::new(&cfg);
        let mut manual = Store::new(&plain);
        // Every record lands exactly on a rollup edge (buckets 0,4,8,...),
        // so each auto sweep runs with max_bucket == seal.
        for i in 0..24u64 {
            let e = ev(
                (i % 5) as u32,
                (i / 2) * 4,
                1,
                FailureKind::OutOfService,
                None,
            );
            auto.record(&e, dir.dim_of(e.device));
            manual.record(&e, dir.dim_of(e.device));
        }
        assert!(auto.compactions() > 0, "auto sweeps actually fired");
        assert_eq!(auto.inserted(), manual.inserted());
        assert_eq!(auto.digest(), manual.digest());
    }

    /// The stream's base fold as it was before [`Store::fold_in`], kept as
    /// the oracle: `merge` then `compact`, one delta at a time.
    fn merge_then_compact(base: &Store, deltas: &[Store]) -> Store {
        let mut s = base.clone();
        for d in deltas {
            s.merge(d.clone());
            s.compact();
        }
        s
    }

    /// One generated store: its records as (device, bucket, kind, duration)
    /// and a layout. Buckets span six rollups of four, so they land on and
    /// beside every edge, and a store drawn after another often holds
    /// buckets below the seal that one set — the late lane's shape.
    type StoreParts = (Vec<(u32, u32, usize, u64)>, usize);

    fn store_parts() -> impl Strategy<Value = StoreParts> {
        (
            prop::collection::vec((0u32..8, 0u32..24, 0usize..5, 1u64..90), 0..30),
            0usize..5,
        )
    }

    /// The layouts a fold meets: row tier only (0), one sealed run, unfolded
    /// (1) or compacted with open rows beside it (2), and rows recorded on
    /// top of either (3, 4). No records at all is an empty delta.
    fn build(cfg: &StoreConfig, (records, layout): &StoreParts) -> Store {
        let dir = DeviceDirectory::default();
        let mut s = Store::new(cfg);
        let half = if *layout >= 3 {
            records.len() / 2
        } else {
            records.len()
        };
        for (i, &(device, bucket, kind, dur)) in records.iter().enumerate() {
            if i == half {
                match layout {
                    3 => s.seal_columnar(),
                    _ => s.compact(),
                }
            }
            let cause = (kind % 2 == 0).then_some(DataFailCause::SignalLost);
            let e = ev(
                device,
                u64::from(bucket),
                dur,
                FailureKind::ALL[kind],
                cause,
            );
            s.record(&e, dir.dim_of(e.device));
        }
        match layout {
            1 => s.seal_columnar(),
            2 => s.compact(),
            _ => {}
        }
        s
    }

    /// One generated row for the digest: `(far, near bucket, offset below
    /// u32::MAX)` picks the bucket — one of the first four rollup weeks, or
    /// one of the last buckets there are — then kind, model and cause, from
    /// so few values that partitions, tiers and days share keys; no
    /// durations at all is a zero-count cell.
    type DigestRow = ((bool, u32, u32), (u8, u8, usize), Vec<u64>);
    /// One partition: its row tier and 0–3 segments.
    type DigestPart = (Vec<DigestRow>, Vec<Vec<DigestRow>>);

    fn digest_row(
        &((far, near, below), (kind, model, cause), ref durations): &DigestRow,
    ) -> (CellKey, Cell) {
        // Raw causes past 2^32 are what an `i32` code decodes to by
        // aliasing; `u64::MAX` is the top of the packed order.
        let cause = [0, 3, 17, 1 << 32, (1 << 33) + 1, u64::MAX][cause];
        let key = CellKey {
            bucket: if far { u32::MAX - below } else { near },
            kind,
            isp: 1,
            rat: 2,
            model,
            region: 0,
            cause_class: if cause == 0 { NO_CAUSE_CLASS } else { 2 },
            cause,
        };
        let mut cell = Cell::default();
        for &d in durations {
            cell.push(d);
        }
        (key, cell)
    }

    fn digest_rows() -> impl Strategy<Value = Vec<DigestRow>> {
        let row = (
            (any::<bool>(), 0u32..28, 0u32..20),
            (0u8..3, 0u8..2, 0usize..6),
            prop::collection::vec(1u64..200_000, 0..4),
        );
        prop::collection::vec(row, 0..12)
    }

    fn digest_parts() -> impl Strategy<Value = Vec<DigestPart>> {
        let part = (digest_rows(), prop::collection::vec(digest_rows(), 0..4));
        prop::collection::vec(part, 1..17)
    }

    proptest! {
        /// The per-week sort against the tree oracle on stores no record
        /// stream builds: 1–16 partitions of a row tier and 0–3 segments
        /// each, overlapping in keys within and across partitions, buckets
        /// in four rollup weeks and at the very top of the range, causes in
        /// the alias range, and a zero-count cell in every store.
        #[test]
        fn digest_by_sort_equals_the_tree_digest_on_generated_stores(parts in digest_parts()) {
            let cfg = StoreConfig {
                partitions: parts.len(),
                ..StoreConfig::default()
            };
            let mut s = Store::new(&cfg);
            for (p, (hot, segments)) in s.partitions.iter_mut().zip(&parts) {
                for row in hot {
                    let (key, cell) = digest_row(row);
                    p.cells.entry(key).or_default().merge(cell);
                }
                p.segments = segments
                    .iter()
                    .filter_map(|rows| ColumnSegment::from_rows(rows.iter().map(digest_row)))
                    .collect();
            }
            let (zero, _) = digest_row(&((false, 9, 0), (1, 1, 4), Vec::new()));
            s.partitions[parts.len() - 1].cells.entry(zero).or_default();
            prop_assert_eq!(s.digest(), s.digest_by_tree());
        }

        /// Folding k deltas at once is folding them one at a time, on the
        /// whole store — layout and every counter — and leaves what
        /// `merge` + `compact` per delta left: the same cells where they
        /// were, the same digest, the same answer to every canonical query.
        /// Only `cells_folded` may differ from the oracle, which did not
        /// count rows that equal keys collapse in its merge.
        #[test]
        fn fold_in_is_one_delta_at_a_time_and_merge_then_compact(
            base in store_parts(),
            deltas in prop::collection::vec(store_parts(), 0..6),
        ) {
            let cfg = StoreConfig {
                bucket_ms: 1_000,
                rollup_buckets: 4,
                partitions: 2,
                auto_compact_every: 0,
            };
            let base = build(&cfg, &base);
            let deltas: Vec<Store> = deltas.iter().map(|d| build(&cfg, d)).collect();

            let mut at_once = base.clone();
            at_once.fold_in(deltas.clone());
            let mut one_by_one = base.clone();
            for d in &deltas {
                one_by_one.fold_in(vec![d.clone()]);
            }
            prop_assert_eq!(&at_once, &one_by_one);
            let rows_in = base.cells() + deltas.iter().map(Store::cells).sum::<u64>();
            let folded_before = base.cells_folded()
                + deltas.iter().map(Store::cells_folded).sum::<u64>();
            if !deltas.is_empty() {
                prop_assert_eq!(at_once.cells_folded() - folded_before, rows_in - at_once.cells());
            }

            let want = merge_then_compact(&base, &deltas);
            for (got, want) in at_once.partitions.iter().zip(&want.partitions) {
                prop_assert_eq!(&got.cells, &want.cells);
                prop_assert_eq!(&got.segments, &want.segments);
                prop_assert_eq!(&got.devices, &want.devices);
                prop_assert_eq!(
                    (got.inserted, got.compactions, got.since_compact),
                    (want.inserted, want.compactions, want.since_compact)
                );
            }
            prop_assert_eq!(at_once.digest(), want.digest());
            prop_assert_eq!(at_once.digest(), at_once.digest_by_tree());
            for (name, q) in crate::workload::canonical(4_000) {
                prop_assert_eq!(at_once.query(&q), want.query(&q), "{}", name);
            }
        }
    }

    /// One generated run of a device's records, as an upload batch holds
    /// them: the device (only the first six are in the directory), then
    /// each record's `(far, day)` — one of the first twenty days, or a start
    /// so late its bucket clamps onto `u32::MAX` — kind, cause (none, two
    /// negative codes, the largest raw one), duration in seconds, and how
    /// many times it repeats. So few values that keys and
    /// whole records collide.
    type DeviceRun = (u32, Vec<((bool, u64), usize, usize, u64, usize)>);

    fn device_runs() -> impl Strategy<Value = Vec<DeviceRun>> {
        let record = (
            (any::<bool>(), 0u64..20),
            0usize..5,
            0usize..4,
            0u64..40,
            1usize..4,
        );
        prop::collection::vec((0u32..12, prop::collection::vec(record, 1..6)), 0..24)
    }

    fn run_events(runs: &[DeviceRun]) -> Vec<FailureEvent> {
        let mut events = Vec::new();
        for (device, records) in runs {
            for &((far, day), kind, cause, dur_s, repeat) in records {
                let start_s = if far { 400_000_000_000_000 } else { 0 } + day * 86_400;
                let cause = [
                    None,
                    Some(DataFailCause::SignalLost),
                    Some(DataFailCause::GprsRegistrationFail),
                    Some(DataFailCause::Other(u16::MAX)),
                ][cause];
                let e = ev(*device, start_s, dur_s, FailureKind::ALL[kind], cause);
                events.extend(std::iter::repeat(e).take(repeat));
            }
        }
        events
    }

    /// A directory listing devices 0–5, over every model, region and ISP.
    fn six_device_directory() -> DeviceDirectory {
        let dims = (0..6u8)
            .map(|i| DeviceDim {
                model: Some(PhoneModelId(1 + i % 3)),
                region: Region::ALL[usize::from(i % 2)],
                isp: Some(Isp::ALL[usize::from(i % 3)]),
            })
            .collect();
        DeviceDirectory { dims, owned: None }
    }

    proptest! {
        /// A sink's sorted bulk build is `Store::record` one record at a
        /// time: split into contiguous shards, each shard's sink borrowed
        /// through `store()` every few records and equal there to the
        /// record-by-record store of the same prefix, and the sinks folded
        /// through `Merge` in shard order onto an empty one equal, with the population
        /// registered, to the shard stores folded the same way — by `==`,
        /// image bytes, digest and every canonical answer. Under
        /// `auto_compact_every > 0` the sink records one at a time and the
        /// same holds; with it off, `build_sharded` at any thread count
        /// gives the same store too.
        #[test]
        fn bulk_build_equals_record_by_record(
            runs in device_runs(),
            partitions in prop::sample::select(vec![1usize, 3, 16]),
            auto_compact_every in prop::sample::select(vec![0u64, 0, 5]),
            shards in 1usize..4,
            borrow_every in 0usize..12,
        ) {
            let cfg = StoreConfig {
                partitions,
                auto_compact_every,
                ..StoreConfig::default()
            };
            let dir = six_device_directory();
            let events = run_events(&runs);
            let per_shard = events.len().div_ceil(shards).max(1);
            let mut got = StoreSink::new(&cfg, &dir);
            let mut want = Store::new(&cfg);
            for chunk in events.chunks(per_shard) {
                let mut sink = StoreSink::new(&cfg, &dir);
                let mut oracle = Store::new(&cfg);
                for (i, e) in chunk.iter().enumerate() {
                    sink.record(e);
                    oracle.record(e, dir.dim_of(e.device));
                    if borrow_every > 0 && i % borrow_every == 0 {
                        prop_assert_eq!(sink.store(), &oracle);
                    }
                }
                got.merge(sink);
                want.merge(oracle);
            }
            let got = got.into_store();
            want.register_population(&dir);

            prop_assert_eq!(&got, &want);
            prop_assert_eq!(save_store(&got), save_store(&want));
            prop_assert_eq!(got.digest(), want.digest());
            prop_assert_eq!(got.digest(), got.digest_by_tree());
            for (name, q) in crate::workload::canonical(7 * 86_400_000) {
                prop_assert_eq!(got.query(&q), want.query(&q), "{}", name);
            }
            if auto_compact_every == 0 {
                prop_assert_eq!(build_sharded(&cfg, &dir, &events, shards), want);
            }
        }
    }
}
