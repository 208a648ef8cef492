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

use crate::columnar::{merge_runs, ColumnSegment, Run};
use cellrel_ingest::codec::{unzigzag, zigzag};
use cellrel_ingest::AcceptedSink;
use cellrel_sim::{run_sharded, Digest64, Merge, SparseSketch};
use cellrel_types::{DeviceId, FailureEvent, Isp, PhoneModelId};
use cellrel_workload::{EventSink, Population};
use std::collections::BTreeMap;

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
    pub const fn label(self) -> &'static str {
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
/// and time-range queries prune to a key range instead of a full scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
    /// `FailureLayer::index()` of the cause, or [`NO_CAUSE_CLASS`].
    pub cause_class: u8,
    /// Fail-cause code, wire-encoded like the ingest codec: 0 = no cause,
    /// else `1 + zigzag(code)` (codes can be negative).
    pub cause: u64,
}

/// `cause_class` marker for records without a fail cause.
pub const NO_CAUSE_CLASS: u8 = 255;

/// `DeviceRec::isp` marker for devices without a directory entry. The
/// directory is the only ISP source for device records — falling back to an
/// event's in-situ ISP would make the record depend on which of the
/// device's events arrived first, breaking shard-order invariance.
pub const NO_ISP: u8 = 255;

impl CellKey {
    /// Decode the cause field back to the raw Android error code.
    pub fn cause_code(&self) -> Option<i32> {
        (self.cause != 0).then(|| unzigzag(self.cause - 1) as i32)
    }

    fn absorb_into(&self, d: &mut Digest64) {
        d.write_u64(u64::from(self.bucket));
        d.write_u64(u64::from(self.kind));
        d.write_u64(u64::from(self.isp));
        d.write_u64(u64::from(self.rat));
        d.write_u64(u64::from(self.model));
        d.write_u64(u64::from(self.region));
        d.write_u64(u64::from(self.cause_class));
        d.write_u64(self.cause);
    }
}

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
    pub fn push(&mut self, duration_ms: u64) {
        self.count += 1;
        self.duration_ms_total += duration_ms;
        if duration_ms < 30_000 {
            self.under_30s += 1;
        }
        self.sketch.push(duration_ms);
    }

    fn absorb_into(&self, d: &mut Digest64) {
        d.write_u64(self.count);
        d.write_u64(self.duration_ms_total);
        d.write_u64(self.under_30s);
        self.sketch.absorb_into(d);
    }

    /// [`Merge::merge`] without consuming the other cell — query-time group
    /// accumulation folds thousands of borrowed cells per group, and
    /// cloning each one's sketch just to consume it would dominate the
    /// scan.
    pub fn merge_ref(&mut self, o: &Cell) {
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
pub struct DeviceRec {
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
    pub const UNKNOWN: DeviceDim = DeviceDim {
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

    /// The dimensions of a device ([`DeviceDim::UNKNOWN`] if unlisted).
    pub fn dim_of(&self, device: DeviceId) -> DeviceDim {
        self.dims
            .get(device.0 as usize)
            .copied()
            .unwrap_or(DeviceDim::UNKNOWN)
    }

    /// Devices listed.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// True when no devices are listed.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
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
    /// Compaction sweeps run.
    pub(crate) compactions: u64,
    /// Cells removed by folding (a sweep that folds nothing still counts
    /// as a sweep).
    pub(crate) cells_folded: u64,
    /// Inserts since the last sweep (drives `auto_compact_every`).
    pub(crate) since_compact: u64,
}

impl Partition {
    fn physical_cells(&self) -> usize {
        self.cells.len() + self.segments.iter().map(ColumnSegment::len).sum::<usize>()
    }

    fn compact(&mut self, rollup: u32) {
        self.compactions += 1;
        self.since_compact = 0;
        let max_hot = self.cells.keys().next_back().map(|k| k.bucket);
        let max_seg = self.segments.iter().map(|s| s.zones().bucket.1).max();
        let Some(max_bucket) = max_hot.into_iter().chain(max_seg).max() else {
            return;
        };
        let seal = (max_bucket / rollup) * rollup;
        if seal == 0 && self.segments.len() <= 1 {
            return;
        }
        let before = self.physical_cells();
        // Hot cells below the seal fold onto rollup starts and leave the
        // row tier; open buckets stay hot and mutable.
        let mut dissolved: BTreeMap<CellKey, Cell> = BTreeMap::new();
        let mut open: BTreeMap<CellKey, Cell> = BTreeMap::new();
        for (mut key, cell) in std::mem::take(&mut self.cells) {
            if key.bucket < seal {
                key.bucket = (key.bucket / rollup) * rollup;
                match dissolved.get_mut(&key) {
                    Some(c) => c.merge(cell),
                    None => {
                        dissolved.insert(key, cell);
                    }
                }
            } else {
                open.insert(key, cell);
            }
        }
        self.cells = open;
        // An existing run stays sorted under the fold only if the fold
        // touches none of its rows (open bucket, or already aligned — the
        // fold is then the identity). Runs with unaligned sealed rows
        // (stream seals) dissolve into the fold map, which re-sorts them.
        let old = std::mem::take(&mut self.segments);
        let stable: Vec<bool> = old
            .iter()
            .map(|s| s.buckets.iter().all(|&b| b >= seal || b % rollup == 0))
            .collect();
        for (seg, keep) in old.iter().zip(&stable) {
            if *keep {
                continue;
            }
            for (mut key, cell) in seg.rows() {
                if key.bucket < seal {
                    key.bucket = (key.bucket / rollup) * rollup;
                }
                match dissolved.get_mut(&key) {
                    Some(c) => c.merge(cell),
                    None => {
                        dissolved.insert(key, cell);
                    }
                }
            }
        }
        if dissolved.is_empty() && old.len() <= 1 && stable.iter().all(|&s| s) {
            self.segments = old; // already sealed: a no-op sweep
        } else {
            let mut runs: Vec<Run<'_>> = vec![Run::Map(dissolved.into_iter())];
            runs.extend(
                old.iter()
                    .zip(&stable)
                    .filter(|(_, s)| **s)
                    .map(|(seg, _)| Run::seg(seg)),
            );
            self.segments = merge_runs(runs).into_iter().collect();
        }
        self.cells_folded += (before - self.physical_cells()) as u64;
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
        let mut runs: Vec<Run<'_>> = vec![Run::Map(hot.into_iter())];
        runs.extend(old.iter().map(Run::seg));
        self.segments = merge_runs(runs).into_iter().collect();
    }
}

impl Merge for Partition {
    fn merge(&mut self, o: Self) {
        self.merge_directory_and_counters(&o);
        for (k, c) in o.cells {
            match self.cells.get_mut(&k) {
                Some(mine) => mine.merge(c),
                None => {
                    self.cells.insert(k, c);
                }
            }
        }
        // Segments from both sides collapse into one canonical run: the
        // k-way result depends only on the merged content (cell merge is
        // commutative and associative), so `a.merge(b) == b.merge(a)`
        // holds structurally even when both sides arrive sealed.
        if self.segments.len() + o.segments.len() >= 2 {
            let mine = std::mem::take(&mut self.segments);
            let mut runs: Vec<Run<'_>> = mine.iter().map(Run::seg).collect();
            runs.extend(o.segments.iter().map(Run::seg));
            self.segments = merge_runs(runs).into_iter().collect();
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
    /// dimensions (pass [`DeviceDim::UNKNOWN`] when no directory exists).
    pub fn record(&mut self, e: &FailureEvent, dim: DeviceDim) {
        let bucket = (e.start.as_millis() / self.cfg.bucket_ms).min(u64::from(u32::MAX)) as u32;
        let key = CellKey {
            bucket,
            kind: e.kind.index() as u8,
            isp: e.ctx.isp.index() as u8,
            rat: e.ctx.rat.index() as u8,
            model: dim.model.map_or(0, |m| m.0),
            region: dim.region.index() as u8,
            cause_class: e.cause.map_or(NO_CAUSE_CLASS, |c| c.layer().index() as u8),
            cause: e.cause.map_or(0, |c| 1 + zigzag(i64::from(c.code()))),
        };
        let part = e.device.0 as usize % self.partitions.len();
        let p = &mut self.partitions[part];
        p.cells.entry(key).or_default().push(e.duration.as_millis());
        match p.devices.get_mut(&e.device.0) {
            Some(rec) => rec.failures += 1,
            None => {
                p.devices.insert(
                    e.device.0,
                    DeviceRec {
                        model: dim.model.map_or(0, |m| m.0),
                        region: dim.region.index() as u8,
                        isp: dim.isp.map_or(NO_ISP, |i| i.index() as u8),
                        failures: 1,
                    },
                );
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
                .or_insert(DeviceRec {
                    model: dim.model.map_or(0, |m| m.0),
                    region: dim.region.index() as u8,
                    isp: dim.isp.map_or(NO_ISP, |i| i.index() as u8),
                    failures: 0,
                });
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
    /// k-way pass per partition: every part's sealed run feeds
    /// `merge_runs` by reference beside one run of the parts' row-tier
    /// cells.
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
            let mut hot: BTreeMap<CellKey, Cell> = BTreeMap::new();
            let mut sealed: Vec<&ColumnSegment> = Vec::new();
            for o in parts.iter().map(|part| &part.partitions[i]) {
                for (k, c) in &o.cells {
                    hot.entry(*k).or_default().merge_ref(c);
                }
                sealed.extend(&o.segments);
                p.merge_directory_and_counters(o);
            }
            p.segments = match sealed[..] {
                // A lone segment is already the canonical run of its
                // content (a follower's sealed base, a view partition
                // nothing new landed in): copy the columns instead of
                // re-materialising every row.
                [only] if hot.is_empty() && !only.is_empty() => vec![only.clone()],
                _ => {
                    let mut runs: Vec<Run<'_>> = sealed.into_iter().map(Run::seg).collect();
                    runs.push(Run::Map(hot.into_iter()));
                    merge_runs(runs).into_iter().collect()
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

    /// Compaction sweeps run across partitions.
    pub fn compactions(&self) -> u64 {
        self.partitions.iter().map(|p| p.compactions).sum()
    }

    /// Cells removed by compaction folding so far.
    pub fn cells_folded(&self) -> u64 {
        self.partitions.iter().map(|p| p.cells_folded).sum()
    }

    /// Content digest over the **canonical rolled-up view**: every cell's
    /// bucket is folded to its rollup boundary and all partitions are
    /// merged into one ordered map before hashing. Physical layout —
    /// thread count, partition count, whether compaction ran — therefore
    /// cannot affect it; only the recorded data can.
    pub fn digest(&self) -> u64 {
        let rollup = self.cfg.rollup_buckets;
        let mut canon: BTreeMap<CellKey, Cell> = BTreeMap::new();
        let mut devices: BTreeMap<u32, DeviceRec> = BTreeMap::new();
        for p in &self.partitions {
            for (k, c) in &p.cells {
                let mut key = *k;
                key.bucket = (key.bucket / rollup) * rollup;
                match canon.get_mut(&key) {
                    Some(mine) => mine.merge_ref(c),
                    None => {
                        canon.insert(key, c.clone());
                    }
                }
            }
            for seg in &p.segments {
                for (mut key, cell) in seg.rows() {
                    key.bucket = (key.bucket / rollup) * rollup;
                    match canon.get_mut(&key) {
                        Some(mine) => mine.merge(cell),
                        None => {
                            canon.insert(key, cell);
                        }
                    }
                }
            }
            for (&id, &rec) in &p.devices {
                match devices.get_mut(&id) {
                    Some(mine) => mine.merge(rec),
                    None => {
                        devices.insert(id, rec);
                    }
                }
            }
        }
        let mut d = Digest64::new();
        d.write_u64(self.cfg.bucket_ms);
        d.write_u64(u64::from(rollup));
        d.write_u64(canon.len() as u64);
        for (k, c) in &canon {
            k.absorb_into(&mut d);
            c.absorb_into(&mut d);
        }
        d.write_u64(devices.len() as u64);
        for (&id, rec) in &devices {
            d.write_u64(u64::from(id));
            d.write_u64(u64::from(rec.model));
            d.write_u64(u64::from(rec.region));
            d.write_u64(u64::from(rec.isp));
            d.write_u64(rec.failures);
        }
        d.finish()
    }
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

/// A sink that streams events into a [`Store`], resolving device
/// dimensions through a shared [`DeviceDirectory`]. Implements both the
/// workload's [`EventSink`] (simulation-driven builds) and the ingest
/// collector's [`AcceptedSink`] (wire-driven builds), plus [`Merge`] so the
/// parallel drivers fold per-shard sinks deterministically.
#[derive(Debug, Clone)]
pub struct StoreSink<'a> {
    store: Store,
    dir: &'a DeviceDirectory,
}

impl<'a> StoreSink<'a> {
    /// Empty sink over a directory.
    pub fn new(cfg: &StoreConfig, dir: &'a DeviceDirectory) -> Self {
        StoreSink {
            store: Store::new(cfg),
            dir,
        }
    }

    /// Consume the sink, registering the directory's population so
    /// zero-failure devices appear in the denominators.
    pub fn into_store(mut self) -> Store {
        self.store.register_population(self.dir);
        self.store
    }

    /// Borrow the store built so far (population not yet registered).
    pub fn store(&self) -> &Store {
        &self.store
    }
}

impl EventSink for StoreSink<'_> {
    fn record(&mut self, event: &FailureEvent) {
        let dim = self.dir.dim_of(event.device);
        self.store.record(event, dim);
    }
}

impl AcceptedSink for StoreSink<'_> {
    fn accepted(&mut self, e: &FailureEvent) {
        let dim = self.dir.dim_of(e.device);
        self.store.record(e, dim);
    }
}

impl Merge for StoreSink<'_> {
    fn merge(&mut self, o: Self) {
        self.store.merge(o.store);
    }
}

/// Build a store by replaying `events` sharded over up to `threads` scoped
/// threads (0 = auto via `CELLREL_THREADS`), folding the shard stores in
/// shard order. Bit-identical to a single-threaded replay at any thread
/// count; the population in `dir` is registered on the result.
pub fn build_sharded(
    cfg: &StoreConfig,
    dir: &DeviceDirectory,
    events: &[FailureEvent],
    threads: usize,
) -> Store {
    let shards = run_sharded(events.len(), threads, |range| {
        let mut s = Store::new(cfg);
        for e in &events[range] {
            s.record(e, dir.dim_of(e.device));
        }
        s
    });
    let mut store = Store::new(cfg);
    for shard in shards {
        store.merge(shard);
    }
    store.register_population(dir);
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_types::{
        Apn, BsId, DataFailCause, FailureKind, InSituInfo, Rat, SignalLevel, SimDuration, SimTime,
    };

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
}
