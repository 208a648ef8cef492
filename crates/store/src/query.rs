//! The embedded query engine: typed filter / group-by / top-k / quantile
//! queries over the cube.
//!
//! A [`Query`] names the dimensions to group by, the predicates to filter
//! on, the [`Metric`] to compute per group, and optionally a top-k cut.
//! Evaluation scans each partition (pruned to a key range when the filters
//! bound time), refines a row selection one filter column at a time, packs
//! each matched row's group key into one group code and adds the row's
//! aggregates into flat arrays addressed by that code (`crate::group`) —
//! the same exact sums the build path folds with, so grouping is
//! associative and compaction-transparent — then materialises one
//! [`Cell`] per group and derives the metric from it.
//!
//! **Compaction transparency.** Time windows and time-range bounds must be
//! multiples of the rollup granularity (`bucket_ms × rollup_buckets`);
//! validation rejects anything finer. Under that rule a cell and its
//! rolled-up image always land in the same group of every legal query, so
//! answers are identical with compaction on or off — asserted by the
//! property tests and `tests/store_differential.rs`.
//!
//! **Determinism.** Rows come out ascending by numeric group key and
//! top-k orders by (value descending, key ascending): groups are sorted by
//! key when they are materialised, so neither depends on the order rows
//! were scanned in or on any hash map's iteration order.

use crate::columnar::{ColumnSegment, Zones};
use crate::cube::{Cell, CellKey, Region, Store, NO_CAUSE_CLASS, NO_ISP};
use crate::group::{widen, GroupAcc, GroupKey, Rows, EMPTY_RANGE, MAX_DIMS};
use cellrel_ingest::codec::{unzigzag, zigzag};
use cellrel_types::{DataFailCause, FailureKind, FailureLayer, Isp, PhoneModelId, Rat};
use std::collections::btree_map::{self, BTreeMap};
use std::fmt;
use std::ops::Bound;

/// A cube dimension a query can group by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Time window (width = [`Query::window_ms`]).
    Time,
    /// Failure kind.
    Kind,
    /// ISP.
    Isp,
    /// Radio access technology.
    Rat,
    /// Device model.
    Model,
    /// Deployment region.
    Region,
    /// Fail-cause protocol layer.
    CauseClass,
    /// Individual fail-cause code.
    Cause,
}

impl Dim {
    /// Every dimension, in wire/key order. [`Dim::index`] is the position
    /// here and [`Dim::from_index`] inverts it — the queryd protocol
    /// encodes dimensions by this index, so the order is frozen.
    pub const ALL: [Dim; 8] = [
        Dim::Time,
        Dim::Kind,
        Dim::Isp,
        Dim::Rat,
        Dim::Model,
        Dim::Region,
        Dim::CauseClass,
        Dim::Cause,
    ];

    /// Stable numeric index (position in [`Dim::ALL`]).
    pub const fn index(self) -> usize {
        match self {
            Dim::Time => 0,
            Dim::Kind => 1,
            Dim::Isp => 2,
            Dim::Rat => 3,
            Dim::Model => 4,
            Dim::Region => 5,
            Dim::CauseClass => 6,
            Dim::Cause => 7,
        }
    }

    /// Inverse of [`Dim::index`]; `None` for out-of-range values.
    pub const fn from_index(i: usize) -> Option<Dim> {
        match i {
            0 => Some(Dim::Time),
            1 => Some(Dim::Kind),
            2 => Some(Dim::Isp),
            3 => Some(Dim::Rat),
            4 => Some(Dim::Model),
            5 => Some(Dim::Region),
            6 => Some(Dim::CauseClass),
            7 => Some(Dim::Cause),
            _ => None,
        }
    }

    /// Column header used in rendered/exported result sets.
    pub const fn label(self) -> &'static str {
        match self {
            Dim::Time => "window",
            Dim::Kind => "kind",
            Dim::Isp => "isp",
            Dim::Rat => "rat",
            Dim::Model => "model",
            Dim::Region => "region",
            Dim::CauseClass => "cause_class",
            Dim::Cause => "cause",
        }
    }
}

/// A conjunctive filter predicate (a query matches a cell iff **all** its
/// filters match).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Filter {
    /// Keep one failure kind.
    Kind(FailureKind),
    /// Keep one ISP.
    Isp(Isp),
    /// Keep one RAT.
    Rat(Rat),
    /// Keep one device model.
    Model(PhoneModelId),
    /// Keep one region.
    Region(Region),
    /// Keep one fail-cause layer.
    CauseClass(FailureLayer),
    /// Keep one fail-cause code.
    Cause(DataFailCause),
    /// Keep only records that carried a fail cause.
    HasCause,
    /// Keep records with `start_ms ∈ [start_ms, end_ms)`. Bounds must be
    /// multiples of the rollup granularity.
    TimeRange {
        /// Inclusive window start, milliseconds.
        start_ms: u64,
        /// Exclusive window end, milliseconds.
        end_ms: u64,
    },
}

/// The aggregate computed per group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// Records in the group.
    Count,
    /// Exact summed duration, ms.
    DurationTotalMs,
    /// Mean duration, ms.
    MeanDurationMs,
    /// Maximum duration, ms (exact — sketches track exact extremes).
    MaxDurationMs,
    /// Share of records shorter than 30 s.
    Under30sShare,
    /// Duration quantile in ms, `q ∈ [0, 1]`.
    QuantileMs(f64),
    /// Devices in the directory (group/filter dims limited to
    /// model/region/ISP).
    Devices,
    /// Devices with at least one recorded failure (same dim limits).
    FailingDevices,
}

impl Metric {
    /// Column header for the metric value.
    pub fn label(&self) -> String {
        match self {
            Metric::Count => "count".into(),
            Metric::DurationTotalMs => "duration_total_ms".into(),
            Metric::MeanDurationMs => "mean_duration_ms".into(),
            Metric::MaxDurationMs => "max_duration_ms".into(),
            Metric::Under30sShare => "under_30s_share".into(),
            Metric::QuantileMs(q) => {
                let pct = q * 100.0;
                if pct == pct.trunc() {
                    format!("p{pct:.0}_ms")
                } else {
                    format!("p{pct}_ms")
                }
            }
            Metric::Devices => "devices".into(),
            Metric::FailingDevices => "failing_devices".into(),
        }
    }

    /// Deterministic value formatting for rendering/export.
    pub fn format(&self, v: f64) -> String {
        match self {
            Metric::MeanDurationMs => format!("{v:.2}"),
            Metric::Under30sShare => format!("{v:.4}"),
            _ => format!("{v:.0}"),
        }
    }

    pub(crate) fn is_device_metric(&self) -> bool {
        matches!(self, Metric::Devices | Metric::FailingDevices)
    }

    /// Metrics derived from a group's duration sketch; for the rest no
    /// sketch is accumulated (or shipped in a partial).
    pub(crate) fn reads_sketch(&self) -> bool {
        matches!(self, Metric::MaxDurationMs | Metric::QuantileMs(_))
    }
}

/// A typed query over the cube.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Conjunctive predicates.
    pub filters: Vec<Filter>,
    /// Dimensions to group by (empty = one global row).
    pub group_by: Vec<Dim>,
    /// Time-window width in ms when grouping by [`Dim::Time`]; 0 picks the
    /// rollup granularity. Must be a multiple of the rollup granularity.
    pub window_ms: u64,
    /// The aggregate to compute.
    pub metric: Metric,
    /// Keep only the k highest-valued rows (0 = all rows, key-ascending).
    pub top_k: usize,
}

impl Query {
    /// A grouped count query — the most common shape.
    pub fn count_by(group_by: Vec<Dim>) -> Self {
        Query {
            filters: Vec::new(),
            group_by,
            window_ms: 0,
            metric: Metric::Count,
            top_k: 0,
        }
    }
}

/// Why a query was rejected (validation is total; evaluation never panics
/// on a hostile query).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A dimension appears twice in `group_by`.
    DuplicateDim(Dim),
    /// The time window is not a positive multiple of the rollup
    /// granularity (`bucket_ms × rollup_buckets`).
    UnalignedWindow {
        /// Offending window, ms.
        window_ms: u64,
        /// Required granularity, ms.
        granularity_ms: u64,
    },
    /// A time-range bound is not a multiple of the rollup granularity, or
    /// the range is empty.
    UnalignedRange {
        /// Offending bound, ms.
        bound_ms: u64,
        /// Required granularity, ms.
        granularity_ms: u64,
    },
    /// Device metrics only support model/region/ISP dimensions.
    DeviceMetricDim(Dim),
    /// Device metrics only support model/region/ISP (and their filters).
    DeviceMetricFilter(&'static str),
    /// Quantile outside `[0, 1]`.
    BadQuantile(f64),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::DuplicateDim(d) => write!(f, "dimension {} appears twice", d.label()),
            QueryError::UnalignedWindow {
                window_ms,
                granularity_ms,
            } => write!(
                f,
                "window {window_ms} ms is not a positive multiple of the rollup granularity {granularity_ms} ms"
            ),
            QueryError::UnalignedRange {
                bound_ms,
                granularity_ms,
            } => write!(
                f,
                "time-range bound {bound_ms} ms is not aligned to the rollup granularity {granularity_ms} ms (or the range is empty)"
            ),
            QueryError::DeviceMetricDim(d) => write!(
                f,
                "device metrics cannot group by {} (model/region/isp only)",
                d.label()
            ),
            QueryError::DeviceMetricFilter(name) => write!(
                f,
                "device metrics cannot filter on {name} (model/region/isp only)"
            ),
            QueryError::BadQuantile(q) => write!(f, "quantile {q} outside [0, 1]"),
        }
    }
}

impl std::error::Error for QueryError {}

/// One result row: the numeric group key (one entry per `group_by` dim, in
/// order), printable labels for each, the metric value, and the record
/// count that contributed.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Numeric group key per dimension.
    pub key: Vec<u64>,
    /// Printable label per dimension.
    pub labels: Vec<String>,
    /// The metric value.
    pub value: f64,
    /// Records contributing to the group (devices for device metrics).
    pub count: u64,
}

/// A query result: rows plus scan accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// The grouping dimensions, in key order.
    pub group_by: Vec<Dim>,
    /// The computed metric.
    pub metric: Metric,
    /// Result rows (key-ascending, or value-descending after a top-k cut).
    pub rows: Vec<ResultRow>,
    /// Cells visited (after time-range pruning).
    pub cells_scanned: u64,
    /// Cells that passed all filters.
    pub cells_matched: u64,
}

impl ResultSet {
    /// Plain-text table rendering (deterministic widths and formatting).
    pub fn render(&self) -> String {
        let mut headers: Vec<String> = self
            .group_by
            .iter()
            .map(|d| d.label().to_string())
            .collect();
        headers.push(self.metric.label());
        headers.push("records".into());
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut cols = r.labels.clone();
                cols.push(self.metric.format(r.value));
                cols.push(r.count.to_string());
                cols
            })
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_line = |cols: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, (c, w)) in cols.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:>w$}", w = *w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_line(&headers, &widths));
        for row in &rows {
            out.push_str(&fmt_line(row, &widths));
        }
        out
    }
}

pub(crate) struct Plan {
    pub(crate) window_ms: u64,
    bucket_ms: u64,
    bucket_lo: u32,
    bucket_hi: u32, // exclusive, never below `bucket_lo`
}

impl Plan {
    /// No filter bounds time: every row is in range, bucket `u32::MAX`
    /// included (which an exclusive upper bound cannot express).
    fn unbounded(&self) -> bool {
        self.bucket_lo == 0 && self.bucket_hi == u32::MAX
    }

    /// The hot-tier cells in the plan's time range.
    fn hot<'a>(&self, cells: &'a BTreeMap<CellKey, Cell>) -> btree_map::Range<'a, CellKey, Cell> {
        let lo = CellKey {
            bucket: self.bucket_lo,
            kind: 0,
            isp: 0,
            rat: 0,
            model: 0,
            region: 0,
            cause_class: 0,
            cause: 0,
        };
        let hi = if self.unbounded() {
            Bound::Unbounded
        } else {
            Bound::Excluded(CellKey {
                bucket: self.bucket_hi,
                ..lo
            })
        };
        cells.range((Bound::Included(lo), hi))
    }

    /// The rows `[i0, i1)` of a sealed segment in the plan's time range.
    fn rows_of(&self, seg: &ColumnSegment) -> (usize, usize) {
        if self.unbounded() {
            (0, seg.len())
        } else {
            seg.bucket_range(self.bucket_lo, self.bucket_hi)
        }
    }

    /// The time window a bucket falls in: the `Dim::Time` group component.
    fn time_window(&self, bucket: u32) -> u64 {
        (u64::from(bucket) * self.bucket_ms) / self.window_ms
    }
}

pub(crate) fn validate(store: &Store, q: &Query) -> Result<Plan, QueryError> {
    let cfg = store.config();
    let granularity_ms = cfg.bucket_ms * u64::from(cfg.rollup_buckets);
    for (i, d) in q.group_by.iter().enumerate() {
        if q.group_by[..i].contains(d) {
            return Err(QueryError::DuplicateDim(*d));
        }
    }
    if let Metric::QuantileMs(qq) = q.metric {
        if !(0.0..=1.0).contains(&qq) {
            return Err(QueryError::BadQuantile(qq));
        }
    }
    if q.metric.is_device_metric() {
        for d in &q.group_by {
            if !matches!(d, Dim::Model | Dim::Region | Dim::Isp) {
                return Err(QueryError::DeviceMetricDim(*d));
            }
        }
        for f in &q.filters {
            if !matches!(f, Filter::Model(_) | Filter::Region(_) | Filter::Isp(_)) {
                return Err(QueryError::DeviceMetricFilter(filter_name(f)));
            }
        }
    }
    // Device metrics cannot group by time; width 1 keeps the (unreachable)
    // `Dim::Time` label arm well-defined.
    let mut window_ms = if q.metric.is_device_metric() {
        1
    } else {
        granularity_ms
    };
    if q.group_by.contains(&Dim::Time) && q.window_ms != 0 {
        if q.window_ms % granularity_ms != 0 {
            return Err(QueryError::UnalignedWindow {
                window_ms: q.window_ms,
                granularity_ms,
            });
        }
        window_ms = q.window_ms;
    }
    let mut bucket_lo = 0u32;
    let mut bucket_hi = u32::MAX;
    for f in &q.filters {
        if let Filter::TimeRange { start_ms, end_ms } = f {
            for b in [*start_ms, *end_ms] {
                if b % granularity_ms != 0 {
                    return Err(QueryError::UnalignedRange {
                        bound_ms: b,
                        granularity_ms,
                    });
                }
            }
            if end_ms <= start_ms {
                return Err(QueryError::UnalignedRange {
                    bound_ms: *end_ms,
                    granularity_ms,
                });
            }
            bucket_lo = bucket_lo.max((start_ms / cfg.bucket_ms).min(u64::from(u32::MAX)) as u32);
            bucket_hi = bucket_hi.min((end_ms / cfg.bucket_ms).min(u64::from(u32::MAX)) as u32);
        }
    }
    Ok(Plan {
        window_ms,
        bucket_ms: cfg.bucket_ms,
        bucket_lo,
        // Ranges that do not intersect leave `hi` below `lo`: an empty
        // scan, not a reversed one.
        bucket_hi: bucket_hi.max(bucket_lo),
    })
}

const fn filter_name(f: &Filter) -> &'static str {
    match f {
        Filter::Kind(_) => "kind",
        Filter::Isp(_) => "isp",
        Filter::Rat(_) => "rat",
        Filter::Model(_) => "model",
        Filter::Region(_) => "region",
        Filter::CauseClass(_) => "cause_class",
        Filter::Cause(_) => "cause",
        Filter::HasCause => "has_cause",
        Filter::TimeRange { .. } => "time_range",
    }
}

fn group_component(key: &CellKey, d: Dim, plan: &Plan) -> u64 {
    match d {
        Dim::Time => plan.time_window(key.bucket),
        Dim::Kind => u64::from(key.kind),
        Dim::Isp => u64::from(key.isp),
        Dim::Rat => u64::from(key.rat),
        Dim::Model => u64::from(key.model),
        Dim::Region => u64::from(key.region),
        Dim::CauseClass => u64::from(key.cause_class),
        Dim::Cause => key.cause,
    }
}

fn group_key(key: &CellKey, group_by: &[Dim], plan: &Plan) -> GroupKey {
    let mut gk: GroupKey = [0; MAX_DIMS];
    for (slot, d) in gk.iter_mut().zip(group_by) {
        *slot = group_component(key, *d, plan);
    }
    gk
}

fn component_label(d: Dim, component: u64, window_ms: u64) -> String {
    match d {
        Dim::Time => {
            // Saturating: a partial decoded from the wire names its own
            // window width and keys.
            let start = component.saturating_mul(window_ms);
            let end = start.saturating_add(window_ms);
            format!("[{}h,{}h)", start / 3_600_000, end / 3_600_000)
        }
        Dim::Kind => FailureKind::from_index(component as usize)
            .map_or_else(|| format!("kind#{component}"), |k| k.label().to_string()),
        Dim::Isp => {
            if component == u64::from(NO_ISP) {
                "unknown".to_string()
            } else {
                Isp::from_index(component as usize)
                    .map_or_else(|| format!("isp#{component}"), |i| i.label().to_string())
            }
        }
        Dim::Rat => Rat::from_index(component as usize)
            .map_or_else(|| format!("rat#{component}"), |r| r.label().to_string()),
        Dim::Model => {
            if component == 0 {
                "unknown".to_string()
            } else {
                format!("model-{component:02}")
            }
        }
        Dim::Region => Region::from_index(component as usize)
            .map_or_else(|| format!("region#{component}"), |r| r.label().to_string()),
        Dim::CauseClass => {
            if component == u64::from(NO_CAUSE_CLASS) {
                "none".to_string()
            } else {
                FailureLayer::from_index(component as usize)
                    .map_or_else(|| format!("layer#{component}"), |l| l.to_string())
            }
        }
        Dim::Cause => {
            if component == 0 {
                "none".to_string()
            } else {
                let code = cellrel_ingest::codec::unzigzag(component - 1) as i32;
                DataFailCause::from_code(code).to_string()
            }
        }
    }
}

/// Which scan serves a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    /// The serving kernel: zone-pruned, column-at-a-time selection and
    /// group codes over sealed segments, flat accumulators for every tier.
    Columnar,
    /// The reference: every cell materialised and folded into an ordered
    /// map of groups — no zones, no columns, no codes.
    Row,
}

/// Buffers the segment scans of one query share: the row selection and
/// the group code of each selected row.
#[derive(Default)]
struct Scratch {
    sel: Vec<u32>,
    codes: Vec<u64>,
}

impl Store {
    /// Evaluate a query. See the module docs for semantics and guarantees.
    pub fn query(&self, q: &Query) -> Result<ResultSet, QueryError> {
        self.evaluate(q, Engine::Columnar)
    }

    /// Evaluate a query through the **row reference engine**: hot cells
    /// and sealed rows alike are materialised one by one, filtered per
    /// cell and folded into an ordered map keyed by group — no zone
    /// pruning, no per-column loops, no group codes. Exists so the
    /// differential suite can prove [`Store::query`] returns
    /// byte-identical `ResultSet`s; it is not the serving path.
    pub fn query_row(&self, q: &Query) -> Result<ResultSet, QueryError> {
        self.evaluate(q, Engine::Row)
    }

    fn evaluate(&self, q: &Query, engine: Engine) -> Result<ResultSet, QueryError> {
        let plan = validate(self, q)?;
        let (groups, scanned, matched) = match engine {
            Engine::Columnar => self.collect(q, &plan),
            Engine::Row => {
                let (groups, scanned, matched) = if q.metric.is_device_metric() {
                    self.collect_devices_row(q)
                } else {
                    self.collect_cells_row(q, &plan)
                };
                (Vec::from_iter(groups), scanned, matched)
            }
        };
        Ok(finalize_groups(
            q,
            plan.window_ms,
            &groups,
            scanned,
            matched,
        ))
    }

    /// The scan half of evaluation: one partial-aggregate [`Cell`] per
    /// group, key-ascending, plus the scan accounting (cells scanned,
    /// cells matched) — metric derivation is left to [`finalize_groups`].
    /// The cluster tier ships these partials across shards before
    /// finalising.
    pub(crate) fn collect(&self, q: &Query, plan: &Plan) -> (Vec<(GroupKey, Cell)>, u64, u64) {
        if q.metric.is_device_metric() {
            self.collect_devices(q)
        } else {
            self.collect_cells(q, plan)
        }
    }

    fn collect_cells(&self, q: &Query, plan: &Plan) -> (Vec<(GroupKey, Cell)>, u64, u64) {
        let dims = q.group_by.as_slice();
        // Pass 1, over keys and zone maps only: which segment rows there
        // are to scan, and the range each `group_by` position can take.
        // A segment's zones bound every row it holds (computed on build,
        // re-checked on decode), its in-range buckets bound the time
        // position exactly, and hot keys are read directly — so every row
        // pass 2 adds falls inside these ranges.
        let mut scanned = 0u64;
        let mut ranges = [EMPTY_RANGE; MAX_DIMS];
        let mut scans: Vec<(&ColumnSegment, usize, usize)> = Vec::new();
        for p in &self.partitions {
            for (key, _) in plan.hot(&p.cells) {
                scanned += 1;
                for (r, d) in ranges.iter_mut().zip(dims) {
                    let v = group_component(key, *d, plan);
                    widen(r, v, v);
                }
            }
            for seg in &p.segments {
                // A zone-pruned segment's in-range rows still count as
                // scanned, as the row engine counts them.
                let (i0, i1) = plan.rows_of(seg);
                scanned += (i1 - i0) as u64;
                if i0 == i1 || !q.filters.iter().all(|f| zone_may_match(seg.zones(), f)) {
                    continue;
                }
                for (r, d) in ranges.iter_mut().zip(dims) {
                    let (lo, hi) = range_of(seg, i0, i1, *d, plan);
                    widen(r, lo, hi);
                }
                scans.push((seg, i0, i1));
            }
        }
        // Pass 2: add every matching row to its group.
        let sketch_runs = q.metric.reads_sketch().then_some(scanned as usize);
        let mut acc = GroupAcc::new(&ranges[..dims.len()], sketch_runs);
        let mut matched = 0u64;
        for p in &self.partitions {
            for (key, cell) in plan.hot(&p.cells) {
                if q.filters
                    .iter()
                    .all(|f| filter_hits(key, f, plan.bucket_ms))
                {
                    matched += 1;
                    acc.merge_cell(&group_key(key, dims, plan), cell);
                }
            }
        }
        let mut scratch = Scratch::default();
        for (seg, i0, i1) in scans {
            matched += scan_segment(seg, q, plan, i0, i1, &mut acc, &mut scratch);
        }
        (acc.into_groups(), scanned, matched)
    }

    /// The scan half of device-directory evaluation: one group per
    /// model/region/ISP key, the device tally carried in [`Cell::count`]
    /// so the same partial-aggregate shape (and the same cluster shipping
    /// path) serves cell and device metrics alike.
    fn collect_devices(&self, q: &Query) -> (Vec<(GroupKey, Cell)>, u64, u64) {
        // Directory dimensions are bytes: each position's range is known
        // without a pass over the directory.
        let bytes = [(0, u64::from(u8::MAX)); MAX_DIMS];
        let mut acc = GroupAcc::new(&bytes[..q.group_by.len()], None);
        let one = Cell {
            count: 1,
            ..Cell::default()
        };
        let scanned = self.matching_devices(q, |gk| acc.merge_cell(&gk, &one));
        let groups = acc.into_groups();
        let matched = groups.iter().map(|(_, c)| c.count).sum();
        (groups, scanned, matched)
    }

    /// Walk the device directory, handing `tally` the group key of every
    /// device the query keeps; returns how many devices were visited.
    fn matching_devices(&self, q: &Query, mut tally: impl FnMut(GroupKey)) -> u64 {
        let failing_only = matches!(q.metric, Metric::FailingDevices);
        let mut scanned = 0u64;
        for p in &self.partitions {
            for rec in p.devices.values() {
                scanned += 1;
                if failing_only && rec.failures == 0 {
                    continue;
                }
                let keep = q.filters.iter().all(|f| match f {
                    Filter::Model(m) => rec.model == m.0,
                    Filter::Region(r) => usize::from(rec.region) == r.index(),
                    Filter::Isp(i) => usize::from(rec.isp) == i.index(),
                    _ => true, // validation rejects the rest
                });
                if !keep {
                    continue;
                }
                let mut gk: GroupKey = [0; MAX_DIMS];
                for (slot, d) in gk.iter_mut().zip(&q.group_by) {
                    *slot = match d {
                        Dim::Model => u64::from(rec.model),
                        Dim::Region => u64::from(rec.region),
                        Dim::Isp => u64::from(rec.isp),
                        _ => 0, // validation rejects the rest
                    };
                }
                tally(gk);
            }
        }
        scanned
    }

    /// [`Engine::Row`]'s cell scan, kept apart from the serving kernel so
    /// that it shares none of its grouping code.
    fn collect_cells_row(&self, q: &Query, plan: &Plan) -> (BTreeMap<GroupKey, Cell>, u64, u64) {
        let mut groups: BTreeMap<GroupKey, Cell> = BTreeMap::new();
        let (mut scanned, mut matched) = (0u64, 0u64);
        let mut fold = |key: &CellKey, cell: &Cell| {
            scanned += 1;
            if !q
                .filters
                .iter()
                .all(|f| filter_hits(key, f, plan.bucket_ms))
            {
                return;
            }
            matched += 1;
            let gk = group_key(key, &q.group_by, plan);
            match groups.get_mut(&gk) {
                Some(acc) => acc.merge_ref(cell),
                None => {
                    groups.insert(gk, cell.clone());
                }
            }
        };
        for p in &self.partitions {
            for (key, cell) in plan.hot(&p.cells) {
                fold(key, cell);
            }
            for seg in &p.segments {
                let (i0, i1) = plan.rows_of(seg);
                for i in i0..i1 {
                    fold(&seg.key_at(i), &seg.cell_at(i));
                }
            }
        }
        (groups, scanned, matched)
    }

    /// [`Engine::Row`]'s directory scan.
    fn collect_devices_row(&self, q: &Query) -> (BTreeMap<GroupKey, Cell>, u64, u64) {
        let mut groups: BTreeMap<GroupKey, Cell> = BTreeMap::new();
        let scanned = self.matching_devices(q, |gk| groups.entry(gk).or_default().count += 1);
        let matched = groups.values().map(|c| c.count).sum();
        (groups, scanned, matched)
    }
}

/// Shared groups→rows finalisation: derive the metric value from each
/// group's partial aggregate (device metrics read the tally straight out
/// of [`Cell::count`]), apply the top-k cut, and only then build keys and
/// labels — for the rows that survive it. Local evaluation and the
/// cluster's merge-then-finalize both end here — the single code path is
/// what makes scatter-gathered answers byte-identical to single-node ones.
///
/// `groups` must be key-ascending. Without a cut rows keep that order;
/// with one they are ranked (value descending, key ascending) even when
/// fewer than `k` — `total_cmp`, so the ranking stays total (and a server
/// built on this engine cannot panic) should a metric ever produce a NaN.
pub(crate) fn finalize_groups(
    q: &Query,
    window_ms: u64,
    groups: &[(GroupKey, Cell)],
    cells_scanned: u64,
    cells_matched: u64,
) -> ResultSet {
    let device = q.metric.is_device_metric();
    let mut ranked: Vec<(GroupKey, f64, u64)> = groups
        .iter()
        .map(|(gk, acc)| {
            let value = if device {
                acc.count as f64
            } else {
                metric_value(&q.metric, acc)
            };
            (*gk, value, acc.count)
        })
        .collect();
    if q.top_k != 0 {
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(q.top_k);
    }
    let rows = ranked
        .into_iter()
        .map(|(gk, value, count)| {
            let key: Vec<u64> = gk[..q.group_by.len()].to_vec();
            let labels = key
                .iter()
                .zip(&q.group_by)
                .map(|(c, d)| component_label(*d, *c, window_ms))
                .collect();
            ResultRow {
                key,
                labels,
                value,
                count,
            }
        })
        .collect();
    ResultSet {
        group_by: q.group_by.clone(),
        metric: q.metric,
        rows,
        cells_scanned,
        cells_matched,
    }
}

/// The inclusive range `d` takes over rows `[i0, i1)` (not empty) of `seg`:
/// exact for time — rows are bucket-sorted and the window is monotone in
/// the bucket — and for the rest the segment's zone, which bounds every
/// row it holds.
fn range_of(seg: &ColumnSegment, i0: usize, i1: usize, d: Dim, plan: &Plan) -> (u64, u64) {
    let z = seg.zones();
    let wide = |(lo, hi): (u8, u8)| (u64::from(lo), u64::from(hi));
    match d {
        Dim::Time => (
            plan.time_window(seg.buckets[i0]),
            plan.time_window(seg.buckets[i1 - 1]),
        ),
        Dim::Kind => wide(z.kind),
        Dim::Isp => wide(z.isp),
        Dim::Rat => wide(z.rat),
        Dim::Model => wide(z.model),
        Dim::Region => wide(z.region),
        Dim::CauseClass => wide(z.cause_class),
        Dim::Cause => z.cause,
    }
}

/// True when a cell matching `f` **could** exist in a segment with zone
/// maps `z` — the pruning predicate. Soundness (a pruned segment provably
/// contains no matching row) is what keeps the columnar engine's answers
/// byte-identical to the row engine, and is pinned by the zone-edge
/// regression tests below and the differential suite.
fn zone_may_match(z: &Zones, f: &Filter) -> bool {
    fn within(r: (u8, u8), want: usize) -> bool {
        usize::from(r.0) <= want && want <= usize::from(r.1)
    }
    match f {
        Filter::Kind(k) => within(z.kind, k.index()),
        Filter::Isp(i) => within(z.isp, i.index()),
        Filter::Rat(r) => within(z.rat, r.index()),
        Filter::Model(m) => within(z.model, usize::from(m.0)),
        Filter::Region(r) => within(z.region, r.index()),
        Filter::CauseClass(l) => within(z.cause_class, l.index()),
        Filter::Cause(c) => z.may_match_value(1 + zigzag(i64::from(c.code()))),
        Filter::HasCause => z.cause.1 != 0,
        // Time is handled by the bucket-range scan bounds, and pruned
        // ranges must still count as scanned — never prune on it here.
        Filter::TimeRange { .. } => true,
    }
}

/// Scan rows `[i0, i1)` of one sealed segment, a column at a time: refine
/// a selection one filter (= one column) at a time, fold each `group_by`
/// column of the surviving rows into their group codes, then add their
/// aggregate columns to the groups — the sketch pool only for metrics that
/// read a sketch. Returns the matched-row count.
fn scan_segment(
    seg: &ColumnSegment,
    q: &Query,
    plan: &Plan,
    i0: usize,
    i1: usize,
    acc: &mut GroupAcc,
    scratch: &mut Scratch,
) -> u64 {
    let Scratch { sel, codes } = scratch;
    // `all` = every row in range still matches and `sel` is not in use.
    // Each filter reads exactly one column. TimeRange filters are already
    // satisfied by `[i0, i1)` (validation aligns bounds to whole buckets),
    // matching the row engine's per-cell re-check by construction.
    let mut all = true;
    for f in &q.filters {
        let span = (i0, i1);
        match f {
            Filter::Kind(k) => {
                let w = k.index() as u8;
                refine(&mut all, sel, span, &seg.kinds, |&v| v == w);
            }
            Filter::Isp(i) => {
                let w = i.index() as u8;
                refine(&mut all, sel, span, &seg.isps, |&v| v == w);
            }
            Filter::Rat(r) => {
                let w = r.index() as u8;
                refine(&mut all, sel, span, &seg.rats, |&v| v == w);
            }
            Filter::Model(m) => {
                let w = m.0;
                refine(&mut all, sel, span, &seg.models, |&v| v == w);
            }
            Filter::Region(r) => {
                let w = r.index() as u8;
                refine(&mut all, sel, span, &seg.regions, |&v| v == w);
            }
            Filter::CauseClass(l) => {
                let w = l.index() as u8;
                refine(&mut all, sel, span, &seg.cause_classes, |&v| v == w);
            }
            Filter::Cause(c) => {
                let code = c.code();
                refine(&mut all, sel, span, &seg.causes, |&v| {
                    v != 0 && unzigzag(v - 1) as i32 == code
                });
            }
            Filter::HasCause => refine(&mut all, sel, span, &seg.causes, |&v| v != 0),
            Filter::TimeRange { .. } => {}
        }
        if !all && sel.is_empty() {
            return 0;
        }
    }
    let rows = if all {
        Rows::Span(i0, i1)
    } else {
        Rows::Picked(sel)
    };
    codes.clear();
    codes.resize(rows.len(), 0);
    for (d, dim) in q.group_by.iter().enumerate() {
        match dim {
            Dim::Time => acc.push_digit(d, codes, rows, |i| plan.time_window(seg.buckets[i])),
            Dim::Kind => acc.push_digit(d, codes, rows, |i| u64::from(seg.kinds[i])),
            Dim::Isp => acc.push_digit(d, codes, rows, |i| u64::from(seg.isps[i])),
            Dim::Rat => acc.push_digit(d, codes, rows, |i| u64::from(seg.rats[i])),
            Dim::Model => acc.push_digit(d, codes, rows, |i| u64::from(seg.models[i])),
            Dim::Region => acc.push_digit(d, codes, rows, |i| u64::from(seg.regions[i])),
            Dim::CauseClass => {
                acc.push_digit(d, codes, rows, |i| u64::from(seg.cause_classes[i]));
            }
            Dim::Cause => acc.push_digit(d, codes, rows, |i| seg.causes[i]),
        }
    }
    acc.add_rows(seg, rows, codes, |i| {
        group_key(&seg.key_at(i), &q.group_by, plan)
    });
    rows.len() as u64
}

/// Refine the row selection against one column: the first filter scans
/// the whole `[i0, i1)` slice into `sel`; later ones re-test only the
/// survivors.
fn refine<T>(
    all: &mut bool,
    sel: &mut Vec<u32>,
    (i0, i1): (usize, usize),
    col: &[T],
    pred: impl Fn(&T) -> bool,
) {
    if *all {
        *all = false;
        sel.clear();
        sel.extend(
            col[i0..i1]
                .iter()
                .enumerate()
                .filter(|(_, x)| pred(x))
                .map(|(off, _)| (i0 + off) as u32),
        );
    } else {
        sel.retain(|&i| pred(&col[i as usize]));
    }
}

fn filter_hits(key: &CellKey, f: &Filter, bucket_ms: u64) -> bool {
    match f {
        Filter::Kind(k) => usize::from(key.kind) == k.index(),
        Filter::Isp(i) => usize::from(key.isp) == i.index(),
        Filter::Rat(r) => usize::from(key.rat) == r.index(),
        Filter::Model(m) => key.model == m.0,
        Filter::Region(r) => usize::from(key.region) == r.index(),
        Filter::CauseClass(l) => usize::from(key.cause_class) == l.index(),
        Filter::Cause(c) => key.cause_code() == Some(c.code()),
        Filter::HasCause => key.cause != 0,
        // Ranges also prune the scan to a key range; re-checking here keeps
        // intersecting ranges exact without a separate intersection step.
        Filter::TimeRange { start_ms, end_ms } => {
            let t = u64::from(key.bucket) * bucket_ms;
            t >= *start_ms && t < *end_ms
        }
    }
}

fn metric_value(m: &Metric, acc: &Cell) -> f64 {
    match m {
        Metric::Count => acc.count as f64,
        Metric::DurationTotalMs => acc.duration_ms_total as f64,
        Metric::MeanDurationMs => {
            if acc.count == 0 {
                0.0
            } else {
                acc.duration_ms_total as f64 / acc.count as f64
            }
        }
        Metric::MaxDurationMs => acc.sketch.max().unwrap_or(0) as f64,
        Metric::Under30sShare => {
            if acc.count == 0 {
                0.0
            } else {
                acc.under_30s as f64 / acc.count as f64
            }
        }
        Metric::QuantileMs(q) => acc.sketch.quantile(*q).unwrap_or(0) as f64,
        Metric::Devices | Metric::FailingDevices => 0.0, // device path never lands here
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{build_sharded, DeviceDirectory, StoreConfig};
    use cellrel_types::{
        Apn, BsId, DeviceId, FailureEvent, InSituInfo, SignalLevel, SimDuration, SimTime,
    };

    fn ev(device: u32, start_s: u64, dur_s: u64, kind: FailureKind, rat: Rat) -> FailureEvent {
        FailureEvent {
            device: DeviceId(device),
            kind,
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(dur_s),
            cause: (kind == FailureKind::DataSetupError).then_some(DataFailCause::SignalLost),
            ctx: InSituInfo {
                rat,
                signal: SignalLevel::L3,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(0, 1, 2)),
                isp: Isp::ALL[device as usize % 3],
            },
        }
    }

    fn fixture() -> Store {
        let events: Vec<FailureEvent> = (0..300u32)
            .map(|i| {
                ev(
                    i % 30,
                    u64::from(i) * 7_200, // spread over ~25 days
                    2 + u64::from(i % 60),
                    FailureKind::ALL[i as usize % 5],
                    Rat::ALL[i as usize % 4],
                )
            })
            .collect();
        build_sharded(
            &StoreConfig::default(),
            &DeviceDirectory::default(),
            &events,
            1,
        )
    }

    #[test]
    fn global_count_matches_inserted() {
        let s = fixture();
        let rs = s.query(&Query::count_by(vec![])).unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0].value as u64, s.inserted());
        assert_eq!(rs.cells_scanned, s.cells());
    }

    #[test]
    fn group_by_kind_partitions_the_count() {
        let s = fixture();
        let rs = s.query(&Query::count_by(vec![Dim::Kind])).unwrap();
        assert_eq!(rs.rows.len(), 5);
        let total: u64 = rs.rows.iter().map(|r| r.count).sum();
        assert_eq!(total, 300);
        // Rows are key-ascending; labels come from the kind catalogue.
        assert_eq!(rs.rows[0].labels, vec!["Data_Setup_Error".to_string()]);
    }

    #[test]
    fn filters_compose_conjunctively() {
        let s = fixture();
        let q = Query {
            filters: vec![
                Filter::Kind(FailureKind::DataSetupError),
                Filter::Rat(Rat::G4),
            ],
            group_by: vec![Dim::Isp],
            window_ms: 0,
            metric: Metric::Count,
            top_k: 0,
        };
        let rs = s.query(&q).unwrap();
        let brute: u64 = rs.rows.iter().map(|r| r.count).sum();
        // i%5==0 (setup) and i%4==2 (G4) → i ≡ 10 (mod 20): 15 of 300.
        assert_eq!(brute, 15);
    }

    #[test]
    fn time_range_prunes_and_filters_identically() {
        let s = fixture();
        let week_ms = 7 * 86_400_000u64;
        let q = Query {
            filters: vec![Filter::TimeRange {
                start_ms: 0,
                end_ms: week_ms,
            }],
            group_by: vec![Dim::Kind],
            window_ms: 0,
            metric: Metric::Count,
            top_k: 0,
        };
        let rs = s.query(&q).unwrap();
        // Events 0..84 start inside the first week (7200 s apart).
        let total: u64 = rs.rows.iter().map(|r| r.count).sum();
        assert_eq!(total, 84);
        assert!(rs.cells_scanned < s.cells(), "range scan must prune");
    }

    #[test]
    fn quantile_and_max_track_exact_extremes() {
        let s = fixture();
        let q = Query {
            filters: vec![],
            group_by: vec![],
            window_ms: 0,
            metric: Metric::MaxDurationMs,
            top_k: 0,
        };
        let rs = s.query(&q).unwrap();
        assert_eq!(rs.rows[0].value, 61_000.0); // 2 + 59 seconds
        let q1 = Query {
            metric: Metric::QuantileMs(1.0),
            ..q
        };
        assert_eq!(s.query(&q1).unwrap().rows[0].value, 61_000.0);
        let q0 = Query {
            metric: Metric::QuantileMs(0.0),
            ..q1
        };
        assert_eq!(s.query(&q0).unwrap().rows[0].value, 2_000.0);
    }

    #[test]
    fn top_k_orders_by_value_then_key() {
        let s = fixture();
        let q = Query {
            filters: vec![],
            group_by: vec![Dim::Rat],
            window_ms: 0,
            metric: Metric::Count,
            top_k: 2,
        };
        let rs = s.query(&q).unwrap();
        assert_eq!(rs.rows.len(), 2);
        // 300 events over 4 RATs: counts 75 each — the tie breaks by key.
        assert_eq!(rs.rows[0].key, vec![0]);
        assert_eq!(rs.rows[1].key, vec![1]);
    }

    #[test]
    fn top_k_with_empty_group_by_is_stable() {
        // Regression: top_k combined with an empty group_by must go through
        // the same explicit (value desc, key asc) ranking as grouped
        // queries — one global row in, the same row out, on both the cell
        // and the device evaluation paths, at any partition split.
        let s = fixture();
        for metric in [Metric::Count, Metric::FailingDevices] {
            let with_k = Query {
                filters: vec![],
                group_by: vec![],
                window_ms: 0,
                metric,
                top_k: 1,
            };
            let without_k = Query {
                top_k: 0,
                ..with_k.clone()
            };
            let a = s.query(&with_k).unwrap();
            let b = s.query(&without_k).unwrap();
            assert_eq!(a.rows, b.rows, "{metric:?}");
            assert_eq!(a.rows.len(), 1);
        }
    }

    #[test]
    fn top_k_tie_break_is_partition_invariant() {
        // The fixture gives every RAT and every ISP identical counts, so a
        // top-k cut is all ties: the ranking must come out identical no
        // matter how cells are spread over partitions (map iteration order
        // differs) and must equal the explicit (value desc, key asc) order.
        let events: Vec<FailureEvent> = (0..300u32)
            .map(|i| {
                ev(
                    i % 30,
                    u64::from(i) * 7_200,
                    2 + u64::from(i % 60),
                    FailureKind::ALL[i as usize % 5],
                    Rat::ALL[i as usize % 4],
                )
            })
            .collect();
        let q = Query {
            filters: vec![],
            group_by: vec![Dim::Rat, Dim::Isp],
            window_ms: 0,
            metric: Metric::Count,
            top_k: 5,
        };
        let mut baseline: Option<Vec<ResultRow>> = None;
        for partitions in [1usize, 4, 16] {
            let cfg = StoreConfig {
                partitions,
                ..StoreConfig::default()
            };
            let s = build_sharded(&cfg, &DeviceDirectory::default(), &events, 1);
            let rows = s.query(&q).unwrap().rows;
            for w in rows.windows(2) {
                assert!(
                    w[0].value > w[1].value || (w[0].value == w[1].value && w[0].key <= w[1].key),
                    "rows must be (value desc, key asc): {w:?}"
                );
            }
            match &baseline {
                None => baseline = Some(rows),
                Some(b) => assert_eq!(b, &rows, "partitions={partitions}"),
            }
        }
    }

    #[test]
    fn device_metrics_count_the_directory() {
        let s = fixture();
        let rs = s
            .query(&Query {
                filters: vec![],
                group_by: vec![],
                window_ms: 0,
                metric: Metric::FailingDevices,
                top_k: 0,
            })
            .unwrap();
        assert_eq!(rs.rows[0].value as u64, 30);
        let err = s
            .query(&Query {
                filters: vec![],
                group_by: vec![Dim::Kind],
                window_ms: 0,
                metric: Metric::Devices,
                top_k: 0,
            })
            .unwrap_err();
        assert_eq!(err, QueryError::DeviceMetricDim(Dim::Kind));
    }

    #[test]
    fn validation_rejects_bad_queries() {
        let s = fixture();
        let dup = Query::count_by(vec![Dim::Kind, Dim::Kind]);
        assert_eq!(
            s.query(&dup).unwrap_err(),
            QueryError::DuplicateDim(Dim::Kind)
        );
        let bad_window = Query {
            group_by: vec![Dim::Time],
            window_ms: 86_400_000, // one day < the weekly rollup granularity
            ..Query::count_by(vec![])
        };
        assert!(matches!(
            s.query(&bad_window),
            Err(QueryError::UnalignedWindow { .. })
        ));
        let bad_range = Query {
            filters: vec![Filter::TimeRange {
                start_ms: 0,
                end_ms: 3_600_000,
            }],
            ..Query::count_by(vec![])
        };
        assert!(matches!(
            s.query(&bad_range),
            Err(QueryError::UnalignedRange { .. })
        ));
        let bad_q = Query {
            metric: Metric::QuantileMs(1.5),
            ..Query::count_by(vec![])
        };
        assert_eq!(s.query(&bad_q).unwrap_err(), QueryError::BadQuantile(1.5));
    }

    #[test]
    fn columnar_engine_matches_row_reference_on_the_workload() {
        let mut s = fixture();
        s.compact();
        assert!(s.sealed_segments() > 0, "fixture must exercise segments");
        for (name, q) in crate::workload::canonical(7 * 86_400_000) {
            assert_eq!(s.query(&q).unwrap(), s.query_row(&q).unwrap(), "{name}");
        }
        // Sealed-without-folding layout too (the stream pipeline's shape).
        let mut sealed = fixture();
        sealed.seal_columnar();
        for (name, q) in crate::workload::canonical(7 * 86_400_000) {
            assert_eq!(
                sealed.query(&q).unwrap(),
                sealed.query_row(&q).unwrap(),
                "sealed {name}"
            );
        }
    }

    /// Regression for the cube's rollup-edge case in columnar form: when
    /// the seal lands exactly on the newest bucket, the sealed run ends at
    /// the last rollup start while the edge bucket stays hot. Zone-map and
    /// bucket-range pruning at those exact edges must be *sound* — a
    /// pruned segment provably contains no row the filter could match —
    /// which the row reference engine verifies by scanning everything.
    #[test]
    fn zone_pruning_at_exact_rollup_edges_is_sound() {
        let cfg = StoreConfig {
            bucket_ms: 1_000,
            rollup_buckets: 4,
            partitions: 1,
            auto_compact_every: 0,
        };
        let dir = DeviceDirectory::default();
        let mut s = crate::cube::Store::new(&cfg);
        // Buckets 0..=8, all Data_Stall; the edge bucket (8, == seal) also
        // holds two Data_Setup_Error records carrying a cause.
        for t in 0..9u64 {
            let e = ev(0, t, 1, FailureKind::DataStall, Rat::G4);
            s.record(&e, dir.dim_of(e.device));
        }
        for _ in 0..2 {
            let e = ev(0, 8, 2, FailureKind::DataSetupError, Rat::G4);
            s.record(&e, dir.dim_of(e.device));
        }
        s.compact();
        assert_eq!(s.sealed_cells(), 2, "sealed run holds rollup starts 0,4");
        let count = |filters: Vec<Filter>| Query {
            filters,
            group_by: vec![],
            window_ms: 0,
            metric: Metric::Count,
            top_k: 0,
        };
        let cases = [
            // Range covering exactly the sealed run.
            count(vec![Filter::TimeRange {
                start_ms: 0,
                end_ms: 8_000,
            }]),
            // Range starting at the seal edge: every sealed row is
            // range-pruned, every hot row is in range.
            count(vec![Filter::TimeRange {
                start_ms: 8_000,
                end_ms: 12_000,
            }]),
            // Interior edge: only the second rollup start survives.
            count(vec![Filter::TimeRange {
                start_ms: 4_000,
                end_ms: 8_000,
            }]),
            // Kind only the hot tier holds: the zone map prunes the run.
            count(vec![Filter::Kind(FailureKind::DataSetupError)]),
            // Cause filters at the zone edges.
            count(vec![Filter::HasCause]),
            count(vec![Filter::Cause(DataFailCause::SignalLost)]),
        ];
        for (i, q) in cases.iter().enumerate() {
            let columnar = s.query(q).unwrap();
            let row = s.query_row(q).unwrap();
            assert_eq!(columnar, row, "case {i}");
        }
        // The zone-pruned kind query still reports the full scan while
        // matching only the hot setup-error cell.
        let rs = s
            .query(&count(vec![Filter::Kind(FailureKind::DataSetupError)]))
            .unwrap();
        assert_eq!(rs.cells_scanned, s.cells());
        assert_eq!(rs.cells_matched, 1);
        assert_eq!(rs.rows[0].count, 2);
    }

    // ---- The group-code kernel on hand-built tiers, each answer compared
    // ---- with the row engine: one test per choice the kernel makes.

    fn ck(bucket: u32, kind: u8, model: u8, cause_class: u8, cause: u64) -> CellKey {
        CellKey {
            bucket,
            kind,
            isp: kind % 3,
            rat: model % 4,
            model,
            region: model % 3,
            cause_class,
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

    /// A one-millisecond-bucket store whose partition `p` holds `sealed[p]`
    /// as one segment, and whose partition 0 holds `hot` in its row tier.
    fn hand_built(sealed: Vec<Vec<(CellKey, Cell)>>, hot: Vec<(CellKey, Cell)>) -> Store {
        let mut s = Store::new(&StoreConfig {
            bucket_ms: 1,
            rollup_buckets: 1,
            partitions: sealed.len().max(1),
            auto_compact_every: 0,
        });
        for (p, rows) in s.partitions.iter_mut().zip(sealed) {
            p.segments.extend(ColumnSegment::from_rows(rows));
        }
        s.partitions[0].cells.extend(hot);
        s
    }

    /// Serving kernel, row engine and a one-shard scatter-gather agree.
    fn assert_kernel_matches_row(s: &Store, q: &Query) -> ResultSet {
        let served = s.query(q).unwrap();
        assert_eq!(served, s.query_row(q).unwrap(), "{q:?}");
        let partial = s.query_partial(q).unwrap();
        assert_eq!(crate::merge_partials(q, &[partial]), served, "{q:?}");
        served
    }

    fn metric_by(metric: Metric, group_by: Vec<Dim>) -> Query {
        Query {
            metric,
            ..Query::count_by(group_by)
        }
    }

    #[test]
    fn code_space_past_64_bits_is_renamed_not_truncated() {
        // Buckets span 2³², every byte dimension its whole range and the
        // raw cause column all of u64 (values ≥ 2³² only a forged segment
        // holds): grouped by all eight dimensions that is ~2¹⁴⁴ codes.
        let rows = vec![
            (ck(0, 0, 0, 0, 0), cell(&[1_000])),
            (ck(0, 0, 0, 0, 7), cell(&[2_000, 40_000])),
            (ck(0, 255, 255, 255, 1 << 32), cell(&[3_000])),
            (ck(9, 4, 3, 2, (1 << 32) + 1), cell(&[4_000])),
            (ck(9, 4, 3, 2, u64::MAX), cell(&[5_000])),
            (ck(u32::MAX, 0, 0, 0, 7), cell(&[6_000])),
            (ck(u32::MAX, 255, 255, 255, u64::MAX), cell(&[7_000])),
        ];
        let hot = vec![
            (ck(9, 4, 3, 2, u64::MAX), cell(&[8_000])),
            (ck(5, 1, 1, 1, 1 << 40), cell(&[9_000])),
        ];
        let s = hand_built(vec![rows.clone(), rows[2..5].to_vec()], hot);
        let mut reversed = Dim::ALL.to_vec();
        reversed.reverse();
        for group_by in [Dim::ALL.to_vec(), reversed, vec![Dim::Cause, Dim::Time]] {
            for metric in [Metric::Count, Metric::QuantileMs(0.5)] {
                let all = assert_kernel_matches_row(&s, &metric_by(metric, group_by.clone()));
                assert_eq!(all.rows.len(), 8, "{group_by:?}");
                let caused = Query {
                    filters: vec![Filter::HasCause],
                    top_k: 3,
                    ..metric_by(metric, group_by.clone())
                };
                assert_kernel_matches_row(&s, &caused);
            }
        }
    }

    #[test]
    fn a_matched_cell_that_counts_nothing_is_still_a_group() {
        let s = hand_built(
            vec![vec![
                (ck(0, 0, 1, 0, 0), Cell::default()),
                (ck(0, 1, 1, 0, 0), cell(&[1_000])),
            ]],
            vec![(ck(1, 2, 1, 0, 0), Cell::default())],
        );
        // Direct-indexed (five kinds), then hashed (kind × raw cause).
        for group_by in [vec![Dim::Kind], vec![Dim::Kind, Dim::Cause]] {
            let mut s = s.clone();
            if group_by.len() == 2 {
                s.partitions[0]
                    .cells
                    .insert(ck(1, 3, 1, 0, 1 << 20), Cell::default());
            }
            for metric in [Metric::Count, Metric::MeanDurationMs, Metric::MaxDurationMs] {
                let rs = assert_kernel_matches_row(&s, &metric_by(metric, group_by.clone()));
                let counts: Vec<u64> = rs.rows.iter().map(|r| r.count).collect();
                assert_eq!(counts[..3], [0, 1, 0], "{group_by:?} {metric:?}");
            }
        }
    }

    #[test]
    fn partitions_with_disjoint_zones_share_one_code_space() {
        let s = hand_built(
            vec![
                vec![
                    (ck(0, 0, 1, 0, 0), cell(&[1_000])),
                    (ck(1, 1, 3, 0, 0), cell(&[2_000])),
                ],
                vec![
                    (ck(40, 3, 200, 7, 90), cell(&[3_000])),
                    (ck(41, 4, 210, 7, 99), cell(&[4_000, 5_000])),
                ],
                vec![(ck(20, 2, 100, 3, 50), cell(&[6_000]))],
            ],
            vec![],
        );
        for group_by in [
            vec![Dim::Kind, Dim::Model],
            vec![Dim::Model, Dim::Cause, Dim::Time],
            vec![Dim::CauseClass],
        ] {
            let rs = assert_kernel_matches_row(&s, &Query::count_by(group_by.clone()));
            assert_eq!(rs.rows.len(), if group_by.len() == 1 { 3 } else { 5 });
            // A filter that zone-prunes two of the three segments.
            let pruned = Query {
                filters: vec![Filter::Model(PhoneModelId(100))],
                ..Query::count_by(group_by)
            };
            assert_eq!(assert_kernel_matches_row(&s, &pruned).rows.len(), 1);
        }
    }

    #[test]
    fn hot_rows_outside_every_segment_zone_are_grouped() {
        let s = hand_built(
            vec![vec![
                (ck(10, 1, 10, 1, 10), cell(&[1_000])),
                (ck(11, 2, 11, 1, 11), cell(&[2_000])),
            ]],
            vec![
                (ck(0, 0, 0, 0, 0), cell(&[3_000])),
                (ck(10, 1, 10, 1, 10), cell(&[4_000])),
                (ck(500, 4, 255, 255, 1 << 33), cell(&[5_000])),
            ],
        );
        for group_by in [
            vec![Dim::Kind],
            vec![Dim::Time, Dim::Model],
            vec![Dim::Cause, Dim::CauseClass, Dim::Kind],
        ] {
            for metric in [Metric::Count, Metric::QuantileMs(0.95)] {
                let rs = assert_kernel_matches_row(&s, &metric_by(metric, group_by.clone()));
                assert_eq!(rs.rows.len(), 4, "{group_by:?}");
            }
        }
    }

    /// `models` groups of `runs` one-record cells each, sealed.
    fn sketch_store(models: usize, runs: usize) -> Store {
        let rows = (0..models * runs)
            .map(|i| {
                let (model, run) = ((i % models) as u8, (i / models) as u64);
                let duration = 500 + 37 * run * (u64::from(model) + 1);
                (ck(i as u32, 0, model, 0, 0), cell(&[duration]))
            })
            .collect();
        hand_built(vec![rows], vec![])
    }

    #[test]
    fn sketch_groups_at_the_dense_cap_and_one_past_it() {
        use crate::group::{DENSE_SKETCH_GROUPS, DENSE_SKETCH_RUNS};
        let runs = DENSE_SKETCH_RUNS / DENSE_SKETCH_GROUPS;
        for (models, runs) in [
            (DENSE_SKETCH_GROUPS, runs),     // dense histograms
            (DENSE_SKETCH_GROUPS + 1, runs), // one group too many: sparse
            (DENSE_SKETCH_GROUPS, runs - 1), // one run too few: sparse
        ] {
            let s = sketch_store(models, runs);
            let metrics = [0.0, 0.5, 0.95, 1.0].map(Metric::QuantileMs);
            for metric in metrics.into_iter().chain([Metric::MaxDurationMs]) {
                let rs = assert_kernel_matches_row(&s, &metric_by(metric, vec![Dim::Model]));
                assert_eq!(rs.rows.len(), models);
            }
        }
    }

    #[test]
    fn count_groups_at_the_direct_cap_and_one_past_it() {
        use crate::group::DIRECT_CODES;
        for codes in [DIRECT_CODES as u64, DIRECT_CODES as u64 + 1] {
            // Raw causes 0 and `codes - 1` span exactly `codes` codes.
            let rows = [0, 1, codes / 2, codes - 2, codes - 1]
                .into_iter()
                .enumerate()
                .map(|(i, cause)| {
                    (
                        ck(i as u32, 0, 1, 0, cause),
                        cell(&[1_000 * (i as u64 + 1)]),
                    )
                });
            let s = hand_built(vec![rows.clone().collect(), rows.skip(3).collect()], vec![]);
            for q in [
                Query::count_by(vec![Dim::Cause]),
                Query {
                    top_k: 2,
                    ..metric_by(Metric::DurationTotalMs, vec![Dim::Cause])
                },
            ] {
                let rs = assert_kernel_matches_row(&s, &q);
                assert_eq!(rs.rows.len(), if q.top_k == 0 { 5 } else { 2 });
            }
        }
    }

    #[test]
    fn time_ranges_that_do_not_intersect_scan_nothing() {
        // Each range is legal; together they leave the upper bound below
        // the lower one, which used to reach the scan as a reversed range.
        let mut s = fixture();
        let week_ms = 7 * 86_400_000u64;
        let q = Query {
            filters: vec![
                Filter::TimeRange {
                    start_ms: 2 * week_ms,
                    end_ms: 3 * week_ms,
                },
                Filter::TimeRange {
                    start_ms: 0,
                    end_ms: week_ms,
                },
            ],
            ..Query::count_by(vec![Dim::Kind])
        };
        for sealed in [false, true] {
            if sealed {
                s.seal_columnar();
            }
            let rs = assert_kernel_matches_row(&s, &q);
            assert_eq!((rs.rows.len(), rs.cells_scanned), (0, 0));
        }
    }

    #[test]
    fn compaction_does_not_change_answers() {
        let mut s = fixture();
        let queries = [
            Query::count_by(vec![Dim::Kind, Dim::Isp]),
            Query {
                group_by: vec![Dim::Time, Dim::Kind],
                ..Query::count_by(vec![])
            },
            Query {
                metric: Metric::QuantileMs(0.9),
                group_by: vec![Dim::Rat],
                ..Query::count_by(vec![])
            },
            Query {
                filters: vec![Filter::HasCause],
                group_by: vec![Dim::Cause],
                metric: Metric::Count,
                window_ms: 0,
                top_k: 3,
            },
        ];
        let before: Vec<_> = queries.iter().map(|q| s.query(q).unwrap().rows).collect();
        s.compact();
        let after: Vec<_> = queries.iter().map(|q| s.query(q).unwrap().rows).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn render_is_stable() {
        let s = fixture();
        let rs = s.query(&Query::count_by(vec![Dim::Isp])).unwrap();
        let text = rs.render();
        assert_eq!(text.lines().next().unwrap().trim(), "isp  count  records");
        assert!(text.contains("ISP-A    100      100"), "{text}");
        assert_eq!(text.lines().count(), 4);
    }
}
