//! Group codes and flat accumulators: how a query folds the rows it
//! matched into one partial aggregate per group.
//!
//! A group key is up to [`MAX_DIMS`] numbers. Looking one up per matched
//! row in an ordered map costs a chain of 64-byte compares per row; here a
//! row's key is instead packed into one **group code** — a mixed-radix
//! number whose digits are the key's positions, each offset by the
//! smallest value that position can take and weighted by how many values
//! it can take — and the aggregates live in plain vectors addressed by
//! that code. The caller supplies each position's inclusive `[min, max]`
//! (for sealed segments: the union of their zone maps, which bound every
//! row they hold), so the code is injective over everything that can be
//! added, and — the first position being the most significant digit —
//! ascending codes are ascending keys.
//!
//! The code space the ranges span picks the layout, not an option:
//!
//! * at most [`DIRECT_CODES`] codes — the code *is* the slot;
//! * more — live codes are handed dense slots by a hash map over the
//!   packed code (eight bytes a lookup, std's per-process keyed hasher:
//!   fail-cause codes are device-supplied, so a fixed hash would let a
//!   fleet choose its collisions), behind a small table of the codes last
//!   looked up, which answers most repeats without hashing;
//! * more than 64 bits of code space (only forged segments get there: a
//!   raw cause column may span all of `u64`) — the running code, or a
//!   position spanning more than 2³² values, is first renamed to a dense
//!   32-bit id through a map of the same kind, which keeps every code
//!   inside a `u64` and injective.
//!
//! Sketch metrics add one quantile sketch per slot: a dense histogram
//! while the code space is at most [`DENSE_SKETCH_GROUPS`] and the caller
//! can bring at least [`DENSE_SKETCH_RUNS`] sketches, a sparse sketch
//! merged run by run otherwise. A histogram is only as wide as the bucket
//! of the largest sketch maximum the caller can bring, so a query over
//! minute-long failures zeroes and walks a few hundred buckets, not all
//! [`BUCKETS`](cellrel_sim::sketch::BUCKETS). Rows are key-sorted and a
//! grouping position near the front of the key changes slowly, so
//! consecutive segment rows often share a group: each such stretch is
//! folded as one unit — for a span of rows its pooled pairs are one
//! contiguous pool slice, walked flat with one add per pair — and the
//! group's count and extremes are written once per stretch, the extremes
//! from its live (non-empty) rows only.
//!
//! One [`Cell`] per *group* is materialised at the end, key-ascending
//! whatever order slots were handed out in.

use crate::columnar::ColumnSegment;
use crate::cube::Cell;
use cellrel_sim::sketch::bucket_of;
use cellrel_sim::SparseSketch;
use std::collections::HashMap;

/// There are exactly [`MAX_DIMS`] dimensions and duplicates are rejected,
/// so a fixed array (unused slots 0) holds any legal group key without
/// per-group heap allocation.
pub(crate) const MAX_DIMS: usize = 8;
pub(crate) type GroupKey = [u64; MAX_DIMS];

/// Largest code space addressed directly. The sums of this many slots are
/// 128 KiB to zero per query — a few microseconds, where one hash lookup
/// per matched row costs more than that from a few hundred rows on. Past
/// it the slots would mostly be codes no row has: the fail-cause position
/// alone spans ~131 k codes for ~300 live groups.
pub(crate) const DIRECT_CODES: usize = 4_096;

/// Most groups that get a dense sketch histogram, and fewest sketch runs
/// a query must be able to bring for them to get one. A histogram is up
/// to 58 KiB to zero and to walk once at the end, where a sparse merge
/// costs a search per pooled bucket: a group repays its histogram after a
/// few hundred runs, so a query that spreads its rows over more groups
/// than this — or a router merging one run per shard — merges too few
/// into each.
pub(crate) const DENSE_SKETCH_GROUPS: usize = 16;
pub(crate) const DENSE_SKETCH_RUNS: usize = 256;

/// A key position's inclusive `(min, max)` before any value widened it.
pub(crate) const EMPTY_RANGE: (u64, u64) = (u64::MAX, 0);

/// Widen `range` to take in `[lo, hi]`.
pub(crate) fn widen(range: &mut (u64, u64), lo: u64, hi: u64) {
    *range = (range.0.min(lo), range.1.max(hi));
}

/// Ids a renaming map hands out are `u32`s.
const IDS: u128 = 1 << 32;
/// Codes are `u64`s.
const CODES: u128 = 1 << 64;

/// The rows of a segment a scan step runs over.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Every row of `[start, end)`.
    Span(usize, usize),
    /// The listed rows, ascending.
    Picked(&'a [u32]),
}

impl Rows<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Span(i0, i1) => i1 - i0,
            Rows::Picked(rows) => rows.len(),
        }
    }

    /// Call `f(x, row)` for each row beside the matching item of `xs`
    /// (one item per row). The row-source branch is taken once, outside
    /// the loop.
    #[inline]
    fn zip<I: IntoIterator>(self, xs: I, mut f: impl FnMut(I::Item, usize)) {
        match self {
            Rows::Span(i0, i1) => xs.into_iter().zip(i0..i1).for_each(|(x, i)| f(x, i)),
            Rows::Picked(rows) => xs
                .into_iter()
                .zip(rows)
                .for_each(|(x, &i)| f(x, i as usize)),
        }
    }
}

/// One key position's digit of the group code.
struct Digit {
    /// Smallest value the position takes (0 when values are renamed).
    min: u64,
    /// How many values it takes — the digit's radix, at most 2³².
    span: u64,
    /// Renaming map applied to the position's values first: they span
    /// more than 2³².
    rename_value: Option<usize>,
    /// Renaming map applied to the running code before this digit joins
    /// it: the code space would pass 64 bits otherwise.
    rename_prefix: Option<usize>,
}

/// A group's sums: rows added (a matched row may hold a count of zero and
/// is a group all the same), then the three aggregate columns.
type Sums = [u64; 4];

/// Codes remembered beside the hash map (a power of two; 16 KiB).
const RECENT: usize = 1_024;

/// Slots for the live codes of a code space too wide to address directly,
/// in first-seen order.
struct Hashed {
    slots: HashMap<u64, u32>,
    /// `keys[slot]` is the key the slot was created for.
    keys: Vec<GroupKey>,
    /// The `(code, slot + 1)` last found at each `code % RECENT`. A few
    /// hundred live groups take tens of thousands of rows, so most lookups
    /// end here without hashing; codes chosen to share an entry only send
    /// every lookup on to the map.
    recent: [(u64, u32); RECENT],
}

/// Per-slot sketches, for the metrics that read one.
enum Sketches {
    None,
    Dense(Vec<Histogram>),
    Sparse(Vec<SparseSketch>),
}

/// One group's dense histogram for the length of a query: the sketch
/// algebra over a bucket vector cut off past the bucket of the largest
/// value the query can bring.
#[derive(Clone, Default)]
struct Histogram {
    count: u64,
    /// Exact extremes of the live runs folded in (`u64::MAX`, `0` before
    /// any).
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

/// Add `pairs` to `buckets`, returning the samples they count.
#[inline]
fn add_pairs(buckets: &mut [u64], pairs: &[(u32, u64)]) -> u64 {
    let mut count = 0;
    for &(b, n) in pairs {
        buckets[b as usize] += n;
        count += n;
    }
    count
}

impl Histogram {
    /// An empty histogram of `width` buckets.
    fn new(width: usize) -> Self {
        Histogram {
            count: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; width],
        }
    }

    /// Fold one sketch run; an empty run is the identity whatever extremes
    /// ride with it.
    fn merge_run(&mut self, min: u64, max: u64, run: &[(u32, u64)]) {
        if run.is_empty() {
            return;
        }
        self.count += add_pairs(&mut self.buckets, run);
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }

    /// Fold `seg`'s rows `[a, b)`: their pool slice is one stretch.
    fn fold_span(&mut self, seg: &ColumnSegment, a: usize, b: usize) {
        let pool = &seg.sk_pool[seg.sk_off[a] as usize..seg.sk_off[b] as usize];
        let count = add_pairs(&mut self.buckets, pool);
        if count == 0 {
            return;
        }
        self.count += count;
        for i in a..b {
            if seg.sk_off[i] != seg.sk_off[i + 1] {
                self.min = self.min.min(seg.sk_min[i]);
                self.max = self.max.max(seg.sk_max[i]);
            }
        }
    }

    /// Fold `seg`'s listed rows, each pool slice in turn.
    fn fold_picked(&mut self, seg: &ColumnSegment, rows: &[u32]) {
        let (mut count, mut min, mut max) = (0, self.min, self.max);
        for &i in rows {
            let i = i as usize;
            let (lo, hi) = (seg.sk_off[i] as usize, seg.sk_off[i + 1] as usize);
            if lo != hi {
                count += add_pairs(&mut self.buckets, &seg.sk_pool[lo..hi]);
                min = min.min(seg.sk_min[i]);
                max = max.max(seg.sk_max[i]);
            }
        }
        (self.count, self.min, self.max) = (self.count + count, min, max);
    }

    /// The sparse sketch of what was folded in: its non-empty buckets,
    /// walked between the buckets of the extremes. Empty if the counts
    /// passed `u64::MAX` — only a forged store's rows add up that far, and
    /// the scan's plain sums have wrapped by then too.
    fn into_sketch(self) -> SparseSketch {
        if self.count == 0 {
            return SparseSketch::new();
        }
        let lo = bucket_of(self.min);
        let run = self.buckets[lo..=bucket_of(self.max)]
            .iter()
            .zip(lo as u32..)
            .filter(|&(&n, _)| n != 0)
            .map(|(&n, b)| (b, n))
            .collect();
        SparseSketch::from_run(self.min, self.max, run).unwrap_or_default()
    }
}

/// The group accumulator of one query. See the module docs.
pub(crate) struct GroupAcc {
    digits: Vec<Digit>,
    renames: Vec<HashMap<u64, u32>>,
    /// `None`: the code is the slot.
    hashed: Option<Box<Hashed>>,
    sums: Vec<Sums>,
    sketches: Sketches,
}

/// The dense id `map` knows `v` by, handing out the next one if it is new.
fn rename(map: &mut HashMap<u64, u32>, v: u64) -> u64 {
    let next = map.len();
    u64::from(*map.entry(v).or_insert_with(|| {
        u32::try_from(next).expect("a query holds fewer than 2^32 distinct key values")
    }))
}

impl GroupAcc {
    /// An accumulator for keys whose position `d` lies in the inclusive
    /// `ranges[d]` (an [`EMPTY_RANGE`] nothing widened is a position no row
    /// will bring a value for). `sketches` is `None` for a metric that
    /// reads no sketch, else the most sketches the caller can add and the
    /// largest maximum any of them holds.
    pub(crate) fn new(ranges: &[(u64, u64)], sketches: Option<(usize, u64)>) -> Self {
        let mut space: u128 = 1;
        let mut renames = 0usize;
        let mut table = || {
            renames += 1;
            Some(renames - 1)
        };
        let digits: Vec<Digit> = ranges
            .iter()
            .map(|&(min, max)| {
                let (mut min, max) = if min > max { (0, 0) } else { (min, max) };
                let mut span = u128::from(max - min) + 1;
                let mut rename_value = None;
                if span > IDS {
                    (rename_value, span, min) = (table(), IDS, 0);
                }
                let mut rename_prefix = None;
                if space * span > CODES {
                    (rename_prefix, space) = (table(), IDS);
                }
                space *= span;
                Digit {
                    min,
                    span: span as u64,
                    rename_value,
                    rename_prefix,
                }
            })
            .collect();
        let direct = space <= DIRECT_CODES as u128;
        let slots = if direct { space as usize } else { 0 };
        GroupAcc {
            digits,
            renames: vec![HashMap::new(); renames],
            hashed: (!direct).then(|| {
                Box::new(Hashed {
                    slots: HashMap::new(),
                    keys: Vec::new(),
                    recent: [(0, 0); RECENT],
                })
            }),
            sums: vec![[0; 4]; slots],
            sketches: match sketches {
                None => Sketches::None,
                Some((runs, max))
                    if (1..=DENSE_SKETCH_GROUPS).contains(&slots) && runs >= DENSE_SKETCH_RUNS =>
                {
                    Sketches::Dense(vec![Histogram::new(bucket_of(max) + 1); slots])
                }
                Some(_) => Sketches::Sparse(vec![SparseSketch::new(); slots]),
            },
        }
    }

    /// The slot of `code`, created for `key()` if the code is new.
    #[inline]
    fn slot(&mut self, code: u64, key: impl FnOnce() -> GroupKey) -> usize {
        let Some(h) = self.hashed.as_deref_mut() else {
            return code as usize;
        };
        let recent = &mut h.recent[code as usize % RECENT];
        if recent.0 == code && recent.1 != 0 {
            return recent.1 as usize - 1;
        }
        let next = h.keys.len();
        let slot = *h.slots.entry(code).or_insert_with(|| {
            h.keys.push(key());
            self.sums.push([0; 4]);
            if let Sketches::Sparse(s) = &mut self.sketches {
                s.push(SparseSketch::new());
            }
            u32::try_from(next + 1).expect("a query holds fewer than 2^32 groups") - 1
        });
        *recent = (code, slot + 1);
        slot as usize
    }

    /// Fold one cell into the group `gk` names — the entry point for rows
    /// that do not come from a segment column: hot-tier cells, directory
    /// tallies, another shard's partial. Sums saturate and a sketch whose
    /// count would pass `u64::MAX` is left out, because a partial decoded
    /// from the wire may claim anything and the merge must still answer.
    pub(crate) fn merge_cell(&mut self, gk: &GroupKey, c: &Cell) {
        let mut code = 0u64;
        for (digit, &v) in self.digits.iter().zip(gk) {
            if let Some(t) = digit.rename_prefix {
                code = rename(&mut self.renames[t], code);
            }
            let v = match digit.rename_value {
                Some(t) => rename(&mut self.renames[t], v),
                None => v - digit.min,
            };
            code = code * digit.span + v;
        }
        let s = self.slot(code, || *gk);
        for (sum, add) in
            self.sums[s]
                .iter_mut()
                .zip([1, c.count, c.duration_ms_total, c.under_30s])
        {
            *sum = sum.saturating_add(add);
        }
        let (min, max, run) = c.sketch.as_run();
        let count = c.sketch.count();
        let fits = |held: u64| held.checked_add(count).is_some();
        match &mut self.sketches {
            Sketches::Dense(d) if fits(d[s].count) => d[s].merge_run(min, max, run),
            Sketches::Sparse(sp) if fits(sp[s].count()) => sp[s].merge_run(count, min, max, run),
            _ => {}
        }
    }

    /// Column step: fold key position `d` of every row in `rows` into the
    /// running `codes` (one per row, zero before the first position),
    /// reading the position's value for row `i` from `value(i)`.
    pub(crate) fn push_digit(
        &mut self,
        d: usize,
        codes: &mut [u64],
        rows: Rows<'_>,
        value: impl Fn(usize) -> u64,
    ) {
        let digit = &self.digits[d];
        let (min, span) = (digit.min, digit.span);
        if let Some(t) = digit.rename_prefix {
            for c in codes.iter_mut() {
                *c = rename(&mut self.renames[t], *c);
            }
        }
        match digit.rename_value {
            Some(t) => {
                let map = &mut self.renames[t];
                rows.zip(codes, |c, i| *c = *c * span + rename(map, value(i)));
            }
            None => rows.zip(codes, |c, i| *c = *c * span + (value(i) - min)),
        }
    }

    /// Column step: add the aggregate columns of `seg`'s `rows` to the
    /// groups their finished `codes` name (which this overwrites with
    /// slots); `key(i)` is row `i`'s group key, asked for once per new
    /// group. These are the scan's own sums: plain `+=`, like the write
    /// path's. Dense histograms take each stretch of rows that share a
    /// slot as one fold.
    pub(crate) fn add_rows(
        &mut self,
        seg: &ColumnSegment,
        rows: Rows<'_>,
        codes: &mut [u64],
        key: impl Fn(usize) -> GroupKey,
    ) {
        if self.hashed.is_some() {
            rows.zip(codes.iter_mut(), |c, i| {
                *c = self.slot(*c, || key(i)) as u64;
            });
        }
        let sums = &mut self.sums;
        rows.zip(codes.iter(), |&s, i| {
            let sum = &mut sums[s as usize];
            sum[0] += 1;
            sum[1] += seg.counts[i];
            sum[2] += seg.duration_totals[i];
            sum[3] += seg.under_30s[i];
        });
        match &mut self.sketches {
            Sketches::None => {}
            Sketches::Dense(d) => {
                let mut at = 0;
                while at < codes.len() {
                    let s = codes[at];
                    let end = at + codes[at..].iter().take_while(|&&c| c == s).count();
                    let h = &mut d[s as usize];
                    match rows {
                        Rows::Span(i0, _) => h.fold_span(seg, i0 + at, i0 + end),
                        Rows::Picked(picked) => h.fold_picked(seg, &picked[at..end]),
                    }
                    at = end;
                }
            }
            Sketches::Sparse(sp) => rows.zip(codes.iter(), |&s, i| {
                let (min, max, run) = seg.sketch_run(i);
                let count = run.iter().map(|&(_, c)| c).sum();
                sp[s as usize].merge_run(count, min, max, run);
            }),
        }
    }

    /// One cell per group that had a row added, key-ascending.
    pub(crate) fn into_groups(mut self) -> Vec<(GroupKey, Cell)> {
        let order: Vec<(GroupKey, usize)> = match &self.hashed {
            // Ascending codes are ascending keys.
            None => (0..self.sums.len())
                .filter(|&code| self.sums[code][0] != 0)
                .map(|code| {
                    let mut gk: GroupKey = [0; MAX_DIMS];
                    let mut rest = code as u64;
                    for (slot, digit) in gk.iter_mut().zip(&self.digits).rev() {
                        *slot = digit.min + rest % digit.span;
                        rest /= digit.span;
                    }
                    (gk, code)
                })
                .collect(),
            Some(h) => {
                let mut order: Vec<_> = h.keys.iter().copied().zip(0..).collect();
                order.sort_unstable();
                order
            }
        };
        order
            .into_iter()
            .map(|(gk, s)| {
                let sketch = match &mut self.sketches {
                    Sketches::None => SparseSketch::new(),
                    Sketches::Dense(d) => std::mem::take(&mut d[s]).into_sketch(),
                    Sketches::Sparse(sp) => std::mem::take(&mut sp[s]),
                };
                let [_, count, duration_ms_total, under_30s] = self.sums[s];
                let cell = Cell {
                    count,
                    duration_ms_total,
                    under_30s,
                    sketch,
                };
                (gk, cell)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn counted(count: u64) -> Cell {
        Cell {
            count,
            ..Cell::default()
        }
    }

    /// Fold `keys` (each counting its index + 1) and compare with an
    /// ordered map doing the same.
    fn assert_groups_like_a_map(ranges: &[(u64, u64)], keys: &[GroupKey]) {
        let mut acc = GroupAcc::new(ranges, None);
        let mut map: BTreeMap<GroupKey, u64> = BTreeMap::new();
        for (i, gk) in keys.iter().enumerate() {
            acc.merge_cell(gk, &counted(i as u64 + 1));
            *map.entry(*gk).or_default() += i as u64 + 1;
        }
        let got: Vec<(GroupKey, u64)> = acc
            .into_groups()
            .into_iter()
            .map(|(gk, c)| (gk, c.count))
            .collect();
        assert_eq!(got, map.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn layout_follows_the_code_space() {
        let cap = DIRECT_CODES as u64;
        let direct = GroupAcc::new(&[(10, 10 + cap - 1)], None);
        assert!(direct.hashed.is_none());
        assert_eq!(direct.sums.len(), DIRECT_CODES);
        let product = GroupAcc::new(&[(1, 16), (0, cap / 16 - 1)], None);
        assert_eq!(product.sums.len(), DIRECT_CODES);
        let hashed = GroupAcc::new(&[(10, 10 + cap)], None);
        assert!(hashed.hashed.is_some() && hashed.renames.is_empty());
        // No position, or positions nothing widened: one group.
        assert_eq!(GroupAcc::new(&[], None).sums.len(), 1);
        assert_eq!(GroupAcc::new(&[EMPTY_RANGE; 3], None).sums.len(), 1);

        let groups = DENSE_SKETCH_GROUPS as u64;
        let sketches = |max, runs| GroupAcc::new(&[(0, max)], runs).sketches;
        assert!(matches!(sketches(groups - 1, None), Sketches::None));
        assert!(matches!(
            sketches(groups - 1, Some((DENSE_SKETCH_RUNS, 0))),
            Sketches::Dense(_)
        ));
        assert!(matches!(
            sketches(groups, Some((DENSE_SKETCH_RUNS, 0))),
            Sketches::Sparse(_)
        ));
        assert!(matches!(
            sketches(groups - 1, Some((DENSE_SKETCH_RUNS - 1, 0))),
            Sketches::Sparse(_)
        ));
        // A histogram reaches the bucket of the largest maximum, no further.
        let width = |max| match sketches(0, Some((DENSE_SKETCH_RUNS, max))) {
            Sketches::Dense(h) => h[0].buckets.len(),
            _ => unreachable!(),
        };
        assert_eq!(width(0), 1);
        assert_eq!(width(127), 128);
        assert_eq!(width(u64::MAX), cellrel_sim::sketch::BUCKETS);

        // 2³² × 2³² codes are exactly a `u64`; a third such position needs
        // the running code renamed, and a position spanning more than 2³²
        // its values.
        let word = (0, u64::from(u32::MAX));
        assert!(GroupAcc::new(&[word; 2], None).renames.is_empty());
        assert_eq!(GroupAcc::new(&[word; 3], None).renames.len(), 1);
        assert_eq!(GroupAcc::new(&[(0, u64::MAX)], None).renames.len(), 1);
        // Values everywhere, the running code from the third position on.
        assert_eq!(GroupAcc::new(&[(0, u64::MAX); 8], None).renames.len(), 14);
    }

    #[test]
    fn groups_come_out_like_an_ordered_map_in_every_layout() {
        let keys: Vec<GroupKey> = (0..200u64)
            .map(|i| {
                let mut gk = [0; MAX_DIMS];
                for (d, slot) in gk.iter_mut().enumerate() {
                    *slot = (i * 7 + d as u64 * 3) % (d as u64 + 2);
                }
                gk
            })
            .collect();
        // Direct: 2 × 3 × 4 codes over the first three positions.
        let short: Vec<GroupKey> = keys
            .iter()
            .map(|gk| [gk[0], gk[1], gk[2], 0, 0, 0, 0, 0])
            .collect();
        assert_groups_like_a_map(&[(0, 1), (0, 2), (0, 3)], &short);
        // Hashed: eight positions, 9! codes.
        let spans: Vec<(u64, u64)> = (0..MAX_DIMS as u64).map(|d| (0, d + 1)).collect();
        assert_groups_like_a_map(&spans, &keys);
        // Renamed: the same keys stretched over all of u64 per position.
        let stretched: Vec<GroupKey> = keys
            .iter()
            .map(|gk| gk.map(|v| v.wrapping_mul(u64::MAX / 9)))
            .collect();
        assert_groups_like_a_map(&[(0, u64::MAX); MAX_DIMS], &stretched);
    }

    #[test]
    fn codes_that_share_a_recent_entry_stay_apart() {
        let keys: Vec<GroupKey> = (0..30u64)
            .map(|i| {
                let mut gk = [0; MAX_DIMS];
                gk[0] = 5 + (i % 3) * RECENT as u64;
                gk
            })
            .collect();
        assert_groups_like_a_map(&[(0, 1 << 20)], &keys);
    }
}
