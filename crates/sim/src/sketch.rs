//! Mergeable streaming quantile sketches for failure durations.
//!
//! The analysis layer draws per-kind duration CDFs (Figs. 4, 6–7, 10) and
//! headline percentiles. Materialising every duration sample would make
//! memory grow with the record count, so the backend summarises each
//! duration stream with a quantile sketch instead.
//!
//! **Why not KLL/GK/CKMS?** Those sketches give tight worst-case rank
//! bounds, but their compaction state depends on the order items and merges
//! happen — two shard layouts of the same stream can produce different
//! internal states and (slightly) different quantile answers. The serving
//! tiers' headline guarantee is a *bit-identical aggregate digest at any
//! shard layout and thread count*, so we use a sketch whose merge is exactly
//! commutative and associative: a logarithmically-bucketed rank histogram
//! (HDR-histogram style). Bucket counts add like integers, so any shard
//! order, any merge tree, and any thread count produce the same bytes.
//!
//! Resolution: values below `LINEAR_MAX` get exact unit buckets; above,
//! each power-of-two octave is split into `SUBBUCKETS` equal slots, so
//! the relative value error of any reported quantile is at most
//! `1/SUBBUCKETS` ≈ 0.78 %. On the continuous duration distributions the
//! fleet produces, that value resolution translates into well under 1 %
//! rank error for the headline percentiles (asserted against exact
//! materialised values in the analysis tests).
//!
//! Two representations share the bucket geometry:
//!
//! * [`QuantileSketch`] — dense `BUCKETS` u64 slots (~58 KiB), O(1) push;
//!   the right shape for a handful of long-lived sketches that nobody
//!   clones, restores or creates per frame — the telemetry registry's
//!   histograms. (A quantile query that folds tens of thousands of pooled
//!   runs into a few groups keeps its own histograms in `cellrel-store`,
//!   each only [`bucket_of`] its largest value wide, and hands each
//!   group out through [`SparseSketch::from_run`].)
//! * [`SparseSketch`] — a sorted `(bucket, count)` vector, memory
//!   proportional to the *distinct buckets touched*; the right shape
//!   wherever sketches are many or short-lived: the analytics cube in
//!   `cellrel-store` (one per cell across hundreds of thousands of
//!   cells), the ingest collector (five per virtual shard, rebuilt by
//!   every checkpoint restore — dense, 64 shards were 22.8 MB of mostly
//!   zeros) and the analysis crate's `FleetAccumulator`, which is the
//!   collector's aggregate plus three extras (one per study shard, merged
//!   at the join). Both answer every quantile query identically (same rank walk
//!   over the same buckets) and absorb into a digest as the same words.
//!
//! Outside this module a sketch travels in one form, the **run**: exact
//! `min`/`max` beside strictly ascending `(bucket, count)` pairs. A sparse
//! sketch is read with [`SparseSketch::as_run`] and built with
//! [`SparseSketch::from_run`]; [`check_run`] is the one validator, and it
//! borrows, so a decoder checks pairs where it read them.

use crate::campaign::Digest64;
use crate::par::Merge;

/// Sub-buckets per power-of-two octave (the relative-error knob).
pub(crate) const SUBBUCKETS: u64 = 128;
const SUB_SHIFT: u32 = 7; // log2(SUBBUCKETS)
/// Values `< LINEAR_MAX` get an exact bucket each.
pub(crate) const LINEAR_MAX: u64 = SUBBUCKETS;
/// Number of octaves above the linear region for the full `u64` range.
const OCTAVES: usize = 64 - SUB_SHIFT as usize;
/// Total bucket count.
pub const BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUBBUCKETS as usize;

/// A mergeable, deterministic streaming quantile sketch over `u64` values
/// (the workspace uses integer milliseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    count: u64,
    min: u64,
    max: u64,
    buckets: Box<[u64; BUCKETS]>,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value: monotone in `v`, below [`BUCKETS`].
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    // Octave = floor(log2 v) − SUB_SHIFT ≥ 0; slot = the top SUB_SHIFT bits
    // below the leading one.
    let octave = (63 - v.leading_zeros()) - SUB_SHIFT;
    let slot = (v >> octave) - SUBBUCKETS;
    LINEAR_MAX as usize + (octave as usize) * SUBBUCKETS as usize + slot as usize
}

/// The lower edge of a bucket (inverse of [`bucket_of`] up to resolution).
#[inline]
fn bucket_low(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        return i as u64;
    }
    let rel = i - LINEAR_MAX as usize;
    let octave = (rel / SUBBUCKETS as usize) as u32;
    let slot = (rel % SUBBUCKETS as usize) as u64;
    (SUBBUCKETS + slot) << octave
}

/// Exclusive upper edge of a bucket.
#[inline]
fn bucket_high(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        return i as u64 + 1;
    }
    let rel = i - LINEAR_MAX as usize;
    let octave = (rel / SUBBUCKETS as usize) as u32;
    bucket_low(i).saturating_add(1u64 << octave)
}

/// The shared rank walk: the value at quantile `q` given the sketch's
/// summary stats and its non-empty buckets in ascending index order. Both
/// sketch representations call this, so their answers are identical by
/// construction.
///
/// `q <= 0` and `q >= 1` return the *exact* recorded min/max: the interior
/// path returns a bucket representative, and when several values share the
/// top (or bottom) bucket the representative can differ from the true
/// extreme even after clamping into `[min, max]`.
fn quantile_over(
    count: u64,
    min: u64,
    max: u64,
    q: f64,
    pairs: impl Iterator<Item = (u32, u64)>,
) -> Option<u64> {
    if count == 0 {
        return None;
    }
    if q <= 0.0 {
        return Some(min);
    }
    if q >= 1.0 {
        return Some(max);
    }
    // Target rank in 1..=count ("the ⌈qn⌉-th smallest").
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, c) in pairs {
        cum += c;
        if cum >= target {
            let i = i as usize;
            let v = if i < LINEAR_MAX as usize {
                i as u64
            } else {
                let (lo, hi) = (bucket_low(i), bucket_high(i));
                lo + (hi - lo) / 2
            };
            return Some(v.clamp(min, max));
        }
    }
    Some(max) // unreachable in practice: counts sum to `count`
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            count: 0,
            min: u64::MAX,
            max: 0,
            buckets: Box::new([0; BUCKETS]),
        }
    }

    /// Absorb one value.
    pub fn push(&mut self, v: u64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest absorbed value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest absorbed value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The value at quantile `q ∈ [0, 1]` (`None` when empty).
    ///
    /// `q <= 0` and `q >= 1` return the exact recorded min/max. Interior
    /// quantiles return a representative of the bucket containing the
    /// target rank: exact for values below `LINEAR_MAX`, the bucket
    /// midpoint above — so the reported value is within `1/SUBBUCKETS` of a
    /// true order statistic at that rank. Clamped into `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_over(self.count, self.min, self.max, q, self.nonzero_buckets())
    }

    /// Fold the sketch into a content digest: count, min, max, then every
    /// non-empty bucket as an (index, count) pair.
    pub fn absorb_into(&self, d: &mut Digest64) {
        d.write_u64(self.count);
        d.write_u64(if self.count > 0 { self.min } else { 0 });
        d.write_u64(self.max);
        for (i, c) in self.nonzero_buckets() {
            d.write_u64(u64::from(i));
            d.write_u64(c);
        }
    }

    /// Non-empty `(bucket, count)` pairs in ascending bucket order. Exact
    /// min/max bracket the non-empty buckets (`bucket_of` is monotone), so
    /// the walk covers `bucket_of(min)..=bucket_of(max)` and not all
    /// [`BUCKETS`] slots.
    fn nonzero_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let span = if self.count == 0 {
            0..0
        } else {
            bucket_of(self.min)..bucket_of(self.max) + 1
        };
        let lo = span.start;
        self.buckets[span]
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(move |(i, &c)| ((lo + i) as u32, c))
    }
}

impl Merge for QuantileSketch {
    fn merge(&mut self, other: Self) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// The sparse counterpart of [`QuantileSketch`]: identical bucket geometry
/// and identical quantile answers, but storing only the buckets actually
/// touched, as a sorted `(bucket, count)` vector.
///
/// A fleet duration stream touches a few hundred of the 7 424 buckets; a
/// single analytics-cube *cell* typically touches one to three. At ~12
/// bytes per touched bucket a sparse sketch costs tens of bytes where the
/// dense form costs 58 KiB — the difference between a cube that fits in
/// memory and one that does not. Push is `O(log nnz)` (binary search +
/// insert), merge is a linear two-pointer walk, and — like the dense form —
/// merge is exact bucket addition: commutative, associative, bit-identical
/// at any shard order. [`SparseSketch::absorb_into`] emits the same digest
/// stream as the dense form over the same data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseSketch {
    count: u64,
    min: u64,
    max: u64,
    /// Non-empty buckets, strictly ascending by index.
    buckets: Vec<(u32, u64)>,
}

impl Default for SparseSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        SparseSketch {
            count: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Absorb one value.
    pub fn push(&mut self, v: u64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let b = bucket_of(v) as u32;
        match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(p) => self.buckets[p].1 += 1,
            Err(p) => self.buckets.insert(p, (b, 1)),
        }
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest absorbed value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest absorbed value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of distinct buckets touched (the memory footprint knob).
    pub fn nnz(&self) -> usize {
        self.buckets.len()
    }

    /// The value at quantile `q ∈ [0, 1]` (`None` when empty) — same
    /// contract and same answer as [`QuantileSketch::quantile`] over the
    /// same data, including exact min/max at the endpoints.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_over(
            self.count,
            self.min,
            self.max,
            q,
            self.buckets.iter().copied(),
        )
    }

    /// Fold into a content digest — byte-compatible with
    /// [`QuantileSketch::absorb_into`] over the same data.
    pub fn absorb_into(&self, d: &mut Digest64) {
        d.write_u64(self.count);
        d.write_u64(if self.count > 0 { self.min } else { 0 });
        d.write_u64(self.max);
        for &(i, c) in &self.buckets {
            d.write_u64(u64::from(i));
            d.write_u64(c);
        }
    }

    /// Build a sketch around a run already laid out as the sketch holds it:
    /// `run` is validated where it stands by [`check_run`] and becomes the
    /// bucket vector, so a decoder that read its pairs into one `Vec`
    /// allocates nothing more. `None` for whatever `check_run` refuses —
    /// restore paths stay total, and `quantile(0.0)`/`quantile(1.0)` answer
    /// min/max verbatim. The extremes beside an empty run mean nothing.
    pub fn from_run(min: u64, max: u64, run: Vec<(u32, u64)>) -> Option<Self> {
        let count = check_run(min, max, &run)?;
        if run.is_empty() {
            return Some(SparseSketch::new());
        }
        Some(SparseSketch {
            count,
            min,
            max,
            buckets: run,
        })
    }

    /// The sketch as a raw `(min, max, run)` triple — the form
    /// [`SparseSketch::merge_run`] takes.
    /// An empty sketch is an empty run (its extremes mean nothing).
    pub fn as_run(&self) -> (u64, u64, &[(u32, u64)]) {
        (self.min, self.max, &self.buckets)
    }
}

impl SparseSketch {
    /// [`Merge::merge`] without consuming the other sketch — the hot path
    /// for query-time group accumulation, where cloning every scanned
    /// cell's bucket vector just to consume it would dominate the scan.
    pub fn merge_ref(&mut self, other: &SparseSketch) {
        self.merge_run(other.count, other.min, other.max, &other.buckets);
    }

    /// Merge a raw sketch run — `(count, min, max)` header plus strictly
    /// ascending `(bucket, count)` pairs — without materializing the other
    /// side as a `SparseSketch`. Sealed columnar segments pool their sketch
    /// buckets in one contiguous arena; query-time accumulation merges pool
    /// slices directly through this entry point. The run must be valid
    /// sketch content (as produced by a sketch's own bucket vector).
    pub fn merge_run(&mut self, count: u64, min: u64, max: u64, run: &[(u32, u64)]) {
        if count == 0 {
            return;
        }
        self.count += count;
        if self.buckets.is_empty() {
            self.min = min;
            self.max = max;
            self.buckets = run.to_vec();
            return;
        }
        self.min = self.min.min(min);
        self.max = self.max.max(max);
        // Folding a small sketch into a large accumulator is the query hot
        // path: patch the accumulator in place instead of rebuilding its
        // whole bucket vector per merge.
        if run.len() * 8 <= self.buckets.len() {
            for &(i, c) in run {
                match self.buckets.binary_search_by_key(&i, |&(j, _)| j) {
                    Ok(p) => self.buckets[p].1 += c,
                    Err(p) => self.buckets.insert(p, (i, c)),
                }
            }
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + run.len());
        merge_runs_into(&self.buckets, run, &mut merged);
        self.buckets = merged;
    }
}

/// The one validator of a sketch run: the samples `run` counts, or `None`
/// when it is not sketch content — a bucket at or past [`BUCKETS`], a zero
/// count, buckets not strictly ascending, counts that do not sum to a
/// `u64`, or `min`/`max` outside the first/last bucket. It borrows the
/// run, so a decoder checks pairs where it read them (a sketch's own
/// vector, a segment's pool) and [`SparseSketch::from_run`] is this check
/// plus a move. An empty run counts nothing whatever extremes ride with it.
pub fn check_run(min: u64, max: u64, run: &[(u32, u64)]) -> Option<u64> {
    let (Some(&(first, _)), Some(&(last, _))) = (run.first(), run.last()) else {
        return Some(0);
    };
    let mut count = 0u64;
    let mut prev = None;
    for &(i, c) in run {
        if i as usize >= BUCKETS || c == 0 || prev.is_some_and(|p| i <= p) {
            return None;
        }
        prev = Some(i);
        count = count.checked_add(c)?;
    }
    (bucket_of(min) == first as usize && bucket_of(max) == last as usize).then_some(count)
}

/// Append the bucket-wise sum of two sketch runs — strictly ascending
/// `(bucket, count)` pairs, as [`SparseSketch::as_run`] and sealed segments'
/// sketch pools hold them — to `out`: the one two-pointer walk behind
/// [`SparseSketch::merge_run`] and behind the store's column merge, which
/// sums pool slice against pool slice straight into the pool of the segment
/// it is building. Either run may be empty.
pub fn merge_runs_into(a: &[(u32, u64)], b: &[(u32, u64)], out: &mut Vec<(u32, u64)>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let ((ai, ac), (bi, bc)) = (a[i], b[j]);
        match ai.cmp(&bi) {
            std::cmp::Ordering::Less => {
                out.push((ai, ac));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((bi, bc));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((ai, ac + bc));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl Merge for SparseSketch {
    fn merge(&mut self, other: Self) {
        self.merge_ref(&other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_consistent() {
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1000, 60_000, u64::MAX] {
            let i = bucket_of(v);
            assert!(i < BUCKETS, "index {i} for {v}");
            assert!(bucket_low(i) <= v, "low edge of {i} above {v}");
            assert!(
                v < bucket_high(i) || bucket_high(i) == u64::MAX,
                "{v} outside bucket {i}"
            );
        }
        // Linear region is exact.
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_low(bucket_of(v)), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [200u64, 5_000, 123_456, 90_000_000, 1 << 40] {
            let i = bucket_of(v);
            let mid = bucket_low(i) + (bucket_high(i) - bucket_low(i)) / 2;
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUBBUCKETS as f64, "err {err} at {v}");
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut s = QuantileSketch::new();
        for v in 1..=100_000u64 {
            s.push(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = s.quantile(q).unwrap() as f64;
            assert!(
                (got - expect).abs() / expect < 0.01,
                "q={q}: got {got}, expect {expect}"
            );
        }
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(1.0), Some(s.max().unwrap()));
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in [3u64, 3, 3, 7, 9] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), Some(3));
        assert_eq!(s.quantile(0.8), Some(7));
        assert_eq!(s.quantile(1.0), Some(9));
    }

    #[test]
    fn quantile_endpoints_are_exact_within_a_shared_bucket() {
        // Regression: 1000 and 1003 share one log bucket (lo 1000, hi 1004,
        // midpoint 1002). The interior walk reports 1002 for any rank in the
        // bucket — acceptable resolution mid-range, but quantile(1.0) must
        // be the *exact* max and quantile(0.0) the exact min, not a
        // midpoint that clamping cannot fix.
        let mut s = QuantileSketch::new();
        s.push(1000);
        s.push(1003);
        assert_eq!(s.quantile(0.0), Some(1000));
        assert_eq!(s.quantile(1.0), Some(1003));

        // Same at the low end: min above the bucket representative.
        let mut t = QuantileSketch::new();
        t.push(1001);
        t.push(1003);
        assert_eq!(t.quantile(0.0), Some(1001));
        assert_eq!(t.quantile(1.0), Some(1003));

        // Out-of-range q behaves like the endpoints.
        assert_eq!(t.quantile(-0.5), Some(1001));
        assert_eq!(t.quantile(1.5), Some(1003));

        // Single-value sketches answer that value at every quantile.
        let mut u = QuantileSketch::new();
        u.push(987_654);
        for q in [0.0, 0.3, 1.0] {
            assert_eq!(u.quantile(q), Some(987_654));
        }
    }

    #[test]
    fn empty_sketch_is_quiet() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(1.0), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_is_commutative_bitwise() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for v in 0..5_000u64 {
            a.push(v * 17 % 90_000);
            b.push(v * 31 % 123_456);
        }
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab, ba);
        let mut da = Digest64::new();
        ab.absorb_into(&mut da);
        let mut db = Digest64::new();
        ba.absorb_into(&mut db);
        assert_eq!(da.finish(), db.finish());
    }

    #[test]
    fn merge_equals_single_stream() {
        let values: Vec<u64> = (0..10_000u64).map(|v| v * v % 1_000_003).collect();
        let mut whole = QuantileSketch::new();
        for &v in &values {
            whole.push(v);
        }
        let mut parts = QuantileSketch::new();
        for chunk in values.chunks(777) {
            let mut p = QuantileSketch::new();
            for &v in chunk {
                p.push(v);
            }
            parts.merge(p);
        }
        assert_eq!(whole, parts);
    }

    /// Sparse → run → sparse: a sketch hands out a run its own validator
    /// accepts, and rebuilds from it unchanged.
    #[test]
    fn sparse_round_trip() {
        let mut sparse = SparseSketch::new();
        for v in [1u64, 60_000, 60_000, 91_770_000, 5] {
            sparse.push(v);
        }
        let (min, max, run) = sparse.as_run();
        assert_eq!((min, max), (1, 91_770_000));
        assert_eq!(check_run(min, max, run), Some(5));
        assert_eq!(
            SparseSketch::from_run(min, max, run.to_vec()),
            Some(sparse.clone())
        );
        // An empty sketch is an empty run, whatever extremes ride with it.
        assert_eq!(SparseSketch::new().as_run().2, &[]);
        assert_eq!(
            SparseSketch::from_run(7, 9, Vec::new()),
            Some(SparseSketch::new())
        );
    }

    proptest::proptest! {
        /// The walk bounded by `bucket_of(min)..=bucket_of(max)` sees the
        /// same buckets as a walk over all of them, on any mix of pushes
        /// and merges (empty sketches included).
        #[test]
        fn bounded_walk_equals_full_walk(
            parts in proptest::collection::vec(
                proptest::collection::vec((0u32..64, proptest::prelude::any::<u64>()), 0..12),
                1..6,
            )
        ) {
            let mut all = QuantileSketch::new();
            for part in &parts {
                let mut s = QuantileSketch::new();
                for &(shift, v) in part {
                    s.push(v >> shift);
                }
                all.merge(s);
            }
            let full: Vec<(u32, u64)> = all
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| (i as u32, c))
                .collect();
            let bounded: Vec<(u32, u64)> = all.nonzero_buckets().collect();
            proptest::prop_assert_eq!(&bounded, &full);
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                proptest::prop_assert_eq!(
                    all.quantile(q),
                    quantile_over(all.count, all.min, all.max, q, full.iter().copied())
                );
            }
        }
    }

    #[test]
    fn sparse_sketch_matches_dense_exactly() {
        let mut dense = QuantileSketch::new();
        let mut sparse = SparseSketch::new();
        for v in (0..20_000u64).map(|v| v * v % 777_777) {
            dense.push(v);
            sparse.push(v);
        }
        assert_eq!(sparse.count(), dense.count());
        assert_eq!(sparse.min(), dense.min());
        assert_eq!(sparse.max(), dense.max());
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(sparse.quantile(q), dense.quantile(q), "q={q}");
        }
        let dp: Vec<_> = dense.nonzero_buckets().collect();
        assert_eq!(sparse.as_run().2, &dp[..]);
        let mut ds = Digest64::new();
        sparse.absorb_into(&mut ds);
        let mut dd = Digest64::new();
        dense.absorb_into(&mut dd);
        assert_eq!(ds.finish(), dd.finish());
        // Far below the 7 424 dense slots — the memory argument for sparse.
        assert!(sparse.nnz() < BUCKETS / 4, "nnz {}", sparse.nnz());
    }

    #[test]
    fn sparse_merge_is_commutative_and_matches_single_stream() {
        let values: Vec<u64> = (0..6_000u64).map(|v| v * 13 % 250_000).collect();
        let mut whole = SparseSketch::new();
        for &v in &values {
            whole.push(v);
        }
        let (lo, hi) = values.split_at(1_234);
        let mut a = SparseSketch::new();
        let mut b = SparseSketch::new();
        for &v in lo {
            a.push(v);
        }
        for &v in hi {
            b.push(v);
        }
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
        // Merging an empty sketch in either direction is the identity.
        let mut e = SparseSketch::new();
        e.merge(whole.clone());
        assert_eq!(e, whole);
        let mut w = whole.clone();
        w.merge(SparseSketch::new());
        assert_eq!(w, whole);
    }

    proptest::proptest! {
        /// The validator against a naive model — a dense histogram summed
        /// in `u128` — on valid runs and on each way a run goes wrong: an
        /// index at or past `BUCKETS`, a zero count, a swapped or repeated
        /// index, counts that overflow, extremes off the first or last
        /// bucket — and on the empty run, whose extremes mean nothing.
        /// `from_run` is the same verdict plus a move.
        #[test]
        fn check_run_accepts_and_refuses_what_a_naive_model_does(
            steps in proptest::collection::vec((1u32..800, 1u64..1 << 40), 0..9),
            (min_off, max_off) in (0u64..3, 0u64..3),
            forgery in 0usize..9,
            at in 0usize..1 << 16,
        ) {
            let mut index = 0u32;
            let mut run: Vec<(u32, u64)> = steps
                .iter()
                .map(|&(step, count)| {
                    index += step;
                    (index - 1, count)
                })
                .collect();
            let low = |i: Option<&(u32, u64)>| i.map_or(7, |&(i, _)| bucket_low(i as usize));
            // Offsets 0 and 1 stay inside a bucket of width ≥ 2 and leave a
            // unit bucket at 1; 2 leaves most buckets this run can hold.
            let (mut min, mut max) = (low(run.first()) + min_off, low(run.last()) + max_off);
            let n = run.len().max(1);
            match forgery {
                1 if !run.is_empty() => run[at % n].0 = BUCKETS as u32 + (at % 3) as u32,
                2 if !run.is_empty() => run[at % n].1 = 0,
                3 if run.len() > 1 => run.swap(at % (n - 1), at % (n - 1) + 1),
                4 if run.len() > 1 => run[at % (n - 1) + 1].0 = run[at % (n - 1)].0,
                5 if run.len() > 1 => (run[0].1, run[at % (n - 1) + 1].1) = (u64::MAX, 1),
                6 => min = min.wrapping_sub(1 + at as u64 % 2),
                7 => max += 1 << 41,
                _ => {}
            }
            let naive = || {
                let mut dense = vec![0u128; BUCKETS];
                for (n, &(i, c)) in run.iter().enumerate() {
                    let ascends = n == 0 || run[n - 1].0 < i;
                    if !ascends || c == 0 {
                        return None;
                    }
                    *dense.get_mut(i as usize)? += u128::from(c);
                }
                let count = u64::try_from(dense.iter().sum::<u128>()).ok()?;
                let Some(first) = dense.iter().position(|&c| c > 0) else {
                    return Some(0);
                };
                let last = dense.iter().rposition(|&c| c > 0)?;
                (bucket_of(min) == first && bucket_of(max) == last).then_some(count)
            };
            let checked = check_run(min, max, &run);
            proptest::prop_assert_eq!(checked, naive());
            let built = SparseSketch::from_run(min, max, run.clone());
            proptest::prop_assert_eq!(built.as_ref().map(SparseSketch::count), checked);
            if let Some(s) = built.filter(|s| s.nnz() > 0) {
                proptest::prop_assert_eq!(s.as_run(), (min, max, &run[..]));
            }
        }
    }

    #[test]
    fn sparse_endpoints_are_exact_within_a_shared_bucket() {
        let mut s = SparseSketch::new();
        s.push(1000);
        s.push(1003);
        assert_eq!(s.quantile(0.0), Some(1000));
        assert_eq!(s.quantile(1.0), Some(1003));
        assert_eq!(SparseSketch::new().quantile(0.5), None);
    }
}
