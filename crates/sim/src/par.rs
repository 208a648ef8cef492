//! Deterministic parallel execution for fleet-scale drivers.
//!
//! The macro study and the micro A/B fleets are embarrassingly parallel per
//! device *once per-device randomness is derived from `(root_seed,
//! device_id)` alone* (see [`crate::SimRng::for_substream`]). This module
//! supplies the remaining two pieces:
//!
//! * [`run_sharded`] — split an index range into contiguous shards, run a
//!   worker closure per shard on scoped threads (`std::thread::scope`, no
//!   dependencies), and return the per-shard results **in shard order**.
//! * [`Merge`] — an associative combine for per-shard partial results
//!   (counters, vectors, summaries, histograms, maps, …), so shard partials
//!   fold into exactly the value a sequential run would produce.
//!
//! Because shards are contiguous, per-shard vectors concatenated in shard
//! order reproduce the sequential iteration order, and because every
//! device's draws come from its own substream, the *content* of each
//! shard's output is independent of the shard layout. Together these give
//! the headline guarantee: **bit-identical output at any thread count**,
//! including 1 — for every quantity accumulated with order-insensitive
//! arithmetic (integer counters, ordered vectors). Floating-point
//! reductions ([`crate::Summary`], `f64` sums) merge associatively but not
//! bit-identically across *different shard layouts*; drivers that need
//! exact invariance accumulate integer milliseconds and convert at the end.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::ops::Range;

/// An associative combine of two partial results.
///
/// `a.merge(b)` must behave like "b's observations appended after a's":
/// folding shard partials in shard order then equals one sequential pass.
pub trait Merge {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: Self);
}

impl Merge for () {
    fn merge(&mut self, _other: Self) {}
}

macro_rules! impl_merge_add {
    ($($t:ty),*) => {$(
        impl Merge for $t {
            fn merge(&mut self, other: Self) {
                *self += other;
            }
        }
    )*};
}
impl_merge_add!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

impl<T> Merge for Vec<T> {
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

impl<T: Merge, const N: usize> Merge for [T; N] {
    fn merge(&mut self, other: Self) {
        for (a, b) in self.iter_mut().zip(other) {
            a.merge(b);
        }
    }
}

impl<T: Merge> Merge for Option<T> {
    fn merge(&mut self, other: Self) {
        match (self.as_mut(), other) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => *self = Some(b),
            (_, None) => {}
        }
    }
}

impl<K: Eq + Hash, V: Merge, S: BuildHasher> Merge for HashMap<K, V, S> {
    fn merge(&mut self, other: Self) {
        for (k, v) in other {
            match self.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(v),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(v);
                }
            }
        }
    }
}

impl<K: Ord, V: Merge> Merge for BTreeMap<K, V> {
    fn merge(&mut self, other: Self) {
        for (k, v) in other {
            match self.entry(k) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(v),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v);
                }
            }
        }
    }
}

impl<T: Eq + Hash, S: BuildHasher> Merge for HashSet<T, S> {
    fn merge(&mut self, other: Self) {
        self.extend(other);
    }
}

macro_rules! impl_merge_tuple {
    ($(($($n:tt $t:ident),+)),*) => {$(
        impl<$($t: Merge),+> Merge for ($($t,)+) {
            fn merge(&mut self, other: Self) {
                $( self.$n.merge(other.$n); )+
            }
        }
    )*};
}
impl_merge_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E)
);

/// Fold an ordered sequence of partials into one via [`Merge`].
pub(crate) fn merge_all<T: Merge>(parts: impl IntoIterator<Item = T>) -> Option<T> {
    let mut parts = parts.into_iter();
    let mut acc = parts.next()?;
    for p in parts {
        acc.merge(p);
    }
    Some(acc)
}

/// The environment knob consulted by [`auto_threads`].
pub const THREADS_ENV: &str = "CELLREL_THREADS";

/// Resolve a thread-count request: `0` means "auto" — the `CELLREL_THREADS`
/// environment variable if set, otherwise the machine's available
/// parallelism. Any explicit request is used as given (min 1).
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    auto_threads()
}

/// The default thread count: `CELLREL_THREADS` if set and positive,
/// otherwise `std::thread::available_parallelism()`.
pub fn auto_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Split `0..len` into at most `threads` contiguous, near-equal,
/// non-empty shards covering the whole range, in order.
pub(crate) fn shard_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.max(1).min(len.max(1));
    if len == 0 {
        // One empty shard, so every worker-based API still runs once.
        return std::iter::once(0..0).collect();
    }
    let base = len / threads;
    let extra = len % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// Run `worker` over contiguous shards of `0..len` on up to `threads`
/// scoped threads and return the per-shard results **in shard order**.
///
/// `threads <= 1` (or a single shard) runs inline on the caller's thread —
/// the zero-overhead sequential path. The worker receives its shard's index
/// range; because shard boundaries never influence per-item substreams,
/// the concatenated results are identical for every thread count.
///
/// # Panics
/// Propagates a panic from any worker.
pub fn run_sharded<T, F>(len: usize, threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = shard_ranges(len, threads);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(worker).collect();
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(move || worker(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// [`run_sharded`] followed by an in-order [`Merge`] fold of the partials.
pub fn run_sharded_merge<T, F>(len: usize, threads: usize, worker: F) -> T
where
    T: Merge + Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    merge_all(run_sharded(len, threads, worker)).expect("at least one shard")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_contiguously() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = shard_ranges(len, threads);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().expect("non-empty").end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(!w[1].is_empty() || len == 0);
                }
                // Near-equal: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (
                    sizes.iter().min().expect("non-empty"),
                    sizes.iter().max().expect("non-empty"),
                );
                assert!(hi - lo <= 1, "uneven shards {sizes:?}");
            }
        }
    }

    #[test]
    fn run_sharded_preserves_order_at_any_thread_count() {
        let expect: Vec<usize> = (0..1000).collect();
        for threads in [1usize, 2, 3, 8] {
            let parts = run_sharded(1000, threads, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_sharded_merge_equals_sequential_fold() {
        let seq: u64 = (0..10_000u64).sum();
        for threads in [1usize, 2, 4, 16] {
            let total = run_sharded_merge(10_000, threads, |r| r.map(|i| i as u64).sum::<u64>());
            assert_eq!(total, seq, "threads={threads}");
        }
    }

    #[test]
    fn merge_primitives_and_containers() {
        let mut a = vec![1, 2];
        a.merge(vec![3]);
        assert_eq!(a, vec![1, 2, 3]);

        let mut counts = [1u64, 0];
        counts.merge([2, 5]);
        assert_eq!(counts, [3, 5]);

        let mut t = (1u64, vec![1u32]);
        t.merge((2, vec![2]));
        assert_eq!(t, (3, vec![1, 2]));

        let mut m: HashMap<&str, u64> = HashMap::from([("a", 1)]);
        m.merge(HashMap::from([("a", 2), ("b", 7)]));
        assert_eq!(m["a"], 3);
        assert_eq!(m["b"], 7);

        let mut s: HashSet<u32> = HashSet::from([1, 2]);
        s.merge(HashSet::from([2, 3]));
        assert_eq!(s.len(), 3);

        let mut o: Option<u64> = None;
        o.merge(Some(4));
        o.merge(Some(5));
        o.merge(None);
        assert_eq!(o, Some(9));

        let mut bt: BTreeMap<u8, Vec<u8>> = BTreeMap::from([(1, vec![1])]);
        Merge::merge(&mut bt, BTreeMap::from([(1, vec![2]), (2, vec![3])]));
        assert_eq!(bt[&1], vec![1, 2]);
    }

    #[test]
    fn merge_all_folds_in_order() {
        assert_eq!(merge_all(Vec::<Vec<u8>>::new()), None);
        let folded = merge_all([vec![1u8], vec![2], vec![3]]).expect("non-empty");
        assert_eq!(folded, vec![1, 2, 3]);
    }

    #[test]
    fn resolve_threads_semantics() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn empty_range_still_yields_one_shard() {
        let parts = run_sharded(0, 4, |r| r.len());
        assert_eq!(parts, vec![0]);
    }
}
