//! Reusable sampling distributions.
//!
//! These are the pre-built distributions the workload generator leans on:
//!
//! * [`WeightedIndex`] — O(log n) categorical sampling over precomputed
//!   cumulative weights (cause mix, signal levels, model, ISP and
//!   environment mix), and the rank-frequency skew of base-station failure
//!   counts ([`WeightedIndex::zipf`]; Fig. 11 reports a Zipf with
//!   a = 0.82). [`ClassMasks`] fold class bits over a guide table, so
//!   rejection sampling turns most draws of an unwanted class away in O(1).

use crate::rng::SimRng;

/// Categorical distribution with O(log n) sampling via a cumulative table.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Build from non-negative, finite weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative, infinite or NaN
    /// value, or sums to 0 or past `f64::MAX`.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "WeightedIndex needs at least one weight"
        );
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w.is_finite(), "non-finite weight {w}");
            assert!(w >= 0.0, "negative weight {w}");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights sum to zero");
        assert!(acc.is_finite(), "weights sum past f64::MAX");
        WeightedIndex {
            cumulative,
            total: acc,
        }
    }

    /// Bounded Zipf distribution over ranks `0..n` with exponent `s`:
    /// `P(rank = k) ∝ 1 / (k + 1)^s`, rank 0 the most popular.
    pub fn zipf(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        Self::new(&weights)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false (construction rejects empty weights); provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Sample a category index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.index_of(rng.f64() * self.total)
    }

    /// The probability mass of category `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - prev) / self.total
    }

    /// One try of rejection sampling by class: make [`Self::sample`]'s
    /// single draw, and return its index if that category is in a class of
    /// `want`, `None` if it is not.
    ///
    /// A draw whose guide bucket reaches no class of `want` is rejected in
    /// O(1), without the search, but only once the cumulative table shows it
    /// lies inside that bucket's span; so the answer is exactly `sample`'s,
    /// filtered by class.
    pub fn sample_in_class(
        &self,
        masks: &ClassMasks,
        want: u16,
        rng: &mut SimRng,
    ) -> Option<usize> {
        self.in_class(masks, want, rng.f64() * self.total)
    }

    fn in_class(&self, masks: &ClassMasks, want: u16, x: f64) -> Option<usize> {
        let bucket = masks.bucket(x);
        if masks.per_bucket[bucket] & want == 0 && self.within(masks.span(bucket), x) {
            return None;
        }
        let i = self.index_of(x);
        (masks.per_index[i] & want != 0).then_some(i)
    }

    /// Fold per-category class bits (one bit per class, up to 16) over a
    /// guide table of this distribution, for [`Self::sample_in_class`].
    ///
    /// # Panics
    /// Panics if `per_index` does not hold one entry per category.
    pub fn class_masks(&self, per_index: Vec<u16>) -> ClassMasks {
        let n = self.len();
        assert_eq!(per_index.len(), n, "one class set per category");
        assert!(u32::try_from(n).is_ok(), "at most 2^32 − 1 categories");
        // The cutpoint method: n buckets of `total / n` each.
        let mut guide = Vec::with_capacity(n);
        let mut i = 0;
        for b in 0..n {
            let edge = b as f64 * self.total / n as f64;
            while i < n - 1 && self.cumulative[i] <= edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        let mut masks = ClassMasks {
            per_index,
            scale: n as f64 / self.total,
            guide,
            per_bucket: Vec::with_capacity(n),
        };
        for b in 0..n {
            let (lo, hi) = masks.span(b);
            let reach = masks.per_index[lo..=hi].iter().fold(0, |acc, &m| acc | m);
            masks.per_bucket.push(reach);
        }
        masks
    }

    /// The first index whose cumulative weight exceeds `x`, the last index
    /// if none does.
    fn index_of(&self, x: f64) -> usize {
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }

    /// Whether [`Self::index_of`]`(x)` certainly lies in `lo ..= hi`:
    /// `cumulative[lo − 1] <= x < cumulative[hi]`, each side vacuous at the
    /// table's ends.
    fn within(&self, (lo, hi): (usize, usize), x: f64) -> bool {
        (lo == 0 || self.cumulative[lo - 1] <= x)
            && (hi == self.len() - 1 || x < self.cumulative[hi])
    }
}

/// Class bits for the categories of one [`WeightedIndex`], per category and
/// folded over a guide table; built by [`WeightedIndex::class_masks`].
#[derive(Debug, Clone)]
pub struct ClassMasks {
    /// Per category: its classes, one bit each.
    per_index: Vec<u16>,
    /// `n / total`: maps a draw `x ∈ [0, total)` to its guide bucket.
    scale: f64,
    /// `guide[b]`: the first index whose cumulative weight exceeds
    /// `b · total / n`, clamped to `n − 1`.
    guide: Vec<u32>,
    /// Per guide bucket: the OR of `per_index` over the bucket's span.
    per_bucket: Vec<u16>,
}

impl ClassMasks {
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.guide.len() - 1)
    }

    /// The indices a draw between bucket `b`'s nominal edges resolves to,
    /// both ends included.
    fn span(&self, b: usize) -> (usize, usize) {
        let last = self.guide.len() - 1;
        let hi = self.guide.get(b + 1).map_or(last, |&g| g as usize);
        (self.guide[b] as usize, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_index_probabilities() {
        let w = WeightedIndex::new(&[2.0, 6.0, 2.0]);
        assert!((w.probability(0) - 0.2).abs() < 1e-12);
        assert!((w.probability(1) - 0.6).abs() < 1e-12);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn weighted_index_sampling_matches_mass() {
        let w = WeightedIndex::new(&[1.0, 3.0]);
        let mut rng = SimRng::new(11);
        let hits = (0..20_000).filter(|_| w.sample(&mut rng) == 1).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn weighted_index_rejects_empty() {
        WeightedIndex::new(&[]);
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn weighted_index_rejects_zero_total() {
        WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite weight inf")]
    fn weighted_index_rejects_an_infinite_weight() {
        WeightedIndex::new(&[f64::INFINITY, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite weight NaN")]
    fn weighted_index_rejects_a_nan_weight() {
        WeightedIndex::new(&[1.0, f64::NAN]);
    }

    /// Checks the bucket skip, with category `i` in class `i % 16`, against
    /// resolving the draw, at `0`, at every bucket edge and every cumulative
    /// weight, and one ulp either side of each.
    fn assert_skip_exact_at_every_edge(w: &WeightedIndex) {
        let n = w.len();
        let masks = w.class_masks((0..n).map(|i| 1 << (i % 16)).collect());
        let edges = (0..=n).flat_map(|b| [b as f64 * w.total / n as f64, b as f64 / masks.scale]);
        for edge in edges.chain(w.cumulative.iter().copied()) {
            for x in [edge.next_down(), edge, edge.next_up()] {
                if !(0.0..w.total).contains(&x) {
                    continue;
                }
                let i = w.index_of(x);
                for class in (0..16.min(n)).map(|c| 1 << c) {
                    let fits = masks.per_index[i] & class != 0;
                    let got = w.in_class(&masks, class, x);
                    assert_eq!(got, fits.then_some(i), "x = {x:e} of {n}");
                }
            }
        }
    }

    #[test]
    fn bucket_skip_is_exact_at_every_bucket_edge() {
        // At x = 0.3 this table's draw lands in bucket 3 (span 3..=3) yet
        // resolves to index 2: the case the span check exists for.
        assert_skip_exact_at_every_edge(&WeightedIndex::new(&[0.0, 0.2, 0.1, 0.1]));
        assert_skip_exact_at_every_edge(&WeightedIndex::new(&[5.0]));
        for n in [2_000, 20_000] {
            assert_skip_exact_at_every_edge(&WeightedIndex::zipf(n, 0.82));
        }
    }

    proptest::proptest! {
        #[test]
        fn bucket_skip_is_exact_at_every_edge_of_random_tables(
            parts in proptest::collection::vec((0u8..3, 0.0f64..10.0), 1..40),
        ) {
            // A third zeros, a third decimals whose sums round, a third uniform.
            let weights: Vec<f64> = parts
                .iter()
                .map(|&(kind, u)| match kind {
                    0 => 0.0,
                    1 => [0.1, 0.2, 0.3, 0.7, 1.0 / 3.0][u as usize / 2],
                    _ => u,
                })
                .collect();
            proptest::prop_assume!(weights.iter().any(|&w| w > 0.0));
            assert_skip_exact_at_every_edge(&WeightedIndex::new(&weights));
        }
    }

    #[test]
    fn zipf_rank_ordering() {
        let z = WeightedIndex::zipf(100, 0.82);
        let mut rng = SimRng::new(12);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // The theoretical rank-0:rank-9 ratio is 10^0.82 ≈ 6.6.
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!(ratio > 3.0 && ratio < 13.0, "ratio {ratio}");
    }
}
