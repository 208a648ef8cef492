//! Statistics utilities: running summaries, percentiles, ECDFs,
//! least-squares regression, and the Zipf fit used for Figure 11.
//!
//! The accumulators ([`Summary`], [`Ecdf`]) implement [`crate::par::Merge`]
//! so per-shard partials from parallel fleet runs combine associatively into
//! the same value a sequential pass produces (exactly for the ECDF's samples;
//! up to floating-point associativity for [`Summary`]'s mean/variance).

use crate::par::Merge;

/// Running summary statistics (Welford's online algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another summary into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.mean = mean;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    #[cfg(test)]
    pub(crate) fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    #[cfg(test)]
    pub(crate) fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    #[cfg(test)]
    pub(crate) fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

impl Merge for Summary {
    fn merge(&mut self, other: Self) {
        Summary::merge(self, &other);
    }
}

/// Linear-interpolated percentile of a **sorted** slice, `q ∈ [0, 1]`.
///
/// # Panics
/// Panics if the slice is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical CDF over a fixed sample set.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (sorted internally; NaNs rejected).
    ///
    /// # Panics
    /// Panics on empty input or NaNs.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "Ecdf of empty sample set");
        assert!(samples.iter().all(|x| !x.is_nan()), "Ecdf rejects NaN");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Ecdf { sorted: samples }
    }

    /// `P(X <= x)`.
    pub fn at(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// Interpolated quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&self.sorted, q)
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Number of samples.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Evaluate the CDF at evenly spaced points, returning `(x, F(x))` pairs —
    /// the series a CDF figure plots.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        let (lo, hi) = (self.min(), self.max());
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.at(x))
            })
            .collect()
    }
}

impl Merge for Ecdf {
    /// Merge two ECDFs into the ECDF over the union of their samples
    /// (linear two-way merge of the sorted sample sets).
    fn merge(&mut self, other: Self) {
        let mut merged = Vec::with_capacity(self.sorted.len() + other.sorted.len());
        let (mut a, mut b) = (
            self.sorted.iter().peekable(),
            other.sorted.iter().peekable(),
        );
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            if x <= y {
                merged.push(x);
                a.next();
            } else {
                merged.push(y);
                b.next();
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.sorted = merged;
    }
}

/// Ordinary least squares fit `y = slope * x + intercept`.
/// Returns `(slope, intercept, r²)`.
///
/// # Panics
/// Panics if the inputs have different lengths or fewer than 2 points.
pub fn linreg(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "linreg needs at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = my - slope * mx;
    let r2 = if sxx == 0.0 || syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (slope, intercept, r2)
}

/// Bootstrap confidence interval for the mean of a sample: resample with
/// replacement `iters` times and return the `(lo, hi)` quantiles of the
/// resampled means at the given confidence level (e.g. 0.95).
///
/// # Panics
/// Panics on empty input or a confidence level outside (0, 1).
pub fn bootstrap_mean_ci(
    samples: &[f64],
    iters: u32,
    confidence: f64,
    rng: &mut crate::rng::SimRng,
) -> (f64, f64) {
    assert!(!samples.is_empty(), "bootstrap of empty sample");
    assert!((0.0..1.0).contains(&confidence) && confidence > 0.0);
    let n = samples.len();
    let mut means = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += samples[rng.index(n)];
        }
        means.push(acc / n as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
    let alpha = (1.0 - confidence) / 2.0;
    (percentile(&means, alpha), percentile(&means, 1.0 - alpha))
}

/// Fit a Zipf law to a descending rank-count series, in the paper's form
/// `ln(count) = b − a · ln(rank)` (rank is 1-based). Zero counts are skipped.
/// Returns `(a, b, r²)`.
///
/// Figure 11 reports `a = 0.82`, `b = 17.12` for the BS failure ranking.
pub fn fit_zipf(counts_desc: &[u64]) -> (f64, f64, f64) {
    let points: Vec<(f64, f64)> = counts_desc
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (((i + 1) as f64).ln(), (c as f64).ln()))
        .collect();
    assert!(
        points.len() >= 2,
        "fit_zipf needs at least two non-zero counts"
    );
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let (slope, intercept, r2) = linreg(&xs, &ys);
    (-slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.push(1.0);
        let b = Summary::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut e = Summary::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn ecdf_behaviour() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((e.at(3.0) - 0.6).abs() < 1e-12);
        assert_eq!(e.at(0.0), 0.0);
        assert_eq!(e.at(99.0), 1.0);
        assert_eq!(e.median(), 3.0);
        assert_eq!(e.mean(), 3.0);
        let series = e.series(5);
        assert_eq!(series.len(), 5);
        assert_eq!(series[0].0, 1.0);
        assert_eq!(series[4].1, 1.0);
    }

    #[test]
    fn ecdf_merge_equals_pooled_build() {
        let xs = vec![5.0, 1.0, 3.0];
        let ys = vec![4.0, 2.0, 6.0];
        let mut merged = Ecdf::new(xs.clone());
        Merge::merge(&mut merged, Ecdf::new(ys.clone()));
        let pooled = Ecdf::new(xs.into_iter().chain(ys).collect());
        assert_eq!(merged.len(), pooled.len());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(merged.quantile(q), pooled.quantile(q));
        }
    }

    #[test]
    fn linreg_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let (slope, intercept, r2) = linreg(&xs, &ys);
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_fit_recovers_exponent() {
        // Generate an exact Zipf rank-count series with a = 0.82, b = 17.12.
        let counts: Vec<u64> = (1..=1000u64)
            .map(|rank| (17.12 - 0.82 * (rank as f64).ln()).exp().round() as u64)
            .collect();
        let (a, b, r2) = fit_zipf(&counts);
        assert!((a - 0.82).abs() < 0.01, "a = {a}");
        assert!((b - 17.12).abs() < 0.05, "b = {b}");
        assert!(r2 > 0.999);
    }

    #[test]
    fn bootstrap_ci_brackets_the_mean() {
        let mut rng = crate::rng::SimRng::new(42);
        let xs: Vec<f64> = (0..500).map(|_| rng.normal(10.0, 3.0)).collect();
        let true_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let (lo, hi) = bootstrap_mean_ci(&xs, 400, 0.95, &mut rng);
        assert!(
            lo < true_mean && true_mean < hi,
            "CI [{lo}, {hi}] vs {true_mean}"
        );
        // Width is in the right ballpark: ~2 × 1.96 × 3/√500 ≈ 0.53.
        assert!((hi - lo) < 1.2, "CI too wide: {}", hi - lo);
        assert!((hi - lo) > 0.2, "CI suspiciously tight: {}", hi - lo);
    }

    #[test]
    fn bootstrap_ci_narrows_with_sample_size() {
        let mut rng = crate::rng::SimRng::new(43);
        let small: Vec<f64> = (0..50).map(|_| rng.normal(0.0, 1.0)).collect();
        let large: Vec<f64> = (0..2000).map(|_| rng.normal(0.0, 1.0)).collect();
        let (sl, sh) = bootstrap_mean_ci(&small, 300, 0.95, &mut rng);
        let (ll, lh) = bootstrap_mean_ci(&large, 300, 0.95, &mut rng);
        assert!(lh - ll < sh - sl);
    }

    #[test]
    fn zipf_fit_skips_zeros() {
        let counts = vec![100, 50, 0, 25, 0];
        let (a, _, _) = fit_zipf(&counts);
        assert!(a > 0.0);
    }
}
