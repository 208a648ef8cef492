//! Reusable sampling distributions.
//!
//! These are the pre-built distributions the workload generator leans on:
//!
//! * [`ZipfDist`] — rank-frequency skew for base-station failure counts
//!   (Fig. 11 reports a Zipf with a = 0.82).
//! * [`WeightedIndex`] — O(log n) categorical sampling over precomputed
//!   cumulative weights (model mix, ISP mix, environment mix).
//! * [`LogNormalDist`] / [`ParetoDist`] — heavy-tailed failure-count and
//!   duration bodies/tails.
//! * [`Empirical`] — sample from (or interpolate quantiles of) an observed
//!   sample set; used to bootstrap stall-duration curves into TIMP inputs.

use crate::rng::SimRng;

/// Categorical distribution with O(log n) sampling via a cumulative table.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Build from non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative value, or sums to 0.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "WeightedIndex needs at least one weight"
        );
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0, "negative weight {w}");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights sum to zero");
        WeightedIndex {
            cumulative,
            total: acc,
        }
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
        let x = rng.f64() * self.total;
        // partition_point: first index whose cumulative weight exceeds x.
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }

    /// The probability mass of category `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - prev) / self.total
    }
}

/// Bounded Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = k) ∝ 1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfDist {
    weights: WeightedIndex,
}

impl ZipfDist {
    /// Build for `n` ranks with the given exponent.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0);
        let weights: Vec<f64> = (0..n)
            .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
            .collect();
        ZipfDist {
            weights: WeightedIndex::new(&weights),
        }
    }

    /// Sample a rank (0 = most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.weights.sample(rng)
    }
}

/// Log-normal distribution parameterised directly by the underlying normal's
/// `mu` and `sigma`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormalDist {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
}

impl LogNormalDist {
    /// Construct from the underlying normal parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        LogNormalDist { mu, sigma }
    }

    /// Construct from the *target* median and the sigma of the log.
    /// (`median = exp(mu)`, so this is often the most intuitive form.)
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0);
        Self::new(median.ln(), sigma)
    }

    /// Theoretical mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Sample one value.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.lognormal(self.mu, self.sigma)
    }
}

/// Pareto distribution (scale `x_min`, shape `alpha`).
#[derive(Debug, Clone, Copy)]
pub struct ParetoDist {
    /// Scale: the minimum value.
    pub x_min: f64,
    /// Shape: smaller alpha = heavier tail.
    pub alpha: f64,
}

impl ParetoDist {
    /// Construct a Pareto distribution.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0);
        ParetoDist { x_min, alpha }
    }

    /// Sample one value.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.pareto(self.x_min, self.alpha)
    }

    /// Complementary CDF: `P(X > x)`.
    pub fn ccdf(&self, x: f64) -> f64 {
        if x <= self.x_min {
            1.0
        } else {
            (self.x_min / x).powf(self.alpha)
        }
    }
}

/// An empirical distribution built from observed samples. Sampling draws a
/// uniformly random observation; [`Empirical::quantile`] interpolates.
#[derive(Debug, Clone)]
pub struct Empirical {
    sorted: Vec<f64>,
}

impl Empirical {
    /// Build from samples (NaNs are rejected).
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "Empirical needs at least one sample");
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "Empirical rejects NaN samples"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
        Empirical { sorted: samples }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Draw one of the observations uniformly.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sorted[rng.index(self.sorted.len())]
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        crate::stats::percentile(&self.sorted, q)
    }

    /// Fraction of observations ≤ `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// Arithmetic mean of the observations.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
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
    fn zipf_rank_ordering() {
        let z = ZipfDist::new(100, 0.82);
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

    #[test]
    fn lognormal_mean_matches_theory() {
        let d = LogNormalDist::new(1.0, 0.5);
        let mut rng = SimRng::new(13);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - d.mean()).abs() / d.mean() < 0.05, "mean {mean}");
    }

    #[test]
    fn lognormal_from_median() {
        let d = LogNormalDist::from_median(10.0, 1.0);
        assert!((d.mu - 10.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn pareto_ccdf_and_samples() {
        let d = ParetoDist::new(1.0, 0.82);
        assert!((d.ccdf(1.0) - 1.0).abs() < 1e-12);
        assert!(d.ccdf(10.0) < d.ccdf(2.0));
        let mut rng = SimRng::new(14);
        assert!((0..1000).all(|_| d.sample(&mut rng) >= 1.0));
    }

    #[test]
    fn empirical_quantiles_and_cdf() {
        let e = Empirical::new(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 5.0);
        assert!((e.quantile(0.5) - 3.0).abs() < 1e-12);
        assert!((e.cdf(3.0) - 0.6).abs() < 1e-12);
        assert!((e.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_sampling_stays_in_support() {
        let e = Empirical::new(vec![1.0, 2.0, 3.0]);
        let mut rng = SimRng::new(15);
        for _ in 0..100 {
            let v = e.sample(&mut rng);
            assert!(v == 1.0 || v == 2.0 || v == 3.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empirical_rejects_empty() {
        Empirical::new(vec![]);
    }
}
