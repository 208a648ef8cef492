//! Deterministic random number generation.
//!
//! [`SimRng`] wraps a seeded PRNG and exposes exactly the sampling surface
//! the simulation needs. Components obtain *forked* sub-streams via
//! [`SimRng::fork`], derived with SplitMix64 from the parent seed and a salt,
//! so that adding a consumer never perturbs the draws another consumer sees —
//! the property that keeps large experiments reproducible as they grow.

#[cfg(test)]
use cellrel_types::SimDuration;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// SplitMix64 — the canonical seed-derivation mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, forkable random stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
    forks: u64,
}

impl SimRng {
    /// Create a stream from a root seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(splitmix64(seed)),
            seed,
            forks: 0,
        }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive the substream for item `id` of the experiment rooted at
    /// `root_seed` — a *counter-based* stream constructor: the result
    /// depends on `(root_seed, id)` alone, never on any other stream's
    /// draw or fork history. This is what lets fleet drivers shard a
    /// population across threads and still produce bit-identical output at
    /// any thread count: device `id`'s draws are the same whether devices
    /// `0..id` ran before it, after it, or on another thread.
    pub fn for_substream(root_seed: u64, id: u64) -> SimRng {
        // Feed both words through SplitMix64 before combining so that
        // related roots (seed, seed+1) and adjacent ids land in unrelated
        // streams; the wrapping_add keeps the map (root, id) -> seed
        // bijective per root.
        let child =
            splitmix64(splitmix64(root_seed ^ 0x5851_F42D_4C95_7F2D).wrapping_add(splitmix64(!id)));
        SimRng::new(child)
    }

    /// Derive an independent child stream. The child's seed depends on this
    /// stream's seed, the salt, and how many forks were taken before — but
    /// *not* on how many samples were drawn, so sampling and forking don't
    /// interfere.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        self.forks += 1;
        let child = splitmix64(self.seed ^ splitmix64(salt) ^ (self.forks << 32));
        SimRng::new(child)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped into `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.random::<f64>() < p
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        self.inner.random_range(lo..hi)
    }

    /// Uniform usize in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() on empty range");
        self.inner.random_range(0..n)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (hi - lo) * self.f64()
    }

    /// Exponential with the given mean (inverse-CDF method).
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller (one value per call; the pair's second
    /// value is discarded to keep the stream's draw count predictable).
    pub fn std_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE); // (0, 1]
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with mean `mu` and standard deviation `sigma`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.std_normal()
    }

    /// Log-normal: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto with scale `x_min > 0` and shape `alpha > 0`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        let u = 1.0 - self.f64();
        x_min / u.powf(1.0 / alpha)
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Sample an index proportionally to `weights` (linear scan; use
    /// [`crate::dist::WeightedIndex`] for repeated sampling).
    ///
    /// # Panics
    /// Panics if `weights` is empty, holds an infinite or NaN value, or sums
    /// to a non-positive value or past `f64::MAX`.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        // An infinite or NaN weight makes the sum infinite or NaN.
        assert!(total.is_finite(), "non-finite weight or sum in {weights:?}");
        assert!(total > 0.0, "weighted_index with non-positive total");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Exponentially distributed duration with the given mean.
    #[cfg(test)]
    pub(crate) fn duration_exp(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_millis(self.exp(mean.as_millis() as f64).round() as u64)
    }

    /// Uniform duration in `[lo, hi)`.
    #[cfg(test)]
    pub(crate) fn duration_range(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration::from_millis(self.range_u64(lo.as_millis(), hi.as_millis()))
    }

    /// Poisson-distributed count with the given mean (Knuth for small means,
    /// normal approximation above 30 to stay O(1)).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        debug_assert!(mean >= 0.0);
        if mean <= 0.0 {
            return 0;
        }
        if mean > 30.0 {
            let v = self.normal(mean, mean.sqrt()).round();
            return v.max(0.0) as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.f64(), b.f64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.f64() == b.f64()).count();
        assert!(same < 4);
    }

    #[test]
    fn forks_are_independent_of_draw_count() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        // Draw from `a` before forking; fork seeds must still match.
        for _ in 0..10 {
            a.f64();
        }
        let mut fa = a.fork(99);
        let mut fb = b.fork(99);
        for _ in 0..32 {
            assert_eq!(fa.f64(), fb.f64());
        }
    }

    #[test]
    fn successive_forks_differ() {
        let mut r = SimRng::new(7);
        let mut f1 = r.fork(1);
        let mut f2 = r.fork(1);
        assert_ne!(f1.f64(), f2.f64());
    }

    #[test]
    fn substreams_depend_only_on_root_and_id() {
        let mut a = SimRng::for_substream(42, 7);
        let mut b = SimRng::for_substream(42, 7);
        for _ in 0..64 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
        // Distinct ids and distinct roots give distinct streams.
        let mut c = SimRng::for_substream(42, 8);
        let mut d = SimRng::for_substream(43, 7);
        let a0 = SimRng::for_substream(42, 7).f64();
        assert_ne!(a0, c.f64());
        assert_ne!(a0, d.f64());
    }

    #[test]
    fn adjacent_substreams_are_uncorrelated() {
        // Neighbouring ids (the common sharding layout) must not produce
        // correlated draws: compare means of XORed low bits.
        let mut agree = 0u32;
        let n = 4096;
        for id in 0..n {
            let x = SimRng::for_substream(9, id).f64();
            let y = SimRng::for_substream(9, id + 1).f64();
            if (x < 0.5) == (y < 0.5) {
                agree += 1;
            }
        }
        let rate = agree as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "neighbour agreement {rate}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "exp mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(4);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(5);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "non-finite weight or sum in [inf, 1.0]")]
    fn weighted_index_rejects_an_infinite_weight() {
        SimRng::new(5).weighted_index(&[f64::INFINITY, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite weight or sum in [1.0, NaN]")]
    fn weighted_index_rejects_a_nan_weight() {
        SimRng::new(5).weighted_index(&[1.0, f64::NAN]);
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut r = SimRng::new(6);
        for _ in 0..1000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut r = SimRng::new(8);
        for &mean in &[0.5, 4.0, 100.0] {
            let n = 20_000;
            let avg: f64 = (0..n).map(|_| r.poisson(mean) as f64).sum::<f64>() / n as f64;
            assert!(
                (avg - mean).abs() < mean.max(1.0) * 0.05 + 0.05,
                "poisson({mean}) mean {avg}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn duration_helpers() {
        let mut r = SimRng::new(10);
        let d = r.duration_range(SimDuration::from_secs(1), SimDuration::from_secs(2));
        assert!(d >= SimDuration::from_secs(1) && d < SimDuration::from_secs(2));
        let e = r.duration_exp(SimDuration::from_secs(10));
        assert!(e.as_millis() < 10_000 * 100);
    }
}
