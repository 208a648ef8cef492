//! Harness arithmetic: medians of repetitions and the percentile a sample
//! is large enough to support.

/// Percentiles the harness may report beyond the median, lowest first, in
/// per mille so that "samples beyond" is exact integer arithmetic.
pub const TAILS_PER_MILLE: [usize; 3] = [900, 990, 999];

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle ones for an even count). An
/// empty sample has no median: the NaN this returns is refused by the result
/// writer instead of being printed as a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon keeps 0.9 × 100 = 90.000000000000014 at rank 90.
    let rank = (p * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the percentile
/// `per_mille`.
fn supports(n: usize, per_mille: usize) -> bool {
    n * (1_000 - per_mille) / 1_000 >= MIN_BEYOND
}

/// The highest of [`TAILS_PER_MILLE`] that `n` samples support, or `None`
/// when even the lowest is out of reach.
pub fn supported_tail(n: usize) -> Option<usize> {
    TAILS_PER_MILLE
        .iter()
        .copied()
        .rev()
        .find(|&pm| supports(n, pm))
}

/// The percentile `wanted` (per mille) if the sample supports it, else the
/// highest supported tail below it, else the median: a metric named after
/// p95 never reports a percentile that one slow sample decides. Returns the
/// percentile used, as a share, and its value.
pub fn tail_or_lower(values: &[f64], wanted: usize) -> (f64, f64) {
    let n = values.len();
    let pm = if supports(n, wanted) {
        wanted
    } else {
        supported_tail(n).filter(|&pm| pm < wanted).unwrap_or(500)
    };
    let p = pm as f64 / 1_000.0;
    (p, percentile(values, p))
}

/// The three quartiles of `values`, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's spread is
/// the distance between the first and the third, as a share of the median).
/// `None` below four values: fewer say nothing about spread.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some([1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 60, 20, 50, 30], n=4)
        assert_eq!(
            quartiles(&[10.0, 60.0, 20.0, 50.0, 30.0]),
            Some([15.0, 30.0, 55.0])
        );
        // statistics.quantiles([1, 2, 3, 4], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some([1.25, 2.5, 3.75]));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn median_of_reps_takes_the_middle() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild repetition out of five does not move it.
        assert_eq!(median(&[10.0, 10.2, 9.9, 10.1, 55.0]), 10.1);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(900));
        assert_eq!(supported_tail(999), Some(900));
        assert_eq!(supported_tail(1_000), Some(990));
        assert_eq!(supported_tail(9_999), Some(990));
        assert_eq!(supported_tail(10_000), Some(999));
    }

    #[test]
    fn a_small_sample_reports_a_lower_percentile_than_asked() {
        let small: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail_or_lower(&small, 950), (0.90, 135.0));
        let tiny = [3.0, 1.0, 2.0];
        assert_eq!(tail_or_lower(&tiny, 950), (0.5, 2.0));
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_or_lower(&enough, 950), (0.95, 190.0));
        assert_eq!(tail_or_lower(&enough, 990), (0.90, 180.0));
        // Never more than asked, even when the sample would carry it.
        let huge: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail_or_lower(&huge, 990), (0.99, 19_800.0));
    }
}
