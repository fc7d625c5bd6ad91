//! Percentiles and run-to-run spread.
//!
//! A timing is reported as its median plus a tail percentile, and a tail
//! percentile counts only when at least [`TAIL_MIN_BEYOND`] samples lie
//! beyond it — with fewer, the "percentile" is a handful of outliers.

/// Samples that must lie beyond a percentile for it to be reported as
/// supported (the choosing-metrics rule).
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support reporting percentile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= TAIL_MIN_BEYOND
}

/// What one timed quantity looked like over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
    /// The highest of p90/p99 with enough samples beyond it, if any.
    pub supported_tail: Option<f64>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let supported_tail = [0.99, 0.9].into_iter().find(|&q| supports(n, q));
    Summary {
        n,
        p50: percentile(&sorted, 0.5),
        p90: percentile(&sorted, 0.9),
        p99: percentile(&sorted, 0.99),
        max: sorted[n - 1],
        supported_tail,
    }
}

/// Median with the midpoint rule (even counts average the middle two) —
/// the estimator for "median of repeated set-ups/opens/runs".
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `compare` judges spread the way the acceptance driver does. A single
/// value is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based axis, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: count samples at or below the candidate.
    fn oracle_percentile(sorted: &[f64], q: f64) -> f64 {
        *sorted
            .iter()
            .find(|&&v| {
                let at_or_below = sorted.iter().filter(|&&w| w <= v).count();
                at_or_below as f64 >= q * sorted.len() as f64
            })
            .unwrap()
    }

    #[test]
    fn percentile_matches_the_sorted_oracle() {
        // A fixed scramble of distinct values, several lengths.
        for n in [1usize, 2, 7, 10, 99, 100, 101, 1000, 3000] {
            let mut v: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64 + 0.25).collect();
            v.sort_by(f64::total_cmp);
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(percentile(&v, q), oracle_percentile(&v, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is the 90th: exactly ten lie beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(!supports(100, 0.99));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(0, 0.5));

        let s = summarize(&(0..3000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.supported_tail, Some(0.99));
        assert_eq!(
            (s.p50, s.p90, s.p99, s.max),
            (1499.0, 2699.0, 2969.0, 2999.0)
        );
        let s = summarize(&(0..150).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.supported_tail, Some(0.9));
        let s = summarize(&(0..50).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.supported_tail, None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
