//! Log-linear fixed-bucket histogram.
//!
//! The bucket layout trades a fixed 15 KiB of pre-allocated atomics
//! for a hard quantile-accuracy guarantee with O(1) lock-free
//! recording:
//!
//! * values `0..64` get one bucket each (exact);
//! * every power-of-two octave `[2^e, 2^(e+1))` for `e ≥ 6` is split
//!   into 32 equal sub-buckets of width `2^(e-5)`.
//!
//! A bucket's width is at most `lo/32`, so any quantile answered from
//! a snapshot (we report the bucket's upper bound, capped at the true
//! observed max) sits in `[x, x + x/32]` of the true sorted-vector
//! order statistic `x` — a ≤ 3.125 % relative error, verified against
//! a sorted oracle under proptest in `tests/histogram.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave = `2^SUB_BITS`.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS; // 32
/// Values below this are bucketed exactly (one bucket per value).
const LINEAR_MAX: u64 = 1 << (SUB_BITS + 1); // 64

/// Total bucket count: 64 exact + 58 octaves (e = 6..=63) × 32.
pub const NUM_BUCKETS: usize = (LINEAR_MAX + (63 - SUB_BITS as u64 - 1 + 1) * SUB) as usize;

/// Bucket index for a value. Exact below [`LINEAR_MAX`]; log-linear
/// above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // ≥ 6
        let octave = (msb - (SUB_BITS + 1)) as u64;
        let sub = (v >> (msb - SUB_BITS)) - SUB;
        (LINEAR_MAX + octave * SUB + sub) as usize
    }
}

/// Lowest value landing in bucket `idx`.
fn bucket_lo(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_MAX {
        idx
    } else {
        let octave = (idx - LINEAR_MAX) / SUB;
        let sub = (idx - LINEAR_MAX) % SUB;
        let msb = octave as u32 + SUB_BITS + 1;
        (1u64 << msb) + sub * (1u64 << (msb - SUB_BITS))
    }
}

/// Highest value landing in bucket `idx` (inclusive).
fn bucket_hi(idx: usize) -> u64 {
    if (idx as u64) < LINEAR_MAX {
        idx as u64
    } else {
        let octave = (idx as u64 - LINEAR_MAX) / SUB;
        let width = 1u64 << (octave as u32 + 1);
        bucket_lo(idx) + (width - 1)
    }
}

/// A concurrent latency histogram. [`record`](Self::record) is one
/// relaxed `fetch_add` on a pre-allocated bucket plus a running
/// sum/max — no locks, no allocation, any number of threads.
///
/// Values are unit-agnostic `u64`s; the serving stack records
/// microseconds (`_us` metric names say so).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum", &s.sum())
            .field("max", &s.max())
            .finish()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free; exact totals under any
    /// interleaving.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of all buckets. Concurrent `record`s land in
    /// either this snapshot or the next — never lost, never doubled.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Headline quantiles of a [`HistogramSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quantiles {
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
    pub count: u64,
}

/// An immutable copy of a histogram's buckets with quantile and
/// [`delta`](Self::delta) arithmetic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (zero observations).
    pub fn empty() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Total observation count (exact: the sum of all buckets).
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value (exact, not bucket-rounded).
    ///
    /// Note `max` is a high-watermark: [`delta`](Self::delta) keeps
    /// the later snapshot's max rather than inventing an interval max
    /// the buckets cannot reconstruct.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observed value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by the nearest-rank rule over
    /// the bucketed distribution: the rank is `ceil(q · (n-1))`, and
    /// the answer is that rank's bucket upper bound, capped at the
    /// observed max. Guaranteed within `[x, x + x/32]` of the true
    /// sorted order statistic `x` at the same rank.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).ceil() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_hi(idx).min(self.max);
            }
        }
        self.max
    }

    /// p50/p90/p99/max in one call.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max,
            count: self.count(),
        }
    }

    /// Observations recorded since `earlier` (elementwise bucket
    /// subtraction; `sum` subtracts, `max` stays this snapshot's
    /// high-watermark). Deterministic: `a.delta(&b).delta(&empty) ==
    /// a.delta(&b)` and `a.delta(&a)` has count 0.
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            counts: self
                .counts
                .iter()
                .zip(earlier.counts.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Non-empty buckets as `(lo, hi_inclusive, count)` — the text
    /// exposition and tests read these.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_lo(idx), bucket_hi(idx), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_exhaustive() {
        assert_eq!(NUM_BUCKETS, 1920);
        // Every bucket's hi + 1 is the next bucket's lo.
        for idx in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_hi(idx).wrapping_add(1),
                bucket_lo(idx + 1),
                "gap between buckets {idx} and {}",
                idx + 1
            );
        }
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn index_respects_bounds() {
        for v in [0, 1, 63, 64, 65, 127, 128, 1000, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            assert!(
                bucket_lo(idx) <= v && v <= bucket_hi(idx),
                "v={v} idx={idx}"
            );
        }
    }

    #[test]
    fn width_bound_holds() {
        // Bucket width ≤ lo/32 for every non-exact bucket.
        for idx in LINEAR_MAX as usize..NUM_BUCKETS {
            let (lo, hi) = (bucket_lo(idx), bucket_hi(idx));
            assert!(hi - lo <= lo / 32, "idx={idx} lo={lo} hi={hi}");
        }
    }
}
