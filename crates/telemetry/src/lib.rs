//! # rsj-telemetry — dependency-free metrics for the join service
//!
//! A small, allocation-disciplined metrics layer in the spirit of the
//! paper's own accounting: everything the serving stack observes about
//! itself flows through four primitives, all lock-free on the record
//! path:
//!
//! * [`Counter`] — monotonic `AtomicU64` (`add`);
//! * [`Gauge`] — signed instantaneous level (`set`/`add`/`sub`);
//! * [`FloatGauge`] — an `f64` level for export-time ratios
//!   (bit-stored in an `AtomicU64`);
//! * [`Histogram`] — a **log-linear fixed-bucket** latency histogram:
//!   1920 pre-allocated atomic buckets, exact below 64 and 32
//!   sub-buckets per power of two above, so every quantile read from a
//!   snapshot is within a relative error of 1/32 of the true sorted
//!   order statistic. Recording is one `fetch_add` per sample — no
//!   per-sample allocation, no locks, no sorting.
//!
//! [`Registry`] groups these into **named metric families with
//! labels** (`store`, `shard`, `worker`, …), hands out `Arc` handles,
//! and renders a Prometheus-shaped [text exposition]. A
//! [`RegistrySnapshot`] is a point-in-time copy with
//! [`delta`](RegistrySnapshot::delta) semantics: counters and
//! histograms subtract, gauges keep their current level — so a bench
//! run or a serving window reports exactly what happened inside it.
//!
//! ## Compile-out recording
//!
//! Hot paths take a [`Recorder`] type parameter, mirroring
//! `rsj_geom`'s `Meter`/`NoOp` pattern: [`Live`] records through the
//! handles, the zero-sized [`Disabled`] compiles every call site (and,
//! via [`Recorder::ENABLED`], the surrounding timestamping) down to
//! nothing. The repo benchmark measures the instrumented served join
//! against the uninstrumented path (`telemetry.overhead_frac`), so
//! "effectively free" is a measured property, not a promise.
//!
//! [text exposition]: RegistrySnapshot::render_text

mod histogram;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot, Quantiles, NUM_BUCKETS};
pub use registry::{
    FamilySnapshot, MetricKind, Registry, RegistrySnapshot, SampleValue, SeriesSnapshot,
};

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count. All operations are
/// `Relaxed` atomics: totals are exact, ordering between distinct
/// counters is not promised (and never needed for metrics).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, in-flight requests).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, d: i64) {
        self.value.fetch_sub(d, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An `f64` level for export-time derived values (hit ratios). Stored
/// as raw bits in an `AtomicU64`; not meant for hot-path arithmetic.
#[derive(Debug, Default)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl FloatGauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Compile-time switch for hot-path recording, the `Meter`/`NoOp`
/// pattern: components generic over `R: Recorder` call the static
/// methods below and guard any timestamping behind
/// [`Recorder::ENABLED`]. [`Live`] records; the zero-sized
/// [`Disabled`] makes every call site vanish.
pub trait Recorder: Copy + Default + Send + Sync + 'static {
    /// `false` for [`Disabled`]: instrumented code skips clock reads
    /// and other record-only work entirely.
    const ENABLED: bool;

    fn add(counter: &Counter, n: u64);
    fn observe(hist: &Histogram, value: u64);
    fn gauge_add(gauge: &Gauge, delta: i64);
}

/// Recording switched on: every call lands in the metric.
#[derive(Clone, Copy, Debug, Default)]
pub struct Live;

impl Recorder for Live {
    const ENABLED: bool = true;

    #[inline]
    fn add(counter: &Counter, n: u64) {
        counter.add(n);
    }

    #[inline]
    fn observe(hist: &Histogram, value: u64) {
        hist.record(value);
    }

    #[inline]
    fn gauge_add(gauge: &Gauge, delta: i64) {
        gauge.add(delta);
    }
}

/// Recording switched off: zero-sized, every call compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Disabled;

impl Recorder for Disabled {
    const ENABLED: bool = false;

    #[inline]
    fn add(_: &Counter, _: u64) {}

    #[inline]
    fn observe(_: &Histogram, _: u64) {}

    #[inline]
    fn gauge_add(_: &Gauge, _: i64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.add(3);
        g.sub(5);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);

        let f = FloatGauge::new();
        f.set(0.25);
        assert_eq!(f.get(), 0.25);
    }

    #[test]
    fn recorder_switch() {
        let c = Counter::new();
        let h = Histogram::new();
        Live::add(&c, 2);
        Live::observe(&h, 10);
        Disabled::add(&c, 100);
        Disabled::observe(&h, 100);
        assert_eq!(c.get(), 2);
        assert_eq!(h.snapshot().count(), 1);
        const { assert!(Live::ENABLED) };
        const { assert!(!Disabled::ENABLED) };
    }
}
