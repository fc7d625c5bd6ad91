//! Floating-point comparison accounting.
//!
//! The paper measures CPU cost in the *number of floating-point comparisons*
//! executed while checking join conditions (§4): "a good measure for
//! performance consists of both, the number of disk accesses and the number
//! of comparisons". All counted geometric predicates and the plane-sweep
//! join kernel thread a meter through explicitly — no globals, no
//! thread-locals — so a caller can attribute comparisons to exactly the
//! operation (join phase, sort phase, window query, ...) it is measuring.
//!
//! Metering is a zero-cost abstraction over the [`Meter`] trait:
//!
//! * [`CmpCounter`] — the counting meter; reproduces the paper's accounting
//!   exactly (Tables 2–4).
//! * [`NoOp`] — a zero-sized meter whose charges compile away entirely; the
//!   production-fast "raw" execution mode, identical results with no
//!   accounting overhead.
//!
//! **Two ways to charge.** [`Meter::lt`]/[`Meter::le`]/[`Meter::bump`]
//! charge one comparison where it is evaluated; a predicate written with
//! them and `&&`/early returns *is* the paper's accounting, and the literal
//! kernels that define every count ([`crate::Rect::intersects_counted`],
//! `rsj_core::sweep::sorted_intersection_test`) are written that way. The
//! join's hot path charges with [`Meter::add`] instead: what a short-circuit
//! evaluation costs is a function of its outcomes, so a kernel may perform
//! all of a predicate's comparisons unconditionally, without a branch, and
//! add the number the short-circuit order would have evaluated — `1 + [a]`
//! for `a && b`, `1 + [c1] + [c1·c2] + [c1·c2·c3]` for the four-test
//! rectangle intersection, `len − 1` for a stable sort that finds its
//! input in order. An arithmetic charge must equal, input for input, the
//! tally of the literal evaluation it stands for; `rsj-core`'s
//! `tests/prop_kernels.rs` checks exactly that.

/// Charges floating-point comparisons to some accounting sink.
///
/// Every hot-path predicate (`intersects_counted`, the sweep kernel, the
/// window queries) is generic over a `Meter`, so one code path serves both
/// the reproduction-faithful *counted* mode ([`CmpCounter`]) and the
/// production *raw* mode ([`NoOp`], where every charge is a no-op the
/// optimizer deletes). Implementations must not change the *outcome* of
/// [`Meter::lt`]/[`Meter::le`] — only whether the comparison is tallied.
///
/// A meter is `Send + 'static` so a kernel can run on another thread with
/// its own meter and hand the tally back (the join's leaf-pair helpers).
pub trait Meter: Default + Send + 'static {
    /// `true` iff this meter actually tallies comparisons. Lets generic
    /// code skip work that exists only to be counted.
    const COUNTING: bool;

    /// Charge a single comparison.
    fn bump(&mut self);

    /// Charge `n` comparisons at once: the hot-path charge of a kernel
    /// that compares unconditionally and adds what the short-circuit
    /// evaluation would have cost (see the module docs).
    fn add(&mut self, n: u64);

    /// Current tally (always 0 for non-counting meters).
    fn get(&self) -> u64;

    /// Charged `a < b` on floats — one comparison.
    #[inline]
    fn lt(&mut self, a: f64, b: f64) -> bool {
        self.bump();
        a < b
    }

    /// Charged `a <= b` on floats — one comparison.
    #[inline]
    fn le(&mut self, a: f64, b: f64) -> bool {
        self.bump();
        a <= b
    }
}

/// The non-counting meter: a zero-sized type whose charges compile away,
/// turning every counted predicate into its plain uncounted twin.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoOp;

impl Meter for NoOp {
    const COUNTING: bool = false;

    #[inline(always)]
    fn bump(&mut self) {}

    #[inline(always)]
    fn add(&mut self, _n: u64) {}

    #[inline(always)]
    fn get(&self) -> u64 {
        0
    }
}

impl Meter for CmpCounter {
    const COUNTING: bool = true;

    #[inline]
    fn bump(&mut self) {
        CmpCounter::bump(self)
    }

    #[inline]
    fn add(&mut self, n: u64) {
        CmpCounter::add(self, n)
    }

    #[inline]
    fn get(&self) -> u64 {
        CmpCounter::get(self)
    }
}

/// A monotone counter of floating-point comparisons.
///
/// Cheap to create and pass as `&mut`; intentionally not `Copy` so a counter
/// cannot be duplicated by accident (which would silently fork the tally).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CmpCounter {
    count: u64,
}

impl CmpCounter {
    /// A fresh counter at zero.
    #[inline]
    pub const fn new() -> Self {
        CmpCounter { count: 0 }
    }

    /// Charge a single comparison.
    #[inline]
    pub fn bump(&mut self) {
        self.count += 1;
    }

    /// Charge `n` comparisons at once (e.g. a sort pass reporting its total).
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Current tally.
    #[inline]
    pub fn get(&self) -> u64 {
        self.count
    }

    /// Reset to zero, returning the previous tally.
    #[inline]
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.count)
    }

    /// Counted `a < b` on floats — one comparison.
    #[inline]
    pub fn lt(&mut self, a: f64, b: f64) -> bool {
        self.count += 1;
        a < b
    }

    /// Counted `a <= b` on floats — one comparison.
    #[inline]
    pub fn le(&mut self, a: f64, b: f64) -> bool {
        self.count += 1;
        a <= b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_bumps() {
        let mut c = CmpCounter::new();
        assert_eq!(c.get(), 0);
        c.bump();
        c.bump();
        assert_eq!(c.get(), 2);
        c.add(40);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn take_resets() {
        let mut c = CmpCounter::new();
        c.add(7);
        assert_eq!(c.take(), 7);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counted_comparators_count_once_each() {
        let mut c = CmpCounter::new();
        assert!(c.lt(1.0, 2.0));
        assert!(!c.lt(2.0, 1.0));
        assert!(c.le(2.0, 2.0));
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn noop_meter_answers_without_tallying() {
        let mut m = NoOp;
        assert!(Meter::lt(&mut m, 1.0, 2.0));
        assert!(!Meter::lt(&mut m, 2.0, 1.0));
        assert!(Meter::le(&mut m, 2.0, 2.0));
        m.bump();
        m.add(10);
        assert_eq!(Meter::get(&m), 0);
        const { assert!(!NoOp::COUNTING) };
        const { assert!(CmpCounter::COUNTING) };
    }

    #[test]
    fn counting_meter_matches_inherent_counter() {
        fn drive<M: Meter>(m: &mut M) -> (bool, bool) {
            (m.lt(1.0, 2.0), m.le(3.0, 2.0))
        }
        let mut c = CmpCounter::new();
        assert_eq!(drive(&mut c), (true, false));
        assert_eq!(Meter::get(&c), 2);
        assert_eq!(drive(&mut NoOp), (true, false));
    }
}
