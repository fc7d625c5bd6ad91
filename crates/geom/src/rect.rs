//! Points and axis-parallel rectangles.
//!
//! The paper's objects are approximated by *minimum bounding rectilinear
//! rectangles* (MBRs). A rectangle is stored as its lower-left corner
//! `(xl, yl)` and upper-right corner `(xu, yu)` — the same notation the
//! paper uses in the `SortedIntersectionTest` pseudo-code (§4.2).

use crate::counter::Meter;

/// A point in the two-dimensional data space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Used by the R\*-tree's forced-reinsertion step, which sorts entries by
    /// the distance of their rectangle centre from the node centre; the
    /// squared distance preserves that order and avoids the square root.
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// An axis-parallel rectangle given by lower-left and upper-right corners.
///
/// Invariant: `xl <= xu && yl <= yu` for every rectangle produced by this
/// crate's constructors ([`Rect::new`] enforces it by swapping, and
/// [`Rect::from_corners`] asserts it in debug builds). Degenerate rectangles
/// (zero width and/or height) are valid — line-segment MBRs are frequently
/// degenerate in one axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub xl: f64,
    pub yl: f64,
    pub xu: f64,
    pub yu: f64,
}

impl Rect {
    /// Creates the rectangle spanned by two arbitrary corner points,
    /// normalizing the corner order.
    #[inline]
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect {
            xl: x0.min(x1),
            yl: y0.min(y1),
            xu: x0.max(x1),
            yu: y0.max(y1),
        }
    }

    /// Creates a rectangle from already-ordered corners.
    ///
    /// Debug-asserts the ordering invariant; use [`Rect::new`] when the
    /// ordering of the inputs is unknown.
    #[inline]
    pub fn from_corners(xl: f64, yl: f64, xu: f64, yu: f64) -> Self {
        debug_assert!(xl <= xu && yl <= yu, "malformed rect [{xl},{yl},{xu},{yu}]");
        Rect { xl, yl, xu, yu }
    }

    /// The MBR of a single point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect {
            xl: p.x,
            yl: p.y,
            xu: p.x,
            yu: p.y,
        }
    }

    /// An "empty" rectangle that is the identity of [`Rect::union`]:
    /// unioning anything with it yields the other operand.
    #[inline]
    pub const fn empty() -> Self {
        Rect {
            xl: f64::INFINITY,
            yl: f64::INFINITY,
            xu: f64::NEG_INFINITY,
            yu: f64::NEG_INFINITY,
        }
    }

    /// True for the [`Rect::empty`] identity (and anything else inverted).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xl > self.xu || self.yl > self.yu
    }

    /// True iff every coordinate is finite and the corners are ordered
    /// (`xl <= xu`, `yl <= yu`): what a stored data rectangle must be.
    /// A NaN fails every comparison. The `&`s keep it branch-free: the
    /// validator runs it on every leaf entry of every tree it opens.
    #[inline]
    pub fn is_well_formed(&self) -> bool {
        let axis = |l: f64, u: f64| (f64::NEG_INFINITY < l) & (l <= u) & (u < f64::INFINITY);
        axis(self.xl, self.xu) & axis(self.yl, self.yu)
    }

    /// Width of the rectangle (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.xu - self.xl
    }

    /// Height of the rectangle (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.yu - self.yl
    }

    /// Area. Degenerate rectangles have zero area.
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Margin (half-perimeter: width + height).
    ///
    /// The R\*-tree's split algorithm chooses the split axis by minimizing the
    /// sum of margins over all candidate distributions (§3.2).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.xl + self.xu) * 0.5, (self.yl + self.yu) * 0.5)
    }

    /// Uncounted intersection test. `true` iff the closed rectangles share at
    /// least one point (touching boundaries count, as in the paper where the
    /// join condition is `a ∩ b ≠ ∅` on closed regions).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.xl <= other.xu && other.xl <= self.xu && self.yl <= other.yu && other.yl <= self.yu
    }

    /// Counted intersection test — the paper's CPU cost unit.
    ///
    /// Performs at most four floating-point comparisons and short-circuits on
    /// the first failing one, so *exactly four* comparisons are charged when
    /// the rectangles intersect and one to three when they do not. This is
    /// precisely the accounting described in §4: "for a pair of rectilinear
    /// rectangles four comparisons are exactly required to determine that the
    /// join condition is fulfilled". With a [`crate::NoOp`] meter this
    /// compiles down to the plain [`Rect::intersects`].
    #[inline]
    pub fn intersects_counted<M: Meter>(&self, other: &Rect, cmp: &mut M) -> bool {
        cmp.bump();
        if self.xl > other.xu {
            return false;
        }
        cmp.bump();
        if other.xl > self.xu {
            return false;
        }
        cmp.bump();
        if self.yl > other.yu {
            return false;
        }
        cmp.bump();
        other.yl <= self.yu
    }

    /// Intersection rectangle, or `None` if disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let xl = self.xl.max(other.xl);
        let yl = self.yl.max(other.yl);
        let xu = self.xu.min(other.xu);
        let yu = self.yu.min(other.yu);
        if xl <= xu && yl <= yu {
            Some(Rect { xl, yl, xu, yu })
        } else {
            None
        }
    }

    /// Area of the intersection, zero if disjoint.
    ///
    /// The R\*-tree split and choose-subtree steps minimize *overlap*, which
    /// is exactly this quantity summed over siblings.
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = self.xu.min(other.xu) - self.xl.max(other.xl);
        if w <= 0.0 {
            return 0.0;
        }
        let h = self.yu.min(other.yu) - self.yl.max(other.yl);
        if h <= 0.0 {
            return 0.0;
        }
        w * h
    }

    /// Minimum bounding rectangle of `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            xl: self.xl.min(other.xl),
            yl: self.yl.min(other.yl),
            xu: self.xu.max(other.xu),
            yu: self.yu.max(other.yu),
        }
    }

    /// Grows `self` in place to cover `other`.
    #[inline]
    pub fn expand(&mut self, other: &Rect) {
        self.xl = self.xl.min(other.xl);
        self.yl = self.yl.min(other.yl);
        self.xu = self.xu.max(other.xu);
        self.yu = self.yu.max(other.yu);
    }

    /// Area increase of `self` if it were enlarged to cover `other`.
    ///
    /// Guttman's original R-tree chooses the subtree with minimum area
    /// enlargement; the R\*-tree still uses this criterion for directory
    /// levels above the leaves.
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// True iff `other` lies completely inside `self` (boundaries included).
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        self.xl <= other.xl && self.yl <= other.yl && self.xu >= other.xu && self.yu >= other.yu
    }

    /// Counted containment test: ≤ 4 comparisons with short-circuit,
    /// exactly 4 when `other` is inside. The cost unit for containment
    /// joins (§2.1 mentions containment as an alternative join operator).
    #[inline]
    pub fn contains_counted<M: Meter>(&self, other: &Rect, cmp: &mut M) -> bool {
        cmp.bump();
        if self.xl > other.xl {
            return false;
        }
        cmp.bump();
        if self.yl > other.yl {
            return false;
        }
        cmp.bump();
        if self.xu < other.xu {
            return false;
        }
        cmp.bump();
        self.yu >= other.yu
    }

    /// The rectangle grown by `margin` on every side. A negative margin
    /// shrinks (and may produce an empty rectangle).
    #[inline]
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect {
            xl: self.xl - margin,
            yl: self.yl - margin,
            xu: self.xu + margin,
            yu: self.yu + margin,
        }
    }

    /// Chebyshev (L∞) distance between the two closed rectangles: zero if
    /// they intersect, otherwise the largest per-axis gap.
    #[inline]
    pub fn linf_distance(&self, other: &Rect) -> f64 {
        let gx = (self.xl - other.xu).max(other.xl - self.xu).max(0.0);
        let gy = (self.yl - other.yu).max(other.yl - self.yu).max(0.0);
        gx.max(gy)
    }

    /// True iff the point lies inside `self` (boundaries included).
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.xl <= p.x && p.x <= self.xu && self.yl <= p.y && p.y <= self.yu
    }

    /// The MBR of a non-empty slice of rectangles.
    ///
    /// Returns [`Rect::empty`] for an empty slice so callers can fold freely.
    pub fn mbr_of(rects: &[Rect]) -> Rect {
        let mut out = Rect::empty();
        for r in rects {
            out.expand(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CmpCounter, NoOp};

    fn r(xl: f64, yl: f64, xu: f64, yu: f64) -> Rect {
        Rect::from_corners(xl, yl, xu, yu)
    }

    #[test]
    fn new_normalizes_corners() {
        let a = Rect::new(3.0, 4.0, 1.0, 2.0);
        assert_eq!(a, r(1.0, 2.0, 3.0, 4.0));
    }

    #[test]
    fn area_margin_center() {
        let a = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.area(), 8.0);
        assert_eq!(a.margin(), 6.0);
        assert_eq!(a.center(), Point::new(2.0, 1.0));
    }

    #[test]
    fn degenerate_rect_is_valid() {
        let seg = r(1.0, 1.0, 5.0, 1.0); // horizontal segment MBR
        assert_eq!(seg.area(), 0.0);
        assert_eq!(seg.margin(), 4.0);
        assert!(seg.intersects(&r(2.0, 0.0, 3.0, 2.0)));
        assert!(seg.intersects(&r(5.0, 1.0, 6.0, 2.0))); // corner touch
    }

    #[test]
    fn well_formed_means_finite_and_ordered() {
        assert!(r(1.0, 1.0, 5.0, 1.0).is_well_formed(), "degenerate is fine");
        for [xl, yl, xu, yu] in [
            [f64::NAN, 0.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, f64::INFINITY],
            [f64::NEG_INFINITY, 0.0, 1.0, 1.0],
            [2.0, 0.0, 1.0, 1.0],
            [0.0, 2.0, 1.0, 1.0],
        ] {
            assert!(
                !Rect { xl, yl, xu, yu }.is_well_formed(),
                "{xl} {yl} {xu} {yu}"
            );
        }
        assert!(!Rect::empty().is_well_formed());
    }

    #[test]
    fn empty_is_union_identity() {
        let e = Rect::empty();
        assert!(e.is_empty());
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(e.union(&a), a);
        assert_eq!(a.union(&e), a);
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.margin(), 0.0);
    }

    #[test]
    fn intersection_basic() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.overlap_area(&b), 1.0);
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection(&c), None);
        assert_eq!(a.overlap_area(&c), 0.0);
    }

    #[test]
    fn touching_rects_intersect_with_zero_overlap_area() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r(1.0, 0.0, 1.0, 1.0)));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn counted_intersection_charges_exactly_four_on_hit() {
        let mut cmp = CmpCounter::new();
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects_counted(&b, &mut cmp));
        assert_eq!(cmp.get(), 4);
    }

    #[test]
    fn counted_intersection_short_circuits_on_miss() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        // `other` to the right of `self`: second comparison fails.
        let mut cmp = CmpCounter::new();
        assert!(!a.intersects_counted(&r(5.0, 0.0, 6.0, 1.0), &mut cmp));
        assert_eq!(cmp.get(), 2);
        // `other` to the left of `self`: first comparison fails.
        let mut cmp = CmpCounter::new();
        assert!(!r(5.0, 0.0, 6.0, 1.0).intersects_counted(&a, &mut cmp));
        assert_eq!(cmp.get(), 1);
        // Overlapping in x, disjoint in y: third or fourth fails.
        let mut cmp = CmpCounter::new();
        assert!(!a.intersects_counted(&r(0.0, 5.0, 1.0, 6.0), &mut cmp));
        assert_eq!(cmp.get(), 4);
        let mut cmp = CmpCounter::new();
        assert!(!r(0.0, 5.0, 1.0, 6.0).intersects_counted(&a, &mut cmp));
        assert_eq!(cmp.get(), 3);
    }

    #[test]
    fn noop_meter_agrees_with_uncounted_predicates() {
        let cases = [
            (r(0.0, 0.0, 2.0, 2.0), r(1.0, 1.0, 3.0, 3.0)),
            (r(0.0, 0.0, 1.0, 1.0), r(5.0, 0.0, 6.0, 1.0)),
            (r(0.0, 0.0, 10.0, 10.0), r(1.0, 1.0, 2.0, 2.0)),
            (r(1.0, 1.0, 2.0, 2.0), r(0.0, 0.0, 10.0, 10.0)),
        ];
        for (a, b) in cases {
            assert_eq!(a.intersects_counted(&b, &mut NoOp), a.intersects(&b));
            assert_eq!(a.contains_counted(&b, &mut NoOp), a.contains(&b));
        }
    }

    #[test]
    fn enlargement_and_union() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 0.0, 3.0, 1.0);
        assert_eq!(a.union(&b), r(0.0, 0.0, 3.0, 1.0));
        assert_eq!(a.enlargement(&b), 2.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn containment() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        assert!(a.contains(&r(1.0, 1.0, 2.0, 2.0)));
        assert!(a.contains(&a));
        assert!(!a.contains(&r(5.0, 5.0, 11.0, 6.0)));
        assert!(a.contains_point(&Point::new(0.0, 10.0)));
        assert!(!a.contains_point(&Point::new(-0.1, 5.0)));
    }

    #[test]
    fn mbr_of_slice() {
        let rs = [r(0.0, 0.0, 1.0, 1.0), r(4.0, -2.0, 5.0, 0.5)];
        assert_eq!(Rect::mbr_of(&rs), r(0.0, -2.0, 5.0, 1.0));
        assert!(Rect::mbr_of(&[]).is_empty());
    }

    #[test]
    fn expand_matches_union() {
        let mut a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(-1.0, 2.0, 0.5, 3.0);
        let u = a.union(&b);
        a.expand(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn point_distance() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(3.0, 4.0);
        assert_eq!(p.dist2(&q), 25.0);
    }

    #[test]
    fn contains_counted_costs() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(1.0, 1.0, 2.0, 2.0);
        let mut cmp = CmpCounter::new();
        assert!(a.contains_counted(&inner, &mut cmp));
        assert_eq!(cmp.get(), 4);
        let mut cmp = CmpCounter::new();
        assert!(!a.contains_counted(&r(-1.0, 0.0, 5.0, 5.0), &mut cmp));
        assert_eq!(cmp.get(), 1);
        let mut cmp = CmpCounter::new();
        assert!(!inner.contains_counted(&a, &mut cmp));
        assert!(cmp.get() <= 4);
    }

    #[test]
    fn expansion() {
        let a = r(1.0, 1.0, 2.0, 2.0);
        assert_eq!(a.expanded(0.5), r(0.5, 0.5, 2.5, 2.5));
        assert_eq!(a.expanded(0.0), a);
        assert!(a.expanded(-1.0).is_empty());
    }

    #[test]
    fn rect_distances() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(4.0, 5.0, 6.0, 7.0); // gaps: x 3, y 4
        assert_eq!(a.linf_distance(&b), 4.0);
        assert_eq!(a.linf_distance(&a), 0.0);
        let touch = r(1.0, 0.0, 2.0, 1.0);
        assert_eq!(a.linf_distance(&touch), 0.0);
        // Distance <= eps iff expanded intersects (the filter identity).
        assert!(a.expanded(4.0).intersects(&b));
        assert!(!a.expanded(3.9).intersects(&b));
    }
}
