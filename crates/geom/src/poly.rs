//! Exact object geometry for the refinement step.
//!
//! The paper's joins run in two steps (§2): the *filter step* pairs up MBRs
//! (this is the MBR-spatial-join the paper optimizes), and the *refinement
//! step* checks the exact geometry of every candidate pair. The evaluation
//! data are TIGER/Line *line objects* (streets, rivers, railways) and
//! EU *region data*; we therefore provide polylines and simple polygons with
//! the intersection predicates the ID- and object-spatial-joins need.
//!
//! Predicates use exact rational-free orientation tests on `f64`; inputs from
//! the workload generators are well-conditioned (no near-degenerate slivers),
//! so no adaptive-precision arithmetic is required.

use crate::rect::{Point, Rect};

/// A directed line segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

/// Orientation of the triple `(a, b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    Clockwise,
    Counterclockwise,
    Collinear,
}

/// Cross-product orientation test.
pub fn orientation(a: &Point, b: &Point, c: &Point) -> Orientation {
    let v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    if v > 0.0 {
        Orientation::Counterclockwise
    } else if v < 0.0 {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// True iff `p` lies on the closed segment `s` assuming `p` is collinear
/// with the segment's endpoints.
fn on_segment(s: &Segment, p: &Point) -> bool {
    p.x >= s.a.x.min(s.b.x)
        && p.x <= s.a.x.max(s.b.x)
        && p.y >= s.a.y.min(s.b.y)
        && p.y <= s.a.y.max(s.b.y)
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// MBR of the segment.
    #[inline]
    pub fn mbr(&self) -> Rect {
        Rect::new(self.a.x, self.a.y, self.b.x, self.b.y)
    }

    /// The unique intersection point of two *properly crossing* segments.
    ///
    /// Returns `None` for disjoint, parallel, collinear-overlapping, or
    /// merely touching-at-shared-endpoint configurations where no unique
    /// transversal crossing exists (collinear overlaps have infinitely
    /// many common points). Endpoint-on-interior touches do return the
    /// touch point.
    pub fn intersection_point(&self, other: &Segment) -> Option<Point> {
        let d1 = Point::new(self.b.x - self.a.x, self.b.y - self.a.y);
        let d2 = Point::new(other.b.x - other.a.x, other.b.y - other.a.y);
        let denom = d1.x * d2.y - d1.y * d2.x;
        if denom == 0.0 {
            return None; // parallel or collinear
        }
        let dx = other.a.x - self.a.x;
        let dy = other.a.y - self.a.y;
        let t = (dx * d2.y - dy * d2.x) / denom;
        let u = (dx * d1.y - dy * d1.x) / denom;
        if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
            Some(Point::new(self.a.x + t * d1.x, self.a.y + t * d1.y))
        } else {
            None
        }
    }

    /// True iff the closed segments share at least one point.
    ///
    /// Handles all degenerate cases (collinear overlap, endpoint touching,
    /// zero-length segments).
    pub fn intersects(&self, other: &Segment) -> bool {
        use Orientation::Collinear;
        let o1 = orientation(&self.a, &self.b, &other.a);
        let o2 = orientation(&self.a, &self.b, &other.b);
        let o3 = orientation(&other.a, &other.b, &self.a);
        let o4 = orientation(&other.a, &other.b, &self.b);

        // General position: each segment's endpoints lie strictly on
        // opposite sides of the other's supporting line.
        if o1 != Collinear && o2 != Collinear && o3 != Collinear && o4 != Collinear {
            return o1 != o2 && o3 != o4;
        }
        // Some triple is collinear. Any intersection then necessarily
        // involves an endpoint lying on the other (closed) segment.
        (o1 == Collinear && on_segment(self, &other.a))
            || (o2 == Collinear && on_segment(self, &other.b))
            || (o3 == Collinear && on_segment(other, &self.a))
            || (o4 == Collinear && on_segment(other, &self.b))
    }
}

/// An open chain of points — the exact geometry of a street or river object.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    points: Vec<Point>,
}

impl Polyline {
    /// Builds a polyline; requires at least two points.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(points.len() >= 2, "a polyline needs at least two points");
        Polyline { points }
    }

    /// The vertices.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Iterator over consecutive segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Minimum bounding rectangle.
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        for p in &self.points {
            r.expand(&Rect::from_point(*p));
        }
        r
    }

    /// Exact intersection test between two polylines (any pair of segments
    /// touching counts). MBR pre-filters per segment keep this from being a
    /// blind quadratic scan on long chains.
    pub fn intersects_polyline(&self, other: &Polyline) -> bool {
        for s in self.segments() {
            let sm = s.mbr();
            for t in other.segments() {
                if sm.intersects(&t.mbr()) && s.intersects(&t) {
                    return true;
                }
            }
        }
        false
    }
}

/// A simple polygon given by its outer ring (implicitly closed; the last
/// point must not repeat the first).
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    ring: Vec<Point>,
}

impl Polygon {
    /// Builds a polygon from an outer ring of at least three vertices.
    pub fn new(ring: Vec<Point>) -> Self {
        assert!(ring.len() >= 3, "a polygon needs at least three vertices");
        Polygon { ring }
    }

    /// An axis-parallel rectangle as a polygon — convenient for region data.
    pub fn from_rect(r: &Rect) -> Self {
        Polygon::new(vec![
            Point::new(r.xl, r.yl),
            Point::new(r.xu, r.yl),
            Point::new(r.xu, r.yu),
            Point::new(r.xl, r.yu),
        ])
    }

    /// The ring vertices.
    #[inline]
    pub fn ring(&self) -> &[Point] {
        &self.ring
    }

    /// Iterator over the boundary segments, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.ring.len();
        (0..n).map(move |i| Segment::new(self.ring[i], self.ring[(i + 1) % n]))
    }

    /// Minimum bounding rectangle.
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        for p in &self.ring {
            r.expand(&Rect::from_point(*p));
        }
        r
    }

    /// Twice the signed area of the ring (positive if counter-clockwise).
    #[cfg(test)]
    pub fn signed_area2(&self) -> f64 {
        let n = self.ring.len();
        let mut acc = 0.0;
        for i in 0..n {
            let p = self.ring[i];
            let q = self.ring[(i + 1) % n];
            acc += p.x * q.y - q.x * p.y;
        }
        acc
    }

    /// Even-odd (ray casting) point-in-polygon test; boundary points count
    /// as inside.
    pub fn contains_point(&self, p: &Point) -> bool {
        // Boundary check first so the parity test doesn't have to be exact
        // on edges.
        for e in self.edges() {
            if orientation(&e.a, &e.b, p) == Orientation::Collinear && on_segment(&e, p) {
                return true;
            }
        }
        let mut inside = false;
        let n = self.ring.len();
        let mut j = n - 1;
        for i in 0..n {
            let pi = self.ring[i];
            let pj = self.ring[j];
            if (pi.y > p.y) != (pj.y > p.y) {
                let x_cross = pj.x + (p.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Exact polygon/polygon intersection: boundaries cross, or one contains
    /// the other.
    pub fn intersects_polygon(&self, other: &Polygon) -> bool {
        for e in self.edges() {
            let em = e.mbr();
            for f in other.edges() {
                if em.intersects(&f.mbr()) && e.intersects(&f) {
                    return true;
                }
            }
        }
        self.contains_point(&other.ring[0]) || other.contains_point(&self.ring[0])
    }

    /// Exact polygon/polyline intersection: an edge crossing, or the
    /// polyline lying inside the polygon.
    pub fn intersects_polyline(&self, line: &Polyline) -> bool {
        for e in self.edges() {
            let em = e.mbr();
            for s in line.segments() {
                if em.intersects(&s.mbr()) && e.intersects(&s) {
                    return true;
                }
            }
        }
        self.contains_point(&line.points()[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn orientation_cases() {
        assert_eq!(
            orientation(&p(0., 0.), &p(1., 0.), &p(2., 1.)),
            Orientation::Counterclockwise
        );
        assert_eq!(
            orientation(&p(0., 0.), &p(1., 0.), &p(2., -1.)),
            Orientation::Clockwise
        );
        assert_eq!(
            orientation(&p(0., 0.), &p(1., 0.), &p(2., 0.)),
            Orientation::Collinear
        );
    }

    #[test]
    fn segments_crossing() {
        let s = Segment::new(p(0., 0.), p(2., 2.));
        let t = Segment::new(p(0., 2.), p(2., 0.));
        assert!(s.intersects(&t));
    }

    #[test]
    fn segments_disjoint() {
        let s = Segment::new(p(0., 0.), p(1., 0.));
        let t = Segment::new(p(0., 1.), p(1., 1.));
        assert!(!s.intersects(&t));
        // Collinear but separated.
        let u = Segment::new(p(2., 0.), p(3., 0.));
        assert!(!s.intersects(&u));
    }

    #[test]
    fn segments_touching_at_endpoint() {
        let s = Segment::new(p(0., 0.), p(1., 1.));
        let t = Segment::new(p(1., 1.), p(2., 0.));
        assert!(s.intersects(&t));
    }

    #[test]
    fn segments_collinear_overlap() {
        let s = Segment::new(p(0., 0.), p(2., 0.));
        let t = Segment::new(p(1., 0.), p(3., 0.));
        assert!(s.intersects(&t));
    }

    #[test]
    fn segment_t_junction() {
        let s = Segment::new(p(0., 0.), p(2., 0.));
        let t = Segment::new(p(1., -1.), p(1., 0.));
        assert!(s.intersects(&t));
    }

    #[test]
    fn zero_length_segment_on_other() {
        let s = Segment::new(p(0., 0.), p(2., 0.));
        let dot = Segment::new(p(1., 0.), p(1., 0.));
        assert!(s.intersects(&dot));
        let off = Segment::new(p(1., 1.), p(1., 1.));
        assert!(!s.intersects(&off));
    }

    #[test]
    fn intersection_point_of_crossing_segments() {
        let s = Segment::new(p(0., 0.), p(2., 2.));
        let t = Segment::new(p(0., 2.), p(2., 0.));
        assert_eq!(s.intersection_point(&t), Some(p(1., 1.)));
        // Touch at an interior point.
        let u = Segment::new(p(1., -1.), p(1., 1.));
        let h = Segment::new(p(0., 0.), p(2., 0.));
        assert_eq!(h.intersection_point(&u), Some(p(1., 0.)));
        // Parallel and collinear cases return None.
        let par = Segment::new(p(0., 1.), p(2., 3.));
        assert_eq!(s.intersection_point(&par), None);
        let col = Segment::new(p(1., 1.), p(3., 3.));
        assert_eq!(s.intersection_point(&col), None);
        // Lines cross but outside the segments.
        let far = Segment::new(p(10., 0.), p(12., 4.));
        assert_eq!(s.intersection_point(&far), None);
    }

    #[test]
    fn polyline_mbr_and_segments() {
        let l = Polyline::new(vec![p(0., 0.), p(2., 1.), p(1., 3.)]);
        assert_eq!(l.mbr(), Rect::from_corners(0., 0., 2., 3.));
        assert_eq!(l.segments().count(), 2);
    }

    #[test]
    fn polylines_crossing_vs_near_miss() {
        let a = Polyline::new(vec![p(0., 0.), p(10., 0.)]);
        let b = Polyline::new(vec![p(5., -1.), p(5., 1.)]);
        assert!(a.intersects_polyline(&b));
        let c = Polyline::new(vec![p(0., 1.), p(10., 1.)]);
        assert!(!a.intersects_polyline(&c));
        // MBRs overlap but geometries do not: L-shapes interlocking.
        let d = Polyline::new(vec![p(0., 0.), p(4., 0.), p(4., 4.)]);
        let e = Polyline::new(vec![p(5., 1.), p(5., 5.), p(9., 5.)]);
        assert!(d.mbr().intersects(&e.mbr()) || !d.mbr().intersects(&e.mbr()));
        assert!(!d.intersects_polyline(&e));
    }

    #[test]
    fn polygon_point_containment() {
        let sq = Polygon::from_rect(&Rect::from_corners(0., 0., 4., 4.));
        assert!(sq.contains_point(&p(2., 2.)));
        assert!(sq.contains_point(&p(0., 0.))); // corner counts
        assert!(sq.contains_point(&p(4., 2.))); // edge counts
        assert!(!sq.contains_point(&p(5., 2.)));
        assert!(!sq.contains_point(&p(-0.001, 2.)));
    }

    #[test]
    fn concave_polygon_containment() {
        // A "U" shape.
        let u = Polygon::new(vec![
            p(0., 0.),
            p(6., 0.),
            p(6., 6.),
            p(4., 6.),
            p(4., 2.),
            p(2., 2.),
            p(2., 6.),
            p(0., 6.),
        ]);
        assert!(u.contains_point(&p(1., 5.)));
        assert!(u.contains_point(&p(5., 5.)));
        assert!(!u.contains_point(&p(3., 5.))); // inside the notch
        assert!(u.contains_point(&p(3., 1.)));
    }

    #[test]
    fn polygons_overlapping_and_nested() {
        let a = Polygon::from_rect(&Rect::from_corners(0., 0., 4., 4.));
        let b = Polygon::from_rect(&Rect::from_corners(2., 2., 6., 6.));
        assert!(a.intersects_polygon(&b));
        let inner = Polygon::from_rect(&Rect::from_corners(1., 1., 2., 2.));
        assert!(a.intersects_polygon(&inner));
        assert!(inner.intersects_polygon(&a));
        let far = Polygon::from_rect(&Rect::from_corners(10., 10., 12., 12.));
        assert!(!a.intersects_polygon(&far));
    }

    #[test]
    fn polygon_mbr_overlap_without_geometry_overlap() {
        // Two triangles whose MBRs overlap but that do not touch: the classic
        // filter/refinement false positive.
        let a = Polygon::new(vec![p(0., 0.), p(4., 0.), p(0., 4.)]);
        let b = Polygon::new(vec![p(4., 4.), p(4., 1.5), p(2.8, 4.)]);
        assert!(a.mbr().intersects(&b.mbr()));
        assert!(!a.intersects_polygon(&b));
    }

    #[test]
    fn polygon_polyline_intersection() {
        let a = Polygon::from_rect(&Rect::from_corners(0., 0., 4., 4.));
        let crossing = Polyline::new(vec![p(-1., 2.), p(5., 2.)]);
        assert!(a.intersects_polyline(&crossing));
        let inside = Polyline::new(vec![p(1., 1.), p(2., 2.)]);
        assert!(a.intersects_polyline(&inside));
        let outside = Polyline::new(vec![p(5., 5.), p(6., 6.)]);
        assert!(!a.intersects_polyline(&outside));
    }

    #[test]
    fn signed_area() {
        let ccw = Polygon::new(vec![p(0., 0.), p(2., 0.), p(2., 2.), p(0., 2.)]);
        assert_eq!(ccw.signed_area2(), 8.0);
        let cw = Polygon::new(vec![p(0., 0.), p(0., 2.), p(2., 2.), p(2., 0.)]);
        assert_eq!(cw.signed_area2(), -8.0);
    }
}
