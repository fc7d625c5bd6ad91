//! Exact object geometry: the union type over line and region objects.
//!
//! The paper's relations hold either TIGER-style *line objects* (streets,
//! rivers, railways) or *region data* (§5, Table 8). [`Geometry`] is the
//! payload of an object relation's pages, tested by the refinement step
//! of the ID-/object-spatial-joins (§2.1).

use crate::poly::{Polygon, Polyline};
use crate::rect::Rect;

/// Exact geometry of a spatial object.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// An open polyline (TIGER-style line object).
    Line(Polyline),
    /// A simple polygon (region object).
    Region(Polygon),
}

impl Geometry {
    /// MBR of the exact geometry.
    pub fn mbr(&self) -> Rect {
        match self {
            Geometry::Line(l) => l.mbr(),
            Geometry::Region(p) => p.mbr(),
        }
    }

    /// Exact intersection test between two geometries — the predicate of
    /// the refinement step.
    pub fn intersects(&self, other: &Geometry) -> bool {
        match (self, other) {
            (Geometry::Line(a), Geometry::Line(b)) => a.intersects_polyline(b),
            (Geometry::Region(a), Geometry::Region(b)) => a.intersects_polygon(b),
            (Geometry::Region(a), Geometry::Line(b)) => a.intersects_polyline(b),
            (Geometry::Line(a), Geometry::Region(b)) => b.intersects_polyline(a),
        }
    }

    /// Approximate on-disk footprint in bytes (for object-page packing):
    /// 16 bytes per vertex plus a small header.
    pub fn approx_bytes(&self) -> usize {
        let vertices = match self {
            Geometry::Line(l) => l.points().len(),
            Geometry::Region(p) => p.ring().len(),
        };
        16 * vertices + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Point;

    #[test]
    fn cross_type_intersections_are_symmetric() {
        let square = Geometry::Region(Polygon::from_rect(&Rect::from_corners(0., 0., 10., 10.)));
        let crossing = Geometry::Line(Polyline::new(vec![
            Point::new(-5., 5.),
            Point::new(15., 5.),
        ]));
        let outside = Geometry::Line(Polyline::new(vec![
            Point::new(20., 20.),
            Point::new(30., 30.),
        ]));
        assert!(square.intersects(&crossing));
        assert!(crossing.intersects(&square));
        assert!(!square.intersects(&outside));
        assert!(!outside.intersects(&square));
    }

    #[test]
    fn mbr_matches_inner_geometry() {
        let line = Polyline::new(vec![Point::new(0., 0.), Point::new(3., 4.)]);
        assert_eq!(Geometry::Line(line.clone()).mbr(), line.mbr());
    }

    #[test]
    fn footprint_grows_with_vertices() {
        let short = Geometry::Line(Polyline::new(vec![Point::new(0., 0.), Point::new(1., 1.)]));
        let long = Geometry::Line(Polyline::new(
            (0..10).map(|i| Point::new(i as f64, 0.)).collect(),
        ));
        assert!(long.approx_bytes() > short.approx_bytes());
    }
}
