//! The refinement step: ID- and object-spatial-joins (§2.1).
//!
//! "The MBR-spatial-join can be used for implementing the filter step of
//! the ID- and object-spatial-join." This module completes the pipeline:
//! the MBR join produces candidate pairs; the refinement step fetches the
//! exact geometry of each candidate and keeps the pairs whose geometries
//! really intersect.
//!
//! The step is an accounting model, not a page file. An
//! [`ObjectRelation`] keeps its geometries in memory and packs them into
//! pages first-fit in build order; generation order is spatially
//! correlated, so the pages are clustered the way a loaded GIS database
//! would be. Each candidate charges its two object pages to their own
//! [`BufferPool`] (the object pages compete for buffer like tree pages
//! would in a real system); candidates are processed in R-record page
//! order to give the buffer locality to work with.
//!
//! The *object*-spatial-join of the paper additionally outputs the
//! geometric intersection `a ∩ b` itself; computing that overlay is the
//! subject of the authors' map-overlay paper (their reference \[13\]) and is
//! out of scope here — [`object_join`] returns the intersecting pairs with
//! their full geometries instead, which is the input an overlay stage would
//! consume.

use crate::join::JoinResult;
use crate::plan::{JoinConfig, JoinPlan};
use crate::spatial_join;
use rsj_geom::Geometry;
use rsj_rtree::{DataId, RTree};
use rsj_storage::{BufferPool, IoStats, PageId};
use std::collections::HashMap;

/// Where a record sits: its page, and its index in build order.
type Slot = (PageId, usize);

/// A spatial relation's exact geometry, packed into pages and addressable
/// by id.
#[derive(Debug, Clone)]
pub struct ObjectRelation {
    /// Geometries in build order, which is page order.
    objects: Vec<Geometry>,
    /// id → (page, index into `objects`). Ids need not be dense.
    loc: HashMap<u64, Slot>,
    /// Pages the records fill.
    pages: usize,
}

impl ObjectRelation {
    /// Packs `(id, geometry)` pairs into pages of `page_bytes` bytes in
    /// the given order, sizing each record by [`Geometry::approx_bytes`]:
    /// a record that does not fit the current page opens the next one,
    /// and an oversized record gets a page of its own (spanning is not
    /// modelled — the paper's data objects are polyline fragments well
    /// below page size).
    ///
    /// # Panics
    ///
    /// If `page_bytes` is zero or an id occurs twice.
    pub fn build(page_bytes: usize, objects: impl IntoIterator<Item = (u64, Geometry)>) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        let mut rel = ObjectRelation {
            objects: Vec::new(),
            loc: HashMap::new(),
            pages: 0,
        };
        let mut used = 0; // bytes on the current page
        for (id, g) in objects {
            let bytes = g.approx_bytes();
            if rel.pages == 0 || (used > 0 && used + bytes > page_bytes) {
                rel.pages += 1;
                used = 0;
            }
            used += bytes;
            let page = PageId(u32::try_from(rel.pages - 1).expect("page overflow"));
            let prev = rel.loc.insert(id, (page, rel.objects.len()));
            assert!(prev.is_none(), "duplicate object id {id}");
            rel.objects.push(g);
        }
        rel
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Number of object pages.
    pub fn page_count(&self) -> usize {
        self.pages
    }

    /// The slot of an id.
    fn locate(&self, id: u64) -> Option<Slot> {
        self.loc.get(&id).copied()
    }

    /// Borrows a geometry without I/O accounting.
    pub fn peek(&self, id: u64) -> Option<&Geometry> {
        self.locate(id).map(|(_, at)| &self.objects[at])
    }
}

/// Outcome of a refined join.
#[derive(Debug, Clone)]
pub struct RefineResult {
    /// Pairs whose exact geometries intersect.
    pub pairs: Vec<(u64, u64)>,
    /// Number of candidate pairs the filter step produced.
    pub candidates: u64,
    /// Filter-step (MBR join) statistics.
    pub filter: crate::stats::JoinStats,
    /// Object-page accesses of the refinement step.
    pub refine_io: IoStats,
}

impl RefineResult {
    /// Fraction of candidates that survived refinement — the paper's §2
    /// discussion of approximation quality: a good MBR filter keeps this
    /// high.
    pub fn selectivity(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pairs.len() as f64 / self.candidates as f64
        }
    }
}

/// ID-spatial-join: all `(Id(a), Id(b))` with `a ∩ b ≠ ∅` on exact
/// geometry. Runs the MBR join under `plan` as the filter step, then
/// refines against the object relations.
pub fn id_join(
    r_tree: &RTree,
    s_tree: &RTree,
    r_objs: &ObjectRelation,
    s_objs: &ObjectRelation,
    plan: JoinPlan,
    cfg: &JoinConfig,
) -> RefineResult {
    let filter: JoinResult = spatial_join(
        r_tree,
        s_tree,
        plan,
        &JoinConfig {
            collect_pairs: true,
            ..*cfg
        },
    );
    refine_candidates(&filter, r_objs, s_objs, cfg)
}

/// Object-spatial-join: like [`id_join`] but also returns the geometries of
/// every matching pair (cloned out of the relations).
pub fn object_join(
    r_tree: &RTree,
    s_tree: &RTree,
    r_objs: &ObjectRelation,
    s_objs: &ObjectRelation,
    plan: JoinPlan,
    cfg: &JoinConfig,
) -> (RefineResult, Vec<(Geometry, Geometry)>) {
    let res = id_join(r_tree, s_tree, r_objs, s_objs, plan, cfg);
    let geoms = res
        .pairs
        .iter()
        .map(|&(a, b)| {
            (
                r_objs.peek(a).expect("refined id must exist").clone(),
                s_objs.peek(b).expect("refined id must exist").clone(),
            )
        })
        .collect();
    (res, geoms)
}

fn refine_candidates(
    filter: &JoinResult,
    r_objs: &ObjectRelation,
    s_objs: &ObjectRelation,
    cfg: &JoinConfig,
) -> RefineResult {
    // Sort candidates by (R page, S page) so object-page reads are
    // clustered; storage position orders the records within a page.
    let mut cands: Vec<(Slot, Slot, u64, u64)> = filter
        .pairs
        .iter()
        .map(|&(DataId(a), DataId(b))| {
            (
                r_objs.locate(a).expect("filter produced unknown R id"),
                s_objs.locate(b).expect("filter produced unknown S id"),
                a,
                b,
            )
        })
        .collect();
    cands.sort_unstable_by_key(|&((rp, ra), (sp, sb), _, _)| (rp, sp, ra, sb));

    // Object pages share one buffer; store 0 = R objects, 1 = S objects.
    // Path buffers of height 1 model holding the current page open.
    let mut pool = BufferPool::new(cfg.buffer_bytes, filter.stats.page_bytes.max(1), &[1, 1]);
    let mut out = Vec::new();
    for ((rp, ra), (sp, sb), a, b) in cands {
        pool.access(0, rp, 0);
        pool.access(1, sp, 0);
        if r_objs.objects[ra].intersects(&s_objs.objects[sb]) {
            out.push((a, b));
        }
    }
    RefineResult {
        pairs: out,
        candidates: filter.stats.result_pairs,
        filter: filter.stats,
        refine_io: pool.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_geom::{Point, Polyline};
    use rsj_rtree::{DataId, InsertPolicy, RTree, RTreeParams};

    /// Horizontal segments in R, vertical in S; crossing is controlled by
    /// parity so MBR overlap ≠ exact intersection for some pairs.
    fn segments(n: u64, horizontal: bool) -> Vec<(u64, Geometry)> {
        (0..n)
            .map(|i| {
                let base = i as f64 * 10.0;
                let line = if horizontal {
                    Polyline::new(vec![
                        Point::new(base, base + 1.0),
                        Point::new(base + 6.0, base + 1.0),
                    ])
                } else {
                    Polyline::new(vec![
                        Point::new(base + 3.0, base - 2.0),
                        Point::new(base + 3.0, base + 4.0),
                    ])
                };
                (i, Geometry::Line(line))
            })
            .collect()
    }

    fn tree_of(objs: &[(u64, Geometry)]) -> RTree {
        let mut t = RTree::new(RTreeParams::explicit(200, 10, 4, InsertPolicy::RStar));
        for (id, g) in objs {
            t.insert(g.mbr(), DataId(*id));
        }
        t
    }

    #[test]
    fn id_join_refines_filter_output() {
        let r = segments(40, true);
        let s = segments(40, false);
        let rt = tree_of(&r);
        let st = tree_of(&s);
        let ro = ObjectRelation::build(1024, r.clone());
        let so = ObjectRelation::build(1024, s.clone());
        let res = id_join(&rt, &st, &ro, &so, JoinPlan::sj4(), &JoinConfig::default());
        // Reference: brute-force exact join.
        let mut want = Vec::new();
        for (ia, ga) in &r {
            for (ib, gb) in &s {
                if ga.intersects(gb) {
                    want.push((*ia, *ib));
                }
            }
        }
        want.sort_unstable();
        let mut got = res.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(
            res.candidates >= res.pairs.len() as u64,
            "filter is a superset"
        );
        assert!(res.refine_io.disk_accesses > 0);
        assert!(res.selectivity() > 0.0 && res.selectivity() <= 1.0);
    }

    #[test]
    fn filter_false_positives_are_dropped() {
        // Two L-shaped polylines whose MBRs overlap but that never touch.
        let a = Geometry::Line(Polyline::new(vec![
            Point::new(0., 0.),
            Point::new(10., 0.),
            Point::new(10., 10.),
        ]));
        let b = Geometry::Line(Polyline::new(vec![
            Point::new(1., 2.),
            Point::new(1., 9.),
            Point::new(8.5, 9.),
        ]));
        assert!(a.mbr().intersects(&b.mbr()));
        assert!(!a.intersects(&b));
        let rt = tree_of(&[(0, a.clone())]);
        let st = tree_of(&[(0, b.clone())]);
        let ro = ObjectRelation::build(1024, vec![(0, a)]);
        let so = ObjectRelation::build(1024, vec![(0, b)]);
        let res = id_join(&rt, &st, &ro, &so, JoinPlan::sj2(), &JoinConfig::default());
        assert_eq!(res.candidates, 1);
        assert!(res.pairs.is_empty());
        assert_eq!(res.selectivity(), 0.0);
    }

    #[test]
    fn object_join_returns_geometries() {
        let r = segments(10, true);
        let s = segments(10, false);
        let rt = tree_of(&r);
        let st = tree_of(&s);
        let ro = ObjectRelation::build(1024, r);
        let so = ObjectRelation::build(1024, s);
        let (res, geoms) = object_join(&rt, &st, &ro, &so, JoinPlan::sj4(), &JoinConfig::default());
        assert_eq!(res.pairs.len(), geoms.len());
        for ((a, b), (ga, gb)) in res.pairs.iter().zip(&geoms) {
            assert_eq!(ro.peek(*a).unwrap(), ga);
            assert_eq!(so.peek(*b).unwrap(), gb);
            assert!(ga.intersects(gb));
        }
    }

    #[test]
    fn object_relation_lookup() {
        let objs = segments(20, true);
        let rel = ObjectRelation::build(256, objs.clone());
        assert_eq!(rel.len(), 20);
        assert!(!rel.is_empty());
        assert!(rel.page_count() > 1, "256-byte pages force several pages");
        assert!(rel.locate(5).is_some());
        assert!(rel.locate(99).is_none());
        assert_eq!(rel.peek(3), Some(&objs[3].1));
    }

    #[test]
    fn build_packs_first_fit_and_gives_oversized_records_a_page() {
        let line = |n: usize| {
            let pts = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
            Geometry::Line(Polyline::new(pts))
        };
        assert_eq!(line(2).approx_bytes(), 40);
        // 40 + 40 fill 100-byte page 0; the third record opens page 1.
        // The 648-byte record gets page 2 to itself, and the next record
        // starts page 3.
        let rel = ObjectRelation::build(
            100,
            vec![
                (7, line(2)),
                (3, line(2)),
                (9, line(2)),
                (1, line(40)),
                (2, line(2)),
            ],
        );
        let page_of = |id| rel.locate(id).unwrap().0;
        assert_eq!(
            [7, 3, 9, 1, 2].map(page_of),
            [PageId(0), PageId(0), PageId(1), PageId(2), PageId(3)]
        );
        assert_eq!(rel.page_count(), 4);
        assert_eq!(rel.len(), 5);
        assert_eq!(rel.peek(1), Some(&line(40)));
    }

    #[test]
    #[should_panic(expected = "duplicate object id")]
    fn duplicate_ids_rejected() {
        let g = Geometry::Line(Polyline::new(vec![Point::new(0., 0.), Point::new(1., 1.)]));
        let _ = ObjectRelation::build(256, vec![(1, g.clone()), (1, g)]);
    }
}
