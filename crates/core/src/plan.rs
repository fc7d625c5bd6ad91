//! Join plans: which of the paper's techniques are switched on.

use rsj_geom::{Meter, Rect};

/// How qualifying entry pairs of two nodes are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enumerate {
    /// Nested loop: every entry of one node against every entry of the
    /// other (SJ1/SJ2). The outer loop runs over the S node, matching the
    /// paper's `SpatialJoin1` pseudo-code.
    NestedLoop,
    /// Plane sweep: both entry lists are sorted by `xl` and merged by the
    /// `SortedIntersectionTest` of §4.2 — O(n + m + k) pair tests instead
    /// of n·m, and pairs come out in sweep order.
    PlaneSweep,
}

/// In which order qualifying directory pairs are recursed into — the *read
/// schedule* of §4.3 — and whether pages get pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Process pairs in enumeration order (SJ1/SJ2; for plane-sweep
    /// enumeration this *is* the local plane-sweep order of SJ3).
    Enumeration,
    /// After each pair, pin the page whose rectangle has maximal *degree*
    /// (number of intersections with not-yet-processed rectangles of the
    /// other node) and drain all its pairs first (SJ4).
    PinnedMaxDegree,
    /// Order pairs by the z-order value of the centre of the pair's
    /// intersection rectangle (§4.3 "Local z-order"), without pinning —
    /// an ablation point the paper implies but does not name.
    ZOrder,
    /// Z-order schedule with pinning — SJ5.
    ZOrderPinned,
}

/// Policy for joining a directory node with a leaf node, which happens
/// below the point where the shorter tree bottomed out (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffHeightPolicy {
    /// (a) One window query per qualifying `(E_dir, E_leaf)` pair.
    PerPair,
    /// (b) All qualifying leaf rectangles descend the directory subtree in
    /// one batched traversal; each subtree page is read at most once.
    /// The paper's winner for small buffers — the default.
    #[default]
    Batched,
    /// (c) Window queries in local plane-sweep order with pinning.
    SweepPinned,
}

/// The spatial operator of the join (§2.1: "we can introduce other types
/// of joins, if we use other spatial operators than intersection, e.g.
/// containment").
///
/// All operators are evaluated on MBRs — like the paper's MBR-spatial-join
/// they are the *filter step* for the corresponding exact-geometry join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinPredicate {
    /// `Mbr(r) ∩ Mbr(s) ≠ ∅` — the paper's join.
    Intersects,
    /// `Mbr(r) ⊇ Mbr(s)`: R-objects containing S-objects.
    Contains,
    /// `Mbr(r) ⊆ Mbr(s)`: R-objects lying within S-objects.
    Within,
    /// `dist∞(Mbr(r), Mbr(s)) ≤ ε` — a distance join under the Chebyshev
    /// metric, evaluated by virtually expanding every R rectangle by ε
    /// (`expand(r, ε) ∩ s ⇔ dist∞(r, s) ≤ ε`). Also the standard filter
    /// for Euclidean distance joins.
    WithinDistance(f64),
}

impl JoinPredicate {
    /// How far R-side rectangles are virtually expanded during traversal
    /// (`dist∞(r, s) ≤ ε ⇔ expand(r, ε) ∩ s ≠ ∅`); zero for the
    /// non-distance operators.
    pub fn epsilon(&self) -> f64 {
        match self {
            JoinPredicate::WithinDistance(eps) => *eps,
            _ => 0.0,
        }
    }

    /// Whether intersection of the (ε-expanded) MBRs already decides the
    /// predicate, so a pair the enumeration found needs no further test;
    /// the containment operators re-check the original rectangles.
    pub(crate) fn decided_by_mbr_intersection(&self) -> bool {
        matches!(
            self,
            JoinPredicate::Intersects | JoinPredicate::WithinDistance(_)
        )
    }
}

/// A fully-specified join plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPlan {
    /// §4.2 "Restricting the search space": only entries intersecting the
    /// intersection of the two node MBRs participate.
    pub restrict_space: bool,
    /// Pair enumeration strategy.
    pub enumerate: Enumerate,
    /// Read schedule.
    pub schedule: Schedule,
    /// Directory × leaf handling for trees of different height.
    pub diff_height: DiffHeightPolicy,
    /// The spatial operator; [`JoinPredicate::Intersects`] reproduces the
    /// paper exactly.
    pub predicate: JoinPredicate,
}

impl JoinPlan {
    /// SJ1: the straightforward first approach (§4.1).
    pub fn sj1() -> Self {
        JoinPlan {
            restrict_space: false,
            enumerate: Enumerate::NestedLoop,
            schedule: Schedule::Enumeration,
            diff_height: DiffHeightPolicy::Batched,
            predicate: JoinPredicate::Intersects,
        }
    }

    /// This plan with a different spatial operator.
    pub fn with_predicate(self, predicate: JoinPredicate) -> Self {
        JoinPlan { predicate, ..self }
    }

    /// SJ2: SJ1 + search-space restriction (§4.2).
    pub fn sj2() -> Self {
        JoinPlan {
            restrict_space: true,
            ..Self::sj1()
        }
    }

    /// SJ3: plane-sweep enumeration, pairs in local plane-sweep order (§4.3).
    pub fn sj3() -> Self {
        JoinPlan {
            restrict_space: true,
            enumerate: Enumerate::PlaneSweep,
            ..Self::sj1()
        }
    }

    /// SJ4: SJ3 + pinning of the maximal-degree page (§4.3). The paper's
    /// overall winner.
    pub fn sj4() -> Self {
        JoinPlan {
            schedule: Schedule::PinnedMaxDegree,
            ..Self::sj3()
        }
    }

    /// SJ5: z-order read schedule with pinning (§4.3).
    pub fn sj5() -> Self {
        JoinPlan {
            schedule: Schedule::ZOrderPinned,
            ..Self::sj3()
        }
    }

    /// Table 4, version (I): plane sweep *without* search-space restriction.
    pub fn sweep_unrestricted() -> Self {
        JoinPlan {
            restrict_space: false,
            ..Self::sj3()
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match (self.restrict_space, self.enumerate, self.schedule) {
            (false, Enumerate::NestedLoop, _) => "SJ1",
            (true, Enumerate::NestedLoop, _) => "SJ2",
            (false, Enumerate::PlaneSweep, _) => "sweep(I)",
            (true, Enumerate::PlaneSweep, Schedule::Enumeration) => "SJ3",
            (true, Enumerate::PlaneSweep, Schedule::PinnedMaxDegree) => "SJ4",
            (true, Enumerate::PlaneSweep, Schedule::ZOrderPinned) => "SJ5",
            (true, Enumerate::PlaneSweep, Schedule::ZOrder) => "zorder-nopin",
        }
    }

    /// The search space a qualifying `(R-side, S-side)` rectangle pair
    /// hands down the traversal: the intersection of the two rectangles
    /// with the plan's distance-join ε applied to the R side (§4.2).
    /// `None` iff the pair does not qualify under the plan's predicate
    /// filter. This is the single definition of the ε-expansion/
    /// intersection step used by the sequential root setup, the parallel
    /// root-pair enumeration, and subjoin task construction.
    pub fn search_space(&self, r: &Rect, s: &Rect) -> Option<Rect> {
        r.expanded(self.predicate.epsilon()).intersection(s)
    }

    /// [`JoinPlan::search_space`] with the qualification test charged to
    /// `cmp`, for callers that account the enumeration (the parallel join's
    /// root-pair pass).
    pub fn search_space_counted<M: Meter>(&self, r: &Rect, s: &Rect, cmp: &mut M) -> Option<Rect> {
        let er = r.expanded(self.predicate.epsilon());
        if er.intersects_counted(s, cmp) {
            Some(er.intersection(s).expect("tested above"))
        } else {
            None
        }
    }

    /// Whether the schedule pins pages.
    pub(crate) fn pins(&self) -> bool {
        matches!(
            self.schedule,
            Schedule::PinnedMaxDegree | Schedule::ZOrderPinned
        )
    }

    /// Whether the schedule orders pairs by z-value.
    pub(crate) fn zorders(&self) -> bool {
        matches!(self.schedule, Schedule::ZOrder | Schedule::ZOrderPinned)
    }
}

/// Runtime configuration of a join: the size of its LRU page buffer
/// (§4.1; the paper's only replacement policy, so there is no other to
/// pick), and whether pairs are kept. The page size comes from the trees
/// themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinConfig {
    /// Page-buffer size in bytes (the paper sweeps 0 .. 512 KByte).
    pub buffer_bytes: usize,
    /// Whether result pairs are materialized in [`crate::JoinResult`].
    /// Counting-only mode avoids the output allocation in benchmarks.
    pub collect_pairs: bool,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            buffer_bytes: 128 * 1024,
            collect_pairs: true,
        }
    }
}

impl JoinConfig {
    /// Config with the given buffer size, collecting pairs.
    pub fn with_buffer(buffer_bytes: usize) -> Self {
        JoinConfig {
            buffer_bytes,
            ..Default::default()
        }
    }

    /// The private buffer hierarchy this config describes for a join (or
    /// probe) over `trees`: one path buffer per tree, in store order, over
    /// one LRU buffer of `buffer_bytes / page size` pages.
    pub fn buffer_pool(&self, trees: &[&rsj_rtree::RTree]) -> rsj_storage::BufferPool {
        let heights: Vec<usize> = trees.iter().map(|t| t.height() as usize).collect();
        let page_bytes = trees
            .first()
            .expect("at least one tree")
            .params()
            .page_bytes;
        rsj_storage::BufferPool::new(self.buffer_bytes, page_bytes, &heights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_definitions() {
        assert!(!JoinPlan::sj1().restrict_space);
        assert_eq!(JoinPlan::sj1().enumerate, Enumerate::NestedLoop);
        assert!(JoinPlan::sj2().restrict_space);
        assert_eq!(JoinPlan::sj3().enumerate, Enumerate::PlaneSweep);
        assert_eq!(JoinPlan::sj4().schedule, Schedule::PinnedMaxDegree);
        assert_eq!(JoinPlan::sj5().schedule, Schedule::ZOrderPinned);
        assert!(!JoinPlan::sweep_unrestricted().restrict_space);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(JoinPlan::sj1().name(), "SJ1");
        assert_eq!(JoinPlan::sj2().name(), "SJ2");
        assert_eq!(JoinPlan::sj3().name(), "SJ3");
        assert_eq!(JoinPlan::sj4().name(), "SJ4");
        assert_eq!(JoinPlan::sj5().name(), "SJ5");
        assert_eq!(JoinPlan::sweep_unrestricted().name(), "sweep(I)");
    }

    #[test]
    fn pin_and_zorder_flags() {
        assert!(!JoinPlan::sj3().pins());
        assert!(JoinPlan::sj4().pins());
        assert!(JoinPlan::sj5().pins());
        assert!(JoinPlan::sj5().zorders());
        assert!(!JoinPlan::sj4().zorders());
    }
}
