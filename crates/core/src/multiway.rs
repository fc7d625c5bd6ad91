//! Multi-way spatial joins (extension).
//!
//! §2.1: "we can introduce other types of joins […] if we consider more
//! than two spatial relations for processing a join. The problem of
//! spatial joins with more than two spatial relations is similarly defined
//! and its solution can make use of the techniques that will be presented
//! in this paper."
//!
//! This module computes the **clique** (common-intersection) k-way join:
//! all tuples `(a₀ ∈ R₀, …, a_{k-1} ∈ R_{k-1})` whose MBRs share a common
//! point — for k = 2 exactly the paper's MBR-spatial-join (two rectangles
//! intersect iff their intersection is non-empty).
//!
//! The evaluation is a *pipeline* that reuses the paper's machinery, as
//! §2.1 suggests: the first two relations run through the binary join
//! (with the full plan: restriction, sweep, schedules); every further
//! relation is probed with **batched multi-window queries** (the policy-(b)
//! technique of §4.4) using the running intersection rectangles as
//! windows, so each probe pass reads every required page of that tree at
//! most once per window batch.

use crate::exec::JoinCursor;
use crate::plan::JoinPlan;
use rsj_geom::{Meter, Rect};
use rsj_rtree::{DataId, RTree};
use rsj_storage::{IoStats, NodeAccess};

/// Upper bound on windows per batched probe traversal; bounds the window
/// lists propagated down the probe tree.
const PROBE_BATCH: usize = 4096;

/// Result of a k-way join.
#[derive(Debug, Clone)]
pub struct MultiwayResult {
    /// Matching tuples; `tuples[i][j]` is the id from relation `j`.
    pub tuples: Vec<Vec<DataId>>,
    /// Comparisons across all stages (binary join + probes).
    pub comparisons: u64,
    /// Page accesses across all stages.
    pub io: IoStats,
}

/// Computes the clique k-way MBR join of `trees` (k ≥ 2), metering
/// comparisons with `M` ([`rsj_geom::CmpCounter`] counts,
/// [`rsj_geom::NoOp`] is the raw mode).
///
/// All trees must share a page size. `plan` drives the leading binary
/// join; probes use batched window queries. The predicate is common
/// intersection of all k MBRs; `plan.predicate` must be `Intersects`.
///
/// Each stage charges a private accountant that `make_access(stage,
/// stage_trees)` builds over the trees it touches: stage 0 the leading
/// binary join of `trees[0]` and `trees[1]` (stores
/// [`crate::exec::TAG_R`]/[`crate::exec::TAG_S`]), stage `k >= 1` the
/// probe pass over `trees[k + 1]` (store 0). `|_, t| cfg.buffer_pool(t)`
/// gives every stage a [`rsj_storage::BufferPool`] of the config's
/// budget; a file-backed stage is a [`rsj_storage::FileNodeAccess`] over
/// those trees' page files. The leading stage runs off a [`JoinCursor`],
/// so a completion-driven stage-0 backend (e.g.
/// [`rsj_storage::CompletionFileAccess`]) has its demand misses
/// overlapped by the cursor's run-ahead; the probe stages charge their
/// window queries page by page, on demand.
///
/// ```
/// # use rsj_core::{multiway_join, JoinConfig, JoinPlan};
/// # use rsj_geom::CmpCounter;
/// # use rsj_rtree::{DataId, RTree, RTreeParams};
/// # use rsj_geom::Rect;
/// # let mut r = RTree::new(RTreeParams::for_page_size(1024));
/// # for i in 0..300u64 {
/// #     let (x, y) = ((i % 20) as f64, (i / 20) as f64);
/// #     r.insert(Rect::from_corners(x, y, x + 1.5, y + 1.5), DataId(i));
/// # }
/// let cfg = JoinConfig::default();
/// let res = multiway_join::<CmpCounter, _>(&[&r, &r, &r], JoinPlan::sj4(), |_, t| {
///     cfg.buffer_pool(t)
/// });
/// assert!(res.tuples.len() >= 300, "every rectangle meets itself");
/// ```
pub fn multiway_join<M, A>(
    trees: &[&RTree],
    plan: JoinPlan,
    mut make_access: impl FnMut(usize, &[&RTree]) -> A,
) -> MultiwayResult
where
    M: Meter,
    A: NodeAccess,
{
    assert!(
        trees.len() >= 2,
        "a multi-way join needs at least two relations"
    );
    assert!(
        matches!(plan.predicate, crate::plan::JoinPredicate::Intersects),
        "multiway_join supports the intersection predicate"
    );
    let page_bytes = trees[0].params().page_bytes;
    for t in trees {
        assert_eq!(
            t.params().page_bytes,
            page_bytes,
            "all trees must share a page size"
        );
    }

    // Stage 1: binary join of the first two relations, streamed off a
    // cursor — each pair picks up its running intersection rectangle as it
    // arrives, so the plain pair list is never materialized separately.
    let rects0 = rect_map(trees[0]);
    let rects1 = rect_map(trees[1]);
    let mut cursor =
        JoinCursor::<_, M>::metered(trees[0], trees[1], plan, make_access(0, &trees[..2]));
    let mut tuples: Vec<(Vec<DataId>, Rect)> = Vec::new();
    for (a, b) in &mut cursor {
        let rect = rects0[&a]
            .intersection(&rects1[&b])
            .expect("binary join produced a disjoint pair");
        tuples.push((vec![a, b], rect));
    }
    let stage1 = cursor.stats();
    let mut comparisons = stage1.total_comparisons();
    let mut io = stage1.io;

    // Stages 2..k: probe each further tree with the running rectangles.
    for (k, tree) in trees[2..].iter().enumerate() {
        let mut pool = make_access(k + 1, std::slice::from_ref(tree));
        let mut cmp = M::default();
        let mut next: Vec<(Vec<DataId>, Rect)> = Vec::new();
        for chunk in tuples.chunks(PROBE_BATCH) {
            let windows: Vec<(usize, Rect)> = chunk
                .iter()
                .enumerate()
                .map(|(i, (_, r))| (i, *r))
                .collect();
            let mut hits = Vec::new();
            tree.multi_window_query_from(
                tree.root(),
                &windows,
                &mut cmp,
                &mut |pg, lvl| {
                    pool.access(0, pg, tree.depth_of_level(lvl));
                },
                &mut hits,
            );
            for (i, hit_rect, did) in hits {
                let (tuple, rect) = &chunk[i];
                // The window query guarantees hit ∩ window ≠ ∅; the running
                // rectangle IS the window, so the clique property extends.
                let new_rect = rect.intersection(&hit_rect).expect("window query hit");
                let mut t = tuple.clone();
                t.push(did);
                next.push((t, new_rect));
            }
        }
        comparisons += cmp.get();
        io += pool.io_stats();
        tuples = next;
        if tuples.is_empty() {
            break;
        }
    }

    MultiwayResult {
        tuples: tuples.into_iter().map(|(t, _)| t).collect(),
        comparisons,
        io,
    }
}

fn rect_map(tree: &RTree) -> std::collections::HashMap<DataId, Rect> {
    tree.data_entries()
        .into_iter()
        .map(|(r, id)| (id, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinConfig;
    use crate::spatial_join;
    use rsj_geom::CmpCounter;
    use rsj_rtree::{InsertPolicy, RTreeParams};

    fn build(items: &[(Rect, u64)]) -> RTree {
        let mut t = RTree::new(RTreeParams::explicit(200, 10, 4, InsertPolicy::RStar));
        for &(r, id) in items {
            t.insert(r, DataId(id));
        }
        t
    }

    fn grid(n: u64, offset: f64, size: f64) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = offset + (i % 15) as f64 * 6.0;
                let y = offset + (i / 15) as f64 * 6.0;
                (Rect::from_corners(x, y, x + size, y + size), i)
            })
            .collect()
    }

    fn brute_clique(rels: &[&[(Rect, u64)]]) -> Vec<Vec<u64>> {
        // Recursive brute force over the common intersection.
        fn go(rels: &[&[(Rect, u64)]], acc: &mut Vec<u64>, rect: Rect, out: &mut Vec<Vec<u64>>) {
            if rels.is_empty() {
                out.push(acc.clone());
                return;
            }
            for &(r, id) in rels[0] {
                if let Some(next) = rect.intersection(&r) {
                    acc.push(id);
                    go(&rels[1..], acc, next, out);
                    acc.pop();
                }
            }
        }
        let mut out = Vec::new();
        let world = Rect::from_corners(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        );
        go(rels, &mut Vec::new(), world, &mut out);
        out.sort_unstable();
        out
    }

    /// Every stage a pool of `cfg`'s budget.
    fn pooled(trees: &[&RTree], plan: JoinPlan, cfg: &JoinConfig) -> MultiwayResult {
        multiway_join::<CmpCounter, _>(trees, plan, |_, t| cfg.buffer_pool(t))
    }

    fn sorted_tuples(res: &MultiwayResult) -> Vec<Vec<u64>> {
        let mut v: Vec<Vec<u64>> = res
            .tuples
            .iter()
            .map(|t| t.iter().map(|d| d.0).collect())
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn two_way_equals_binary_join() {
        let a = grid(100, 0.0, 4.0);
        let b = grid(100, 2.0, 4.0);
        let (ta, tb) = (build(&a), build(&b));
        let cfg = JoinConfig::default();
        let multi = pooled(&[&ta, &tb], JoinPlan::sj4(), &cfg);
        let binary = spatial_join(&ta, &tb, JoinPlan::sj4(), &cfg);
        let mut want: Vec<Vec<u64>> = binary.pairs.iter().map(|&(x, y)| vec![x.0, y.0]).collect();
        want.sort_unstable();
        assert_eq!(sorted_tuples(&multi), want);
    }

    #[test]
    fn three_way_matches_brute_force() {
        let a = grid(80, 0.0, 5.0);
        let b = grid(80, 2.0, 5.0);
        let c = grid(80, 4.0, 5.0);
        let (ta, tb, tc) = (build(&a), build(&b), build(&c));
        let res = pooled(&[&ta, &tb, &tc], JoinPlan::sj4(), &JoinConfig::default());
        let want = brute_clique(&[&a, &b, &c]);
        assert!(!want.is_empty(), "fixture should produce matches");
        assert_eq!(sorted_tuples(&res), want);
        assert!(res.io.disk_accesses > 0);
        assert!(res.comparisons > 0);
    }

    #[test]
    fn four_way_matches_brute_force() {
        let a = grid(40, 0.0, 6.0);
        let b = grid(40, 1.5, 6.0);
        let c = grid(40, 3.0, 6.0);
        let d = grid(40, 4.5, 6.0);
        let trees: Vec<RTree> = [&a, &b, &c, &d].iter().map(|r| build(r)).collect();
        let refs: Vec<&RTree> = trees.iter().collect();
        let res = pooled(&refs, JoinPlan::sj3(), &JoinConfig::default());
        assert_eq!(sorted_tuples(&res), brute_clique(&[&a, &b, &c, &d]));
    }

    #[test]
    fn disjoint_third_relation_empties_the_result() {
        let a = grid(50, 0.0, 4.0);
        let b = grid(50, 1.0, 4.0);
        let c = grid(50, 10_000.0, 4.0);
        let (ta, tb, tc) = (build(&a), build(&b), build(&c));
        let res = pooled(&[&ta, &tb, &tc], JoinPlan::sj4(), &JoinConfig::default());
        assert!(res.tuples.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two relations")]
    fn single_relation_rejected() {
        let a = grid(5, 0.0, 4.0);
        let ta = build(&a);
        let _ = pooled(&[&ta], JoinPlan::sj4(), &JoinConfig::default());
    }

    #[test]
    fn helly_property_clique_equals_pairwise() {
        // Axis-parallel boxes have Helly number 2: three rectangles that
        // intersect pairwise always share a common point, so the clique
        // join coincides with the pairwise-intersection join. Verify on a
        // pairwise-heavy fixture.
        let a = grid(30, 0.0, 8.0);
        let b = grid(30, 2.0, 8.0);
        let c = grid(30, 4.0, 8.0);
        let (ta, tb, tc) = (build(&a), build(&b), build(&c));
        let res = pooled(&[&ta, &tb, &tc], JoinPlan::sj4(), &JoinConfig::default());
        // Pairwise brute force.
        let mut want = Vec::new();
        for &(ra, ia) in &a {
            for &(rb, ib) in &b {
                for &(rc, ic) in &c {
                    if ra.intersects(&rb) && ra.intersects(&rc) && rb.intersects(&rc) {
                        want.push(vec![ia, ib, ic]);
                    }
                }
            }
        }
        want.sort_unstable();
        assert_eq!(sorted_tuples(&res), want);
    }
}
