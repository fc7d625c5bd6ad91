//! Baseline join strategies the paper argues against (§2.1).
//!
//! * [`nested_loop_join`] — "Using the simple nested loop approach, every
//!   object of the one relation has to be checked against all objects of
//!   the other relation. Since we consider very large relations of spatial
//!   objects, the performance of the nested loop algorithm is not
//!   acceptable." Provided for correctness oracles and as the CPU
//!   worst-case anchor in the benches.
//! * [`index_nested_loop_join`] — one window query against the inner tree
//!   per outer data rectangle; what a system with an index on only one
//!   relation (or no join support) would do. Charges I/O through the same
//!   buffer machinery as the real algorithms, so it slots directly into
//!   the comparison tables.

use crate::plan::JoinConfig;
use crate::stats::JoinStats;
use rsj_geom::{CmpCounter, Rect};
use rsj_rtree::{DataId, RTree};
use rsj_storage::BufferPool;

/// Brute-force MBR join over plain arrays. Returns the intersecting id
/// pairs and the number of (counted) comparisons.
pub fn nested_loop_join(r: &[(Rect, u64)], s: &[(Rect, u64)]) -> (Vec<(u64, u64)>, u64) {
    let mut cmp = CmpCounter::new();
    let mut out = Vec::new();
    for &(ra, ia) in r {
        for &(rb, ib) in s {
            if ra.intersects_counted(&rb, &mut cmp) {
                out.push((ia, ib));
            }
        }
    }
    (out, cmp.get())
}

/// Index nested-loop join: scan R's data entries leaf by leaf (sequential
/// reads of `|R|dat` pages plus the directory path), and probe S with one
/// window query per entry.
pub fn index_nested_loop_join(
    r: &RTree,
    s: &RTree,
    cfg: &JoinConfig,
) -> (Vec<(DataId, DataId)>, JoinStats) {
    assert_eq!(r.params().page_bytes, s.params().page_bytes);
    let page_bytes = r.params().page_bytes;
    let mut pool = BufferPool::new(
        cfg.buffer_bytes,
        page_bytes,
        &[r.height() as usize, s.height() as usize],
    );
    let mut cmp = CmpCounter::new();
    let mut out = Vec::new();
    // Depth-first scan of R, charging each page once per visit.
    let mut stack = vec![r.root()];
    while let Some(page) = stack.pop() {
        let node = r.node(page);
        pool.access(0, page, r.depth_of_level(node.level));
        if node.is_leaf() {
            for e in &node.entries {
                let rid = e.id();
                let mut hits = Vec::new();
                s.window_query_from(
                    s.root(),
                    &e.rect,
                    &mut cmp,
                    &mut |pg, lvl| {
                        pool.access(1, pg, s.depth_of_level(lvl));
                    },
                    &mut hits,
                );
                for (_, sid) in hits {
                    out.push((rid, sid));
                }
            }
        } else {
            for e in &node.entries {
                stack.push(RTree::child_page(e));
            }
        }
    }
    let stats = JoinStats {
        join_comparisons: cmp.get(),
        sort_comparisons: 0,
        io: pool.stats(),
        result_pairs: out.len() as u64,
        page_bytes,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinPlan;
    use rsj_rtree::{InsertPolicy, RTreeParams};

    fn items(n: u64, offset: f64) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = offset + (i % 20) as f64 * 6.0;
                let y = offset + (i / 20) as f64 * 6.0;
                (Rect::from_corners(x, y, x + 4.5, y + 4.5), i)
            })
            .collect()
    }

    fn build(itemsv: &[(Rect, u64)]) -> RTree {
        let mut t = RTree::new(RTreeParams::explicit(200, 10, 4, InsertPolicy::RStar));
        for &(r, id) in itemsv {
            t.insert(r, DataId(id));
        }
        t
    }

    #[test]
    fn nested_loop_matches_tree_join() {
        let a = items(150, 0.0);
        let b = items(150, 2.0);
        let (mut nl, cmps) = nested_loop_join(&a, &b);
        nl.sort_unstable();
        assert!(
            cmps as usize >= a.len() * b.len(),
            "at least one cmp per pair test"
        );
        let res = crate::spatial_join(
            &build(&a),
            &build(&b),
            JoinPlan::sj4(),
            &JoinConfig::default(),
        );
        let mut tj: Vec<(u64, u64)> = res.pairs.iter().map(|&(x, y)| (x.0, y.0)).collect();
        tj.sort_unstable();
        assert_eq!(nl, tj);
    }

    #[test]
    fn index_nested_loop_matches_and_costs_more_io() {
        let a = items(400, 0.0);
        let b = items(400, 1.0);
        let (ta, tb) = (build(&a), build(&b));
        let cfg = JoinConfig::with_buffer(8 * 200);
        let (mut inl, stats) = index_nested_loop_join(&ta, &tb, &cfg);
        inl.sort_unstable();
        let res = crate::spatial_join(&ta, &tb, JoinPlan::sj4(), &cfg);
        let mut tj: Vec<(u64, u64)> = res.pairs.iter().map(|&(x, y)| (x.0, y.0)).collect();
        tj.sort_unstable();
        let inl_ids: Vec<(u64, u64)> = inl.iter().map(|&(x, y)| (x.0, y.0)).collect();
        assert_eq!(inl_ids, tj);
        assert!(
            stats.io.total_accesses() > res.stats.io.total_accesses(),
            "index NL should touch S many times: {} vs {}",
            stats.io.total_accesses(),
            res.stats.io.total_accesses()
        );
    }

    #[test]
    fn nested_loop_empty_inputs() {
        let (out, cmps) = nested_loop_join(&[], &items(5, 0.0));
        assert!(out.is_empty());
        assert_eq!(cmps, 0);
    }
}
