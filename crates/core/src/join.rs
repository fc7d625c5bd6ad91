//! The spatial-join drivers: thin wrappers over the streaming executor.
//!
//! One engine implements all of SJ1–SJ5: the [`crate::exec::JoinCursor`]
//! work-stack executor, parameterized by a [`JoinPlan`] that decides, per
//! node pair, how qualifying entry pairs are *enumerated* (nested loop vs
//! plane sweep, with or without search-space restriction) and in which
//! order the child pages are *scheduled* (enumeration/sweep order, pinned
//! max-degree drain, z-order). Trees of different height fall back to
//! window queries per §4.4 once the shorter tree reaches its leaves.
//!
//! [`spatial_join`] drains a counted cursor over the config's buffer pool
//! into the classic materialized [`JoinResult`]; callers that want pairs
//! incrementally, another meter or another backend build a
//! [`crate::exec::JoinCursor`] directly (and may still materialize with
//! [`crate::exec::JoinCursor::into_result`]).
//!
//! Accounting mirrors the paper:
//! * every `ReadPage` goes through a [`rsj_storage::NodeAccess`]
//!   accountant (here: the [`rsj_storage::BufferPool`] stack path buffer → LRU → disk),
//!   so `stats.io.disk_accesses` is the Table 2/5/6/7 metric;
//! * every join-condition test runs through counted predicates, so
//!   `stats.join_comparisons` is the Table 2/3/4 metric;
//! * sorting work for the sweep is tallied separately in
//!   `stats.sort_comparisons` (the "sorting" rows of Table 4).

use crate::exec::JoinCursor;
use crate::plan::{JoinConfig, JoinPlan};
use rsj_rtree::{DataId, RTree};

pub use crate::exec::{TAG_R, TAG_S};

/// Result of an MBR-spatial-join.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Intersecting `(Id(r), Id(s))` pairs — empty when
    /// [`JoinConfig::collect_pairs`] is off (see `stats.result_pairs`).
    pub pairs: Vec<(DataId, DataId)>,
    /// Cost accounting.
    pub stats: JoinStats,
}

use crate::stats::JoinStats;

/// Computes the MBR-spatial-join of `r` and `s` under `plan`, counting
/// comparisons.
///
/// Both trees must use the same page size (they share one LRU buffer whose
/// capacity is `cfg.buffer_bytes / page_bytes` pages). This drains a
/// [`JoinCursor`] over a private [`rsj_storage::BufferPool`]
/// ([`JoinConfig::buffer_pool`]); any other meter or backend is the same
/// cursor run out with [`JoinCursor::into_result`]:
///
/// ```
/// # use rsj_core::{spatial_join, JoinConfig, JoinPlan, RawJoinCursor};
/// # use rsj_rtree::{DataId, RTree, RTreeParams};
/// # use rsj_geom::Rect;
/// # let mut r = RTree::new(RTreeParams::for_page_size(1024));
/// # for i in 0..100u64 {
/// #     let x = i as f64;
/// #     r.insert(Rect::from_corners(x, x, x + 1.5, x + 1.5), DataId(i));
/// # }
/// # let s = r.clone();
/// let cfg = JoinConfig::default();
/// let counted = spatial_join(&r, &s, JoinPlan::sj4(), &cfg);
/// let (raw, _pool) = RawJoinCursor::raw(&r, &s, JoinPlan::sj4(), cfg.buffer_pool(&[&r, &s]))
///     .into_result(cfg.collect_pairs);
/// assert_eq!(raw.pairs, counted.pairs);
/// assert_eq!(raw.stats.io, counted.stats.io);
/// assert_eq!(raw.stats.join_comparisons, 0);
/// ```
pub fn spatial_join(r: &RTree, s: &RTree, plan: JoinPlan, cfg: &JoinConfig) -> JoinResult {
    JoinCursor::new(r, s, plan, cfg.buffer_pool(&[r, s]))
        .into_result(cfg.collect_pairs)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DiffHeightPolicy, Schedule};
    use rsj_geom::Rect;
    use rsj_rtree::{InsertPolicy, RTreeParams};

    fn build_tree(items: &[(Rect, u64)], page: usize) -> RTree {
        let mut t = RTree::new(RTreeParams::explicit(page, 10, 4, InsertPolicy::RStar));
        for &(r, id) in items {
            t.insert(r, DataId(id));
        }
        t.validate().unwrap();
        t
    }

    fn grid_items(n: u64, offset: f64, step: f64, size: f64) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = offset + (i % 30) as f64 * step;
                let y = offset + (i / 30) as f64 * step;
                (Rect::from_corners(x, y, x + size, y + size), i)
            })
            .collect()
    }

    fn reference_join(a: &[(Rect, u64)], b: &[(Rect, u64)]) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        for &(ra, ia) in a {
            for &(rb, ib) in b {
                if ra.intersects(&rb) {
                    v.push((ia, ib));
                }
            }
        }
        v.sort_unstable();
        v
    }

    fn sorted_ids(res: &JoinResult) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = res.pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
        v.sort_unstable();
        v
    }

    fn all_plans() -> Vec<JoinPlan> {
        vec![
            JoinPlan::sj1(),
            JoinPlan::sj2(),
            JoinPlan::sj3(),
            JoinPlan::sj4(),
            JoinPlan::sj5(),
            JoinPlan::sweep_unrestricted(),
            JoinPlan {
                schedule: Schedule::ZOrder,
                ..JoinPlan::sj3()
            },
        ]
    }

    #[test]
    fn all_algorithms_agree_with_reference() {
        let a = grid_items(300, 0.0, 7.0, 5.0);
        let b = grid_items(280, 3.0, 7.3, 5.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        let want = reference_join(&a, &b);
        assert!(!want.is_empty());
        for plan in all_plans() {
            let res = spatial_join(&tr, &ts, plan, &JoinConfig::with_buffer(8 * 200));
            assert_eq!(sorted_ids(&res), want, "plan {}", plan.name());
            assert_eq!(res.stats.result_pairs as usize, want.len());
        }
    }

    #[test]
    fn empty_inputs() {
        let empty = build_tree(&[], 200);
        let full = build_tree(&grid_items(50, 0.0, 5.0, 4.0), 200);
        for plan in [JoinPlan::sj1(), JoinPlan::sj4()] {
            let res = spatial_join(&empty, &full, plan, &JoinConfig::default());
            assert!(res.pairs.is_empty());
            let res = spatial_join(&full, &empty, plan, &JoinConfig::default());
            assert!(res.pairs.is_empty());
        }
    }

    #[test]
    fn disjoint_relations_touch_only_roots() {
        let a = build_tree(&grid_items(100, 0.0, 3.0, 2.0), 200);
        let b = build_tree(&grid_items(100, 5000.0, 3.0, 2.0), 200);
        let res = spatial_join(&a, &b, JoinPlan::sj1(), &JoinConfig::default());
        assert!(res.pairs.is_empty());
        assert_eq!(res.stats.io.disk_accesses, 2, "only the two roots");
    }

    #[test]
    fn sj2_needs_fewer_comparisons_than_sj1() {
        let a = grid_items(400, 0.0, 6.0, 4.0);
        let b = grid_items(400, 2.0, 6.1, 4.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        let c1 = spatial_join(&tr, &ts, JoinPlan::sj1(), &JoinConfig::default());
        let c2 = spatial_join(&tr, &ts, JoinPlan::sj2(), &JoinConfig::default());
        assert_eq!(sorted_ids(&c1), sorted_ids(&c2));
        assert!(
            c2.stats.join_comparisons < c1.stats.join_comparisons,
            "SJ2 {} >= SJ1 {}",
            c2.stats.join_comparisons,
            c1.stats.join_comparisons
        );
    }

    #[test]
    fn sweep_beats_nested_loop_on_comparisons() {
        let a = grid_items(500, 0.0, 5.0, 3.5);
        let b = grid_items(500, 1.0, 5.2, 3.5);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        let nl = spatial_join(&tr, &ts, JoinPlan::sj2(), &JoinConfig::default());
        let sw = spatial_join(&tr, &ts, JoinPlan::sj3(), &JoinConfig::default());
        assert_eq!(sorted_ids(&nl), sorted_ids(&sw));
        assert!(sw.stats.join_comparisons < nl.stats.join_comparisons);
        assert!(sw.stats.sort_comparisons > 0, "sweep must sort");
        assert_eq!(nl.stats.sort_comparisons, 0, "nested loop must not sort");
    }

    #[test]
    fn pinning_helps_without_a_buffer() {
        // With no LRU buffer, re-reads of a page whose pairs are spread
        // across the sweep order are exactly what pinning eliminates — SJ4
        // must not lose to SJ3 there. (At small nonzero buffers the drain
        // reordering can cost a little locality; the paper's Table 5 shows
        // the win on realistic data, which the experiment suite reproduces.)
        let a = grid_items(600, 0.0, 4.0, 3.0);
        let b = grid_items(600, 1.5, 4.1, 3.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        let sj3 = spatial_join(&tr, &ts, JoinPlan::sj3(), &JoinConfig::with_buffer(0));
        let sj4 = spatial_join(&tr, &ts, JoinPlan::sj4(), &JoinConfig::with_buffer(0));
        assert_eq!(sorted_ids(&sj3), sorted_ids(&sj4));
        assert!(
            sj4.stats.io.disk_accesses <= sj3.stats.io.disk_accesses,
            "SJ4 {} vs SJ3 {}",
            sj4.stats.io.disk_accesses,
            sj3.stats.io.disk_accesses
        );
        // And result sets stay equal at other buffer sizes.
        for buf in [4 * 200, 16 * 200] {
            let s3 = spatial_join(&tr, &ts, JoinPlan::sj3(), &JoinConfig::with_buffer(buf));
            let s4 = spatial_join(&tr, &ts, JoinPlan::sj4(), &JoinConfig::with_buffer(buf));
            assert_eq!(sorted_ids(&s3), sorted_ids(&s4));
        }
    }

    #[test]
    fn bigger_buffer_means_fewer_disk_accesses() {
        let a = grid_items(700, 0.0, 4.0, 3.0);
        let b = grid_items(700, 1.0, 4.3, 3.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        let mut last = u64::MAX;
        for buf_pages in [0usize, 2, 8, 32, 128] {
            let res = spatial_join(
                &tr,
                &ts,
                JoinPlan::sj4(),
                &JoinConfig::with_buffer(buf_pages * 200),
            );
            assert!(res.stats.io.disk_accesses <= last);
            last = res.stats.io.disk_accesses;
        }
    }

    #[test]
    fn different_height_policies_agree() {
        // Big R (tall tree), small S (short tree).
        let a = grid_items(900, 0.0, 3.0, 2.5);
        let b = grid_items(60, 10.0, 14.0, 6.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        assert!(
            tr.height() > ts.height(),
            "setup must give different heights"
        );
        let want = reference_join(&a, &b);
        for policy in [
            DiffHeightPolicy::PerPair,
            DiffHeightPolicy::Batched,
            DiffHeightPolicy::SweepPinned,
        ] {
            let plan = JoinPlan {
                diff_height: policy,
                ..JoinPlan::sj4()
            };
            let res = spatial_join(&tr, &ts, plan, &JoinConfig::default());
            assert_eq!(sorted_ids(&res), want, "{policy:?}");
            // Swapped operands too (S taller than R).
            let plan = JoinPlan {
                diff_height: policy,
                ..JoinPlan::sj4()
            };
            let res = spatial_join(&ts, &tr, plan, &JoinConfig::default());
            let want_swapped: Vec<(u64, u64)> = {
                let mut v: Vec<(u64, u64)> = want.iter().map(|&(x, y)| (y, x)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sorted_ids(&res), want_swapped, "swapped {policy:?}");
        }
    }

    #[test]
    fn batched_policy_reads_less_than_per_pair() {
        let a = grid_items(1200, 0.0, 2.5, 2.0);
        let b = grid_items(40, 5.0, 18.0, 9.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        assert!(tr.height() > ts.height());
        let per_pair = JoinPlan {
            diff_height: DiffHeightPolicy::PerPair,
            ..JoinPlan::sj4()
        };
        let batched = JoinPlan {
            diff_height: DiffHeightPolicy::Batched,
            ..JoinPlan::sj4()
        };
        let a_res = spatial_join(&tr, &ts, per_pair, &JoinConfig::with_buffer(0));
        let b_res = spatial_join(&tr, &ts, batched, &JoinConfig::with_buffer(0));
        assert!(
            b_res.stats.io.disk_accesses <= a_res.stats.io.disk_accesses,
            "batched {} vs per-pair {}",
            b_res.stats.io.disk_accesses,
            a_res.stats.io.disk_accesses
        );
    }

    #[test]
    fn counting_only_mode_skips_materialization() {
        let a = grid_items(200, 0.0, 5.0, 4.0);
        let b = grid_items(200, 2.0, 5.0, 4.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        let cfg = JoinConfig {
            collect_pairs: false,
            ..Default::default()
        };
        let res = spatial_join(&tr, &ts, JoinPlan::sj4(), &cfg);
        assert!(res.pairs.is_empty());
        assert_eq!(
            res.stats.result_pairs as usize,
            reference_join(&a, &b).len()
        );
    }

    #[test]
    fn self_join_includes_identity_pairs() {
        let a = grid_items(150, 0.0, 6.0, 4.0);
        let t1 = build_tree(&a, 200);
        let t2 = build_tree(&a, 200);
        let res = spatial_join(&t1, &t2, JoinPlan::sj4(), &JoinConfig::default());
        let ids = sorted_ids(&res);
        for &(_, i) in &a {
            assert!(
                ids.binary_search(&(i, i)).is_ok(),
                "identity pair {i} missing"
            );
        }
    }
}
