//! The execution layer: a streaming join executor over a pluggable
//! page-access boundary.
//!
//! Everything that *runs* a synchronized R\*-tree traversal lives here:
//!
//! * [`JoinCursor`] — the production executor. An explicit-work-stack
//!   state machine that yields result pairs incrementally and charges all
//!   I/O through [`rsj_storage::NodeAccess`], so the same engine serves
//!   all three implementors: the in-memory [`rsj_storage::BufferPool`]
//!   oracle, the [`rsj_storage::FileAccess`] stack over real page files
//!   (read strategy {blocking, queued}),
//!   and [`rsj_storage::SharedCacheFileAccess`] handles onto the shared
//!   frame cache.
//! * [`recursive_spatial_join`] / [`recursive_subjoin`] — the original
//!   recursive driver, kept as the accounting oracle for differential
//!   tests.
//! * [`schedule`] — the §4.3 read schedule's pair ordering (sweep /
//!   z-order) extracted out of the cursor, and the emission gate that
//!   lets a completion-driven cursor run ahead of its demand misses. The
//!   order is not announced to the backend: every read is a demand.
//!
//! The two executors are *accounting-equivalent*: for every sequential
//! plan they report identical `result_pairs`, `disk_accesses`,
//! `join_comparisons` and `sort_comparisons`, because the cursor replays
//! the recursion's exact sequence of buffer operations. The tests at the
//! bottom of this module pin that equivalence across plans, predicates,
//! buffer sizes and tree shapes.

pub mod cursor;
pub mod recursive;
pub mod schedule;

pub use cursor::{JoinCursor, RawJoinCursor};
pub use recursive::{recursive_spatial_join, recursive_subjoin};

/// Buffer-pool store tag of tree R.
pub const TAG_R: u8 = 0;
/// Buffer-pool store tag of tree S.
pub const TAG_S: u8 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DiffHeightPolicy, JoinConfig, JoinPlan, JoinPredicate, Schedule};
    use rsj_geom::Rect;
    use rsj_rtree::{DataId, InsertPolicy, RTree, RTreeParams};
    use rsj_storage::BufferPool;

    fn build_tree(items: &[(Rect, u64)], page: usize) -> RTree {
        let mut t = RTree::new(RTreeParams::explicit(page, 10, 4, InsertPolicy::RStar));
        for &(r, id) in items {
            t.insert(r, DataId(id));
        }
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

    fn all_plans() -> Vec<JoinPlan> {
        let mut v = vec![
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
        ];
        for policy in [DiffHeightPolicy::PerPair, DiffHeightPolicy::SweepPinned] {
            v.push(JoinPlan {
                diff_height: policy,
                ..JoinPlan::sj4()
            });
        }
        for pred in [
            JoinPredicate::Contains,
            JoinPredicate::Within,
            JoinPredicate::WithinDistance(3.0),
        ] {
            v.push(JoinPlan::sj4().with_predicate(pred));
        }
        v
    }

    /// The acceptance bar of the refactor: for every sequential plan the
    /// cursor must report *identical* result and cost accounting to the
    /// recursive reference driver.
    #[test]
    fn cursor_matches_recursion_bit_for_bit() {
        let fixtures = [
            // Same height.
            (
                grid_items(400, 0.0, 6.0, 4.5),
                grid_items(380, 2.0, 6.2, 4.5),
            ),
            // Different heights (tall R, short S).
            (
                grid_items(900, 0.0, 3.0, 2.5),
                grid_items(60, 10.0, 14.0, 6.0),
            ),
        ];
        for (a, b) in &fixtures {
            let (tr, ts) = (build_tree(a, 200), build_tree(b, 200));
            for plan in all_plans() {
                for buf_pages in [0usize, 4, 32] {
                    let cfg = JoinConfig::with_buffer(buf_pages * 200);
                    let want = recursive_spatial_join(&tr, &ts, plan, &cfg);
                    let got = crate::spatial_join(&tr, &ts, plan, &cfg);
                    assert_eq!(
                        got.pairs,
                        want.pairs,
                        "pair stream differs: plan {} buf {buf_pages}",
                        plan.name()
                    );
                    assert_eq!(
                        got.stats,
                        want.stats,
                        "accounting differs: plan {} buf {buf_pages}",
                        plan.name()
                    );
                }
            }
        }
    }

    /// The per-side remaining-degree tables that replaced the O(n²)
    /// `count_remaining` scans must leave the SJ4 pin/drain schedule — and
    /// therefore every buffer outcome — untouched. Pinning decisions are
    /// observable only through I/O, so this pins `disk_accesses` (and the
    /// full stats) against the recursive oracle on a pinning-heavy fixture
    /// across buffer sizes, including the zero-buffer regime where every
    /// drain reordering shows up as a disk access.
    #[test]
    fn degree_tables_keep_pinning_io_identical() {
        // Dense overlap → high pin degrees and long drains.
        let a = grid_items(700, 0.0, 4.0, 6.0);
        let b = grid_items(700, 1.0, 4.1, 6.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        for plan in [JoinPlan::sj4(), JoinPlan::sj5()] {
            for buf_pages in [0usize, 2, 8, 64] {
                let cfg = JoinConfig::with_buffer(buf_pages * 200);
                let want = recursive_spatial_join(&tr, &ts, plan, &cfg);
                let got = crate::spatial_join(&tr, &ts, plan, &cfg);
                assert_eq!(
                    got.stats.io.disk_accesses,
                    want.stats.io.disk_accesses,
                    "pin schedule diverged: plan {} buf {buf_pages}",
                    plan.name()
                );
                assert_eq!(
                    got.stats,
                    want.stats,
                    "plan {} buf {buf_pages}",
                    plan.name()
                );
            }
        }
    }

    #[test]
    fn cursor_streams_incrementally() {
        let a = grid_items(300, 0.0, 7.0, 5.0);
        let b = grid_items(280, 3.0, 7.3, 5.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        let pool =
            BufferPool::with_capacity_pages(8, &[tr.height() as usize, ts.height() as usize]);
        let mut cursor = JoinCursor::new(&tr, &ts, JoinPlan::sj4(), pool);
        let first = cursor.next().expect("fixture has results");
        // After one pair, only a prefix of the work has run.
        let mid = cursor.stats();
        assert_eq!(mid.result_pairs, 1);
        let full = recursive_spatial_join(&tr, &ts, JoinPlan::sj4(), &JoinConfig::default());
        assert!(
            mid.io.total_accesses() < full.stats.io.total_accesses(),
            "streaming must not run the whole join for the first pair"
        );
        // Draining the rest completes the identical pair stream.
        let mut rest: Vec<_> = std::iter::once(first).chain(&mut cursor).collect();
        rest.sort_unstable();
        let mut want = full.pairs;
        want.sort_unstable();
        assert_eq!(rest, want);
        assert_eq!(cursor.stats().result_pairs, want.len() as u64);
    }

    #[test]
    fn cursor_with_tasks_matches_recursive_subjoin() {
        let a = grid_items(500, 0.0, 5.0, 3.5);
        let b = grid_items(500, 1.0, 5.2, 3.5);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        let plan = JoinPlan::sj4();
        // Root-entry task list, as the parallel join builds it.
        let rn = tr.node(tr.root());
        let sn = ts.node(ts.root());
        assert!(
            !rn.is_leaf() && !sn.is_leaf(),
            "fixture must have directory roots"
        );
        let mut tasks = Vec::new();
        for er in &rn.entries {
            for es in &sn.entries {
                if let Some(rect) = plan.search_space(&er.rect, &es.rect) {
                    tasks.push((RTree::child_page(er), RTree::child_page(es), rect));
                }
            }
        }
        assert!(!tasks.is_empty());
        let want = recursive_subjoin(&tr, &ts, plan, 16 * 200, true, &tasks);
        let pool = BufferPool::new(16 * 200, 200, &[tr.height() as usize, ts.height() as usize]);
        let cursor = JoinCursor::with_tasks(&tr, &ts, plan, pool, tasks.iter().copied());
        let got = crate::join::drain(cursor, true).0;
        assert_eq!(got.pairs, want.pairs);
        assert_eq!(got.stats, want.stats);
    }

    #[test]
    fn dropping_a_cursor_midway_reports_partial_stats() {
        let a = grid_items(300, 0.0, 6.0, 4.0);
        let b = grid_items(300, 2.0, 6.0, 4.0);
        let (tr, ts) = (build_tree(&a, 200), build_tree(&b, 200));
        let pool =
            BufferPool::with_capacity_pages(8, &[tr.height() as usize, ts.height() as usize]);
        let mut cursor = JoinCursor::new(&tr, &ts, JoinPlan::sj3(), pool);
        for _ in 0..5 {
            cursor.next();
        }
        let stats = cursor.stats();
        assert!(stats.result_pairs >= 5);
        assert!(stats.io.disk_accesses >= 2, "roots were charged");
    }
}
