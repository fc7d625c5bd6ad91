//! Parallel spatial join (extension — the paper's §6 future work).
//!
//! "Parallel computer systems and disk arrays are very interesting for
//! performing spatial joins and window queries, for example using parallel
//! R-trees \[14\]." The deployment modelled is **shared-nothing**: the
//! qualifying pairs of *root entries* are partitioned into contiguous runs
//! of the sweep-ordered pair list and dealt to worker threads up front, so
//! each worker sees spatially local work — the same locality argument as
//! the SJ3/SJ4 read schedules, applied across workers. Each worker joins
//! its subtree pairs through a **private accountant** that
//! [`parallel_spatial_join`]'s factory builds for it; what the factory
//! returns is the deployment:
//!
//! * a private [`rsj_storage::BufferPool`] holding the worker's share of
//!   the budget (per-worker buffer/disk resources, as with a disk array).
//!   A page needed by two workers is fetched twice — exactly what a
//!   shared-nothing deployment pays;
//! * a private [`rsj_storage::FileAccess`] stack — blocking, or queued
//!   with its own completion queue — over the worker's own file handles;
//! * a handle onto one [`rsj_storage::SharedPageCache`]
//!   (`|_, _| cache.handle(cap)`): logical charges stay private and
//!   bit-identical to shared-nothing, but a page faulted by one worker is
//!   *physically* free for the next — the §6 shared-buffer win, at the
//!   frame layer.
//!
//! Accounting semantics: the merged `disk_accesses` is the *sum* over
//! workers (plus the coordinator's two root reads), directly comparable
//! against the sequential join.

use crate::exec::JoinCursor;
use crate::join::JoinResult;
use crate::plan::JoinPlan;
use crate::stats::JoinStats;
use rsj_geom::{Meter, Rect};
use rsj_rtree::RTree;
use rsj_storage::{IoStats, NodeAccess, PageId};

/// Enumerates qualifying root-entry pairs as sweep-ordered subjoin tasks
/// — the partitioning unit of the parallel join. The qualification
/// comparisons are charged to `cmp`.
fn root_tasks<M: Meter>(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    cmp: &mut M,
) -> Vec<(PageId, PageId, Rect)> {
    let rn = r.node(r.root());
    let sn = s.node(s.root());
    let mut tasks: Vec<(PageId, PageId, Rect)> = Vec::new();
    for er in &rn.entries {
        for es in &sn.entries {
            if let Some(rect) = plan.search_space_counted(&er.rect, &es.rect, cmp) {
                tasks.push((RTree::child_page(er), RTree::child_page(es), rect));
            }
        }
    }
    // Sweep-order the tasks for per-worker locality, then deal contiguous
    // chunks.
    tasks.sort_by(|a, b| a.2.xl.partial_cmp(&b.2.xl).expect("no NaN"));
    tasks
}

/// Sums per-worker results into one [`JoinResult`]; `root_comparisons` is
/// the coordinator's task-enumeration tally, and the two coordinator root
/// reads are charged as disk accesses.
fn merge_results(results: Vec<JoinResult>, root_comparisons: u64, page_bytes: usize) -> JoinResult {
    let mut pairs = Vec::new();
    let mut io = IoStats {
        // Both roots were read once by the coordinator.
        disk_accesses: 2,
        ..IoStats::default()
    };
    let mut join_comparisons = root_comparisons;
    let mut sort_comparisons = 0;
    let mut result_pairs = 0;
    for res in results {
        pairs.extend(res.pairs);
        io += res.stats.io;
        join_comparisons += res.stats.join_comparisons;
        sort_comparisons += res.stats.sort_comparisons;
        result_pairs += res.stats.result_pairs;
    }
    JoinResult {
        pairs,
        stats: JoinStats {
            join_comparisons,
            sort_comparisons,
            io,
            result_pairs,
            page_bytes,
        },
    }
}

/// Computes the spatial join with `workers` threads, metering comparisons
/// with `M` ([`rsj_geom::CmpCounter`] counts, [`rsj_geom::NoOp`] is the
/// raw mode) and charging each worker's I/O to its own accountant.
///
/// `make_access(w, n)` builds worker `w`'s accountant, where `n` is the
/// number of workers that run — `workers` clamped to the number of root
/// tasks — and so share any budget. The shared-nothing in-memory
/// deployment gives each a pool of `buffer_bytes / n`:
///
/// ```
/// # use rsj_core::{parallel_spatial_join, spatial_join, JoinConfig, JoinPlan};
/// # use rsj_geom::CmpCounter;
/// # use rsj_rtree::{DataId, RTree, RTreeParams};
/// # use rsj_geom::Rect;
/// # let mut r = RTree::new(RTreeParams::for_page_size(1024));
/// # for i in 0..2_000u64 {
/// #     let (x, y) = ((i % 50) as f64, (i / 50) as f64);
/// #     r.insert(Rect::from_corners(x, y, x + 1.5, y + 1.5), DataId(i));
/// # }
/// # let s = r.clone();
/// let cfg = JoinConfig::default();
/// let par = parallel_spatial_join::<CmpCounter, _>(&r, &s, JoinPlan::sj4(), true, 4, |_, n| {
///     JoinConfig::with_buffer(cfg.buffer_bytes / n).buffer_pool(&[&r, &s])
/// });
/// let seq = spatial_join(&r, &s, JoinPlan::sj4(), &cfg);
/// assert_eq!(par.stats.result_pairs, seq.stats.result_pairs);
/// ```
///
/// A file-backed worker owns its stack: private buffers, private
/// `IoStats` — the charge order inside each worker stays deterministic —
/// and, for the queued read strategy, private submission lanes its cursor
/// parks on and overlaps by running ahead. A cursor drains its queue when
/// its machine is exhausted, so a worker's result is final before its
/// thread joins. Workers given handles onto one
/// [`rsj_storage::SharedPageCache`] keep private logical LRUs and path
/// buffers, so the merged [`IoStats`] are bit-identical to a
/// shared-nothing file deployment at the same per-worker budget; only the
/// *physical* reads are shared (single-flight,
/// [`rsj_storage::SharedPageCache::physical_reads`]), and a repeat join
/// over the same warm cache reads almost nothing. Such a join is safe
/// under live updates: an `OpenCachedTree` on a store of the same cache
/// may insert/delete concurrently — a write marks its frame dirty in one
/// lock hold of the frame table and waits on nothing (the join computes
/// on its own trees, not on frame bytes, and its §4.3 pins are its own
/// handles'), and dirty frames evicted by join pressure stay in the
/// cache's dirty set until the updater's flush writes them (the `latch`
/// conformance suite).
///
/// Falls back to one sequential cursor over `make_access(0, 1)` when
/// `workers <= 1` or a root is a leaf (nothing to partition). The
/// result-pair *set* equals the sequential join's; pair order differs.
pub fn parallel_spatial_join<M, A>(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    collect_pairs: bool,
    workers: usize,
    make_access: impl Fn(usize, usize) -> A + Sync,
) -> JoinResult
where
    M: Meter,
    A: NodeAccess + Send,
{
    assert_eq!(r.params().page_bytes, s.params().page_bytes);
    if workers <= 1 || r.node(r.root()).is_leaf() || s.node(s.root()).is_leaf() {
        return JoinCursor::<A, M>::metered(r, s, plan, make_access(0, 1))
            .into_result(collect_pairs)
            .0;
    }
    let mut cmp = M::default();
    let tasks = root_tasks(r, s, plan, &mut cmp);
    let workers = workers.min(tasks.len()).max(1);
    // Deal the tasks as contiguous chunks, one worker thread each.
    let chunk = tasks.len().div_ceil(workers).max(1);
    let make_access = &make_access;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .chunks(chunk)
            .enumerate()
            .map(|(w, slice)| {
                scope.spawn(move || {
                    let access = make_access(w, workers);
                    JoinCursor::<A, M>::with_tasks(r, s, plan, access, slice.iter().copied())
                        .into_result(collect_pairs)
                        .0
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    merge_results(results, cmp.get(), r.params().page_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinConfig;
    use rsj_geom::CmpCounter;
    use rsj_rtree::{DataId, InsertPolicy, RTreeParams};

    fn items(n: u64, offset: f64) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = offset + (i % 40) as f64 * 5.0;
                let y = offset + (i / 40) as f64 * 5.0;
                (Rect::from_corners(x, y, x + 3.5, y + 3.5), i)
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

    /// The shared-nothing in-memory deployment: each worker a pool of
    /// its share of `cfg`'s budget.
    fn pooled(
        r: &RTree,
        s: &RTree,
        plan: JoinPlan,
        cfg: &JoinConfig,
        workers: usize,
    ) -> JoinResult {
        parallel_spatial_join::<CmpCounter, _>(r, s, plan, cfg.collect_pairs, workers, |_, n| {
            JoinConfig::with_buffer(cfg.buffer_bytes / n).buffer_pool(&[r, s])
        })
    }

    fn sorted_pairs(res: &JoinResult) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = res.pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn parallel_equals_sequential_for_all_worker_counts() {
        let a = items(600, 0.0);
        let b = items(600, 1.5);
        let (ta, tb) = (build(&a), build(&b));
        let cfg = JoinConfig::with_buffer(16 * 200);
        let seq = crate::spatial_join(&ta, &tb, JoinPlan::sj4(), &cfg);
        let want = sorted_pairs(&seq);
        // `(workers, disk_accesses, join_comparisons, sort_comparisons)`,
        // pinned so that a change to the budget split or the task
        // partition shows up as a count, not only as a pair set. The last
        // row asks for more workers than there are root tasks.
        let pinned: [(usize, u64, u64, u64); 9] = [
            (1, 336, 29296, 2397),
            (2, 380, 29281, 2395),
            (3, 394, 29281, 2395),
            (4, 405, 29281, 2395),
            (5, 405, 29281, 2395),
            (6, 405, 29281, 2395),
            (7, 405, 29281, 2395),
            (8, 405, 29281, 2395),
            (64, 405, 29281, 2395),
        ];
        let root_tasks = root_tasks(&ta, &tb, JoinPlan::sj4(), &mut CmpCounter::default()).len();
        assert!(root_tasks < 64, "{root_tasks} root tasks");
        for (workers, disk, join, sort) in pinned {
            let par = pooled(&ta, &tb, JoinPlan::sj4(), &cfg, workers);
            assert_eq!(sorted_pairs(&par), want, "workers = {workers}");
            assert_eq!(par.stats.result_pairs, seq.stats.result_pairs);
            assert_eq!(
                (
                    par.stats.io.disk_accesses,
                    par.stats.join_comparisons,
                    par.stats.sort_comparisons
                ),
                (disk, join, sort),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn leaf_root_falls_back_to_sequential() {
        let a = items(5, 0.0);
        let b = items(600, 0.0);
        let (ta, tb) = (build(&a), build(&b));
        assert_eq!(ta.height(), 1);
        let cfg = JoinConfig::default();
        let par = pooled(&ta, &tb, JoinPlan::sj4(), &cfg, 4);
        let seq = crate::spatial_join(&ta, &tb, JoinPlan::sj4(), &cfg);
        assert_eq!(sorted_pairs(&par), sorted_pairs(&seq));
    }

    #[test]
    fn shared_nothing_costs_at_least_sequential_io() {
        // Private buffers can only duplicate fetches, never save them
        // relative to one shared buffer of the same total size.
        let a = items(800, 0.0);
        let b = items(800, 2.0);
        let (ta, tb) = (build(&a), build(&b));
        let cfg = JoinConfig::with_buffer(32 * 200);
        let seq = crate::spatial_join(&ta, &tb, JoinPlan::sj3(), &cfg);
        let par = pooled(&ta, &tb, JoinPlan::sj3(), &cfg, 4);
        assert!(
            par.stats.io.disk_accesses >= seq.stats.io.disk_accesses,
            "parallel {} vs sequential {}",
            par.stats.io.disk_accesses,
            seq.stats.io.disk_accesses
        );
    }

    #[test]
    fn works_with_predicates() {
        use crate::plan::JoinPredicate;
        let a = items(400, 0.0);
        let b = items(400, 3.0);
        let (ta, tb) = (build(&a), build(&b));
        let cfg = JoinConfig::default();
        let plan = JoinPlan::sj4().with_predicate(JoinPredicate::WithinDistance(4.0));
        let seq = crate::spatial_join(&ta, &tb, plan, &cfg);
        let par = pooled(&ta, &tb, plan, &cfg, 3);
        assert_eq!(sorted_pairs(&par), sorted_pairs(&seq));
    }
}
