//! Parallel spatial join (extension — the paper's §6 future work).
//!
//! "Parallel computer systems and disk arrays are very interesting for
//! performing spatial joins and window queries, for example using parallel
//! R-trees \[14\]." The deployment modelled is **shared-nothing**: the
//! qualifying pairs of *root entries* are partitioned into contiguous runs
//! of the sweep-ordered pair list and dealt to worker threads up front, so
//! each worker sees spatially local work — the same locality argument as
//! the SJ3/SJ4 read schedules, applied across workers. Each worker joins
//! its subtree pairs through a **private accountant** from the three
//! `NodeAccess` implementors:
//!
//! * [`parallel_spatial_join`] — a private [`rsj_storage::BufferPool`] of
//!   `buffer / workers` per worker (per-worker buffer/disk resources, as
//!   with a disk array). A page needed by two workers is fetched twice —
//!   exactly what a shared-nothing deployment pays;
//! * [`parallel_spatial_join_with_access`] — any caller-built backend per
//!   worker, e.g. a private [`rsj_storage::FileAccess`] stack — blocking,
//!   or queued with its own completion queue — over the worker's own file
//!   handles;
//! * [`parallel_spatial_join_warm`] — handles onto one
//!   [`SharedPageCache`]: logical charges stay private and bit-identical
//!   to shared-nothing, but a page faulted by one worker is *physically*
//!   free for the next — the §6 shared-buffer win, at the frame layer.
//!
//! Accounting semantics: the merged `disk_accesses` is the *sum* over
//! workers (plus the coordinator's two root reads), directly comparable
//! against the sequential join.

use crate::exec::JoinCursor;
use crate::join::JoinResult;
use crate::plan::{JoinConfig, JoinPlan};
use crate::stats::JoinStats;
use rsj_geom::{CmpCounter, Meter, NoOp, Rect};
use rsj_rtree::RTree;
use rsj_storage::{IoStats, NodeAccess, PageId, SharedPageCache};

/// Computes the spatial join with `workers` threads, each charging a
/// private [`rsj_storage::BufferPool`] of `cfg.buffer_bytes / workers`.
///
/// Falls back to the sequential [`crate::spatial_join`] when `workers <= 1`
/// or when a root is a leaf (nothing to partition). The result-pair *set*
/// equals the sequential join's; pair order differs.
pub fn parallel_spatial_join(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    cfg: &JoinConfig,
    workers: usize,
) -> JoinResult {
    parallel_join_metered::<CmpCounter>(r, s, plan, cfg, workers)
}

/// [`parallel_spatial_join`] in raw mode: every worker runs a
/// [`NoOp`]-metered cursor, so comparison accounting compiles out of the
/// whole fleet. Same result-pair multiset; `stats` report zero
/// comparisons and the summed worker I/O.
pub fn parallel_spatial_join_fast(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    cfg: &JoinConfig,
    workers: usize,
) -> JoinResult {
    parallel_join_metered::<NoOp>(r, s, plan, cfg, workers)
}

/// Enumerates qualifying root-entry pairs as sweep-ordered subjoin tasks
/// — the partitioning unit shared by every parallel deployment. The
/// qualification comparisons are charged to `cmp`.
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

fn parallel_join_metered<M: Meter>(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    cfg: &JoinConfig,
    workers: usize,
) -> JoinResult {
    assert_eq!(r.params().page_bytes, s.params().page_bytes);
    if workers <= 1 || r.node(r.root()).is_leaf() || s.node(s.root()).is_leaf() {
        return crate::join::spatial_join_metered::<M>(r, s, plan, cfg);
    }
    let mut cmp = M::default();
    let tasks = root_tasks(r, s, plan, &mut cmp);
    let workers = workers.min(tasks.len()).max(1);
    // The budget is split over the workers that actually run.
    let per_worker = JoinConfig {
        buffer_bytes: cfg.buffer_bytes / workers,
        ..*cfg
    };
    let results =
        static_partition::<M, _, _>(r, s, plan, cfg.collect_pairs, workers, &tasks, &|_w| {
            per_worker.buffer_pool(&[r, s])
        });
    merge_results(results, cmp.get(), r.params().page_bytes)
}

/// [`parallel_spatial_join`] over caller-supplied [`NodeAccess`] backends:
/// `make_access(w)` builds worker `w`'s private accountant (for a
/// file-backed shared-nothing deployment: a [`rsj_storage::FileAccess`]
/// stack with a private read strategy, [`rsj_storage::FileNodeAccess`] or
/// [`rsj_storage::CompletionFileAccess`],
/// over freshly-opened page files — one file per store — and a slice of
/// the buffer budget; each worker gets its own file handles, like a
/// worker process would). Tasks are partitioned statically and accounted
/// as in [`parallel_spatial_join`]. Each worker's cursor reads on demand
/// only; over a stack with the queued read strategy it overlaps those
/// reads by running ahead of its gated results, per worker.
///
/// A completion-driven worker owns its stack's queue: private buffers,
/// private `IoStats` — the charge order inside each worker stays
/// deterministic — and private submission lanes its cursor parks on. A
/// cursor drains its queue when its machine is exhausted, so a worker's
/// result is final before its thread joins.
///
/// Falls back to a sequential join over `make_access(0)` when `workers <=
/// 1` or a root is a leaf.
pub fn parallel_spatial_join_with_access<A, F>(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    collect_pairs: bool,
    workers: usize,
    make_access: F,
) -> JoinResult
where
    A: NodeAccess + Send,
    F: Fn(usize) -> A + Sync,
{
    parallel_metered_with_access::<CmpCounter, A, F>(
        r,
        s,
        plan,
        collect_pairs,
        workers,
        make_access,
    )
}

/// The warm-pool deployment of [`parallel_spatial_join_with_access`]: all
/// workers run [`rsj_storage::FileAccess`] stacks with the cached read
/// strategy ([`rsj_storage::SharedCacheFileAccess`] handles) over one
/// [`SharedPageCache`] — the latched frame cache that outlives this call.
///
/// Each worker keeps a private logical LRU of `cap_pages_per_worker`
/// pages and private path buffers, so the merged [`IoStats`] are
/// bit-identical to a shared-nothing file deployment at the same
/// per-worker budget; only the *physical* reads are shared — a page
/// faulted by one worker is served from the frame layer for every other
/// (single-flight, [`SharedPageCache::physical_reads`]), and a repeat
/// join over the same warm cache reads almost nothing. Callers compare
/// `cache.physical_reads()` before/after to see the dedup; the §4.1
/// logical accounting never moves.
///
/// Safe under live updates: a background `OpenCachedTree` opened on a
/// store of the same cache (`SharedPageCache::update_handle`) may
/// insert/delete concurrently with this call. The per-frame write latch
/// arbitrates — writers wait on the pins this join holds, and a write
/// lands in one lock hold, so this join's demands see a page before or
/// after it, never during — and dirty frames evicted by join pressure
/// stay in the cache's dirty set until the updater's flush writes them,
/// so neither side loses updates or moves the other's logical charges
/// (see the `latch` conformance suite).
pub fn parallel_spatial_join_warm(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    collect_pairs: bool,
    workers: usize,
    cache: &std::sync::Arc<SharedPageCache>,
    cap_pages_per_worker: usize,
) -> JoinResult {
    parallel_spatial_join_with_access(r, s, plan, collect_pairs, workers, |_w| {
        cache.handle(cap_pages_per_worker)
    })
}

/// The generic engine behind [`parallel_spatial_join_with_access`]; pass
/// [`NoOp`] for raw mode.
pub fn parallel_metered_with_access<M, A, F>(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    collect_pairs: bool,
    workers: usize,
    make_access: F,
) -> JoinResult
where
    M: Meter,
    A: NodeAccess + Send,
    F: Fn(usize) -> A + Sync,
{
    assert_eq!(r.params().page_bytes, s.params().page_bytes);
    if workers <= 1 || r.node(r.root()).is_leaf() || s.node(s.root()).is_leaf() {
        let (res, _access) = crate::join::spatial_join_metered_with_access::<A, M>(
            r,
            s,
            plan,
            collect_pairs,
            make_access(0),
        );
        return res;
    }
    let mut cmp = M::default();
    let tasks = root_tasks(r, s, plan, &mut cmp);
    let workers = workers.min(tasks.len()).max(1);
    let results =
        static_partition::<M, A, F>(r, s, plan, collect_pairs, workers, &tasks, &make_access);
    merge_results(results, cmp.get(), r.params().page_bytes)
}

/// The static-partition worker scaffold shared by every deployment: deal `tasks` as contiguous chunks to `workers` threads,
/// each draining a task cursor over its own accountant from
/// `make_access(w)`.
fn static_partition<M, A, F>(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    collect: bool,
    workers: usize,
    tasks: &[(PageId, PageId, Rect)],
    make_access: &F,
) -> Vec<JoinResult>
where
    M: Meter,
    A: NodeAccess + Send,
    F: Fn(usize) -> A + Sync,
{
    let chunk = tasks.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .chunks(chunk)
            .enumerate()
            .map(|(w, slice)| {
                scope.spawn(move || {
                    let cursor = JoinCursor::<A, M>::metered_with_tasks(
                        r,
                        s,
                        plan,
                        make_access(w),
                        slice.iter().copied(),
                    );
                    crate::join::drain(cursor, collect).0
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for workers in [1usize, 2, 3, 4, 8, 64] {
            let par = parallel_spatial_join(&ta, &tb, JoinPlan::sj4(), &cfg, workers);
            assert_eq!(sorted_pairs(&par), want, "workers = {workers}");
            assert_eq!(par.stats.result_pairs, seq.stats.result_pairs);
        }
    }

    #[test]
    fn leaf_root_falls_back_to_sequential() {
        let a = items(5, 0.0);
        let b = items(600, 0.0);
        let (ta, tb) = (build(&a), build(&b));
        assert_eq!(ta.height(), 1);
        let cfg = JoinConfig::default();
        let par = parallel_spatial_join(&ta, &tb, JoinPlan::sj4(), &cfg, 4);
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
        let par = parallel_spatial_join(&ta, &tb, JoinPlan::sj3(), &cfg, 4);
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
        let par = parallel_spatial_join(&ta, &tb, plan, &cfg, 3);
        assert_eq!(sorted_pairs(&par), sorted_pairs(&seq));
    }
}
