//! Storage-backend conformance: the [`rsj_storage::NodeAccess`]
//! implementors' accounting must be interchangeable under every join
//! algorithm. This suite drives the one file stack,
//! [`rsj_storage::FileAccess`], in all three instantiations — read
//! strategy {blocking, queued, cached} — against the in-memory
//! [`BufferPool`] oracle (`tests/warm_cache.rs` adds the shared page
//! cache's concurrent workers).
//!
//! For SJ1–SJ5 on presets A and B each row of the table must show, at the
//! same LRU capacity and from a cold start:
//!
//! * the oracle's result-pair **multiset** (the files went through a
//!   `save_to`/`open_from` round trip, so this also covers persistence
//!   fidelity);
//! * the oracle's whole **`IoStats`** — the buffer hierarchy is the same
//!   §4.1 stack everywhere, only what a miss *does* differs;
//! * honesty: once the completions drain, every charged miss was exactly
//!   one real page read (at most one on a shared cache, whose frames may
//!   already hold the page);
//! * cold → warm → `reset` → cold: a second run without a reset does fewer
//!   disk accesses; a reset replays the cold counts exactly.

mod common;

use common::{assert_reads_honest, plans, run, sorted_ids, Files, Fixture, Stack, CAP_PAGES, PAGE};
use rsj::prelude::*;
use rsj_storage::{BufferPool, CompletionConfig};

/// One row of the table against the oracle: pairs, whole `IoStats` and
/// the drained physical reads, SJ1–SJ5 × presets
/// A/B. `row` builds the row's cold stack over the fixture's files.
fn check_agrees_with_the_pool<A: Stack>(name: &str, row: impl Fn(&Files) -> A) {
    for (test, scale) in [(TestId::A, 0.003), (TestId::B, 0.003)] {
        let fx = Fixture::new("conformance", test, scale);
        for (plan, plan_name) in plans() {
            let label = format!("{name}: {test:?}/{plan_name}");
            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.files.heights());
            let (want_pairs, want_io, _) = run(&fx.r, &fx.s, plan, pool);
            assert!(!want_pairs.is_empty(), "{label}: fixture must join");

            let [r, s] = &fx.files.trees;
            let (pairs, io, access) = run(r, s, plan, row(&fx.files));
            assert_eq!(pairs, want_pairs, "{label}: pairs");
            assert_eq!(io, want_io, "{label}: I/O");
            // Honesty: every charged miss was one real page read.
            assert_reads_honest(&access, io.disk_accesses, &label);
        }
    }
}

#[test]
fn backends_agree_on_pairs_and_disk_accesses() {
    check_agrees_with_the_pool("blocking", |f| f.blocking(CAP_PAGES));
}

#[test]
fn queued_backend_agrees_on_pairs_and_disk_accesses() {
    // The queued strategy must be a drop-in replacement: it changes when
    // the physical read happens, never what is charged.
    check_agrees_with_the_pool("queued", |f| {
        f.queued(CAP_PAGES, CompletionConfig::default())
    });
}

#[test]
fn cached_backend_agrees_on_pairs_and_disk_accesses() {
    // A handle on a private shared cache charges like the pool too: the
    // frames decide only whether a charged miss reads.
    check_agrees_with_the_pool("cached", |f| f.cached(CAP_PAGES, None));
}

/// Cold → warm → `reset` → cold, for one row of the table.
fn check_cold_warm_and_reset<A: Stack>([r, s]: &[RTree; 2], plan: JoinPlan, mut access: A) {
    let (cold_pairs, cold_io, a) = run(r, s, plan, access);
    access = a;
    assert!(cold_io.disk_accesses > 0, "cold start must hit the files");

    // Warm: same accountant, LRU still populated.
    let (warm_pairs, warm_io, a) = run(r, s, plan, access);
    access = a;
    assert_eq!(warm_pairs, cold_pairs);
    assert!(
        warm_io.disk_accesses < cold_io.disk_accesses,
        "warm run must reuse the buffer: {} vs {}",
        warm_io.disk_accesses,
        cold_io.disk_accesses
    );

    // Reset: everything cold again, including the physical read counters.
    access.reset();
    assert_eq!(access.physical_reads(), 0);
    let (reset_pairs, reset_io, access) = run(r, s, plan, access);
    assert_eq!(reset_pairs, cold_pairs);
    assert_eq!(
        reset_io, cold_io,
        "a reset backend must replay the cold run"
    );
    assert_reads_honest(&access, reset_io.disk_accesses, "after reset");
}

// A buffer big enough for the whole working set: the warm run must then
// be served from memory.
const WHOLE_SET: usize = 4096;

#[test]
fn file_backend_cold_warm_and_reset() {
    let f = Fixture::new("conformance", TestId::A, 0.003).files;
    check_cold_warm_and_reset(&f.trees, JoinPlan::sj2(), f.blocking(WHOLE_SET));
}

#[test]
fn queued_backend_cold_warm_and_reset() {
    let f = Fixture::new("conformance", TestId::A, 0.003).files;
    let cfg = CompletionConfig::default();
    check_cold_warm_and_reset(&f.trees, JoinPlan::sj4(), f.queued(CAP_PAGES, cfg));
}

#[test]
fn cached_backend_cold_warm_and_reset() {
    let f = Fixture::new("conformance", TestId::A, 0.003).files;
    check_cold_warm_and_reset(&f.trees, JoinPlan::sj4(), f.cached(CAP_PAGES, None));
}

#[test]
fn raw_cursor_runs_over_the_file_backend() {
    use rsj_core::exec::RawJoinCursor;
    let fx = Fixture::new("conformance", TestId::B, 0.002);
    let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.files.heights());
    let (want_pairs, want_io, _) = run(&fx.r, &fx.s, JoinPlan::sj4(), pool);

    let [r_file, s_file] = &fx.files.trees;
    let access = fx.files.blocking(CAP_PAGES);
    let mut cursor = RawJoinCursor::raw(r_file, s_file, JoinPlan::sj4(), access);
    let mut pairs: Vec<(u64, u64)> = (&mut cursor).map(|(a, b)| (a.0, b.0)).collect();
    pairs.sort_unstable();
    let stats = cursor.stats();
    assert_eq!(pairs, want_pairs, "raw file-backed pairs");
    assert_eq!(stats.io, want_io, "raw file-backed I/O");
    assert_eq!(stats.join_comparisons, 0, "raw mode reports no comparisons");
}

#[test]
fn parallel_and_multiway_run_over_the_file_backend() {
    use rsj_core::{multiway_join, parallel_spatial_join};

    let fx = Fixture::new("conformance", TestId::A, 0.003);
    let [r_file, s_file] = &fx.files.trees;
    let cfg = JoinConfig::with_buffer(CAP_PAGES * PAGE);

    // Parallel: file-backed shared-nothing, each worker with its own file
    // handles and a slice of the page budget — against the in-memory
    // shared-nothing deployment with the same per-worker budget.
    let workers = 4;
    // Both deployments clamp the worker count to the number of root-entry
    // tasks; the per-worker budgets below assume no clamping happens, so
    // pin that the fixture really feeds all four workers.
    let root_tasks: usize = {
        let rn = fx.r.node(fx.r.root());
        let sn = fx.s.node(fx.s.root());
        rn.entries
            .iter()
            .map(|er| {
                sn.entries
                    .iter()
                    .filter(|es| JoinPlan::sj4().search_space(&er.rect, &es.rect).is_some())
                    .count()
            })
            .sum()
    };
    assert!(
        root_tasks >= workers,
        "fixture must give every worker a task (got {root_tasks})"
    );
    let seq = rsj_core::spatial_join(&fx.r, &fx.s, JoinPlan::sj4(), &cfg);
    let par = parallel_spatial_join::<CmpCounter, _>(
        r_file,
        s_file,
        JoinPlan::sj4(),
        true,
        workers,
        |_, _| fx.files.blocking(CAP_PAGES / workers),
    );
    assert_eq!(sorted_ids(&par.pairs), sorted_ids(&seq.pairs));
    let inmem = parallel_spatial_join::<CmpCounter, _>(
        &fx.r,
        &fx.s,
        JoinPlan::sj4(),
        cfg.collect_pairs,
        workers,
        |_, n| JoinConfig::with_buffer(cfg.buffer_bytes / n).buffer_pool(&[&fx.r, &fx.s]),
    );
    assert_eq!(
        par.stats.io.disk_accesses, inmem.stats.io.disk_accesses,
        "file-backed shared-nothing matches in-memory shared-nothing I/O"
    );

    // Multiway: three relations (S probed twice), each stage over a fresh
    // file-backed accountant.
    let trees = [&fx.r, &fx.s, &fx.s];
    let want = multiway_join::<CmpCounter, _>(&trees, JoinPlan::sj4(), |_, t| cfg.buffer_pool(t));
    let file_trees = [r_file, s_file, s_file];
    let got = multiway_join::<CmpCounter, _>(&file_trees, JoinPlan::sj4(), |stage, _| {
        let mut files = fx.files.files();
        let mut heights = fx.files.heights().to_vec();
        if stage > 0 {
            // The probe stages touch S alone.
            files.remove(0);
            heights.remove(0);
        }
        FileNodeAccess::with_capacity_pages(files, CAP_PAGES, &heights, EvictionPolicy::Lru)
            .unwrap()
    });
    let tuples = |res: &MultiwayResult| {
        let mut v: Vec<Vec<u64>> = res
            .tuples
            .iter()
            .map(|t| t.iter().map(|d| d.0).collect())
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(tuples(&got), tuples(&want));
    assert_eq!(got.io.disk_accesses, want.io.disk_accesses);
    assert_eq!(got.comparisons, want.comparisons);
}
