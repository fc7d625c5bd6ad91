//! Storage-backend conformance: the three [`rsj_storage::NodeAccess`]
//! implementors' accounting must be interchangeable under every join
//! algorithm. This suite drives the one file stack,
//! [`rsj_storage::FileAccess`], in both instantiations — read strategy
//! {blocking, queued} — against the in-memory [`BufferPool`] oracle
//! (`tests/warm_cache.rs` does the same for the shared page cache).
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
//!   one real page read;
//! * cold → warm → `reset` → cold: a second run without a reset does fewer
//!   disk accesses; a reset replays the cold counts exactly.

mod common;

use common::{plans, run, sorted_ids, Files, Fixture, Stack, CAP_PAGES, PAGE};
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
            // Honesty: every charged miss was exactly one real page read.
            access.drain_completions();
            assert_eq!(access.physical_reads(), io.disk_accesses, "{label}: reads");
        }
    }
}

#[test]
fn backends_agree_on_pairs_and_disk_accesses() {
    check_agrees_with_the_pool("blocking", |f| f.blocking(CAP_PAGES));

    // The 20-byte f32 entry format is one more file to agree with: the
    // same pages under the same ids, every rectangle rounded outward by
    // at most two f32 ULPs — which moves no intersection test on this
    // fixture — so a cold SJ2 charges the f64 files' whole `IoStats`,
    // loses no pair, and reads files at most 0.6× the size.
    let fx = Fixture::new("conformance", TestId::A, 0.003);
    let narrow = Files::save_as("conformance-f32", &fx.r, &fx.s, EntryFormat::F32);
    let (want_pairs, want_io) = fx.files.cold_sj2(CAP_PAGES);
    let (pairs, io) = narrow.cold_sj2(CAP_PAGES);
    assert_eq!(io, want_io, "f32 files: I/O");
    assert!(
        want_pairs.iter().all(|p| pairs.binary_search(p).is_ok()),
        "f32 files: every f64 pair must survive the outward rounding"
    );
    let bytes = |f: &Files| -> u64 {
        let len = |p| std::fs::metadata(p).unwrap().len();
        f.paths.iter().map(len).sum()
    };
    assert!(
        bytes(&narrow) * 5 <= bytes(&fx.files) * 3,
        "f32 files: {} bytes against {}",
        bytes(&narrow),
        bytes(&fx.files)
    );
}

#[test]
fn queued_backend_agrees_on_pairs_and_disk_accesses() {
    // The queued strategy must be a drop-in replacement: it changes when
    // the physical read happens, never what is charged.
    check_agrees_with_the_pool("queued", |f| {
        f.queued(CAP_PAGES, CompletionConfig::default())
    });
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
    access.drain_completions();
    assert_eq!(access.physical_reads(), reset_io.disk_accesses);
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
    use rsj_core::{multiway_join, multiway_join_with_access, parallel_spatial_join_with_access};

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
    let par =
        parallel_spatial_join_with_access(r_file, s_file, JoinPlan::sj4(), true, workers, |_w| {
            fx.files.blocking(CAP_PAGES / workers)
        });
    assert_eq!(sorted_ids(&par.pairs), sorted_ids(&seq.pairs));
    let inmem = rsj_core::parallel_spatial_join(&fx.r, &fx.s, JoinPlan::sj4(), &cfg, workers);
    assert_eq!(
        par.stats.io.disk_accesses, inmem.stats.io.disk_accesses,
        "file-backed shared-nothing matches in-memory shared-nothing I/O"
    );

    // Multiway: three relations (S probed twice), each stage over a fresh
    // file-backed accountant.
    let trees = [&fx.r, &fx.s, &fx.s];
    let want = multiway_join(&trees, JoinPlan::sj4(), &cfg);
    let file_trees = [r_file, s_file, s_file];
    let got = multiway_join_with_access(&file_trees, JoinPlan::sj4(), |stage| {
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
