//! Completion-driven I/O conformance: the submission/completion queue
//! overlaps demand misses with join work, but *when* a read completes
//! must never leak into *what* is charged or produced. Under every
//! adversarial completion order — random per-page latency, reversed
//! order, single-page starvation, one slow store — the queued read
//! strategy over both
//! page sources ([`rsj_storage::CompletionFileAccess`],
//! [`rsj_storage::ShardedCompletionFileAccess`]) and the shared-queue
//! parallel deployment must emit pair multisets and `IoStats`
//! bit-identical to their blocking twins, and a parked cursor must sleep
//! on the completion condvar instead of busy-polling.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{plans, run, sorted_ids, Fixture, Stack, CAP_PAGES};
use proptest::prelude::*;
use rsj::prelude::*;
use rsj_storage::completion::DelayFn;
use rsj_storage::sharded::shard_lane_queue;
use rsj_storage::{
    BufKey, BufferPool, CacheConfig, CompletionConfig, ShardedCompletionFileAccess, SharedPageCache,
};

/// One queued row under `delay` against its blocking twin: pairs and
/// whole `IoStats` bit-identical for SJ1–SJ5, the miss-service split
/// covering every charged disk access, every charge one physical read.
fn check_row<B: Stack, Q: Stack>(
    tag: &str,
    [r, s]: &[RTree; 2],
    blocking: impl Fn() -> B,
    queued: impl Fn() -> Q,
) {
    for (plan, name) in plans() {
        let tag = format!("{tag}/{name}");
        let (want_pairs, want_io, _) = run(r, s, plan, blocking());
        assert!(!want_pairs.is_empty(), "{tag}: fixture must join");

        let (pairs, io, access) = run(r, s, plan, queued());
        assert_eq!(pairs, want_pairs, "{tag}: queued pairs");
        assert_eq!(io, want_io, "{tag}: queued I/O");
        // Every charged miss was served exactly once: either an adopted
        // hint read paid for it, or the demand submitted its own.
        let (staged, demand) = access.served();
        assert_eq!(staged + demand, io.disk_accesses, "{tag}: miss split");
        // After the queue settles, physical reads equal the misses
        // (dropped-window hints are never read, and the executor demands
        // every page it hints).
        access.drain_completions();
        assert_eq!(access.physical_reads(), io.disk_accesses, "{tag}: reads");
    }
}

/// Both queued rows — plain and sharded — under `delay`, each against the
/// blocking stack over the same page source.
fn check_against_blocking(fx: &Fixture, delay: Option<DelayFn>, label: &str) {
    let f = &fx.files;
    let cfg = || CompletionConfig {
        delay: delay.clone(),
        ..CompletionConfig::default()
    };
    check_row(
        &format!("{label}/plain"),
        &f.plain_trees,
        || f.plain_blocking(CAP_PAGES),
        || f.plain_queued(CAP_PAGES, cfg()),
    );
    check_row(
        &format!("{label}/sharded"),
        &f.sharded_trees,
        || f.sharded_blocking(CAP_PAGES),
        || f.sharded_queued(CAP_PAGES, cfg()),
    );
}

/// Drop-in conformance without any injected delay: completion-driven
/// execution overlaps reads with join work but charges identically.
#[test]
fn overlap_backend_agrees_with_blocking_on_pairs_and_io() {
    for (test, scale) in [(TestId::A, 0.003), (TestId::B, 0.003)] {
        let fx = Fixture::new("overlap", test, scale);
        check_against_blocking(&fx, None, &format!("{test:?}"));
    }
}

/// Reversed completion order: early-submitted pages (roots live at the
/// low page ids) wait the longest, so completions arrive roughly in the
/// opposite of submission order. Charges must not move.
#[test]
fn overlap_survives_reversed_completion_order() {
    let fx = Fixture::new("overlap", TestId::A, 0.003);
    let delay: DelayFn = Arc::new(|key: BufKey| {
        let inverted = 512u64.saturating_sub(u64::from(key.page.0));
        Some(Duration::from_micros(inverted * 4))
    });
    check_against_blocking(&fx, Some(delay), "reversed");
}

/// Single-page starvation: the root of store 0 — charged on the very
/// first machine step — completes ~20 ms after everything else. The
/// cursor must park on it, keep every later read in flight, and still
/// emit bit-identical results.
#[test]
fn overlap_survives_one_page_starvation() {
    let fx = Fixture::new("overlap", TestId::B, 0.003);
    let starved = BufKey::new(0, fx.files.plain_trees[0].root());
    let delay: DelayFn = Arc::new(move |key: BufKey| {
        if key == starved {
            Some(Duration::from_millis(20))
        } else {
            None
        }
    });
    check_against_blocking(&fx, Some(delay), "starved");
}

/// One slow store: every page of R completes 300 µs late, S at once —
/// the order most hostile to an age-ordered worker pool, where the whole
/// pool can sit in R's reads while S's younger demands queue behind them.
/// Over every stack row and through the shared cache, SJ4 must stay on
/// the `BufferPool` oracle in pairs and `IoStats`, one physical read per
/// charge.
#[test]
fn overlap_survives_one_slow_store_on_every_stack() {
    let fx = Fixture::new("overlap", TestId::A, 0.003);
    let plan = JoinPlan::sj4();
    let heights = fx.files.heights();
    let delay: DelayFn =
        Arc::new(|key: BufKey| (key.store == 0).then(|| Duration::from_micros(300)));
    let oracle = |[r, s]: &[RTree; 2]| {
        let pool = BufferPool::with_capacity_pages(CAP_PAGES, &heights);
        let (pairs, io, _) = run(r, s, plan, pool);
        assert!(io.disk_accesses > 0, "fixture must miss");
        (pairs, io)
    };

    let stacks = |label: &str, trees: &[RTree; 2], access: &mut dyn Stack| {
        let [r, s] = trees;
        let (pairs, io, access) = run(r, s, plan, access);
        assert_eq!((pairs, io), oracle(trees), "{label}");
        access.drain_completions();
        assert_eq!(access.physical_reads(), io.disk_accesses, "{label}: reads");
    };
    fx.files
        .for_each_stack(CAP_PAGES, Some(delay.clone()), stacks);

    let cfg = CacheConfig {
        workers: 1,
        delay: Some(delay),
        ..CacheConfig::default()
    };
    let cache = SharedPageCache::open(&fx.files.plain, CAP_PAGES, &heights, cfg).unwrap();
    let trees = &fx.files.plain_trees;
    let (pairs, io, _) = run(&trees[0], &trees[1], plan, cache.handle(CAP_PAGES));
    assert_eq!((pairs, io), oracle(trees), "shared cache");
    cache.drain();
    let physical = cache.physical_reads();
    assert_eq!(physical, cache.queue().total_reads(), "shared cache: reads");
    assert!(
        physical <= io.disk_accesses,
        "a lone handle reads <= charges"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random per-page completion latency (a keyed hash of the page id,
    /// seeded per case): any interleaving of completions the scheduler
    /// can produce must leave SJ1–SJ5 pair multisets and IoStats
    /// bit-identical to the blocking file backend.
    #[test]
    fn overlap_survives_random_completion_orders(
        which in 0usize..2,
        seed in 0u64..u64::MAX,
        span_us in 50u64..400,
    ) {
        let test = if which == 0 { TestId::A } else { TestId::B };
        let fx = Fixture::new("overlap", test, 0.003);
        let delay: DelayFn = Arc::new(move |key: BufKey| {
            let mut h = (u64::from(key.page.0) << 8 | u64::from(key.store)) ^ seed;
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            Some(Duration::from_micros(h % span_us))
        });
        check_against_blocking(&fx, Some(delay), &format!("random/{test:?}/{seed}"));
    }
}

/// A parked cursor must sleep on the completion condvar, not spin on the
/// poll predicates: the queue meters every `is_complete`/`is_settled`
/// call, and under injected latency the total must stay within a small
/// per-pair, per-miss budget. A busy-spin would show millions of polls.
#[test]
fn overlap_parked_cursor_never_busy_spins() {
    let fx = Fixture::new("overlap", TestId::A, 0.003);
    let delay: DelayFn = Arc::new(|_| Some(Duration::from_millis(2)));
    let [r_file, s_file] = &fx.files.plain_trees;
    let cfg = CompletionConfig {
        delay: Some(delay),
        ..CompletionConfig::default()
    };
    let access = fx.files.plain_queued(CAP_PAGES, cfg);
    let (pairs, io, access) = run(r_file, s_file, JoinPlan::sj2(), access);
    assert!(io.disk_accesses > 0, "fixture must miss");
    let polls = access.queue().poll_count();
    // One settled check per emitted pair, plus a bounded run-ahead burst
    // (RUN_AHEAD_STEPS = 32 gate probes) per parked miss barrier.
    let budget = pairs.len() as u64 + 64 * (io.disk_accesses + 1);
    assert!(
        polls <= budget,
        "cursor busy-spun: {polls} polls for {} pairs / {} misses (budget {budget})",
        pairs.len(),
        io.disk_accesses
    );
}

/// A wait is timed where it happens: a cursor over the `BufferPool`
/// oracle never parks and has been blocked for no time at all; the same
/// join over the queued stack under 2 ms reads parks, and the time it was
/// parked is on the cursor's own clock.
#[test]
fn overlap_cursor_times_its_own_waits() {
    use rsj_core::JoinCursor;

    let fx = Fixture::new("overlap", TestId::A, 0.003);
    let plan = JoinPlan::sj4();
    let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.files.heights());
    let mut cursor = JoinCursor::new(&fx.r, &fx.s, plan, pool);
    let pairs = cursor.by_ref().count();
    assert!(pairs > 0, "fixture must join");
    assert_eq!((cursor.parks(), cursor.blocked()), (0, Duration::ZERO));

    let delay: DelayFn = Arc::new(|_| Some(Duration::from_millis(2)));
    let cfg = CompletionConfig {
        delay: Some(delay),
        ..CompletionConfig::default()
    };
    let [r_file, s_file] = &fx.files.plain_trees;
    let access = fx.files.plain_queued(CAP_PAGES, cfg);
    let mut cursor = JoinCursor::new(r_file, s_file, plan, access);
    assert_eq!(cursor.by_ref().count(), pairs);
    assert!(cursor.parks() > 0, "2 ms reads must park the cursor");
    assert!(cursor.blocked() > Duration::ZERO, "a park takes time");
}

/// Shard-parallel workers sharing ONE completion queue (per-shard
/// submission lanes, private buffers and stats) must produce the same
/// pair multiset as the sequential in-memory join.
#[test]
fn overlap_shared_queue_parallel_matches_sequential() {
    use rsj_core::parallel_spatial_join_with_access;

    let fx = Fixture::new("overlap", TestId::A, 0.003);
    let plan = JoinPlan::sj4();
    let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.files.heights());
    let (want_pairs, _, _) = run(&fx.r, &fx.s, plan, pool);
    let [r_file, s_file] = &fx.files.plain_trees;

    for workers in [2usize, 4] {
        // One queue for the whole deployment: every worker clones the
        // handle and submits on the lanes of whichever shard owns the
        // page it misses on.
        let queue = shard_lane_queue(&fx.files.sharded_files()).unwrap();
        let par = parallel_spatial_join_with_access(r_file, s_file, plan, true, workers, |_w| {
            ShardedCompletionFileAccess::with_shared_queue(
                fx.files.sharded_files(),
                (CAP_PAGES / workers).max(1),
                &fx.files.heights(),
                EvictionPolicy::Lru,
                queue.clone(),
                CompletionConfig::default().window,
            )
            .unwrap()
        });
        assert_eq!(
            sorted_ids(&par.pairs),
            want_pairs,
            "{workers}-worker shared-queue pairs"
        );
        assert!(
            par.stats.io.disk_accesses > 0,
            "workers must hit the shards"
        );
        // Cross-worker accounting closes: by the time every worker has
        // drained, the queue's physical reads cover the charged misses —
        // minus the two coordinator root charges of `merge_results`,
        // which never flow through the worker backends.
        queue.drain();
        assert!(
            queue.total_reads() + 2 >= par.stats.io.disk_accesses,
            "{workers} workers: {} shard reads < {} charged misses",
            queue.total_reads(),
            par.stats.io.disk_accesses
        );
    }
}
