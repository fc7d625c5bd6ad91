//! Completion-driven I/O conformance: the submission/completion queue
//! overlaps demand misses with join work, but *when* a read completes
//! must never leak into *what* is charged or produced. Under every
//! adversarial completion order — random per-page latency, reversed
//! order, single-page starvation, one slow store — the queued read
//! strategy ([`rsj_storage::CompletionFileAccess`]), alone and with one
//! private stack per parallel worker, must emit pair multisets and
//! `IoStats` bit-identical to its blocking twin, and a parked cursor must
//! sleep on the completion condvar instead of busy-polling.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{assert_reads_honest, plans, run, sorted_ids, Fixture, CAP_PAGES, PAGE};
use proptest::prelude::*;
use rsj::prelude::*;
use rsj_storage::completion::DelayFn;
use rsj_storage::{BufKey, BufferPool, CompletionConfig};

/// The queued stack under `delay` against its blocking twin: pairs and
/// whole `IoStats` bit-identical for SJ1–SJ5, every charge one physical
/// read.
fn check_against_blocking(fx: &Fixture, delay: Option<DelayFn>, label: &str) {
    let f = &fx.files;
    let [r, s] = &f.trees;
    for (plan, name) in plans() {
        let tag = format!("{label}/{name}");
        let (want_pairs, want_io, _) = run(r, s, plan, f.blocking(CAP_PAGES));
        assert!(!want_pairs.is_empty(), "{tag}: fixture must join");

        let cfg = CompletionConfig {
            delay: delay.clone(),
        };
        let (pairs, io, access) = run(r, s, plan, f.queued(CAP_PAGES, cfg));
        assert_eq!(pairs, want_pairs, "{tag}: queued pairs");
        assert_eq!(io, want_io, "{tag}: queued I/O");
        // After the queue settles, physical reads equal the misses: every
        // charged miss submitted exactly one read.
        assert_reads_honest(&access, io.disk_accesses, &tag);
    }
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
    let starved = BufKey::new(0, fx.files.trees[0].root());
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
/// Over every stack row, SJ4 must stay on the `BufferPool` oracle in
/// pairs and `IoStats`, every charge honestly read.
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

    let trees = &fx.files.trees;
    fx.files
        .for_each_stack(CAP_PAGES, Some(delay), |label, access| {
            let (pairs, io, access) = run(&trees[0], &trees[1], plan, access);
            assert_eq!((pairs, io), oracle(trees), "{label}");
            assert_reads_honest(access, io.disk_accesses, label);
        });
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
    let [r_file, s_file] = &fx.files.trees;
    let cfg = CompletionConfig { delay: Some(delay) };
    let access = fx.files.queued(CAP_PAGES, cfg);
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
    let cfg = CompletionConfig { delay: Some(delay) };
    let [r_file, s_file] = &fx.files.trees;
    let access = fx.files.queued(CAP_PAGES, cfg);
    let mut cursor = JoinCursor::new(r_file, s_file, plan, access);
    assert_eq!(cursor.by_ref().count(), pairs);
    assert!(cursor.parks() > 0, "2 ms reads must park the cursor");
    assert!(cursor.blocked() > Duration::ZERO, "a park takes time");
}

/// Parallel workers over queued stacks, each worker owning a private
/// [`rsj_storage::CompletionFileAccess`] (its own queue, buffers and
/// stats) under the one-slow-store delay: the pairs of the sequential
/// join, and summed `IoStats` equal to the in-memory shared-nothing
/// deployment at the same per-worker budget.
#[test]
fn overlap_private_queues_parallel_match_sequential() {
    use rsj_core::parallel_spatial_join;

    let fx = Fixture::new("overlap", TestId::A, 0.003);
    let plan = JoinPlan::sj4();
    let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.files.heights());
    let (want_pairs, _, _) = run(&fx.r, &fx.s, plan, pool);
    let [r_file, s_file] = &fx.files.trees;
    let delay: DelayFn =
        Arc::new(|key: BufKey| (key.store == 0).then(|| Duration::from_micros(300)));
    let budget = JoinConfig::with_buffer(CAP_PAGES * PAGE);

    for workers in [2usize, 4] {
        let par =
            parallel_spatial_join::<CmpCounter, _>(r_file, s_file, plan, true, workers, |_, _| {
                let cfg = CompletionConfig {
                    delay: Some(delay.clone()),
                };
                fx.files.queued(CAP_PAGES / workers, cfg)
            });
        assert_eq!(
            sorted_ids(&par.pairs),
            want_pairs,
            "{workers} workers: pairs"
        );
        let inmem = parallel_spatial_join::<CmpCounter, _>(
            &fx.r,
            &fx.s,
            plan,
            budget.collect_pairs,
            workers,
            |_, n| JoinConfig::with_buffer(budget.buffer_bytes / n).buffer_pool(&[&fx.r, &fx.s]),
        );
        assert_eq!(
            par.stats.io, inmem.stats.io,
            "{workers} workers: private queues match in-memory shared-nothing I/O"
        );
    }
}
