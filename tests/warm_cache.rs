//! Shared-page-cache conformance: the latched frame cache
//! ([`SharedPageCache`]) dedups *physical* reads across concurrent
//! workers and keeps frames warm across joins, but the *logical* §4.1
//! accounting — private path buffers, private LRU, per-worker
//! [`IoStats`] — must stay bit-identical to the private-buffer
//! [`BufferPool`] oracle, for every plan, worker count and completion
//! order.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{build_tree, plans, sorted_ids, CAP_PAGES, PAGE};
use proptest::prelude::*;
use rsj::prelude::*;
use rsj_core::spatial_join_with_access;
use rsj_core::{parallel_spatial_join_warm, parallel_spatial_join_with_access};
use rsj_storage::completion::DelayFn;
use rsj_storage::{
    BufKey, BufferPool, CacheConfig, IoStats, NodeAccess, PageFile, PageId, SharedPageCache,
    TempDir,
};

struct Fixture {
    _dir: TempDir,
    r_path: std::path::PathBuf,
    s_path: std::path::PathBuf,
    /// The trees reopened cold from disk (page-identical layout).
    r_file: RTree,
    s_file: RTree,
}

impl Fixture {
    fn new(test: TestId, scale: f64) -> Fixture {
        let data = rsj::datagen::preset(test, scale);
        let r = build_tree(&data.r, PAGE);
        let s = build_tree(&data.s, PAGE);
        let dir = TempDir::new("warm-cache").unwrap();
        let (r_path, s_path) = (dir.file("r.rsj"), dir.file("s.rsj"));
        r.save_to(&r_path).unwrap();
        s.save_to(&s_path).unwrap();
        let r_file = RTree::open_from(&r_path).unwrap();
        let s_file = RTree::open_from(&s_path).unwrap();
        Fixture {
            _dir: dir,
            r_path,
            s_path,
            r_file,
            s_file,
        }
    }

    fn heights(&self) -> [usize; 2] {
        [self.r_file.height() as usize, self.s_file.height() as usize]
    }

    fn paths(&self) -> [std::path::PathBuf; 2] {
        [self.r_path.clone(), self.s_path.clone()]
    }

    /// Total pages of both stores — a pool this size never evicts, so
    /// physical-read counts are deterministic.
    fn working_set(&self) -> usize {
        let count = |p: &std::path::Path| PageFile::open(p).unwrap().page_count() as usize;
        count(&self.r_path) + count(&self.s_path)
    }

    fn cache(&self, cap_pages: usize, delay: Option<DelayFn>) -> Arc<SharedPageCache> {
        SharedPageCache::open(
            &self.paths(),
            cap_pages,
            &self.heights(),
            CacheConfig {
                delay,
                ..CacheConfig::default()
            },
        )
        .unwrap()
    }
}

/// A sequential join through one cache handle must be bit-identical —
/// pairs and IoStats — to the in-memory BufferPool oracle at the same
/// capacity, for SJ1–SJ5, with the warm/cold miss split covering every
/// charge and the physical reads closing against the queue at drain.
#[test]
fn cache_sequential_agrees_with_buffer_pool_oracle() {
    for (test, scale) in [(TestId::A, 0.003), (TestId::B, 0.003)] {
        let fx = Fixture::new(test, scale);
        let cache = fx.cache(CAP_PAGES, None);
        for (plan, name) in plans() {
            let tag = format!("{test:?}/{name}");
            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.heights());
            let (want, _) = spatial_join_with_access(&fx.r_file, &fx.s_file, plan, true, pool);
            assert!(!want.pairs.is_empty(), "{tag}: fixture must join");

            cache.clear();
            let handle = cache.handle(CAP_PAGES);
            let (got, handle) =
                spatial_join_with_access(&fx.r_file, &fx.s_file, plan, true, handle);
            assert_eq!(
                sorted_ids(&got.pairs),
                sorted_ids(&want.pairs),
                "{tag}: pairs"
            );
            assert_eq!(got.stats.io, want.stats.io, "{tag}: logical IoStats");
            assert_eq!(
                handle.warm_hits() + handle.cold_faults(),
                got.stats.io.disk_accesses,
                "{tag}: every charged miss served exactly once"
            );
            // Read honesty: after the queue settles, every submitted
            // pread happened, and nothing else did.
            cache.drain();
            assert_eq!(
                cache.physical_reads(),
                cache.queue().total_reads(),
                "{tag}: physical reads close against the queue"
            );
            assert!(
                cache.physical_reads() <= got.stats.io.disk_accesses,
                "{tag}: a lone worker cannot read more than it charged"
            );
        }
    }
}

/// Merged pairs and logical IoStats of the shared-cache parallel join
/// must equal the private-buffer oracle (BufferPool per worker, same
/// per-worker capacity) exactly — while the cache's physical reads land
/// strictly below the shared-nothing sum whenever workers overlap.
#[test]
fn cache_parallel_matches_private_oracle_and_dedups_physical_reads() {
    let fx = Fixture::new(TestId::A, 0.003);
    let plan = JoinPlan::sj2();
    for workers in [2usize, 4] {
        let cap = (CAP_PAGES / workers).max(1);
        let oracle =
            parallel_spatial_join_with_access(&fx.r_file, &fx.s_file, plan, true, workers, |_w| {
                BufferPool::with_capacity_pages(cap, &fx.heights())
            });
        // Working-set-sized pool: no shared eviction, so the physical
        // count is deterministic (= distinct pages faulted).
        let cache = fx.cache(fx.working_set(), None);
        let par =
            parallel_spatial_join_warm(&fx.r_file, &fx.s_file, plan, true, workers, &cache, cap);
        assert_eq!(
            sorted_ids(&par.pairs),
            sorted_ids(&oracle.pairs),
            "{workers}-worker pairs"
        );
        assert_eq!(
            par.stats.io, oracle.stats.io,
            "{workers}-worker merged logical IoStats"
        );
        // merge_results adds 2 coordinator root charges that never flow
        // through the worker backends.
        let logical_sum = par.stats.io.disk_accesses - 2;
        cache.drain();
        let physical = cache.physical_reads();
        assert!(physical > 0, "cold cache must fault");
        assert!(
            physical < logical_sum,
            "{workers} workers: {physical} physical reads must dedup strictly below \
             the {logical_sum} charged misses (workers overlap on upper pages)"
        );
        assert_eq!(
            physical,
            cache.queue().total_reads(),
            "{workers}-worker read-honesty closure"
        );
    }
}

/// The pool outlives a join: a second identical join over the same warm
/// cache charges the same logical IoStats but performs zero physical
/// reads (the working set is resident).
#[test]
fn warm_rejoin_performs_no_physical_reads() {
    let fx = Fixture::new(TestId::B, 0.003);
    let plan = JoinPlan::sj2();
    let workers = 4;
    let cap = (CAP_PAGES / workers).max(1);
    // A working-set-sized pool never evicts.
    let cache = fx.cache(fx.working_set(), None);

    let cold = parallel_spatial_join_warm(&fx.r_file, &fx.s_file, plan, true, workers, &cache, cap);
    cache.drain();
    let cold_physical = cache.physical_reads();
    assert!(cold_physical > 0, "cold run must fault");

    let warm = parallel_spatial_join_warm(&fx.r_file, &fx.s_file, plan, true, workers, &cache, cap);
    cache.drain();
    assert_eq!(
        sorted_ids(&warm.pairs),
        sorted_ids(&cold.pairs),
        "warm pairs"
    );
    assert_eq!(warm.stats.io, cold.stats.io, "warm logical IoStats unmoved");
    assert_eq!(
        cache.physical_reads(),
        cold_physical,
        "a warm re-join reads nothing from disk"
    );
}

/// The capacity asked for is the capacity served: a cache opened with
/// the default config at exactly the working set holds every page, so
/// SJ1–SJ5 through one handle evict nothing, and repeating them reads
/// nothing from disk.
#[test]
fn working_set_sized_default_cache_never_evicts() {
    let fx = Fixture::new(TestId::A, 0.003);
    let cache = SharedPageCache::open(
        &fx.paths(),
        fx.working_set(),
        &fx.heights(),
        CacheConfig::default(),
    )
    .unwrap();
    let mut handle = cache.handle(CAP_PAGES);
    let mut reads = Vec::new();
    for _round in 0..2 {
        for (plan, _) in plans() {
            handle = spatial_join_with_access(&fx.r_file, &fx.s_file, plan, false, handle).1;
        }
        cache.drain();
        reads.push(cache.physical_reads());
    }
    assert_eq!(
        cache.evictions(),
        0,
        "a working-set-sized cache evicts nothing"
    );
    assert_eq!(reads[1], reads[0], "the repeat adds no physical reads");
}

/// Pins must survive cross-worker eviction pressure: SJ4/SJ5 pin the
/// pages of their sweep frontier, and a tiny shared pool hammered by
/// four workers must still never evict a pinned frame mid-use. The
/// logical oracle equality doubles as the proof (a lost pin would move
/// the charge sequence of some worker).
#[test]
fn pinning_plans_survive_a_tiny_shared_pool() {
    let fx = Fixture::new(TestId::A, 0.003);
    for (plan, name) in [(JoinPlan::sj4(), "SJ4"), (JoinPlan::sj5(), "SJ5")] {
        let workers = 4;
        let cap = (CAP_PAGES / workers).max(1);
        let oracle =
            parallel_spatial_join_with_access(&fx.r_file, &fx.s_file, plan, true, workers, |_w| {
                BufferPool::with_capacity_pages(cap, &fx.heights())
            });
        // 2 frames total: nearly everything is evicted between touches.
        let cache = fx.cache(2, None);
        let par =
            parallel_spatial_join_warm(&fx.r_file, &fx.s_file, plan, true, workers, &cache, cap);
        assert_eq!(
            sorted_ids(&par.pairs),
            sorted_ids(&oracle.pairs),
            "{name} pairs"
        );
        assert_eq!(par.stats.io, oracle.stats.io, "{name} logical IoStats");
        cache.drain();
        assert!(
            cache.physical_reads() <= par.stats.io.disk_accesses - 2,
            "{name}: physical reads bounded by charged misses even under thrash"
        );
        assert_eq!(
            cache.physical_reads(),
            cache.queue().total_reads(),
            "{name}: read-honesty closure"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random per-page completion latency (a keyed hash of the page id,
    /// seeded per case): whatever order the queue completes reads in,
    /// the shared-cache parallel join must emit the oracle's pair
    /// multiset and bit-identical merged IoStats, and the physical
    /// dedup invariant must hold.
    #[test]
    fn cache_survives_random_completion_orders(
        which in 0usize..2,
        seed in 0u64..u64::MAX,
        span_us in 50u64..400,
        workers in 2usize..5,
    ) {
        let test = if which == 0 { TestId::A } else { TestId::B };
        let fx = Fixture::new(test, 0.003);
        let plan = JoinPlan::sj2();
        let delay: DelayFn = Arc::new(move |key: BufKey| {
            let mut h = (u64::from(key.page.0) << 8 | u64::from(key.store)) ^ seed;
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            Some(Duration::from_micros(h % span_us))
        });
        let cap = (CAP_PAGES / workers).max(1);
        let oracle = parallel_spatial_join_with_access(
            &fx.r_file, &fx.s_file, plan, true, workers,
            |_w| BufferPool::with_capacity_pages(cap, &fx.heights()),
        );
        let cache = fx.cache(CAP_PAGES, Some(delay));
        let par = parallel_spatial_join_warm(
            &fx.r_file, &fx.s_file, plan, true, workers, &cache, cap,
        );
        prop_assert_eq!(sorted_ids(&par.pairs), sorted_ids(&oracle.pairs));
        prop_assert_eq!(par.stats.io, oracle.stats.io);
        cache.drain();
        // With a small shared pool the dedup margin is timing-dependent,
        // but the bound never is: a physical read only ever happens on
        // some worker's charged miss.
        prop_assert!(cache.physical_reads() <= par.stats.io.disk_accesses - 2);
        prop_assert_eq!(cache.physical_reads(), cache.queue().total_reads());
    }
}

/// Per-worker (not just merged) logical stats must match the oracle:
/// drive two handles through interleaved access sequences on different
/// schedules and diff each against its own private BufferPool.
#[test]
fn per_worker_stats_stay_private_and_bit_identical() {
    let fx = Fixture::new(TestId::A, 0.003);
    let cache = fx.cache(CAP_PAGES, None);
    let mut h0 = cache.handle(4);
    let mut h1 = cache.handle(4);
    let mut o0 = BufferPool::with_capacity_pages(4, &fx.heights());
    let mut o1 = BufferPool::with_capacity_pages(4, &fx.heights());
    let pages = PageFile::open(&fx.r_path).unwrap().page_count();
    // Interleave: h0 walks even pages, h1 walks a sliding window — each
    // must charge exactly like its private oracle regardless of what
    // the other does to the shared frames.
    for i in 0..(pages as u64 * 3) {
        let p0 = PageId(((i * 2) % u64::from(pages)) as u32);
        let p1 = PageId(((i / 2 + i % 3) % u64::from(pages)) as u32);
        let d = (i % 3) as usize;
        assert_eq!(h0.access(0, p0, d), o0.access(0, p0, d), "h0 step {i}");
        assert_eq!(h1.access(0, p1, d), o1.access(0, p1, d), "h1 step {i}");
        if i % 7 == 0 {
            h0.pin(0, p0);
            o0.pin(0, p0);
            h0.unpin(0, p0);
            o0.unpin(0, p0);
        }
    }
    assert_eq!(h0.stats(), o0.stats(), "worker 0 bit-identical");
    assert_eq!(h1.stats(), o1.stats(), "worker 1 bit-identical");
    let total: IoStats = h0.stats();
    assert_eq!(
        h0.warm_hits() + h0.cold_faults(),
        total.disk_accesses,
        "worker 0 miss-service split"
    );
    cache.drain();
    assert!(
        cache.physical_reads() <= h0.stats().disk_accesses + h1.stats().disk_accesses,
        "physical reads bounded by the summed charges"
    );
}
