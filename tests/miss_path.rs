//! Where a cached join reads its misses: on its own thread while the
//! cache's recent reads were fast, through the completion queue's workers
//! while they were slow. The suite switches a modelled device at run time
//! and needs the files themselves to be fast, so it is not one of the
//! suites CI repeats under `RSJ_READ_LATENCY_US`.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{sorted_ids, Fixture, CAP_PAGES};
use rsj::prelude::*;
use rsj_storage::completion::DelayFn;
use rsj_storage::{BufferPool, CacheConfig, PageFile, PageId, SharedPageCache};

/// A join handle reads a miss where it is cheap: on its own thread while
/// the last reads were fast, through the queue's workers while they were
/// slow — decided from measured service times alone, both ways, miss by
/// miss. Whichever path a read takes, every join is the oracle's: pairs
/// and `IoStats`.
#[test]
fn the_miss_path_follows_the_device() {
    let fx = Fixture::new("miss-path", TestId::A, 0.003);
    let (files, heights) = (&fx.files, fx.files.heights());
    let [r, s] = &files.trees;
    let plan = JoinPlan::sj4();
    let pool = BufferPool::with_capacity_pages(CAP_PAGES, &heights);
    let (want, _) = JoinCursor::new(&fx.r, &fx.s, plan, pool).into_result(true);
    let want_pairs = sorted_ids(&want.pairs);
    assert!(!want_pairs.is_empty(), "fixture must join");

    // The modelled device: every read sleeps this long, switched at run
    // time.
    let device_us = Arc::new(AtomicU64::new(0));
    let knob = Arc::clone(&device_us);
    let delay: DelayFn = Arc::new(move |_| {
        let us = knob.load(Ordering::Relaxed);
        (us > 0).then(|| Duration::from_micros(us))
    });
    let cfg = CacheConfig {
        delay: Some(delay),
        ..CacheConfig::default()
    };
    let cache = SharedPageCache::open(&files.paths, CAP_PAGES, &heights, cfg).unwrap();

    // One cold join: its physical and inline reads, and its parks.
    let join = |phase: &str| {
        cache.clear();
        let mut cursor = JoinCursor::new(r, s, plan, cache.handle(CAP_PAGES));
        let pairs: Vec<_> = cursor.by_ref().collect();
        let (stats, parks) = (cursor.stats(), cursor.parks());
        drop(cursor);
        cache.drain();
        assert_eq!(sorted_ids(&pairs), want_pairs, "{phase}: pairs");
        assert_eq!(stats.io, want.stats.io, "{phase}: logical IoStats");
        assert_eq!(
            cache.physical_reads(),
            cache.queue().total_reads(),
            "{phase}: read honesty"
        );
        (cache.physical_reads(), cache.inline_reads(), parks)
    };

    // Fast reads. A fresh cache starts on the queue and switches within
    // its first reads; from the next join on, every miss is read inline
    // and nothing parks.
    join("fast, first");
    let (physical, inline, parks) = join("fast");
    assert!(physical > 0, "a cold join reads");
    assert_eq!((inline, parks), (physical, 0), "fast reads are inline");

    // A slow device: a few inline reads measure it, then the queue
    // overlaps the rest and the cursor parks on them.
    device_us.store(300, Ordering::Relaxed);
    let (_, switching, _) = join("slow, first");
    assert!(
        (1..=8).contains(&switching),
        "the switch-over window is the last eight reads, not {switching}"
    );
    let (physical, inline, parks) = join("slow");
    assert_eq!(inline, 0, "slow reads go to the workers");
    assert!(parks > 0, "300 µs reads park the cursor");
    assert!(physical > 0);

    // Fast again: the path comes back by itself.
    device_us.store(0, Ordering::Relaxed);
    join("fast again, first");
    let (physical, inline, parks) = join("fast again");
    assert_eq!(
        (inline, parks),
        (physical, 0),
        "fast reads are inline again"
    );

    assert_eq!(cache.queue().in_flight(), 0);
    for (store, path) in files.paths.iter().enumerate() {
        for page in 0..PageFile::open(path).unwrap().page_count() {
            assert_eq!(
                cache.pin_count(store as u8, PageId(page)),
                0,
                "store {store} page {page} is still pinned"
            );
        }
    }
}
