//! Concurrent-update conformance: a background `OpenCachedTree`
//! insert/delete stream driven through a live [`SharedPageCache`], whose
//! writes mark frames dirty and wait on no reader, concurrently with
//! `parallel_spatial_join` workers on handles onto the same frames, must
//! be indistinguishable from the sequential world:
//!
//! * the updater's logical [`IoStats`] are bit-identical to the same
//!   script through [`OpenCachedTree::open`] on a private copy of the file
//!   (a quiet cache of its own), no matter what the joins do to the
//!   shared frames;
//! * every concurrent join's pair multiset and merged `IoStats` are
//!   bit-identical to the private-buffer parallel oracle, no matter what
//!   the updater does;
//! * flush + reopen yields a tree page-for-page identical to an
//!   in-memory tree that applied the same updates — **including when
//!   dirty frames were evicted mid-run** (a drained page stays dirty
//!   until the flush: no lost updates, ever);
//! * every write the store file counts is a flush write: the cache's
//!   physical writes equal the file's, because the file's slots change
//!   only when a flush writes a dirty page.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{build_tree, sorted_ids, CAP_PAGES, PAGE};
use proptest::prelude::*;
use rsj::prelude::*;
use rsj_storage::completion::DelayFn;
use rsj_storage::{BufKey, BufferPool, IoStats, PageId, TempDir};

/// One update operation of the scripted workload.
#[derive(Clone, Copy)]
enum Op {
    Insert(Rect, DataId),
    Delete(Rect, DataId),
}

/// Deterministic pseudo-random interleaved update script (same generator
/// family as the update-conformance suite): deletes originals, inserts
/// translated copies, re-deletes some copies — enough churn for splits,
/// condense and free-list reuse.
fn update_script(objs: &[rsj::datagen::SpatialObject], ops: usize, seed: u64) -> Vec<Op> {
    let mut x = seed | 1;
    let mut rng = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut script = Vec::with_capacity(ops);
    let mut fresh: Vec<(Rect, DataId)> = Vec::new();
    let mut next_id = 2_000_000u64;
    for _ in 0..ops {
        match rng() % 3 {
            0 => {
                let o = &objs[(rng() as usize) % objs.len()];
                script.push(Op::Delete(o.mbr, DataId(o.id)));
            }
            1 => {
                let o = &objs[(rng() as usize) % objs.len()];
                let (dx, dy) = (
                    (rng() % 1000) as f64 / 1e6 - 0.0005,
                    (rng() % 1000) as f64 / 1e6 - 0.0005,
                );
                let r =
                    Rect::from_corners(o.mbr.xl + dx, o.mbr.yl + dy, o.mbr.xu + dx, o.mbr.yu + dy);
                let id = DataId(next_id);
                next_id += 1;
                fresh.push((r, id));
                script.push(Op::Insert(r, id));
            }
            _ => {
                if let Some(k) = fresh.pop() {
                    script.push(Op::Delete(k.0, k.1));
                } else {
                    let o = &objs[(rng() as usize) % objs.len()];
                    script.push(Op::Delete(o.mbr, DataId(o.id)));
                }
            }
        }
    }
    script
}

fn apply_to_oracle(tree: &mut RTree, script: &[Op]) {
    for op in script {
        match *op {
            Op::Insert(r, id) => tree.insert(r, id),
            Op::Delete(r, id) => {
                tree.delete(&r, id);
            }
        }
    }
}

fn apply_to_open(open: &mut OpenCachedTree, script: &[Op]) {
    for op in script {
        match *op {
            Op::Insert(r, id) => open.insert(r, id).unwrap(),
            Op::Delete(r, id) => {
                open.delete(&r, id).unwrap();
            }
        }
    }
}

fn assert_page_identical(a: &RTree, b: &RTree, label: &str) {
    assert_eq!(a.allocated_pages(), b.allocated_pages(), "{label}: pages");
    assert_eq!(a.root(), b.root(), "{label}: root");
    assert_eq!(a.len(), b.len(), "{label}: len");
    assert_eq!(
        a.page_store().free_pages(),
        b.page_store().free_pages(),
        "{label}: free list"
    );
    for id in 0..a.allocated_pages() {
        let p = PageId(id as u32);
        assert_eq!(a.node(p), b.node(p), "{label}: page {p}");
    }
}

/// The updated-relation fixture: relation R saved twice — one copy for
/// the shared-cache updater under test, one for the private
/// `OpenCachedTree::open` oracle — plus the join partner S.
struct Fixture {
    dir: TempDir,
    r_path: std::path::PathBuf,
    r_oracle_path: std::path::PathBuf,
    s_path: std::path::PathBuf,
    r0: RTree,
    /// R reopened cold (page-identical layout) — the joins' snapshot.
    r_file: RTree,
    s_file: RTree,
    script: Vec<Op>,
}

impl Fixture {
    fn new(test: TestId, ops: usize, seed: u64) -> Fixture {
        let data = rsj::datagen::preset(test, 0.003);
        let r0 = build_tree(&data.r, PAGE);
        let s0 = build_tree(&data.s, PAGE);
        let dir = TempDir::new("latch").unwrap();
        let r_path = dir.file("r.rsj");
        let r_oracle_path = dir.file("r.oracle.rsj");
        let s_path = dir.file("s.rsj");
        r0.save_to(&r_path).unwrap();
        std::fs::copy(&r_path, &r_oracle_path).unwrap();
        s0.save_to(&s_path).unwrap();
        let r_file = RTree::open_from(&r_path).unwrap();
        let s_file = RTree::open_from(&s_path).unwrap();
        let script = update_script(&data.r, ops, seed);
        Fixture {
            dir,
            r_path,
            r_oracle_path,
            s_path,
            r0,
            r_file,
            s_file,
            script,
        }
    }

    fn heights(&self) -> [usize; 2] {
        [self.r_file.height() as usize, self.s_file.height() as usize]
    }

    fn working_set(&self) -> usize {
        let count = |p: &std::path::Path| PageFile::open(p).unwrap().page_count() as usize;
        count(&self.r_path) + count(&self.s_path)
    }

    fn cache(&self, cap_pages: usize, delay: Option<DelayFn>) -> Arc<SharedPageCache> {
        SharedPageCache::open(
            &[self.r_path.clone(), self.s_path.clone()],
            cap_pages,
            &self.heights(),
            CacheConfig {
                delay,
                ..CacheConfig::default()
            },
        )
        .unwrap()
    }

    /// The in-memory oracle after the full script.
    fn memory_oracle(&self) -> RTree {
        let mut t = self.r0.clone();
        apply_to_oracle(&mut t, &self.script);
        t
    }

    /// The same script through `OpenCachedTree::open` on the oracle copy
    /// — a private cache no join touches — with the same buffer capacity:
    /// the logical-IoStats oracle for the updater.
    fn file_oracle_stats(&self) -> IoStats {
        let mut open = OpenCachedTree::open(&self.r_oracle_path, CAP_PAGES).unwrap();
        apply_to_open(&mut open, &self.script);
        let io = open.io_stats();
        open.flush().unwrap();
        io
    }
}

/// A per-page completion delay keyed by a seeded hash — randomizes the
/// physical completion order without breaking determinism of anything
/// logical.
fn seeded_delay(seed: u64, span_us: u64) -> DelayFn {
    Arc::new(move |key: BufKey| {
        let mut h = (u64::from(key.page.0) << 8 | u64::from(key.store)) ^ seed;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        Some(Duration::from_micros(h % span_us))
    })
}

/// Sequential conformance: updates through one store of a shared
/// `SharedPageCache` charge the exact `IoStats` of a private one, and
/// flush + reopen is page-for-page the in-memory oracle.
#[test]
fn cached_updates_match_the_file_backend_oracle() {
    let fx = Fixture::new(TestId::A, 240, 7);
    let cache = fx.cache(fx.working_set() * 2, None);
    let mut open = OpenCachedTree::open_cached(&cache, 0, CAP_PAGES).unwrap();
    apply_to_open(&mut open, &fx.script);
    let io = open.io_stats();
    assert!(io.disk_accesses > 0, "updates must charge reads");
    assert_eq!(
        io,
        fx.file_oracle_stats(),
        "shared-cache updater must charge exactly like the private file backend"
    );
    open.flush().unwrap();
    assert!(open.io_stats().page_writes > 0, "flush must charge writes");
    assert_eq!(
        cache.physical_writes(),
        open.access().store_file().writes(),
        "every file write is a flush write"
    );
    assert_eq!(cache.pending_write_back(), 0, "flush wrote every page");
    let oracle = fx.memory_oracle();
    assert_page_identical(open.tree(), &oracle, "in-memory view");
    drop(open);
    let back = RTree::open_from(&fx.r_path).unwrap();
    back.validate().unwrap();
    assert_page_identical(&back, &oracle, "flush+reopen");
    // The oracle file went through the same updates — byte-for-byte
    // interchangeable trees.
    let oracle_back = RTree::open_from(&fx.r_oracle_path).unwrap();
    assert_page_identical(&back, &oracle_back, "cache file vs oracle file");
}

/// A tiny pool forces the updater's dirty frames through eviction (and
/// re-demand from the drain) over and over. Nothing may be lost.
#[test]
fn dirty_evictions_under_a_tiny_pool_lose_no_updates() {
    let fx = Fixture::new(TestId::B, 240, 11);
    let cache = fx.cache(2, None);
    let mut open = OpenCachedTree::open_cached(&cache, 0, CAP_PAGES).unwrap();
    apply_to_open(&mut open, &fx.script);
    assert_eq!(
        open.io_stats(),
        fx.file_oracle_stats(),
        "thrashing shared frames must not move the private logical charges"
    );
    open.flush().unwrap();
    assert_eq!(cache.pending_write_back(), 0);
    drop(open);
    let back = RTree::open_from(&fx.r_path).unwrap();
    back.validate().unwrap();
    assert_page_identical(&back, &fx.memory_oracle(), "tiny-pool flush+reopen");
}

/// Rounds of update-chunk → parallel join over the *updated* snapshot,
/// all through one cache: every join must match the private-buffer
/// parallel oracle on the same snapshot, the updater must match the
/// file-backend oracle, and the final flush must round-trip.
#[test]
fn interleaved_update_and_join_rounds_stay_oracle_exact() {
    let fx = Fixture::new(TestId::A, 240, 13);
    let workers = 2;
    let cap = (CAP_PAGES / workers).max(1);
    let cache = fx.cache(fx.working_set() * 2, None);
    let mut open = OpenCachedTree::open_cached(&cache, 0, CAP_PAGES).unwrap();
    let heights = fx.heights();
    for (round, chunk) in fx.script.chunks(60).enumerate() {
        apply_to_open(&mut open, chunk);
        let oracle = parallel_spatial_join::<CmpCounter, _>(
            open.tree(),
            &fx.s_file,
            JoinPlan::sj2(),
            true,
            workers,
            |_, _| BufferPool::with_capacity_pages(cap, &heights),
        );
        let par = parallel_spatial_join::<CmpCounter, _>(
            open.tree(),
            &fx.s_file,
            JoinPlan::sj2(),
            true,
            workers,
            |_, _| cache.handle(cap),
        );
        assert_eq!(
            sorted_ids(&par.pairs),
            sorted_ids(&oracle.pairs),
            "round {round}: pairs over the updated snapshot"
        );
        assert_eq!(
            par.stats.io, oracle.stats.io,
            "round {round}: merged logical IoStats"
        );
    }
    assert_eq!(
        open.io_stats(),
        fx.file_oracle_stats(),
        "join traffic must not move the updater's charges"
    );
    open.flush().unwrap();
    drop(open);
    let back = RTree::open_from(&fx.r_path).unwrap();
    back.validate().unwrap();
    assert_page_identical(&back, &fx.memory_oracle(), "interleaved flush+reopen");
}

/// The acceptance criterion: a background updater thread races live
/// `parallel_spatial_join` workers on handles onto one `SharedPageCache`.
/// Runs once with a pool that never evicts and once with a 4-frame pool
/// that evicts dirty frames constantly mid-run. Joins, updater charges
/// and the flushed file must all be bit-identical to their sequential
/// oracles either way.
#[test]
fn concurrent_updater_and_joins_agree_with_the_sequential_oracle() {
    for tiny in [false, true] {
        let fx = Fixture::new(TestId::A, 200, 17);
        let workers = 4;
        let cap = (CAP_PAGES / workers).max(1);
        let pool = if tiny { 4 } else { fx.working_set() * 2 };
        let label = if tiny { "tiny pool" } else { "ample pool" };
        let cache = fx.cache(pool, Some(seeded_delay(0xC0FFEE ^ pool as u64, 120)));
        // Joins run over the pre-update snapshot (its pages stay
        // physically readable: frees only mark the free list, appends
        // only grow the file), so the sequential join oracle is fixed.
        let join_oracle = parallel_spatial_join::<CmpCounter, _>(
            &fx.r_file,
            &fx.s_file,
            JoinPlan::sj2(),
            true,
            workers,
            |_, _| BufferPool::with_capacity_pages(cap, &fx.heights()),
        );
        let open = std::thread::scope(|scope| {
            let updater = scope.spawn(|| {
                let mut open = OpenCachedTree::open_cached(&cache, 0, CAP_PAGES).unwrap();
                apply_to_open(&mut open, &fx.script);
                open
            });
            for round in 0..3 {
                let par = parallel_spatial_join::<CmpCounter, _>(
                    &fx.r_file,
                    &fx.s_file,
                    JoinPlan::sj2(),
                    true,
                    workers,
                    |_, _| cache.handle(cap),
                );
                assert_eq!(
                    sorted_ids(&par.pairs),
                    sorted_ids(&join_oracle.pairs),
                    "{label}: join pairs, round {round} under live updates"
                );
                assert_eq!(
                    par.stats.io, join_oracle.stats.io,
                    "{label}: join IoStats, round {round} under live updates"
                );
            }
            updater.join().expect("updater must not panic")
        });
        let mut open = open;
        assert_eq!(
            open.io_stats(),
            fx.file_oracle_stats(),
            "{label}: updater charges are oracle-exact under live join traffic"
        );
        open.flush().unwrap();
        assert_eq!(
            cache.physical_writes(),
            open.access().store_file().writes(),
            "{label}: every file write is a flush write"
        );
        assert_eq!(cache.pending_write_back(), 0, "{label}: flush drains all");
        drop(open);
        let back = RTree::open_from(&fx.r_path).unwrap();
        back.validate().unwrap();
        assert_page_identical(
            &back,
            &fx.memory_oracle(),
            &format!("{label}: concurrent flush+reopen"),
        );
        drop(fx.dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomly interleaved updater/join schedules: random per-page
    /// completion delays, 2 or 4 join workers racing one updater over a
    /// randomly sized pool. Pair multisets, per-worker IoStats and the
    /// flush+reopen page image must all converge to the sequential
    /// oracle regardless of the interleaving the scheduler picks.
    #[test]
    fn random_interleavings_converge_to_the_sequential_oracle(
        seed in 0u64..u64::MAX,
        span_us in 50u64..400,
        four_workers in any::<bool>(),
        pool_frames in 2usize..24,
        ops in 80usize..160,
    ) {
        let fx = Fixture::new(TestId::B, ops, seed | 1);
        let workers = if four_workers { 4 } else { 2 };
        let cap = (CAP_PAGES / workers).max(1);
        let cache = fx.cache(pool_frames, Some(seeded_delay(seed, span_us)));
        let join_oracle = parallel_spatial_join::<CmpCounter, _>(
            &fx.r_file, &fx.s_file, JoinPlan::sj2(), true, workers,
            |_, _| BufferPool::with_capacity_pages(cap, &fx.heights()),
        );
        let open = std::thread::scope(|scope| {
            let updater = scope.spawn(|| {
                let mut open = OpenCachedTree::open_cached(&cache, 0, CAP_PAGES).unwrap();
                apply_to_open(&mut open, &fx.script);
                open
            });
            for _ in 0..2 {
                let par = parallel_spatial_join::<CmpCounter, _>(
                    &fx.r_file, &fx.s_file, JoinPlan::sj2(), true, workers,
                    |_, _| cache.handle(cap),
                );
                prop_assert_eq!(sorted_ids(&par.pairs), sorted_ids(&join_oracle.pairs));
                prop_assert_eq!(par.stats.io, join_oracle.stats.io);
            }
            let open = updater.join().expect("updater must not panic");
            Ok(open)
        })?;
        let mut open = open;
        prop_assert_eq!(open.io_stats(), fx.file_oracle_stats());
        open.flush().unwrap();
        prop_assert_eq!(cache.physical_writes(), open.access().store_file().writes());
        prop_assert_eq!(cache.pending_write_back(), 0);
        drop(open);
        let back = RTree::open_from(&fx.r_path).unwrap();
        back.validate().unwrap();
        assert_page_identical(&back, &fx.memory_oracle(), "proptest flush+reopen");
    }
}
