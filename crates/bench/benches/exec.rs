//! Executor shoot-out: recursive oracle vs counted streaming cursor vs
//! raw (`NoOp`-metered) streaming cursor. Throughput in result pairs per
//! second on preset (A), counting-only (no materialization on any path).
//! Alongside the criterion timings, the measured comparison is recorded
//! in `BENCH_exec.json` at the repo root.
//!
//! Two plans run on the same fixture:
//!
//! * **SJ2** (nested loop + restriction) — enumeration-bound: the counted
//!   mode's short-circuit accounting serializes an O(n²) inner loop the
//!   raw mode runs branchless. This is the headline plan for the
//!   `cursor_over_recursive` / `raw_over_cursor` ratios.
//! * **SJ4** (plane sweep + pinning, the paper's winner) — schedule-bound:
//!   sorts and sweeps dominate, metering is a smaller share.
//!
//! The fixture uses 4-KByte pages: node-sized enumerations dominate the
//! profile there, which is exactly the work the scratch arena and the
//! compile-time metering target.
//!
//! Measured effects of the PR-2 hot-path work on this fixture (pre-PR the
//! counted cursor ran at 0.88× the recursion): the scratch arena plus
//! whole-leaf drains into a `reserve`d pending queue and `#[inline]` on
//! `next`/`step`/`emit` lift the counted cursor to ~1.2–1.3× the
//! recursion on both plans; the `NoOp` meter adds another ~1.3–1.5× on
//! SJ2 and ~1.1–1.2× on SJ4 (see `BENCH_exec.json` for the current
//! numbers).
//!
//! Set `RSJ_BENCH_QUICK=1` for the CI smoke run: smaller scale, fewer
//! iterations, same JSON schema.

use std::io::Write;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsj_bench::Workbench;
use rsj_core::exec::{recursive_spatial_join, JoinCursor, RawJoinCursor};
use rsj_core::{JoinConfig, JoinPlan};
use rsj_datagen::{scenario, Scenario, TestId};
use rsj_rtree::bulk::{self, BulkConfig, BulkLayout};
use rsj_rtree::{DataId, OpenCachedTree, OpenFileTree, RTree};
use rsj_storage::sharded::shard_lane_queue;
use rsj_storage::{
    BufferPool, CacheConfig, CompletionConfig, CompletionFileAccess, EntryFormat, EvictionPolicy,
    FileNodeAccess, PageFile, ShardedCompletionFileAccess, ShardedFileAccess, ShardedPageFile,
    SharedPageCache, TempDir, READ_LATENCY_ENV,
};

const PAGE: usize = 4096;

fn quick() -> bool {
    std::env::var("RSJ_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn run_recursive(r: &RTree, s: &RTree, plan: JoinPlan, cfg: &JoinConfig) -> u64 {
    recursive_spatial_join(r, s, plan, cfg).stats.result_pairs
}

fn pool_for(r: &RTree, s: &RTree, cfg: &JoinConfig) -> BufferPool {
    BufferPool::with_policy(
        cfg.buffer_bytes,
        r.params().page_bytes,
        &[r.height() as usize, s.height() as usize],
        cfg.eviction,
    )
}

fn run_cursor(r: &RTree, s: &RTree, plan: JoinPlan, cfg: &JoinConfig) -> u64 {
    let mut cursor = JoinCursor::new(r, s, plan, pool_for(r, s, cfg));
    (&mut cursor).count() as u64
}

fn run_raw(r: &RTree, s: &RTree, plan: JoinPlan, cfg: &JoinConfig) -> u64 {
    let mut cursor = RawJoinCursor::raw(r, s, plan, pool_for(r, s, cfg));
    (&mut cursor).count() as u64
}

/// Times `f` over `iters` individually-clocked runs and returns
/// (pairs per run, best seconds per run). The per-run *minimum* is the
/// noise-robust estimator: scheduler preemptions and frequency scaling
/// only ever add time, so the best run is the closest to the true cost —
/// one bad window cannot skew the ratio the CI guard checks.
fn measure(f: impl Fn() -> u64, iters: u32) -> (u64, f64) {
    let pairs = f(); // warm-up, and the pair count
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (pairs, best)
}

struct PlanReport {
    name: &'static str,
    pairs: u64,
    secs: [f64; 3], // recursive, cursor, raw
}

fn measure_plan(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    name: &'static str,
    cfg: &JoinConfig,
    iters: u32,
) -> PlanReport {
    let (pairs_a, secs_recursive) = measure(|| run_recursive(r, s, plan, cfg), iters);
    let (pairs_b, secs_cursor) = measure(|| run_cursor(r, s, plan, cfg), iters);
    let (pairs_c, secs_raw) = measure(|| run_raw(r, s, plan, cfg), iters);
    assert_eq!(
        pairs_a, pairs_b,
        "{name}: executors must agree before comparing speed"
    );
    assert_eq!(pairs_b, pairs_c, "{name}: raw mode must agree on the count");
    PlanReport {
        name,
        pairs: pairs_a,
        secs: [secs_recursive, secs_cursor, secs_raw],
    }
}

impl PlanReport {
    fn json(&self) -> String {
        let engine = |secs: f64| {
            format!(
                "{{ \"secs_per_join\": {secs:.6}, \"pairs_per_sec\": {:.0} }}",
                self.pairs as f64 / secs
            )
        };
        format!(
            "{{\n      \"result_pairs\": {},\n      \"recursive\": {},\n      \"cursor\": {},\n      \"raw\": {},\n      \"cursor_over_recursive\": {:.4},\n      \"raw_over_cursor\": {:.4}\n    }}",
            self.pairs,
            engine(self.secs[0]),
            engine(self.secs[1]),
            engine(self.secs[2]),
            self.secs[0] / self.secs[1],
            self.secs[1] / self.secs[2],
        )
    }
}

/// Cold-vs-warm measurement of the file-backed storage backend
/// ([`FileNodeAccess`]): the trees are saved with `save_to`, reopened
/// from disk, and joined with every buffer miss performing a real page
/// read. "Cold" resets the whole backend (LRU, path buffers, page-file
/// counters) before every run; "warm" reuses the populated buffer.
/// A shard-count sweep over [`ShardedFileAccess`] and its queued twin
/// rides along. (The queued strategy over plain files at zero latency is
/// `overlap.no_latency`; it is not timed a second time here.)
struct FileReport {
    buffer_pages: usize,
    cold_secs: f64,
    cold_disk: u64,
    warm_secs: f64,
    warm_disk: u64,
    /// `(shard_count, best cold secs, disk accesses, best parallel-reader
    /// secs, staged hits)` per sweep point.
    shards: Vec<(usize, f64, u64, f64, u64)>,
}

fn measure_file_backend(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    expect_pairs: u64,
    cfg: &JoinConfig,
    iters: u32,
) -> FileReport {
    let dir = TempDir::new("bench-exec").expect("temp dir");
    let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r.save_to(&rp).expect("save R");
    s.save_to(&sp).expect("save S");
    let rf = RTree::open_from(&rp).expect("reopen R");
    let sf = RTree::open_from(&sp).expect("reopen S");
    let buffer_pages = cfg.buffer_bytes / PAGE;
    let mut access = FileNodeAccess::new(
        vec![
            PageFile::open(&rp).expect("open R file"),
            PageFile::open(&sp).expect("open S file"),
        ],
        cfg.buffer_bytes,
        &[rf.height() as usize, sf.height() as usize],
        EvictionPolicy::Lru,
    )
    .expect("file backend");

    let run = |access: &mut FileNodeAccess| -> (u64, u64) {
        let mut cursor = JoinCursor::new(&rf, &sf, plan, &mut *access);
        let pairs = (&mut cursor).count() as u64;
        (pairs, cursor.stats().io.disk_accesses)
    };

    let (pairs, cold_disk) = {
        access.reset();
        run(&mut access)
    };
    assert_eq!(pairs, expect_pairs, "file backend must agree on the count");
    let mut cold_secs = f64::INFINITY;
    for _ in 0..iters {
        access.reset();
        let start = Instant::now();
        run(&mut access);
        cold_secs = cold_secs.min(start.elapsed().as_secs_f64());
    }

    // Warm: populate once after a reset, then measure without resetting.
    access.reset();
    run(&mut access);
    let (_, warm_disk) = run(&mut access);
    let mut warm_secs = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        run(&mut access);
        warm_secs = warm_secs.min(start.elapsed().as_secs_f64());
    }
    assert!(
        warm_disk <= cold_disk,
        "a warm buffer cannot read more than a cold one"
    );

    // Shard-count sweep: the same join over subtree-partitioned files,
    // demand-only and with the per-shard parallel reader pool.
    let mut shards = Vec::new();
    for shard_count in [2usize, 4, 8] {
        let (rb, sb) = (
            dir.file(&format!("r{shard_count}.rsj")),
            dir.file(&format!("s{shard_count}.rsj")),
        );
        r.save_sharded_to(&rb, shard_count).expect("save sharded R");
        s.save_sharded_to(&sb, shard_count).expect("save sharded S");
        let rs = RTree::open_sharded_from(&rb).expect("reopen sharded R");
        let ss = RTree::open_sharded_from(&sb).expect("reopen sharded S");
        let mut access = ShardedFileAccess::new(
            vec![
                ShardedPageFile::open(&rb).expect("open sharded R"),
                ShardedPageFile::open(&sb).expect("open sharded S"),
            ],
            cfg.buffer_bytes,
            &[rs.height() as usize, ss.height() as usize],
            EvictionPolicy::Lru,
        )
        .expect("sharded backend");
        let run_sharded = |access: &mut ShardedFileAccess| -> (u64, u64) {
            let mut cursor = JoinCursor::new(&rs, &ss, plan, &mut *access);
            let pairs = (&mut cursor).count() as u64;
            (pairs, cursor.stats().io.disk_accesses)
        };
        let (pairs, disk) = {
            access.reset();
            run_sharded(&mut access)
        };
        assert_eq!(pairs, expect_pairs, "sharded backend must agree");
        assert_eq!(
            disk, cold_disk,
            "sharding must not move the disk-access accounting"
        );
        let mut secs = f64::INFINITY;
        for _ in 0..iters {
            access.reset();
            let start = Instant::now();
            run_sharded(&mut access);
            secs = secs.min(start.elapsed().as_secs_f64());
        }

        // The same sweep point through the queued read strategy: one lane
        // per physical shard file, all served by the queue's one pool of
        // `QUEUE_DEPTH` workers whatever the shard count. Accounting must
        // not move; the staged split shows how many misses a hint had
        // already read.
        let mut par = ShardedCompletionFileAccess::with_capacity_pages(
            vec![
                ShardedPageFile::open(&rb).expect("open sharded R"),
                ShardedPageFile::open(&sb).expect("open sharded S"),
            ],
            buffer_pages, // capacity in PAGES — same budget as every other backend here
            &[rs.height() as usize, ss.height() as usize],
            EvictionPolicy::Lru,
            CompletionConfig::default(),
        )
        .expect("parallel sharded backend");
        let run_par = |access: &mut ShardedCompletionFileAccess| -> (u64, u64) {
            let mut cursor = JoinCursor::new(&rs, &ss, plan, &mut *access);
            let pairs = (&mut cursor).count() as u64;
            (pairs, cursor.stats().io.disk_accesses)
        };
        let (pairs, par_disk) = {
            par.reset();
            run_par(&mut par)
        };
        assert_eq!(pairs, expect_pairs, "parallel sharded backend must agree");
        assert_eq!(
            par_disk, cold_disk,
            "parallel shard readers must not move the disk-access accounting"
        );
        let mut par_secs = f64::INFINITY;
        let mut staged_hits = 0;
        for _ in 0..iters {
            par.reset();
            let start = Instant::now();
            run_par(&mut par);
            par_secs = par_secs.min(start.elapsed().as_secs_f64());
            staged_hits = staged_hits.max(par.staged_hits());
        }
        shards.push((shard_count, secs, disk, par_secs, staged_hits));
    }

    FileReport {
        buffer_pages,
        cold_secs,
        cold_disk,
        warm_secs,
        warm_disk,
        shards,
    }
}

impl FileReport {
    /// `cursor_secs` is the in-memory counted cursor's time on the same
    /// plan, measured in the same process — `cold_over_cursor` is the
    /// machine-independent ratio the CI bench-smoke guard checks.
    fn json(&self, cursor_secs: f64) -> String {
        let shards = self
            .shards
            .iter()
            .map(|&(n, secs, disk, par_secs, staged)| {
                format!(
                    "{{ \"shards\": {n}, \"secs_per_join\": {secs:.6}, \"disk_accesses\": {disk}, \
                     \"parallel_secs_per_join\": {par_secs:.6}, \"staged_hits\": {staged} }}"
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n    \"buffer_pages\": {},\n    \"cold\": {{ \"secs_per_join\": {:.6}, \"disk_accesses\": {} }},\n    \"warm\": {{ \"secs_per_join\": {:.6}, \"disk_accesses\": {} }},\n    \"shard_sweep\": [{}],\n    \"cold_over_cursor\": {:.4}\n  }}",
            self.buffer_pages,
            self.cold_secs,
            self.cold_disk,
            self.warm_secs,
            self.warm_disk,
            shards,
            cursor_secs / self.cold_secs,
        )
    }
}

/// Completion-driven I/O under injected read latency: the measurement the
/// submission/completion queue exists for. With [`READ_LATENCY_ENV`]
/// charging every physical page read (~a fast disk's positioning time),
/// the blocking [`FileNodeAccess`] pays the full `latency × misses` bill
/// serially, while the [`CompletionFileAccess`] cursor overlaps demand
/// misses with join work and sibling reads — same deterministic
/// `disk_accesses` by construction, wall time bounded by the pipeline
/// depth instead of the sum. A shared-queue shard-parallel sweep rides
/// along: N workers over subtree-partitioned files, one completion queue
/// with per-shard lanes.
struct OverlapReport {
    latency_us: u64,
    blocking_secs: f64,
    blocking_disk: u64,
    completion_secs: f64,
    completion_disk: u64,
    staged_hits: u64,
    demand_reads: u64,
    /// The queue's own split of the last completion-driven cold run's
    /// reads: mean submit→claim wait and mean claim→complete service, µs.
    /// Wait ≫ service ⇒ the pool, not the device, bounds the run.
    queue_wait_us_mean: f64,
    service_us_mean: f64,
    /// Completion-driven cold run *without* injected latency — the
    /// page-cache-speed overhead check against the in-memory cursor.
    nolat_completion_secs: f64,
    /// `(workers == shards, best wall secs per shared-queue parallel join)`.
    parallel: Vec<(usize, f64)>,
}

fn measure_overlap(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    expect_pairs: u64,
    cfg: &JoinConfig,
    iters: u32,
) -> OverlapReport {
    let dir = TempDir::new("bench-overlap").expect("temp dir");
    let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r.save_to(&rp).expect("save R");
    s.save_to(&sp).expect("save S");
    // Open every tree before injecting latency: tree loading is not the
    // workload under measurement.
    let rf = RTree::open_from(&rp).expect("reopen R");
    let sf = RTree::open_from(&sp).expect("reopen S");
    let heights = [rf.height() as usize, sf.height() as usize];
    let sharded: Vec<(usize, std::path::PathBuf, std::path::PathBuf, RTree, RTree)> = [2usize, 4]
        .into_iter()
        .map(|n| {
            let (rb, sb) = (
                dir.file(&format!("r{n}.rsj")),
                dir.file(&format!("s{n}.rsj")),
            );
            r.save_sharded_to(&rb, n).expect("save sharded R");
            s.save_sharded_to(&sb, n).expect("save sharded S");
            let rs = RTree::open_sharded_from(&rb).expect("reopen sharded R");
            let ss = RTree::open_sharded_from(&sb).expect("reopen sharded S");
            (n, rb, sb, rs, ss)
        })
        .collect();

    let completion_access = || {
        CompletionFileAccess::new(
            vec![
                PageFile::open(&rp).expect("open R file"),
                PageFile::open(&sp).expect("open S file"),
            ],
            cfg.buffer_bytes,
            &heights,
            EvictionPolicy::Lru,
            CompletionConfig::default(),
        )
        .expect("completion backend")
    };
    let run_completion = |access: &mut CompletionFileAccess| -> (u64, u64) {
        let mut cursor = JoinCursor::new(&rf, &sf, plan, &mut *access);
        let pairs = (&mut cursor).count() as u64;
        (pairs, cursor.stats().io.disk_accesses)
    };

    // Page-cache-speed baseline: the completion-driven cursor must not
    // cost more than the gating bookkeeping over the blocking backend.
    let mut access = completion_access();
    let (pairs, _) = run_completion(&mut access);
    assert_eq!(pairs, expect_pairs, "completion backend must agree");
    let mut nolat_completion_secs = f64::INFINITY;
    for _ in 0..iters {
        access.reset();
        let start = Instant::now();
        run_completion(&mut access);
        nolat_completion_secs = nolat_completion_secs.min(start.elapsed().as_secs_f64());
    }
    drop(access);

    // Injected latency: every PageFile handle opened from here on sleeps
    // per counted read — including the queue's own lane handles.
    let latency_us = 200;
    std::env::set_var(READ_LATENCY_ENV, latency_us.to_string());
    let lat_iters = iters.clamp(1, 5);

    let mut blocking = FileNodeAccess::new(
        vec![
            PageFile::open(&rp).expect("open R file"),
            PageFile::open(&sp).expect("open S file"),
        ],
        cfg.buffer_bytes,
        &heights,
        EvictionPolicy::Lru,
    )
    .expect("blocking backend");
    let run_blocking = |access: &mut FileNodeAccess| -> (u64, u64) {
        let mut cursor = JoinCursor::new(&rf, &sf, plan, &mut *access);
        let pairs = (&mut cursor).count() as u64;
        (pairs, cursor.stats().io.disk_accesses)
    };
    let (pairs, blocking_disk) = {
        blocking.reset();
        run_blocking(&mut blocking)
    };
    assert_eq!(pairs, expect_pairs, "blocking backend must agree");
    let mut blocking_secs = f64::INFINITY;
    for _ in 0..lat_iters {
        blocking.reset();
        let start = Instant::now();
        run_blocking(&mut blocking);
        blocking_secs = blocking_secs.min(start.elapsed().as_secs_f64());
    }
    drop(blocking);

    let mut access = completion_access();
    let (pairs, completion_disk) = {
        access.reset();
        run_completion(&mut access)
    };
    assert_eq!(pairs, expect_pairs, "completion backend must agree");
    assert_eq!(
        completion_disk, blocking_disk,
        "completion-driven I/O must not move the disk-access accounting"
    );
    let mut completion_secs = f64::INFINITY;
    let mut staged_hits = 0;
    let mut demand_reads = 0;
    for _ in 0..lat_iters {
        access.reset();
        let start = Instant::now();
        run_completion(&mut access);
        completion_secs = completion_secs.min(start.elapsed().as_secs_f64());
        staged_hits = access.staged_hits();
        demand_reads = access.demand_reads();
    }
    let lag = access.queue().completion_lag();
    drop(access);

    // Shard-parallel workers over ONE shared completion queue: worker
    // `w`'s backend wraps a clone of the queue; a miss submits on the
    // lane of whichever shard file owns the page.
    let mut parallel = Vec::new();
    for (workers, rb, sb, rs, ss) in &sharded {
        let workers = *workers;
        let cap_pages = (cfg.buffer_bytes / PAGE / workers).max(1);
        let mut secs = f64::INFINITY;
        for _ in 0..lat_iters {
            let files = || {
                vec![
                    ShardedPageFile::open(rb).expect("open sharded R"),
                    ShardedPageFile::open(sb).expect("open sharded S"),
                ]
            };
            let queue = shard_lane_queue(&files()).expect("lane queue");
            let start = Instant::now();
            let res =
                rsj_core::parallel_spatial_join_with_access(rs, ss, plan, false, workers, |_w| {
                    ShardedCompletionFileAccess::with_shared_queue(
                        files(),
                        cap_pages,
                        &heights,
                        EvictionPolicy::Lru,
                        queue.clone(),
                        CompletionConfig::default().window,
                    )
                    .expect("shared-queue backend")
                });
            secs = secs.min(start.elapsed().as_secs_f64());
            assert_eq!(
                res.stats.result_pairs, expect_pairs,
                "shared-queue parallel join must agree"
            );
        }
        parallel.push((workers, secs));
    }
    std::env::remove_var(READ_LATENCY_ENV);

    OverlapReport {
        latency_us,
        blocking_secs,
        blocking_disk,
        completion_secs,
        completion_disk,
        staged_hits,
        demand_reads,
        queue_wait_us_mean: lag.queue_wait_mean_nanos() as f64 / 1e3,
        service_us_mean: lag.service_mean_nanos() as f64 / 1e3,
        nolat_completion_secs,
        parallel,
    }
}

impl OverlapReport {
    /// `cursor_secs` is the in-memory counted cursor on the same plan, for
    /// the no-latency overhead ratio the CI guard checks.
    fn json(&self, cursor_secs: f64) -> String {
        let parallel = self
            .parallel
            .iter()
            .map(|&(workers, secs)| {
                format!(
                    "{{ \"workers\": {workers}, \"secs_per_join\": {secs:.6}, \
                     \"over_blocking\": {:.4} }}",
                    secs / self.blocking_secs
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n    \"latency_us\": {},\n    \"blocking_cold\": {{ \"secs_per_join\": {:.6}, \"disk_accesses\": {} }},\n    \"completion_cold\": {{ \"secs_per_join\": {:.6}, \"disk_accesses\": {}, \"staged_hits\": {}, \"demand_reads\": {}, \"queue_wait_us_mean\": {:.1}, \"service_us_mean\": {:.1} }},\n    \"completion_over_blocking\": {:.4},\n    \"no_latency\": {{ \"completion_cold_secs\": {:.6}, \"cold_over_cursor\": {:.4} }},\n    \"parallel\": [{}]\n  }}",
            self.latency_us,
            self.blocking_secs,
            self.blocking_disk,
            self.completion_secs,
            self.completion_disk,
            self.staged_hits,
            self.demand_reads,
            self.queue_wait_us_mean,
            self.service_us_mean,
            self.blocking_secs / self.completion_secs,
            self.nolat_completion_secs,
            cursor_secs / self.nolat_completion_secs,
            parallel,
        )
    }
}

/// Warm serving over the latched shared page cache, in two measurements.
///
/// **Equal budget** — the acceptance bar of the shared frame layer:
/// a 4-worker cold SJ2 where every worker runs a private
/// [`FileNodeAccess`] of `budget/4` pages (the shared-nothing file
/// deployment — physical reads = logical charges by construction)
/// against the same join over one [`SharedPageCache`] of `budget`
/// frames with per-worker logical LRUs of `budget/4`. The logical sums
/// are bit-identical by construction; the cache's physical reads land
/// strictly below the shared-nothing sum (single-flight + cross-worker
/// reuse), which the CI guard asserts.
///
/// **Serving loop** — the first step of the ROADMAP's join-service
/// direction: a pool sized to the working set, one cold fill request,
/// then N closed-loop clients re-running the same SJ2 concurrently,
/// each through a fresh handle (logical charges equal the serial cold
/// join's every time). Reported: per-request p50/p99 wall time under
/// the injected read latency and the cold/warm physical-read split —
/// warm rounds must re-read ≤ 5% of the cold fill (in practice: zero).
struct WarmServingReport {
    latency_us: u64,
    workers: usize,
    budget_pages: usize,
    private_secs: f64,
    private_logical: u64,
    shared_secs: f64,
    shared_logical: u64,
    shared_physical: u64,
    clients: usize,
    rounds: usize,
    pool_pages: usize,
    client_logical: u64,
    cold_physical: u64,
    cold_secs: f64,
    warm_physical: u64,
    p50_ms: f64,
    p99_ms: f64,
}

fn measure_warm_serving(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    expect_pairs: u64,
    cfg: &JoinConfig,
    iters: u32,
) -> WarmServingReport {
    let dir = TempDir::new("bench-warm").expect("temp dir");
    let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r.save_to(&rp).expect("save R");
    s.save_to(&sp).expect("save S");
    let rf = RTree::open_from(&rp).expect("reopen R");
    let sf = RTree::open_from(&sp).expect("reopen S");
    let heights = [rf.height() as usize, sf.height() as usize];
    let paths = [rp.clone(), sp.clone()];
    let pool_pages = (PageFile::open(&rp).expect("R pages").page_count()
        + PageFile::open(&sp).expect("S pages").page_count()) as usize;

    let workers = 4;
    let budget_pages = (cfg.buffer_bytes / PAGE).max(workers);
    let cap_per_worker = (budget_pages / workers).max(1);
    let latency_us = 200;
    std::env::set_var(READ_LATENCY_ENV, latency_us.to_string());
    let lat_iters = iters.clamp(1, 5);

    // Equal budget, shared-nothing: private file backends, budget/4 each.
    let mut private_secs = f64::INFINITY;
    let mut private_logical = 0;
    for _ in 0..lat_iters {
        let start = Instant::now();
        let res =
            rsj_core::parallel_spatial_join_with_access(&rf, &sf, plan, false, workers, |_w| {
                FileNodeAccess::with_capacity_pages(
                    vec![
                        PageFile::open(&rp).expect("open R file"),
                        PageFile::open(&sp).expect("open S file"),
                    ],
                    cap_per_worker,
                    &heights,
                    EvictionPolicy::Lru,
                )
                .expect("private backend")
            });
        private_secs = private_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(
            res.stats.result_pairs, expect_pairs,
            "private run must agree"
        );
        private_logical = res.stats.io.disk_accesses - 2; // minus coordinator roots
    }

    // Equal budget, shared cache: one frame pool of `budget_pages`, same
    // per-worker logical capacity — logical charges identical, physical
    // reads deduped. A fresh (cold) cache per iteration; the physical
    // count reported is the *worst* run, so the guard's strict bound
    // holds for every run, not just a lucky one.
    let mut shared_secs = f64::INFINITY;
    let mut shared_logical = 0;
    let mut shared_physical = 0;
    for _ in 0..lat_iters {
        let cache = SharedPageCache::open(
            &paths,
            budget_pages,
            &heights,
            CacheConfig {
                workers,
                ..CacheConfig::default()
            },
        )
        .expect("shared cache");
        let start = Instant::now();
        let res = rsj_core::parallel_spatial_join_warm(
            &rf,
            &sf,
            plan,
            false,
            workers,
            &cache,
            cap_per_worker,
        );
        shared_secs = shared_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(
            res.stats.result_pairs, expect_pairs,
            "shared run must agree"
        );
        shared_logical = res.stats.io.disk_accesses - 2;
        cache.drain();
        shared_physical = shared_physical.max(cache.physical_reads());
    }
    assert_eq!(
        shared_logical, private_logical,
        "the shared frame layer must not move the logical accounting"
    );

    // Serving loop: pool sized to the working set, serial SJ2 requests.
    // One shard so "pool == working set" provably never evicts — a
    // hash-sharded pool splits capacity into per-shard slices, and an
    // overloaded slice would re-read pages on warm rounds.
    let cache = SharedPageCache::open(
        &paths,
        pool_pages,
        &heights,
        CacheConfig {
            workers,
            shards: 1,
            ..CacheConfig::default()
        },
    )
    .expect("serving cache");
    let run_request = |cache: &std::sync::Arc<SharedPageCache>| -> (u64, u64, f64) {
        let mut handle = cache.handle(budget_pages);
        let start = Instant::now();
        let mut cursor = JoinCursor::new(&rf, &sf, plan, &mut handle);
        let pairs = (&mut cursor).count() as u64;
        let disk = cursor.stats().io.disk_accesses;
        (pairs, disk, start.elapsed().as_secs_f64())
    };
    let (pairs, client_logical, cold_secs) = run_request(&cache);
    assert_eq!(pairs, expect_pairs, "serving request must agree");
    cache.drain();
    let cold_physical = cache.physical_reads();

    let clients = 4;
    let rounds = if quick() { 2 } else { 3 };
    // Per-request latencies land in a shared telemetry histogram — the
    // same log-linear buckets the service reports from (≤ 1/32 relative
    // quantile error) — instead of a sorted vector with hand-rolled
    // percentile math.
    let latency_hist = rsj_telemetry::Histogram::new();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let cache = &cache;
            let latency_hist = &latency_hist;
            scope.spawn(move || {
                for _ in 0..rounds {
                    let (pairs, disk, secs) = run_request(cache);
                    assert_eq!(pairs, expect_pairs, "warm request must agree");
                    assert_eq!(
                        disk, client_logical,
                        "every client charges the serial cold join's logical I/O"
                    );
                    latency_hist.record((secs * 1e6) as u64);
                }
            });
        }
    });
    cache.drain();
    let warm_physical = cache.physical_reads() - cold_physical;
    let pct = latency_hist.snapshot().quantiles();
    std::env::remove_var(READ_LATENCY_ENV);

    WarmServingReport {
        latency_us,
        workers,
        budget_pages,
        private_secs,
        private_logical,
        shared_secs,
        shared_logical,
        shared_physical,
        clients,
        rounds,
        pool_pages,
        client_logical,
        cold_physical,
        cold_secs,
        warm_physical,
        p50_ms: pct.p50 as f64 / 1e3,
        p99_ms: pct.p99 as f64 / 1e3,
    }
}

impl WarmServingReport {
    fn json(&self) -> String {
        format!(
            "{{\n    \"latency_us\": {},\n    \"workers\": {},\n    \"equal_budget\": {{ \"budget_pages\": {}, \"private\": {{ \"secs_per_join\": {:.6}, \"logical_sum\": {} }}, \"shared_cache\": {{ \"secs_per_join\": {:.6}, \"logical_sum\": {}, \"physical_reads\": {} }} }},\n    \"serving\": {{ \"clients\": {}, \"rounds\": {}, \"pool_pages\": {}, \"client_logical_disk\": {}, \"cold\": {{ \"physical_reads\": {}, \"secs\": {:.6} }}, \"warm\": {{ \"physical_reads\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }} }}\n  }}",
            self.latency_us,
            self.workers,
            self.budget_pages,
            self.private_secs,
            self.private_logical,
            self.shared_secs,
            self.shared_logical,
            self.shared_physical,
            self.clients,
            self.rounds,
            self.pool_pages,
            self.client_logical,
            self.cold_physical,
            self.cold_secs,
            self.warm_physical,
            self.p50_ms,
            self.p99_ms,
        )
    }
}

/// The join *service* under load: instrumentation overhead on the cold
/// headline plan (recording live vs compiled out through the identical
/// query path), the warm zero-physical-read guarantee through the
/// service, and an open-loop target-QPS run whose latency histogram
/// charges queueing delay from the *scheduled* arrival (no coordinated
/// omission).
struct ServingTelemetryReport {
    cold_iters: u32,
    uninstrumented_cold_secs: f64,
    instrumented_cold_secs: f64,
    /// Instrumented throughput over uninstrumented (CI-guarded ≥ 0.95).
    instrumented_over_uninstrumented: f64,
    physical_reads_by_store: Vec<u64>,
    warm_physical_reads: u64,
    warm_hit_ratio: f64,
    warm_p50_us: u64,
    warm_p99_us: u64,
    target_qps: f64,
    achieved_qps: f64,
    requests: usize,
    clients: usize,
    ok: u64,
    overloaded: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
    /// Service-side end-to-end p99 (admission through emit) over the
    /// same window, from the service's own histogram.
    service_p99_us: u64,
    /// Admission time-in-queue p99 over the same window.
    queue_p99_us: u64,
    probe_requests: usize,
    probe_overloaded: u64,
}

fn delta_quantiles(
    after: &rsj_telemetry::RegistrySnapshot,
    before: &rsj_telemetry::RegistrySnapshot,
    family: &str,
) -> rsj_telemetry::Quantiles {
    match after.delta(before).get(family, &[]) {
        Some(rsj_telemetry::SampleValue::Histogram(h)) => h.quantiles(),
        other => panic!("{family} must be a histogram, got {other:?}"),
    }
}

fn measure_serving_telemetry(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    expect_pairs: u64,
    iters: u32,
) -> ServingTelemetryReport {
    use rsj_service::{JoinService, ServiceConfig, ServiceError};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    let dir = TempDir::new("bench-serving").expect("temp dir");
    let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r.save_to(&rp).expect("save R");
    s.save_to(&sp).expect("save S");
    let clients = 4;
    let svc = JoinService::open(
        &rp,
        &sp,
        ServiceConfig {
            max_in_flight: clients,
            max_queue: 4 * clients,
            ..ServiceConfig::default()
        },
    )
    .expect("open service");

    // Instrumentation overhead: the same cold query, recording
    // compiled out vs live, best-of-N each.
    // Interleaved best-of-N: alternating the two modes decorrelates
    // machine drift from the mode, so the CI ratio guard measures the
    // instrumentation, not which half ran first.
    let cold_iters = iters.clamp(1, 7);
    let mut uninstrumented_cold_secs = f64::INFINITY;
    let mut instrumented_cold_secs = f64::INFINITY;
    for _ in 0..cold_iters {
        svc.cache().clear();
        let start = Instant::now();
        let resp = svc.execute_unrecorded(plan, false).expect("cold query");
        uninstrumented_cold_secs = uninstrumented_cold_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(resp.stats.result_pairs, expect_pairs, "service must agree");

        svc.cache().clear();
        let start = Instant::now();
        let resp = svc.execute(plan, false).expect("cold query");
        instrumented_cold_secs = instrumented_cold_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(resp.stats.result_pairs, expect_pairs, "service must agree");
    }

    // Warm fill, then the serving guarantee: every further query runs
    // zero-physical at hit ratio 1.0.
    svc.cache().clear();
    svc.execute(plan, false).expect("warm fill");
    let physical_reads_by_store = svc.cache().physical_reads_by_store();
    svc.cache().reset_stats();
    let warm_before = svc.registry().snapshot();
    let warm_probe = Instant::now();
    svc.execute(plan, false).expect("warm probe");
    let warm_secs = warm_probe.elapsed().as_secs_f64();
    for _ in 0..2 {
        svc.execute(plan, false).expect("warm query");
    }
    let warm_q = delta_quantiles(
        &svc.registry().snapshot(),
        &warm_before,
        "rsj_service_query_us",
    );
    let warm_physical_reads = svc.cache().physical_reads();
    let warm_hit_ratio = svc.cache().hit_ratio();
    assert_eq!(warm_physical_reads, 0, "warm serving must not touch disk");

    // Open-loop target-QPS run: deterministic arrival schedule
    // t_i = i / λ at half the measured warm capacity, pulled by
    // `clients` worker threads. Latency runs from the scheduled
    // arrival, so a falling-behind server is charged its queue.
    let requests = if quick() { 48 } else { 160 };
    let target_qps = (0.5 * clients as f64 / warm_secs.max(1e-6)).min(2_000.0);
    let qps_before = svc.registry().snapshot();
    let arrival_hist = rsj_telemetry::Histogram::new();
    let next = AtomicUsize::new(0);
    let overloaded = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (svc, next, overloaded, arrival_hist) = (&svc, &next, &overloaded, &arrival_hist);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    break;
                }
                let scheduled = start + std::time::Duration::from_secs_f64(i as f64 / target_qps);
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                match svc.execute(plan, false) {
                    Ok(resp) => assert_eq!(
                        resp.stats.result_pairs, expect_pairs,
                        "open-loop query must agree"
                    ),
                    Err(ServiceError::Overloaded(_)) => {
                        overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("open-loop query failed: {e}"),
                }
                arrival_hist.record(scheduled.elapsed().as_micros().min(u64::MAX as u128) as u64);
            });
        }
    });
    let run_secs = start.elapsed().as_secs_f64();
    let overloaded = overloaded.load(Ordering::Relaxed);
    let ok = requests as u64 - overloaded;
    let achieved_qps = ok as f64 / run_secs.max(1e-9);
    let qps_after = svc.registry().snapshot();
    let open_loop = arrival_hist.snapshot().quantiles();
    let service_q = delta_quantiles(&qps_after, &qps_before, "rsj_service_query_us");
    let queue_q = delta_quantiles(&qps_after, &qps_before, "rsj_service_queue_wait_us");
    assert_eq!(
        svc.cache().physical_reads(),
        0,
        "the open-loop run must stay fully warm"
    );

    // Overload probe: a one-slot, zero-queue service with its only
    // permit held must reject the whole burst, typed — never hang.
    let probe = JoinService::open(
        &rp,
        &sp,
        ServiceConfig {
            max_in_flight: 1,
            max_queue: 0,
            ..ServiceConfig::default()
        },
    )
    .expect("open probe service");
    let held = probe.admission().acquire().expect("hold the only slot");
    let probe_overloaded = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let probe = &probe;
                scope.spawn(move || {
                    matches!(probe.execute(plan, false), Err(ServiceError::Overloaded(_)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe client"))
            .filter(|&rejected| rejected)
            .count() as u64
    });
    drop(held);
    assert_eq!(
        probe_overloaded, clients as u64,
        "a held slot with zero queue must reject the whole burst"
    );

    ServingTelemetryReport {
        cold_iters,
        uninstrumented_cold_secs,
        instrumented_cold_secs,
        instrumented_over_uninstrumented: uninstrumented_cold_secs / instrumented_cold_secs,
        physical_reads_by_store,
        warm_physical_reads,
        warm_hit_ratio,
        warm_p50_us: warm_q.p50,
        warm_p99_us: warm_q.p99,
        target_qps,
        achieved_qps,
        requests,
        clients,
        ok,
        overloaded,
        p50_us: open_loop.p50,
        p90_us: open_loop.p90,
        p99_us: open_loop.p99,
        max_us: open_loop.max,
        service_p99_us: service_q.p99,
        queue_p99_us: queue_q.p99,
        probe_requests: clients,
        probe_overloaded,
    }
}

impl ServingTelemetryReport {
    fn json(&self) -> String {
        format!(
            "{{\n    \"cold\": {{ \"iters\": {}, \"uninstrumented_secs\": {:.6}, \"instrumented_secs\": {:.6}, \"instrumented_over_uninstrumented\": {:.4} }},\n    \"physical_reads_by_store\": [{}],\n    \"warm\": {{ \"physical_reads\": {}, \"hit_ratio\": {:.4}, \"p50_us\": {}, \"p99_us\": {} }},\n    \"target_qps\": {{ \"target\": {:.1}, \"achieved\": {:.1}, \"requests\": {}, \"clients\": {}, \"ok\": {}, \"overloaded\": {}, \"latency_us\": {{ \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {} }}, \"service_p99_us\": {}, \"queue_p99_us\": {} }},\n    \"overload_probe\": {{ \"requests\": {}, \"overloaded\": {} }}\n  }}",
            self.cold_iters,
            self.uninstrumented_cold_secs,
            self.instrumented_cold_secs,
            self.instrumented_over_uninstrumented,
            self.physical_reads_by_store
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.warm_physical_reads,
            self.warm_hit_ratio,
            self.warm_p50_us,
            self.warm_p99_us,
            self.target_qps,
            self.achieved_qps,
            self.requests,
            self.clients,
            self.ok,
            self.overloaded,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us,
            self.service_p99_us,
            self.queue_p99_us,
            self.probe_requests,
            self.probe_overloaded,
        )
    }
}

/// The write path under the same fixture: a scripted update mix applied
/// through an [`OpenFileTree`] (dirty write-back, free-list reuse), then
/// the CI-guarded invariant — a cold SJ2 over the updated file costs
/// exactly as many disk accesses as over a *freshly saved* tree that
/// applied the same updates in memory.
struct UpdateReport {
    ops: usize,
    update_secs: f64,
    update_reads: u64,
    page_writes: u64,
    reused_slots: u64,
    pages_before: u32,
    pages_after: u32,
    post_update_cold_disk: u64,
    post_update_secs: f64,
    fresh_save_cold_disk: u64,
    fresh_save_secs: f64,
    /// The same script through an `OpenCachedTree` on a live
    /// `SharedPageCache` (latched write path), then a cold shared-cache
    /// SJ2 over the flushed file. The CI guard pins
    /// `cached_post_update_cold_disk == fresh_save_cold_disk`: updating
    /// through the shared frames must be invisible to the paper's
    /// accounting.
    cached_update_secs: f64,
    cached_page_writes: u64,
    cached_physical_writes: u64,
    cached_post_update_cold_disk: u64,
}

/// The scripted update mix, phased like real churn: delete a 60% band of
/// R (CondenseTree dissolves underfull nodes onto the free list), insert
/// translated copies (splits allocate off the free list —
/// reuse-before-append), then delete half of those again. The phasing
/// matters: a tight delete-insert interleave keeps node occupancy flat
/// and would never exercise dissolution or reuse.
fn update_ops(data: &rsj_datagen::PresetData) -> Vec<(rsj_geom::Rect, DataId, bool)> {
    let n = data.r.len() * 3 / 5;
    let band = &data.r[..n];
    let translated: Vec<(rsj_geom::Rect, DataId)> = band
        .iter()
        .enumerate()
        .map(|(k, o)| {
            let d = 1e-4 * ((k % 7) as f64 - 3.0);
            (
                rsj_geom::Rect::from_corners(
                    o.mbr.xl + d,
                    o.mbr.yl - d,
                    o.mbr.xu + d,
                    o.mbr.yu - d,
                ),
                DataId(10_000_000 + k as u64),
            )
        })
        .collect();
    let mut ops = Vec::new();
    for o in band {
        ops.push((o.mbr, DataId(o.id), false));
    }
    for &(r, id) in &translated {
        ops.push((r, id, true));
    }
    for &(r, id) in translated.iter().step_by(2) {
        ops.push((r, id, false));
    }
    ops
}

fn measure_update_path(
    w: &Workbench,
    r: &RTree,
    s: &RTree,
    cfg: &JoinConfig,
    iters: u32,
) -> UpdateReport {
    let dir = TempDir::new("bench-update").expect("temp dir");
    let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r.save_to(&rp).expect("save R");
    s.save_to(&sp).expect("save S");
    let ops = update_ops(&w.data);
    let cap_pages = cfg.buffer_bytes / PAGE;

    // In-memory twin + fresh save (the baseline the guard compares to).
    let mut oracle = r.clone();
    for &(rect, id, ins) in &ops {
        if ins {
            oracle.insert(rect, id);
        } else {
            oracle.delete(&rect, id);
        }
    }
    let fresh = dir.file("r.fresh.rsj");
    oracle.save_to(&fresh).expect("save updated oracle");

    // Timed update runs, each on a pristine copy of the original file.
    let upd = dir.file("r.upd.rsj");
    let mut update_secs = f64::INFINITY;
    let mut update_reads = 0;
    let mut page_writes = 0;
    let mut reused_slots = 0;
    let mut pages_after = 0;
    for _ in 0..iters.clamp(1, 10) {
        std::fs::copy(&rp, &upd).expect("copy page file");
        let start = Instant::now();
        let mut open = OpenFileTree::open(&upd, cap_pages).expect("open for update");
        let mut reused = 0u64;
        for &(rect, id, ins) in &ops {
            if ins {
                let free_before = open.tree().free_page_count();
                open.insert(rect, id).expect("insert");
                reused += free_before.saturating_sub(open.tree().free_page_count()) as u64;
            } else {
                open.delete(&rect, id).expect("delete");
            }
        }
        open.flush().expect("flush");
        update_secs = update_secs.min(start.elapsed().as_secs_f64());
        let io = open.io_stats();
        update_reads = io.disk_accesses;
        page_writes = io.page_writes;
        reused_slots = reused;
        pages_after = open.access().file(0).page_count();
    }

    // Cold SJ2 over the updated file vs the freshly saved oracle file.
    let cold_sj2 = |r_path: &std::path::Path| -> (u64, u64, f64) {
        let rt = RTree::open_from(r_path).expect("reopen updated R");
        let st = RTree::open_from(&sp).expect("reopen S");
        let mut access = FileNodeAccess::new(
            vec![
                PageFile::open(r_path).expect("open R file"),
                PageFile::open(&sp).expect("open S file"),
            ],
            cfg.buffer_bytes,
            &[rt.height() as usize, st.height() as usize],
            EvictionPolicy::Lru,
        )
        .expect("file backend");
        let run = |access: &mut FileNodeAccess| -> (u64, u64) {
            let mut cursor = JoinCursor::new(&rt, &st, JoinPlan::sj2(), &mut *access);
            let pairs = (&mut cursor).count() as u64;
            (pairs, cursor.stats().io.disk_accesses)
        };
        let (pairs, disk) = {
            access.reset();
            run(&mut access)
        };
        let mut secs = f64::INFINITY;
        for _ in 0..iters {
            access.reset();
            let start = Instant::now();
            run(&mut access);
            secs = secs.min(start.elapsed().as_secs_f64());
        }
        (pairs, disk, secs)
    };
    let (pairs_upd, post_update_cold_disk, post_update_secs) = cold_sj2(&upd);
    let (pairs_fresh, fresh_save_cold_disk, fresh_save_secs) = cold_sj2(&fresh);
    assert_eq!(pairs_upd, pairs_fresh, "updated file must join identically");

    // The same script through the latched shared-cache write path
    // (`OpenCachedTree`), then a cold shared-cache SJ2 over the flushed
    // file. The handles' path buffers are sized from the *updated*
    // heights so the rejoin accounts exactly like `cold_sj2` above —
    // the CI guard pins its disk count to `fresh_save_cold_disk`.
    let cupd = dir.file("r.cached.rsj");
    let cache_heights = [oracle.height() as usize, s.height() as usize];
    let mut cached_update_secs = f64::INFINITY;
    let mut cached_page_writes = 0;
    let mut cached_physical_writes = 0;
    let mut cached_post_update_cold_disk = 0;
    for _ in 0..iters.clamp(1, 10) {
        std::fs::copy(&rp, &cupd).expect("copy page file");
        let cache = SharedPageCache::open(
            &[cupd.clone(), sp.clone()],
            cap_pages,
            &cache_heights,
            CacheConfig::default(),
        )
        .expect("update cache");
        let start = Instant::now();
        let mut open = OpenCachedTree::open_cached(&cache, 0, cap_pages).expect("open cached");
        for &(rect, id, ins) in &ops {
            if ins {
                open.insert(rect, id).expect("insert");
            } else {
                open.delete(&rect, id).expect("delete");
            }
        }
        open.flush().expect("flush");
        cached_update_secs = cached_update_secs.min(start.elapsed().as_secs_f64());
        cached_page_writes = open.io_stats().page_writes;
        cached_physical_writes = cache.physical_writes();
        assert_eq!(cache.pending_write_back(), 0, "flush must drain the cache");
        drop(open);

        // Rejoin through the same cache, gone cold: the updated pages
        // must cost exactly what a freshly saved tree costs.
        cache.clear();
        let rt = RTree::open_from(&cupd).expect("reopen cached-updated R");
        let st = RTree::open_from(&sp).expect("reopen S");
        let mut handle = cache.handle(cap_pages);
        let mut cursor = JoinCursor::new(&rt, &st, JoinPlan::sj2(), &mut handle);
        let pairs = (&mut cursor).count() as u64;
        cached_post_update_cold_disk = cursor.stats().io.disk_accesses;
        assert_eq!(
            pairs, pairs_fresh,
            "cached-updated file must join identically"
        );
    }

    UpdateReport {
        ops: ops.len(),
        update_secs,
        update_reads,
        page_writes,
        reused_slots,
        pages_before: PageFile::open(&rp).expect("reopen original").page_count(),
        pages_after,
        post_update_cold_disk,
        post_update_secs,
        fresh_save_cold_disk,
        fresh_save_secs,
        cached_update_secs,
        cached_page_writes,
        cached_physical_writes,
        cached_post_update_cold_disk,
    }
}

impl UpdateReport {
    fn json(&self) -> String {
        format!(
            "{{\n    \"ops\": {},\n    \"update_secs\": {:.6},\n    \"updates_per_sec\": {:.0},\n    \"update_disk_reads\": {},\n    \"page_writes\": {},\n    \"reused_slots\": {},\n    \"file_pages\": {{ \"before\": {}, \"after\": {} }},\n    \"post_update_cold\": {{ \"secs_per_join\": {:.6}, \"disk_accesses\": {} }},\n    \"fresh_save_cold\": {{ \"secs_per_join\": {:.6}, \"disk_accesses\": {} }},\n    \"cached_update\": {{ \"secs\": {:.6}, \"page_writes\": {}, \"physical_writes\": {}, \"post_update_cold_disk\": {} }}\n  }}",
            self.ops,
            self.update_secs,
            self.ops as f64 / self.update_secs,
            self.update_reads,
            self.page_writes,
            self.reused_slots,
            self.pages_before,
            self.pages_after,
            self.post_update_secs,
            self.post_update_cold_disk,
            self.fresh_save_secs,
            self.fresh_save_cold_disk,
            self.cached_update_secs,
            self.cached_page_writes,
            self.cached_physical_writes,
            self.cached_post_update_cold_disk,
        )
    }
}

/// The f32 compression ablation: the same trees saved in the 40-byte f64
/// format and the paper's literal 20-byte entry format — file size, cold
/// SJ2 I/O, result drift and maximum coordinate drift in one table.
struct F32Report {
    f64_bytes: u64,
    f32_bytes: u64,
    pairs_f64: u64,
    pairs_f32: u64,
    cold_disk_f64: u64,
    cold_disk_f32: u64,
    max_drift: f64,
}

fn measure_f32_ablation(r: &RTree, s: &RTree, cfg: &JoinConfig) -> F32Report {
    let dir = TempDir::new("bench-f32").expect("temp dir");
    let cold_sj2 = |rp: &std::path::Path, sp: &std::path::Path| -> (u64, u64) {
        let rt = RTree::open_from(rp).expect("reopen R");
        let st = RTree::open_from(sp).expect("reopen S");
        let access = FileNodeAccess::new(
            vec![
                PageFile::open(rp).expect("open R"),
                PageFile::open(sp).expect("open S"),
            ],
            cfg.buffer_bytes,
            &[rt.height() as usize, st.height() as usize],
            EvictionPolicy::Lru,
        )
        .expect("file backend");
        let mut cursor = JoinCursor::new(&rt, &st, JoinPlan::sj2(), access);
        let pairs = (&mut cursor).count() as u64;
        (pairs, cursor.stats().io.disk_accesses)
    };

    let (r64, s64) = (dir.file("r64.rsj"), dir.file("s64.rsj"));
    r.save_to(&r64).expect("save R f64");
    s.save_to(&s64).expect("save S f64");
    let (pairs_f64, cold_disk_f64) = cold_sj2(&r64, &s64);

    let (r32, s32) = (dir.file("r32.rsj"), dir.file("s32.rsj"));
    r.save_to_with_format(&r32, EntryFormat::F32)
        .expect("save R f32");
    s.save_to_with_format(&s32, EntryFormat::F32)
        .expect("save S f32");
    let (pairs_f32, cold_disk_f32) = cold_sj2(&r32, &s32);

    // Maximum coordinate drift across all data entries of R.
    let back = RTree::open_from(&r32).expect("reopen f32 R");
    let originals: std::collections::HashMap<u64, rsj_geom::Rect> = r
        .data_entries()
        .into_iter()
        .map(|(rect, id)| (id.0, rect))
        .collect();
    let mut max_drift = 0f64;
    for (rect, id) in back.data_entries() {
        let o = originals[&id.0];
        for (a, b) in [
            (rect.xl, o.xl),
            (rect.yl, o.yl),
            (rect.xu, o.xu),
            (rect.yu, o.yu),
        ] {
            max_drift = max_drift.max((a - b).abs());
        }
    }

    F32Report {
        f64_bytes: std::fs::metadata(&r64).expect("stat").len()
            + std::fs::metadata(&s64).expect("stat").len(),
        f32_bytes: std::fs::metadata(&r32).expect("stat").len()
            + std::fs::metadata(&s32).expect("stat").len(),
        pairs_f64,
        pairs_f32,
        cold_disk_f64,
        cold_disk_f32,
        max_drift,
    }
}

impl F32Report {
    fn json(&self) -> String {
        format!(
            "{{\n    \"f64_file_bytes\": {},\n    \"f32_file_bytes\": {},\n    \"bytes_ratio\": {:.4},\n    \"pairs_f64\": {},\n    \"pairs_f32\": {},\n    \"pairs_delta\": {},\n    \"cold_disk_f64\": {},\n    \"cold_disk_f32\": {},\n    \"max_coord_drift\": {:.3e}\n  }}",
            self.f64_bytes,
            self.f32_bytes,
            self.f32_bytes as f64 / self.f64_bytes as f64,
            self.pairs_f64,
            self.pairs_f32,
            self.pairs_f32 as i64 - self.pairs_f64 as i64,
            self.cold_disk_f64,
            self.cold_disk_f32,
            self.max_drift,
        )
    }
}

/// The out-of-core bulk-load block: streaming STR build straight to disk
/// vs one-at-a-time R\*-insert on a uniform dataset (the build race the
/// CI guard pins at ≥ 5×), the streaming memory contract, and a cold SJ2
/// over bulk-built vs insert-built files on the skewed large-scale
/// scenario.
struct BulkScaleReport {
    uniform_n: usize,
    bulk_build_secs: f64,
    insert_build_secs: f64,
    pages: u32,
    height: u32,
    peak_resident_entries: usize,
    resident_entry_bound: usize,
    join_n: usize,
    pairs_bulk: u64,
    pairs_insert: u64,
    cold_disk_bulk: u64,
    cold_disk_insert: u64,
    bulk_file_bytes: u64,
    insert_file_bytes: u64,
}

fn measure_bulk_scale(cfg: &JoinConfig) -> BulkScaleReport {
    let dir = TempDir::new("bench-bulk").expect("temp dir");
    let params = rsj_rtree::RTreeParams::for_page_size(PAGE);

    // --- Build race. Uniform rectangles, 10⁶ at full scale.
    let uniform_n = if quick() { 60_000 } else { 1_000_000 };
    let objs = rsj_datagen::synthetic::uniform_rects(uniform_n, 4.0, 0xB5);
    let items: Vec<(rsj_geom::Rect, DataId)> = objs.iter().map(|o| (o.mbr, DataId(o.id))).collect();
    drop(objs);

    let bulk_path = dir.file("uniform-bulk.rsj");
    // Two runs, keep the better: one long streaming pass per run, so a
    // single bad scheduler window must not skew the guard ratio.
    let mut bulk_build_secs = f64::INFINITY;
    let mut stats = None;
    for _ in 0..2 {
        let start = Instant::now();
        let (_, st) = bulk::load_to_file(
            params,
            &items,
            BulkLayout::Str,
            BulkConfig::default(),
            &bulk_path,
        )
        .expect("streaming bulk build");
        bulk_build_secs = bulk_build_secs.min(start.elapsed().as_secs_f64());
        stats = Some(st);
    }
    let stats = stats.expect("bulk stats");

    // The baseline: the same tree content by repeated R*-insert (once —
    // it is the slow side by design).
    let raw: Vec<(rsj_geom::Rect, u64)> = items.iter().map(|&(r, d)| (r, d.0)).collect();
    let start = Instant::now();
    let insert_tree = rsj_bench::build_rstar(&raw, PAGE);
    let insert_build_secs = start.elapsed().as_secs_f64();
    assert_eq!(insert_tree.len(), uniform_n);
    drop((insert_tree, raw, items));

    // --- Cold SJ2 over the skewed scenario: the same relations once
    // through streaming-bulk files, once through insert-built + save_to
    // files. Identical content, different page layout — the pair counts
    // must match exactly, the disk accesses show the layout difference.
    let join_scale = if quick() { 0.02 } else { 0.05 };
    let sc = scenario(Scenario::SkewedClusters, join_scale);
    let to_items = |objs: &[rsj_datagen::SpatialObject]| -> Vec<(rsj_geom::Rect, DataId)> {
        objs.iter().map(|o| (o.mbr, DataId(o.id))).collect()
    };
    let (items_r, items_s) = (to_items(&sc.r), to_items(&sc.s));
    let join_n = items_r.len();

    let (rb, sb) = (dir.file("join-r-bulk.rsj"), dir.file("join-s-bulk.rsj"));
    bulk::load_to_file(
        params,
        &items_r,
        BulkLayout::Str,
        BulkConfig::default(),
        &rb,
    )
    .expect("bulk R");
    bulk::load_to_file(
        params,
        &items_s,
        BulkLayout::Str,
        BulkConfig::default(),
        &sb,
    )
    .expect("bulk S");

    let (ri, si) = (dir.file("join-r-insert.rsj"), dir.file("join-s-insert.rsj"));
    let raw_pairs = |it: &[(rsj_geom::Rect, DataId)]| -> Vec<(rsj_geom::Rect, u64)> {
        it.iter().map(|&(r, d)| (r, d.0)).collect()
    };
    rsj_bench::build_rstar(&raw_pairs(&items_r), PAGE)
        .save_to(&ri)
        .expect("save insert R");
    rsj_bench::build_rstar(&raw_pairs(&items_s), PAGE)
        .save_to(&si)
        .expect("save insert S");

    let cold_sj2 = |rp: &std::path::Path, sp: &std::path::Path| -> (u64, u64) {
        let rt = RTree::open_from(rp).expect("reopen R");
        let st = RTree::open_from(sp).expect("reopen S");
        let access = FileNodeAccess::new(
            vec![
                PageFile::open(rp).expect("open R"),
                PageFile::open(sp).expect("open S"),
            ],
            cfg.buffer_bytes,
            &[rt.height() as usize, st.height() as usize],
            EvictionPolicy::Lru,
        )
        .expect("file backend");
        let mut cursor = JoinCursor::new(&rt, &st, JoinPlan::sj2(), access);
        let pairs = (&mut cursor).count() as u64;
        (pairs, cursor.stats().io.disk_accesses)
    };
    let (pairs_bulk, cold_disk_bulk) = cold_sj2(&rb, &sb);
    let (pairs_insert, cold_disk_insert) = cold_sj2(&ri, &si);

    let file_bytes = |a: &std::path::Path, b: &std::path::Path| {
        std::fs::metadata(a).expect("stat").len() + std::fs::metadata(b).expect("stat").len()
    };
    BulkScaleReport {
        uniform_n,
        bulk_build_secs,
        insert_build_secs,
        pages: stats.pages,
        height: stats.height,
        peak_resident_entries: stats.peak_resident_entries,
        resident_entry_bound: params.max_entries * stats.height as usize,
        join_n,
        pairs_bulk,
        pairs_insert,
        cold_disk_bulk,
        cold_disk_insert,
        bulk_file_bytes: file_bytes(&rb, &sb),
        insert_file_bytes: file_bytes(&ri, &si),
    }
}

impl BulkScaleReport {
    fn json(&self) -> String {
        format!(
            "{{\n    \"uniform_build\": {{\n      \"rects\": {},\n      \"bulk_secs\": {:.6},\n      \"rects_per_sec\": {:.0},\n      \"insert_secs\": {:.6},\n      \"speedup\": {:.2},\n      \"pages\": {},\n      \"height\": {},\n      \"peak_resident_entries\": {},\n      \"resident_entry_bound\": {}\n    }},\n    \"cold_join\": {{\n      \"scenario\": \"skewed_clusters\",\n      \"rects_per_side\": {},\n      \"pairs_bulk\": {},\n      \"pairs_insert\": {},\n      \"disk_accesses_bulk\": {},\n      \"disk_accesses_insert\": {},\n      \"bulk_file_bytes\": {},\n      \"insert_file_bytes\": {}\n    }}\n  }}",
            self.uniform_n,
            self.bulk_build_secs,
            self.uniform_n as f64 / self.bulk_build_secs,
            self.insert_build_secs,
            self.insert_build_secs / self.bulk_build_secs,
            self.pages,
            self.height,
            self.peak_resident_entries,
            self.resident_entry_bound,
            self.join_n,
            self.pairs_bulk,
            self.pairs_insert,
            self.cold_disk_bulk,
            self.cold_disk_insert,
            self.bulk_file_bytes,
            self.insert_file_bytes,
        )
    }
}

fn bench_exec(c: &mut Criterion) {
    let scale = if quick() { 0.02 } else { 0.05 };
    let iters = if quick() { 30 } else { 50 };
    let mut w = Workbench::new(TestId::A, scale);
    let r = w.tree_r(PAGE);
    let s = w.tree_s(PAGE);
    let cfg = JoinConfig {
        collect_pairs: false,
        ..Default::default()
    };

    let mut g = c.benchmark_group("exec_three_engines");
    g.sample_size(10);
    for (plan, name) in [(JoinPlan::sj2(), "SJ2"), (JoinPlan::sj4(), "SJ4")] {
        g.bench_with_input(BenchmarkId::new("recursive", name), &cfg, |b, cfg| {
            b.iter(|| run_recursive(&r, &s, plan, cfg))
        });
        g.bench_with_input(BenchmarkId::new("cursor", name), &cfg, |b, cfg| {
            b.iter(|| run_cursor(&r, &s, plan, cfg))
        });
        g.bench_with_input(BenchmarkId::new("raw", name), &cfg, |b, cfg| {
            b.iter(|| run_raw(&r, &s, plan, cfg))
        });
    }
    g.finish();

    // Record the pairs/sec comparison for the repo. The headline ratios
    // (and the CI regression guard) come from the SJ2 block — the plan
    // where pair enumeration, the target of the scratch arena and the
    // compile-time metering, dominates the profile.
    let sj2 = measure_plan(&r, &s, JoinPlan::sj2(), "SJ2", &cfg, iters);
    let sj4 = measure_plan(&r, &s, JoinPlan::sj4(), "SJ4", &cfg, iters);
    // The persistent backend on the headline plan: same join, but the
    // trees come off disk and every buffer miss is a real page read.
    let file = measure_file_backend(&r, &s, JoinPlan::sj2(), sj2.pairs, &cfg, iters);
    let file_json = file.json(sj2.secs[1]);
    // Completion-driven I/O vs the blocking backend, with and without
    // injected per-read latency, plus the shared-queue parallel sweep.
    let overlap = measure_overlap(&r, &s, JoinPlan::sj2(), sj2.pairs, &cfg, iters);
    let overlap_json = overlap.json(sj2.secs[1]);
    // The latched shared page cache: equal-budget physical-read dedup
    // against shared-nothing private buffers, then the closed-loop warm
    // serving run (N clients against one warm pool).
    let warm = measure_warm_serving(&r, &s, JoinPlan::sj2(), sj2.pairs, &cfg, iters);
    // The join service wrapped around that cache: instrumentation
    // overhead (recording live vs compiled out), warm zero-physical
    // serving, and the open-loop target-QPS driver.
    let serving = measure_serving_telemetry(&r, &s, JoinPlan::sj2(), sj2.pairs, iters);
    // The write path: scripted updates through an open file, then the
    // updated-vs-freshly-saved cold-join guard.
    let update = measure_update_path(&w, &r, &s, &cfg, iters);
    // The f32 compression ablation on the same fixture.
    let f32_ablation = measure_f32_ablation(&r, &s, &cfg);
    // The out-of-core bulk build: streaming STR to disk vs repeated
    // insert, plus the skewed-scenario cold join.
    let bulk_scale = measure_bulk_scale(&cfg);
    let json = format!(
        "{{\n  \"bench\": \"exec_three_engines\",\n  \"preset\": \"A\",\n  \"scale\": {scale},\n  \"page_bytes\": {PAGE},\n  \"iterations\": {iters},\n  \"plan\": \"{}\",\n  \"plans\": {{\n    \"{}\": {},\n    \"{}\": {}\n  }},\n  \"file_backend\": {},\n  \"overlap\": {},\n  \"warm_serving\": {},\n  \"serving_telemetry\": {},\n  \"update\": {},\n  \"f32_ablation\": {},\n  \"bulk_scale\": {},\n  \"cursor_over_recursive\": {:.4},\n  \"raw_over_cursor\": {:.4}\n}}\n",
        sj2.name,
        sj2.name,
        sj2.json(),
        sj4.name,
        sj4.json(),
        file_json,
        overlap_json,
        warm.json(),
        serving.json(),
        update.json(),
        f32_ablation.json(),
        bulk_scale.json(),
        sj2.secs[0] / sj2.secs[1],
        sj2.secs[1] / sj2.secs[2],
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    let mut file = std::fs::File::create(path).expect("write BENCH_exec.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_exec.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
