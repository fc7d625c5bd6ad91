//! The layer report of a traced run, in its own process and with no
//! modelled latency: the ladder (the same SJ4 join at each rung, so
//! adjacent deltas are a layer's cost), an update probe, and the
//! telemetry micro-loops, all on the workload's own data.
//!
//! Where a workload exercises a layer itself, its own number replaces
//! the probe's in the merged report (see `main::run_one`).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rsj_core::sweep::{sort_keyed_by_xl, sorted_intersection_test_keyed, KeyedRect};
use rsj_core::{JoinCursor, JoinPlan, RawJoinCursor};
use rsj_geom::{NoOp, Rect};
use rsj_rtree::{Entry, RTree};
use rsj_service::{JoinService, ServiceConfig};
use rsj_storage::{
    BufferPool, CacheConfig, CompletionConfig, CompletionFileAccess, EvictionPolicy,
    FileNodeAccess, PageFile, PageId, SharedPageCache,
};
use rsj_telemetry::Histogram;

use crate::access::NullAccess;
use crate::check::Expected;
use crate::json::Json;
use crate::setup::{EXPECTED_FILE, R_FILE, S_FILE};
use crate::spec;
use crate::stats::median;
use crate::workloads::{cache_metrics, stage_metrics, Churn, Metrics, UpdateTotals};

/// Update batches of the probe (each deletes and re-inserts
/// [`spec::CHURN_BATCH`] rectangles and flushes).
const PROBE_BATCHES: usize = 3;
const RECORD_LOOP: u64 = 2_000_000;
const RENDER_LOOP: usize = 30;

/// One rung: runs the join once and returns its pair count and the time
/// it chose to measure (set-up such as a cache clear stays outside).
type Rung<'a> = Box<dyn FnMut() -> Result<(u64, Duration), String> + 'a>;

fn timed(f: impl FnOnce() -> u64) -> Result<(u64, Duration), String> {
    let t0 = Instant::now();
    let pairs = black_box(f());
    Ok((pairs, t0.elapsed()))
}

/// Runs every rung once unmeasured, then `reps` rounds of all rungs in
/// turn — this machine shifts speed for seconds at a time, and a rung
/// measured on its own would carry the spell it happened to run in into
/// its delta. Checks every pair count; returns each rung's median in ms.
fn climb(rungs: &mut [(&'static str, Rung)], reps: usize, pairs: u64) -> Result<Vec<f64>, String> {
    let mut times = vec![Vec::with_capacity(reps); rungs.len()];
    for rep in 0..=reps {
        for ((name, rung), times) in rungs.iter_mut().zip(&mut times) {
            let (found, took) = rung()?;
            if found != pairs {
                return Err(format!("{name}: {found} pairs, expected {pairs}"));
            }
            if rep > 0 {
                times.push(took.as_secs_f64() * 1e3);
            }
        }
    }
    Ok(times.iter().map(|t| median(t)).collect())
}

type LeafPair = (Vec<KeyedRect>, Vec<KeyedRect>);

/// The entry rectangles of every leaf pair the join has to test, each
/// side already cut down to the pair's search space and keyed by entry
/// index — what is left for the sweep kernel once traversal, restriction
/// and I/O are taken away.
fn qualifying_leaf_pairs(r: &RTree, s: &RTree) -> Result<Vec<LeafPair>, String> {
    if r.height() != s.height() {
        return Err("the sweep-kernel rung needs trees of equal height".into());
    }
    let mut out = Vec::new();
    let Some(space) = r.mbr().intersection(&s.mbr()) else {
        return Ok(out);
    };
    let mut stack: Vec<(PageId, PageId, Rect)> = vec![(r.root(), s.root(), space)];
    while let Some((rp, sp, space)) = stack.pop() {
        let (rn, sn) = (r.node(rp), s.node(sp));
        let within = |entries: &[Entry]| -> Vec<(usize, Entry)> {
            entries
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, e)| e.rect.intersects(&space))
                .collect()
        };
        let (re, se) = (within(&rn.entries), within(&sn.entries));
        if rn.is_leaf() {
            if !re.is_empty() && !se.is_empty() {
                let keyed =
                    |es: &[(usize, Entry)]| es.iter().map(|(i, e)| (e.rect, *i as u32)).collect();
                out.push((keyed(&re), keyed(&se)));
            }
            continue;
        }
        for (_, a) in &re {
            for (_, b) in &se {
                if let Some(sub) = a.rect.intersection(&b.rect) {
                    stack.push((RTree::child_page(a), RTree::child_page(b), sub));
                }
            }
        }
    }
    Ok(out)
}

/// The kernel the raw cursor runs on each leaf pair (the keyed twins of
/// `sort_indices_by_xl`/`sorted_intersection_test`), and nothing else.
fn sweep_kernel(leaf_pairs: &[LeafPair]) -> u64 {
    let (mut rk, mut sk) = (Vec::new(), Vec::new());
    let (mut perm, mut packed, mut tmp, mut found) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut pairs = 0u64;
    for (rr, sr) in leaf_pairs {
        rk.clear();
        rk.extend_from_slice(rr);
        sk.clear();
        sk.extend_from_slice(sr);
        sort_keyed_by_xl(&mut rk, &mut perm, &mut packed, &mut tmp, &mut NoOp);
        sort_keyed_by_xl(&mut sk, &mut perm, &mut packed, &mut tmp, &mut NoOp);
        found.clear();
        sorted_intersection_test_keyed(&rk, &sk, &mut NoOp, &mut found);
        pairs += found.len() as u64;
    }
    pairs
}

fn open_files(paths: &[PathBuf; 2]) -> Result<Vec<PageFile>, String> {
    paths
        .iter()
        .map(|p| PageFile::open(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

fn ladder(
    paths: &[PathBuf; 2],
    expected: &Expected,
    reps: usize,
    out: &mut Metrics,
) -> Result<(), String> {
    let err = |e: rsj_storage::StorageError| e.to_string();
    let r = &RTree::open_from(&paths[0]).map_err(err)?;
    let s = &RTree::open_from(&paths[1]).map_err(err)?;
    let heights = [r.height() as usize, s.height() as usize];
    let plan = JoinPlan::sj4();

    let leaf_pairs = qualifying_leaf_pairs(r, s)?;
    let mut blocking = FileNodeAccess::with_capacity_pages(
        open_files(paths)?,
        spec::HANDLE_PAGES,
        &heights,
        EvictionPolicy::Lru,
    )
    .map_err(err)?;
    let mut completion = CompletionFileAccess::with_capacity_pages(
        open_files(paths)?,
        spec::HANDLE_PAGES,
        &heights,
        EvictionPolicy::Lru,
        CompletionConfig::default(),
    )
    .map_err(err)?;
    // One frame shard, like the service's own cache: this rung differs
    // from the service rungs only by the service.
    let cache = SharedPageCache::open(
        paths,
        spec::COLD_CACHE_PAGES,
        &heights,
        CacheConfig {
            shards: 1,
            ..CacheConfig::default()
        },
    )
    .map_err(err)?;
    let service = JoinService::open(
        &paths[0],
        &paths[1],
        ServiceConfig {
            cache_pages: spec::COLD_CACHE_PAGES,
            handle_pages: spec::HANDLE_PAGES,
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    // What the last repetition of a rung left in its backend's counters.
    let (mut staged, mut demand) = (0, 0);
    let mut cache_counters = Metrics::default();
    let mut spans = Vec::new();

    let mut rungs: Vec<(&'static str, Rung)> = vec![
        (
            "core.sweep_kernel_ms",
            Box::new(|| timed(|| sweep_kernel(&leaf_pairs))),
        ),
        (
            "core.cursor_raw_ms",
            Box::new(|| timed(|| RawJoinCursor::raw(r, s, plan, NullAccess).count() as u64)),
        ),
        (
            "core.cursor_counted_ms",
            Box::new(|| timed(|| JoinCursor::new(r, s, plan, NullAccess).count() as u64)),
        ),
        (
            "storage.pool_ms",
            Box::new(|| {
                timed(|| {
                    let pool = BufferPool::with_capacity_pages(spec::HANDLE_PAGES, &heights);
                    JoinCursor::new(r, s, plan, pool).count() as u64
                })
            }),
        ),
        (
            "storage.file_blocking_ms",
            Box::new(|| {
                blocking.reset();
                timed(|| JoinCursor::new(r, s, plan, &mut blocking).count() as u64)
            }),
        ),
        (
            "storage.completion_ms",
            Box::new(|| {
                completion.reset();
                let out = timed(|| JoinCursor::new(r, s, plan, &mut completion).count() as u64);
                (staged, demand) = (completion.staged_hits(), completion.demand_reads());
                out
            }),
        ),
        (
            "storage.shared_cache_ms",
            Box::new(|| {
                cache.clear();
                let mut handle = cache.handle(spec::HANDLE_PAGES);
                let out = timed(|| JoinCursor::new(r, s, plan, &mut handle).count() as u64);
                cache.drain();
                cache_counters = Metrics::default();
                cache_metrics(&cache, &mut cache_counters);
                cache_counters.put(
                    "storage.physical_reads_per_join",
                    cache.physical_reads() as f64,
                    1,
                );
                out
            }),
        ),
        (
            "service.execute_unrecorded_ms",
            Box::new(|| {
                service.cache().clear();
                let t0 = Instant::now();
                let answer = service
                    .execute_unrecorded(plan, false)
                    .map_err(|e| e.to_string())?;
                Ok((answer.stats.result_pairs, t0.elapsed()))
            }),
        ),
        (
            "service.execute_ms",
            Box::new(|| {
                service.cache().clear();
                let t0 = Instant::now();
                let answer = service.execute(plan, false).map_err(|e| e.to_string())?;
                spans.push(answer.span);
                Ok((answer.stats.result_pairs, t0.elapsed()))
            }),
        ),
    ];
    let medians = climb(&mut rungs, reps, expected.pairs.count)?;
    for ((name, _), ms) in rungs.iter().zip(&medians) {
        out.put(name, *ms, reps as u64);
    }
    drop(rungs);

    let n = spans.len() as u64;
    let [.., unrecorded, recorded] = medians[..] else {
        unreachable!("the ladder ends in the two service rungs");
    };
    out.put("telemetry.overhead_frac", recorded / unrecorded - 1.0, n);
    out.put(
        "storage.staged_hit_ratio",
        staged as f64 / (staged + demand).max(1) as f64,
        staged + demand,
    );
    out.absorb(cache_counters);
    stage_metrics(&spans, out);
    // A refusal would have failed its rung above.
    out.put("service.overloaded", 0.0, n);

    let renders: Vec<f64> = (0..RENDER_LOOP)
        .map(|_| {
            let t0 = Instant::now();
            black_box(service.telemetry_text());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.put(
        "telemetry.render_text_us",
        median(&renders),
        RENDER_LOOP as u64,
    );
    Ok(())
}

fn update_probe(dir: &Path, expected: &Expected, out: &mut Metrics) -> Result<(), String> {
    let mut churn = Churn::open(dir, "r.probe.rsj", expected.clone())?;
    let mut totals = UpdateTotals::default();
    for _ in 0..PROBE_BATCHES {
        totals.absorb(churn.update(true)?);
    }
    totals.metrics(out);
    // The probed tree must still join to the same output.
    if !churn.join(None).ok() {
        return Err("the update probe changed the join's output".into());
    }
    Ok(())
}

fn record_loop(out: &mut Metrics) {
    let hist = Histogram::new();
    let t0 = Instant::now();
    for i in 0..RECORD_LOOP {
        hist.record(black_box(i.wrapping_mul(7919) % 100_000));
    }
    let ns = t0.elapsed().as_nanos() as f64 / RECORD_LOOP as f64;
    black_box(hist.snapshot().count());
    out.put("telemetry.record_ns", ns, RECORD_LOOP);
}

/// Every layer metric the probes can produce on the data in `dir`.
pub fn run(dir: &Path, reps: usize) -> Result<Json, String> {
    let expected = Expected::load(&dir.join(EXPECTED_FILE))?;
    let paths = [dir.join(R_FILE), dir.join(S_FILE)];
    let mut out = Metrics::default();

    let opens: Vec<f64> = (0..spec::OPEN_ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(RTree::open_from(&paths[0]).map(|t| t.len()).ok());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.put("rtree.open_ms", median(&opens), spec::OPEN_ROUNDS as u64);

    ladder(&paths, &expected, reps, &mut out)?;
    update_probe(dir, &expected, &mut out)?;
    record_loop(&mut out);
    Ok(Json::obj([("metrics", out.to_json())]))
}
