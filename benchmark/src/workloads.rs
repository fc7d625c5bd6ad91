//! The four workloads, each in its own process that only *opens* the
//! files set-up wrote — so `peak_rss_mb` and `open_ms` measure the
//! program and not the generator.
//!
//! Every loop is closed (in-process callers block on the join) and runs
//! to a deadline, but never fewer than the workload's `min_ops`
//! operations; the per-join counts are means over exactly that prefix,
//! so they repeat exactly for a seed. The plan is always SJ4.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rsj_core::{JoinCursor, JoinPlan, JoinStats};
use rsj_geom::Rect;
use rsj_rtree::{DataId, OpenCachedTree, RTree};
use rsj_service::{JoinService, ServiceConfig, ServiceError, SpanReport};
use rsj_storage::{BufferPool, CacheConfig, NodeAccess, SharedPageCache};

use crate::access::{SpanLog, Tally, TracedAccess};
use crate::check::{Expected, PairCheck};
use crate::json::Json;
use crate::setup::{EXPECTED_FILE, R_FILE, S_FILE};
use crate::spec;
use crate::stats::{median, summarize};

/// Joins of a traced phase whose individual calls are kept as spans.
const DETAILED_JOINS: u64 = 3;

pub struct Args {
    pub name: String,
    pub dir: PathBuf,
    pub seconds: f64,
    pub min_ops: usize,
    pub trace: bool,
    /// Where the traced run writes `trace-<workload>.jsonl`.
    pub out_dir: PathBuf,
}

/// One attempted join.
pub struct Outcome {
    ms: f64,
    stats: JoinStats,
    /// `Ok`, right pair count, right checksum.
    ok: bool,
    /// When the join started and the service's own stage split, where a
    /// `JoinService` answered it.
    served: Option<(Instant, SpanReport)>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.ok
    }

    fn failed() -> Outcome {
        Outcome {
            ms: 0.0,
            stats: JoinStats::default(),
            ok: false,
            served: None,
        }
    }
}

/// One measured phase.
#[derive(Default)]
pub struct Run {
    /// Latency of every successful join, in completion order.
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Stats of the first `min_ops` joins (the exact-count prefix).
    head: Vec<JoinStats>,
    served: Vec<(Instant, SpanReport)>,
    wall_s: f64,
}

impl Run {
    fn take_samples(&mut self, other: &mut Run) {
        self.lat_ms.append(&mut other.lat_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.served.append(&mut other.served);
    }

    /// Merges a client that ran beside this one.
    fn absorb(&mut self, mut other: Run) {
        self.take_samples(&mut other);
        self.head.append(&mut other.head);
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    /// Appends a segment that ran after this one. The exact-count
    /// prefix stays the first segment's.
    fn then(&mut self, mut other: Run) {
        self.take_samples(&mut other);
        if self.head.is_empty() {
            self.head = other.head;
        }
        self.wall_s += other.wall_s;
    }

    fn p50_ms(&self) -> f64 {
        summarize(&self.lat_ms).p50
    }
}

fn measure(seconds: f64, min_ops: usize, mut op: impl FnMut() -> Outcome) -> Run {
    let t0 = Instant::now();
    let mut run = Run::default();
    while (run.attempted as usize) < min_ops || t0.elapsed().as_secs_f64() < seconds {
        let o = op();
        run.attempted += 1;
        if o.ok {
            run.lat_ms.push(o.ms);
            if run.head.len() < min_ops {
                run.head.push(o.stats);
            }
            run.served.extend(o.served);
        } else {
            run.failed += 1;
        }
    }
    run.wall_s = t0.elapsed().as_secs_f64();
    run
}

/// Boundary sums of a traced phase.
#[derive(Default)]
pub struct Tracer {
    log: SpanLog,
    joins: u64,
    /// Summed over the joins; its `calls` stay empty.
    boundary: Tally,
    wall_ns: u64,
    parks: u64,
    pairs: u64,
}

impl Tracer {
    fn absorb(&mut self, other: Tracer) {
        self.log.merge(other.log);
        self.joins += other.joins;
        self.boundary.add(&other.boundary);
        self.wall_ns += other.wall_ns;
        self.parks += other.parks;
        self.pairs += other.pairs;
    }

    /// Per-join means of everything the wrapper saw.
    fn metrics(&self, out: &mut Metrics) {
        let b = &self.boundary;
        let per_join = |v: u64| v as f64 / self.joins.max(1) as f64;
        let ms = |ns: u64| per_join(ns) / 1e6;
        out.put("storage.access_calls", per_join(b.access_calls), self.joins);
        out.put("storage.access_busy_ms", ms(b.busy_ns), self.joins);
        out.put("storage.wait_ms", ms(b.wait_ns), self.joins);
        out.put("storage.hint_calls", per_join(b.hint_calls), self.joins);
        out.put("storage.pin_calls", per_join(b.pin_calls), self.joins);
        out.put(
            "storage.miss_ratio",
            b.misses as f64 / b.access_calls.max(1) as f64,
            self.joins,
        );
        out.put(
            "core.self_ms",
            ms(self.wall_ns.saturating_sub(b.busy_ns + b.wait_ns)),
            self.joins,
        );
        out.put("core.parks", per_join(self.parks), self.joins);
        out.put("core.pairs_per_join", per_join(self.pairs), self.joins);
    }
}

/// Named values on their way to the parent process.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, u64)>);

impl Metrics {
    /// `n` is the number of samples behind the value.
    pub fn put(&mut self, name: &'static str, value: f64, n: u64) {
        self.0.push((name, value, n));
    }

    pub fn absorb(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|&(name, value, n)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("n", Json::from(n))]),
            )
        }))
    }
}

fn drive<A: NodeAccess>(
    r: &RTree,
    s: &RTree,
    access: A,
    check: &mut PairCheck,
) -> (JoinStats, u64, A) {
    let mut cursor = JoinCursor::new(r, s, JoinPlan::sj4(), access);
    for (a, b) in &mut cursor {
        check.add(a, b);
    }
    let (stats, parks) = (cursor.stats(), cursor.parks());
    (stats, parks, cursor.into_access())
}

/// One SJ4 join of `r` × `s` over `access`, checked against `expected`;
/// with a tracer, through [`TracedAccess`] and filed as spans.
pub fn run_join<A: NodeAccess>(
    r: &RTree,
    s: &RTree,
    access: A,
    expected: &Expected,
    tracer: Option<&mut Tracer>,
) -> Outcome {
    let mut check = PairCheck::default();
    let t0 = Instant::now();
    let stats = match tracer {
        None => drive(r, s, access, &mut check).0,
        Some(tr) => {
            let query = tr.log.begin_query();
            let start_ns = tr.log.now_ns();
            let traced = TracedAccess::new(access, &tr.log, tr.joins < DETAILED_JOINS);
            let (stats, parks, traced) = drive(r, s, traced, &mut check);
            let end_ns = tr.log.now_ns();
            let (_, tally) = traced.into_parts();
            tr.joins += 1;
            tr.boundary.add(&tally);
            tr.wall_ns += end_ns - start_ns;
            tr.parks += parks;
            tr.pairs += stats.result_pairs;
            tr.log.record_join(query, start_ns, end_ns, tally);
            stats
        }
    };
    Outcome {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        stats,
        ok: check == expected.pairs,
        served: None,
    }
}

/// A workload, opened and ready to run phases.
trait Opened {
    fn phase(&mut self, seconds: f64, min_ops: usize, traced: bool) -> (Run, Option<Tracer>);

    /// The unmeasured joins before the first phase.
    fn warm_up(&mut self) -> Run {
        self.phase(0.0, spec::WARMUP_JOINS, false).0
    }

    /// Bytes of both page files (see each workload for when).
    fn file_bytes(&self) -> u64;

    /// Layer metrics this workload's own traffic produced, given the
    /// plain and the traced phase of a traced run.
    fn layer_metrics(&self, _plain: &Run, _traced: &Run, _out: &mut Metrics) {}
}

fn files_len(paths: &[PathBuf; 2]) -> u64 {
    paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum()
}

// ---------------------------------------------------------------- join_mem

struct JoinMem {
    r: RTree,
    s: RTree,
    paths: [PathBuf; 2],
    expected: Expected,
}

impl Opened for JoinMem {
    fn phase(&mut self, seconds: f64, min_ops: usize, traced: bool) -> (Run, Option<Tracer>) {
        let heights = [self.r.height() as usize, self.s.height() as usize];
        let mut tracer = traced.then(Tracer::default);
        let run = measure(seconds, min_ops, || {
            let pool = BufferPool::with_capacity_pages(spec::HANDLE_PAGES, &heights);
            run_join(&self.r, &self.s, pool, &self.expected, tracer.as_mut())
        });
        (run, tracer)
    }

    fn file_bytes(&self) -> u64 {
        files_len(&self.paths)
    }
}

// ------------------------------------------------- join_cold, serve_warm

struct Served {
    service: JoinService,
    /// The per-query logical budget the service was opened with (the
    /// traced phase opens its own handles of the same size).
    handle_pages: usize,
    clients: usize,
    paths: [PathBuf; 2],
    expected: Expected,
    /// Queries admission refused.
    overloaded: AtomicU64,
    /// `physical_reads` of the cache when the current phase began.
    reads_at_start: u64,
}

impl Served {
    fn open(
        dir: &Path,
        cfg: ServiceConfig,
        clients: usize,
        expected: Expected,
    ) -> Result<Self, String> {
        let paths = [dir.join(R_FILE), dir.join(S_FILE)];
        let handle_pages = cfg.handle_pages;
        let service = JoinService::open(&paths[0], &paths[1], cfg)
            .map_err(|e| format!("JoinService::open: {e}"))?;
        let handle_pages = if handle_pages > 0 {
            handle_pages
        } else {
            service.cache().capacity()
        };
        Ok(Served {
            service,
            handle_pages,
            clients,
            paths,
            expected,
            overloaded: AtomicU64::new(0),
            reads_at_start: 0,
        })
    }

    fn join(&self, tracer: Option<&mut Tracer>) -> Outcome {
        if let Some(tracer) = tracer {
            // The service builds its access inside `execute`, out of a
            // wrapper's reach; the traced join runs the same cursor over
            // the same cache and trees, minus admission and recording.
            let (r, s) = self.service.trees();
            let handle = self.service.cache().handle(self.handle_pages);
            return run_join(r, s, handle, &self.expected, Some(tracer));
        }
        let mut check = PairCheck::default();
        let t0 = Instant::now();
        let answer = self
            .service
            .execute_streaming(JoinPlan::sj4(), |a, b| check.add(a, b));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match answer {
            Ok((stats, span)) => Outcome {
                ms,
                stats,
                ok: check == self.expected.pairs,
                served: Some((t0, span)),
            },
            Err(e) => {
                if matches!(e, ServiceError::Overloaded(_)) {
                    self.overloaded.fetch_add(1, Ordering::Relaxed);
                }
                eprintln!("served join failed: {e}");
                Outcome::failed()
            }
        }
    }
}

impl Opened for Served {
    fn phase(&mut self, seconds: f64, min_ops: usize, traced: bool) -> (Run, Option<Tracer>) {
        self.reads_at_start = self.service.cache().physical_reads();
        let this = &*self;
        let per_client = min_ops.div_ceil(this.clients);
        let results: Vec<(Run, Option<Tracer>)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..this.clients)
                .map(|_| {
                    scope.spawn(move || {
                        let mut tracer = traced.then(Tracer::default);
                        let run = measure(seconds, per_client, || this.join(tracer.as_mut()));
                        (run, tracer)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let mut run = Run::default();
        let mut tracer: Option<Tracer> = None;
        for (r, t) in results {
            run.absorb(r);
            match (&mut tracer, t) {
                (Some(all), Some(t)) => all.absorb(t),
                (None, t) => tracer = t,
                (Some(_), None) => {}
            }
        }
        (run, tracer)
    }

    fn file_bytes(&self) -> u64 {
        files_len(&self.paths)
    }

    fn layer_metrics(&self, plain: &Run, traced: &Run, out: &mut Metrics) {
        cache_traffic(self.service.cache(), self.reads_at_start, traced, out);
        let spans: Vec<SpanReport> = plain.served.iter().map(|&(_, s)| s).collect();
        if !spans.is_empty() {
            stage_metrics(&spans, out);
        }
        let joins = plain.attempted;
        out.put(
            "service.overloaded",
            self.overloaded.load(Ordering::Relaxed) as f64,
            joins,
        );
    }
}

/// The service's five stages: layer metric, span name, field.
type Stage = (&'static str, &'static str, fn(&SpanReport) -> u64);
const STAGES: [Stage; 5] = [
    ("service.queue_us_p50", "service.queue", |s| s.queue_us),
    ("service.plan_us_p50", "service.plan", |s| s.plan_us),
    ("service.io_us_p50", "service.io", |s| s.io_us),
    ("service.join_us_p50", "service.join", |s| s.join_us),
    ("service.emit_us_p50", "service.emit", |s| s.emit_us),
];

/// Median of each stage over the answered queries' own spans.
pub fn stage_metrics(spans: &[SpanReport], out: &mut Metrics) {
    for (metric, _, field) in STAGES {
        let us: Vec<f64> = spans.iter().map(|s| field(s) as f64).collect();
        out.put(metric, median(&us), spans.len() as u64);
    }
}

/// Counters of a shared cache since it was opened, and its physical
/// reads per join since `reads_at_start`.
fn cache_traffic(cache: &SharedPageCache, reads_at_start: u64, traced: &Run, out: &mut Metrics) {
    cache.drain();
    cache_metrics(cache, out);
    out.put(
        "storage.physical_reads_per_join",
        (cache.physical_reads() - reads_at_start) as f64 / traced.attempted as f64,
        traced.attempted,
    );
}

/// Counters of a shared cache since it was opened.
pub fn cache_metrics(cache: &SharedPageCache, out: &mut Metrics) {
    let lag = cache.queue().completion_lag();
    out.put("storage.cache_hit_ratio", cache.hit_ratio(), 1);
    out.put("storage.evictions", cache.evictions() as f64, 1);
    out.put("storage.adoptions", cache.adoptions() as f64, 1);
    out.put(
        "storage.completion_lag_us_mean",
        lag.mean_nanos() as f64 / 1e3,
        lag.samples,
    );
    out.put(
        "storage.completion_lag_us_max",
        lag.max_nanos as f64 / 1e3,
        lag.samples,
    );
}

// ------------------------------------------------------------ update_churn

/// What one delete + re-insert + flush batch cost.
pub struct BatchTimes {
    pub ops: usize,
    pub delete_s: f64,
    pub insert_s: f64,
    pub flush_s: f64,
    /// Per-call times in µs, when asked for.
    pub delete_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub page_writes: u64,
    pub physical_writes: u64,
    pub pending_after_flush: usize,
}

/// R open for updates on a shared cache, S beside it for the join.
pub struct Churn {
    cache: Arc<SharedPageCache>,
    open: OpenCachedTree,
    s: RTree,
    /// Every R rectangle, by id: the rect set never changes (each batch
    /// re-inserts exactly what it deleted), so neither does the join's
    /// expected output while the tree drifts from STR-packed to
    /// R*-inserted.
    rects: Vec<(Rect, DataId)>,
    batches: usize,
    paths: [PathBuf; 2],
    expected: Expected,
}

impl Churn {
    /// Opens a private copy of R (`copy_name`) so the set-up files stay
    /// as built.
    pub fn open(dir: &Path, copy_name: &str, expected: Expected) -> Result<Self, String> {
        let paths = [dir.join(copy_name), dir.join(S_FILE)];
        std::fs::copy(dir.join(R_FILE), &paths[0]).map_err(|e| format!("copy R: {e}"))?;
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        let s = RTree::open_from(&paths[1]).map_err(|e| err("open S", &e))?;
        let r_height = RTree::open_from(&paths[0])
            .map_err(|e| err("open R", &e))?
            .height();
        let cache = SharedPageCache::open(
            &paths,
            spec::COLD_CACHE_PAGES,
            &[r_height as usize, s.height() as usize],
            CacheConfig::default(),
        )
        .map_err(|e| err("open cache", &e))?;
        let open = OpenCachedTree::open_cached(&cache, 0, spec::HANDLE_PAGES)
            .map_err(|e| err("open_cached", &e))?;
        let mut rects = open.tree().data_entries();
        rects.sort_by_key(|&(_, id)| id);
        // The victim stride below must visit every index.
        assert!(rects.len() % VICTIM_STRIDE != 0, "stride divides n");
        Ok(Churn {
            cache,
            open,
            s,
            rects,
            batches: 0,
            paths,
            expected,
        })
    }

    /// Deletes the next batch of R rectangles, re-inserts the same ones
    /// (same rect, same id), and flushes.
    pub fn update(&mut self, per_op: bool) -> Result<BatchTimes, String> {
        let n = self.rects.len();
        let batch = spec::CHURN_BATCH.min(n / 10).max(1);
        let first = self.batches * batch;
        self.batches += 1;
        let victims: Vec<(Rect, DataId)> = (first..first + batch)
            .map(|k| self.rects[k * VICTIM_STRIDE % n])
            .collect();
        let writes_before = self.open.io_stats().page_writes;
        let physical_before = self.cache.physical_writes();
        let mut times = BatchTimes {
            ops: 2 * batch,
            delete_s: 0.0,
            insert_s: 0.0,
            flush_s: 0.0,
            delete_us: Vec::new(),
            insert_us: Vec::new(),
            page_writes: 0,
            physical_writes: 0,
            pending_after_flush: 0,
        };

        let t0 = Instant::now();
        for (rect, id) in &victims {
            let t = per_op.then(Instant::now);
            match self.open.delete(rect, *id) {
                Ok(true) => {}
                Ok(false) => return Err(format!("delete of {id} found nothing")),
                Err(e) => return Err(format!("delete of {id}: {e}")),
            }
            times
                .delete_us
                .extend(t.map(|t| t.elapsed().as_secs_f64() * 1e6));
        }
        times.delete_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for &(rect, id) in &victims {
            let t = per_op.then(Instant::now);
            self.open
                .insert(rect, id)
                .map_err(|e| format!("insert of {id}: {e}"))?;
            times
                .insert_us
                .extend(t.map(|t| t.elapsed().as_secs_f64() * 1e6));
        }
        times.insert_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        self.open.flush().map_err(|e| format!("flush: {e}"))?;
        times.flush_s = t0.elapsed().as_secs_f64();

        times.page_writes = self.open.io_stats().page_writes - writes_before;
        times.physical_writes = self.cache.physical_writes() - physical_before;
        times.pending_after_flush = self.cache.pending_write_back();
        Ok(times)
    }

    pub fn join(&self, tracer: Option<&mut Tracer>) -> Outcome {
        let handle = self.cache.handle(spec::HANDLE_PAGES);
        run_join(self.open.tree(), &self.s, handle, &self.expected, tracer)
    }
}

/// Prime, so `k · STRIDE mod n` walks all of R before repeating.
const VICTIM_STRIDE: usize = 7919;

/// Update-side sums of a run of batches.
#[derive(Default)]
pub struct UpdateTotals {
    ops: u64,
    batches: u64,
    busy_s: f64,
    flush_ms: Vec<f64>,
    delete_us: Vec<f64>,
    insert_us: Vec<f64>,
    page_writes: u64,
    physical_writes: u64,
    pending_after_flush: usize,
}

impl UpdateTotals {
    pub fn absorb(&mut self, b: BatchTimes) {
        self.ops += b.ops as u64;
        self.batches += 1;
        self.busy_s += b.delete_s + b.insert_s + b.flush_s;
        self.flush_ms.push(b.flush_s * 1e3);
        self.delete_us.extend(b.delete_us);
        self.insert_us.extend(b.insert_us);
        self.page_writes += b.page_writes;
        self.physical_writes += b.physical_writes;
        self.pending_after_flush = self.pending_after_flush.max(b.pending_after_flush);
    }

    pub fn metrics(&self, out: &mut Metrics) {
        let ops = self.ops.max(1) as f64;
        out.put("rtree.update_ops_per_s", ops / self.busy_s, self.ops);
        out.put("rtree.flush_ms_p50", median(&self.flush_ms), self.batches);
        if !self.delete_us.is_empty() {
            let n = self.delete_us.len() as u64;
            out.put("rtree.delete_us_p50", median(&self.delete_us), n);
            out.put("rtree.insert_us_p50", median(&self.insert_us), n);
        }
        out.put(
            "storage.page_writes_per_op",
            self.page_writes as f64 / ops,
            self.ops,
        );
        out.put(
            "storage.physical_writes_per_op",
            self.physical_writes as f64 / ops,
            self.ops,
        );
        out.put(
            "storage.pending_write_back_after_flush",
            self.pending_after_flush as f64,
            self.batches,
        );
    }
}

struct UpdateChurn {
    churn: Churn,
    totals: UpdateTotals,
    /// File bytes after the flush of cycle `min_ops` of the first
    /// phase: a fixed point of the run, whatever the deadline allowed.
    bytes_at_head: Option<u64>,
    reads_at_start: u64,
}

impl Opened for UpdateChurn {
    fn phase(&mut self, seconds: f64, min_ops: usize, traced: bool) -> (Run, Option<Tracer>) {
        self.reads_at_start = self.churn.cache.physical_reads();
        let mut tracer = traced.then(Tracer::default);
        let mut cycles = 0;
        let run = measure(seconds, min_ops, || {
            match self.churn.update(traced) {
                Ok(times) => self.totals.absorb(times),
                Err(e) => {
                    eprintln!("update_churn: {e}");
                    return Outcome::failed();
                }
            }
            cycles += 1;
            if cycles == min_ops && self.bytes_at_head.is_none() {
                self.bytes_at_head = Some(files_len(&self.churn.paths));
            }
            self.churn.join(tracer.as_mut())
        });
        (run, tracer)
    }

    /// Joins only: a warm-up batch would move the tree before the
    /// first measured cycle.
    fn warm_up(&mut self) -> Run {
        measure(0.0, spec::WARMUP_JOINS, || self.churn.join(None))
    }

    fn file_bytes(&self) -> u64 {
        self.bytes_at_head
            .unwrap_or_else(|| files_len(&self.churn.paths))
    }

    fn layer_metrics(&self, _plain: &Run, traced: &Run, out: &mut Metrics) {
        cache_traffic(&self.churn.cache, self.reads_at_start, traced, out);
        self.totals.metrics(out);
    }
}

// ------------------------------------------------------------------ driver

/// Opens the named workload once and returns it with the time that
/// took in ms. `r_copy` names the private copy of R `update_churn`
/// works on.
fn timed_open(
    name: &str,
    dir: &Path,
    expected: &Expected,
    r_copy: &str,
) -> Result<(Box<dyn Opened>, f64), String> {
    let tree = |f: &str| RTree::open_from(dir.join(f)).map_err(|e| format!("open {f}: {e}"));
    let served = |cfg: ServiceConfig, clients: usize| -> Result<Box<dyn Opened>, String> {
        Ok(Box::new(Served::open(dir, cfg, clients, expected.clone())?))
    };
    let t0 = Instant::now();
    let workload: Box<dyn Opened> = match name {
        "join_mem" => Box::new(JoinMem {
            r: tree(R_FILE)?,
            s: tree(S_FILE)?,
            paths: [dir.join(R_FILE), dir.join(S_FILE)],
            expected: expected.clone(),
        }),
        "join_cold" => served(
            ServiceConfig {
                cache_pages: spec::COLD_CACHE_PAGES,
                handle_pages: spec::HANDLE_PAGES,
                ..ServiceConfig::default()
            },
            1,
        )?,
        "serve_warm" => served(ServiceConfig::default(), spec::SERVE_CLIENTS)?,
        "update_churn" => Box::new(UpdateChurn {
            churn: Churn::open(dir, r_copy, expected.clone())?,
            totals: UpdateTotals::default(),
            bytes_at_head: None,
            reads_at_start: 0,
        }),
        other => return Err(format!("unknown workload {other}")),
    };
    Ok((workload, t0.elapsed().as_secs_f64() * 1e3))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Files one service-answered query from the service's own stage split:
/// a `service.execute` root and one child per stage, laid end to end in
/// stage order (io and join interleave in reality; only the durations
/// are measured).
fn file_served_query(log: &mut SpanLog, start: Instant, span: &SpanReport) {
    let query = log.begin_query();
    let start_ns = log.ns_at(start);
    let root = log.push(
        0,
        query,
        "service.execute",
        start_ns,
        start_ns + span.total_us * 1000,
    );
    let mut at = start_ns;
    for (_, name, field) in STAGES {
        let ns = field(span) * 1000;
        log.push(root, query, name, at, at + ns);
        at += ns;
    }
}

/// Runs one workload in this process and reports it as JSON: the
/// end-to-end metrics, or with `trace` the layer metrics its own
/// traffic produced.
pub fn run(args: &Args) -> Result<Json, String> {
    let expected = Expected::load(&args.dir.join(EXPECTED_FILE))?;
    let open = |r_copy: &str| timed_open(&args.name, &args.dir, &expected, r_copy);
    let (mut workload, first_open_ms) = open("r.churn.rsj")?;

    if workload.warm_up().failed > 0 {
        return Err(format!(
            "{}: a warm-up join failed its output check",
            args.name
        ));
    }

    let mut metrics = Metrics::default();
    let (attempted, failed, wall_s);
    if !args.trace {
        // The measured phase runs in segments with a few timed opens
        // of a throwaway instance after each: the machine shifts speed
        // for seconds at a time, and opens timed in one batch would all
        // come from one such spell. The opens are outside `wall_s`.
        let mut run = Run::default();
        let mut open_ms = vec![first_open_ms];
        let mut rss_mb = 0.0;
        for segment in 0..spec::SEGMENTS {
            let min_ops = if segment == 0 { args.min_ops } else { 0 };
            let seconds = args.seconds / spec::SEGMENTS as f64;
            run.then(workload.phase(seconds, min_ops, false).0);
            if segment == 0 {
                // Before a second instance inflates the high-water mark.
                rss_mb = peak_rss_mb();
            }
            for _ in 0..spec::OPENS_PER_SEGMENT {
                open_ms.push(open("r.reopen.rsj")?.1);
            }
        }
        if run.lat_ms.is_empty() {
            return Err(format!("{}: every join failed", args.name));
        }
        let s = summarize(&run.lat_ms);
        let n = s.n as u64;
        let head = run.head.len().max(1) as f64;
        let mean = |f: fn(&JoinStats) -> u64| run.head.iter().map(f).sum::<u64>() as f64 / head;
        metrics.put("join_p50_ms", s.p50, n);
        metrics.put("join_p90_ms", s.p90, n);
        metrics.put("joins_per_s", n as f64 / run.wall_s, n);
        metrics.put(
            "disk_accesses_per_join",
            mean(|st| st.io.disk_accesses),
            run.head.len() as u64,
        );
        metrics.put(
            "comparisons_per_join",
            mean(JoinStats::total_comparisons),
            run.head.len() as u64,
        );
        metrics.put(
            "file_bytes_per_rect",
            workload.file_bytes() as f64 / (2 * expected.n) as f64,
            1,
        );
        metrics.put("peak_rss_mb", rss_mb, 1);
        metrics.put("open_ms", median(&open_ms), open_ms.len() as u64);
        (attempted, failed, wall_s) = (run.attempted, run.failed, run.wall_s);
    } else {
        // Half the time plain — the baseline the tracing overhead is
        // taken against, and the service's own stage spans — and half
        // through the boundary wrapper.
        let mut log = SpanLog::default();
        let half = args.seconds / 2.0;
        let min_ops = args.min_ops.div_ceil(2);
        let (plain, _) = workload.phase(half, min_ops, false);
        let (traced, tracer) = workload.phase(half, min_ops, true);
        let tracer = tracer.expect("a traced phase returns its tracer");
        if plain.lat_ms.is_empty() || traced.lat_ms.is_empty() {
            return Err(format!("{}: every join failed", args.name));
        }
        tracer.metrics(&mut metrics);
        workload.layer_metrics(&plain, &traced, &mut metrics);
        let s = summarize(&plain.lat_ms);
        metrics.put("join_p99_ms", s.p99, s.n as u64);
        metrics.put(
            "trace.overhead_frac",
            traced.p50_ms() / s.p50 - 1.0,
            traced.lat_ms.len() as u64,
        );
        for (start, span) in &plain.served {
            file_served_query(&mut log, *start, span);
        }
        log.merge(tracer.log);
        metrics.put("trace.spans", log.len() as f64, 1);
        std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
        let path = args.out_dir.join(format!("trace-{}.jsonl", args.name));
        log.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;
        wall_s = plain.wall_s + traced.wall_s;
    }

    Ok(Json::obj([
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("wall_s", Json::Num(wall_s)),
        ("metrics", metrics.to_json()),
    ]))
}
