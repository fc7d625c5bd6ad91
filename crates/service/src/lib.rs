//! # rsj-service — a long-lived join service over the warm shared cache
//!
//! [`JoinService`] wraps the streaming executor the way a server wraps
//! a storage engine: the trees are opened once, every query runs over
//! one warm [`SharedPageCache`] (so steady-state requests perform zero
//! physical reads), and the paper's bit-exact I/O accounting keeps
//! flowing per query — each request still reports [`JoinStats`]
//! identical to a private `BufferPool` oracle of the same capacity.
//!
//! Three serving concerns live here, all first-class:
//!
//! * **Admission control** ([`Admission`]) — bounded in-flight permits
//!   plus a bounded wait queue; past both bounds a query is rejected
//!   with a typed [`Overloaded`], never blocked. Permits release on
//!   drop, so panicking workers give their slot back.
//! * **Per-query spans** ([`SpanReport`]) — wall time split into
//!   queue/plan/io/join/emit (see the [`span`] module docs for what
//!   each stage honestly measures).
//! * **Telemetry** — every query records into an [`rsj_telemetry`]
//!   registry (the [`metrics`] module documents the family catalogue),
//!   and the storage layer's own counters (cache hit ratio, per-store
//!   read splits, completion lag) are pulled in at snapshot time.
//!   [`JoinService::telemetry_text`] renders the whole picture.
//!
//! Recording compiles out: [`JoinService::execute_unrecorded`] runs
//! the identical query path with [`rsj_telemetry::Disabled`], which
//! removes every clock read and metric touch of the service at compile
//! time (what stays is the cursor's own two clock reads per park) — the
//! repo benchmark reports what the instrumented path costs over that as
//! `telemetry.overhead_frac`.

pub mod admission;
pub mod metrics;
pub mod span;

pub use admission::{Admission, Overloaded, Permit};
pub use metrics::{export_cache, export_queue, STAGES};
pub use span::SpanReport;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rsj_core::exec::JoinCursor;
use rsj_core::{JoinPlan, JoinStats};
use rsj_rtree::{DataId, RTree};
use rsj_storage::{CacheConfig, SharedPageCache, StorageError};
use rsj_telemetry::{Disabled, Live, Recorder, Registry};

use metrics::ServiceMetrics;
use span::{micros, now_if, us_since};

/// How a [`JoinService`] is provisioned.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queries allowed to run concurrently (admission permits).
    pub max_in_flight: usize,
    /// Callers allowed to wait for a permit beyond that; the next one
    /// is rejected with [`Overloaded`].
    pub max_queue: usize,
    /// Shared frame-pool capacity in pages. 0 = size to the working
    /// set (every page of both trees), which makes steady-state
    /// serving eviction-free.
    pub cache_pages: usize,
    /// Per-query *logical* LRU capacity (the paper's buffer budget a
    /// query is charged against). 0 = same as the frame pool.
    pub handle_pages: usize,
    /// Forwarded to [`SharedPageCache::open`]; all it carries is the
    /// test-only per-page completion delay.
    pub cache: CacheConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 4,
            max_queue: 16,
            cache_pages: 0,
            handle_pages: 0,
            cache: CacheConfig::default(),
        }
    }
}

/// Service-level failure: rejected by admission, or the storage layer
/// failed underneath.
#[derive(Debug)]
pub enum ServiceError {
    /// Both admission bounds were full; try again later.
    Overloaded(Overloaded),
    /// Opening or reading the underlying stores failed.
    Storage(StorageError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded(o) => o.fmt(f),
            ServiceError::Storage(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<Overloaded> for ServiceError {
    fn from(o: Overloaded) -> Self {
        ServiceError::Overloaded(o)
    }
}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> Self {
        ServiceError::Storage(e)
    }
}

/// One answered query.
#[derive(Debug)]
pub struct QueryResponse {
    /// The result pairs, when collection was requested (empty
    /// otherwise — the stats still count them).
    pub pairs: Vec<(DataId, DataId)>,
    /// The paper's accounting for this query: bit-identical to a
    /// private `BufferPool` oracle of the same logical capacity.
    pub stats: JoinStats,
    /// Times the query's cursor parked on an in-flight read.
    pub parks: u64,
    /// The query's stage split (zeros when run unrecorded).
    pub span: SpanReport,
}

/// A long-lived join service over two persisted trees (module docs).
pub struct JoinService {
    r: RTree,
    s: RTree,
    cache: Arc<SharedPageCache>,
    handle_pages: usize,
    admission: Admission,
    registry: Arc<Registry>,
    metrics: ServiceMetrics,
    /// Summed per-query logical `disk_accesses` — the "logical" side
    /// of the physical-vs-logical export.
    logical_reads: AtomicU64,
}

impl JoinService {
    /// Opens the trees at `r_path`/`s_path` — both through one page scan,
    /// [`RTree::open_all`] — and provisions the shared cache and
    /// admission layer.
    pub fn open(r_path: &Path, s_path: &Path, cfg: ServiceConfig) -> Result<Self, ServiceError> {
        let started = Instant::now();
        let [r, s] = RTree::open_all([r_path, s_path])?;
        let heights = [r.height() as usize, s.height() as usize];
        // A loaded tree allocates exactly its file's pages.
        let file_pages = r.allocated_pages() + s.allocated_pages();
        let cache_pages = if cfg.cache_pages > 0 {
            cfg.cache_pages
        } else {
            file_pages
        };
        let cache = SharedPageCache::open(
            &[r_path.to_path_buf(), s_path.to_path_buf()],
            cache_pages,
            &heights,
            cfg.cache,
        )?;
        let handle_pages = if cfg.handle_pages > 0 {
            cfg.handle_pages
        } else {
            cache_pages
        };
        let registry = Arc::new(Registry::new());
        let metrics = ServiceMetrics::register(&registry);
        let admission = Admission::with_gauges(
            cfg.max_in_flight,
            cfg.max_queue,
            metrics.in_flight.clone(),
            metrics.queue_depth.clone(),
        );
        metrics::record_open(&registry, started.elapsed(), file_pages);
        Ok(JoinService {
            r,
            s,
            cache,
            handle_pages,
            admission,
            registry,
            metrics,
            logical_reads: AtomicU64::new(0),
        })
    }

    /// Runs one join, recording telemetry. `collect_pairs` controls
    /// whether the result pairs are materialized into the response.
    pub fn execute(
        &self,
        plan: JoinPlan,
        collect_pairs: bool,
    ) -> Result<QueryResponse, ServiceError> {
        self.execute_with::<Live>(plan, collect_pairs)
    }

    /// The identical query path with recording compiled out (no clock
    /// read of the service's, no metric touch) — the uninstrumented
    /// baseline the benchmark's `telemetry.overhead_frac` compares against.
    pub fn execute_unrecorded(
        &self,
        plan: JoinPlan,
        collect_pairs: bool,
    ) -> Result<QueryResponse, ServiceError> {
        self.execute_with::<Disabled>(plan, collect_pairs)
    }

    /// [`JoinService::execute`], generic over the recording switch.
    fn execute_with<R: Recorder>(
        &self,
        plan: JoinPlan,
        collect_pairs: bool,
    ) -> Result<QueryResponse, ServiceError> {
        let mut pairs = Vec::new();
        let (stats, parks, span) = self.run::<R, _>(plan, |a, b| {
            if collect_pairs {
                pairs.push((a, b));
            }
        })?;
        Ok(QueryResponse {
            pairs,
            stats,
            parks,
            span,
        })
    }

    /// Streams result pairs into `sink` instead of materializing them.
    /// The sink runs inside the join stage; a sink that panics unwinds
    /// through admission safely (the permit releases on drop).
    pub fn execute_streaming<F: FnMut(DataId, DataId)>(
        &self,
        plan: JoinPlan,
        sink: F,
    ) -> Result<(JoinStats, SpanReport), ServiceError> {
        let (stats, _, span) = self.run::<Live, F>(plan, sink)?;
        Ok((stats, span))
    }

    fn run<R: Recorder, F: FnMut(DataId, DataId)>(
        &self,
        plan: JoinPlan,
        mut sink: F,
    ) -> Result<(JoinStats, u64, SpanReport), ServiceError> {
        let t_total = now_if::<R>();
        let permit = match self.admission.acquire() {
            Ok(p) => p,
            Err(overloaded) => {
                R::add(&self.metrics.queries_overloaded, 1);
                return Err(overloaded.into());
            }
        };
        let queue_us = micros(permit.waited());

        // plan: the query's cache handle + cursor construction (schedule
        // materialization included).
        let t_plan = now_if::<R>();
        let handle = self.cache.handle(self.handle_pages);
        let mut cursor = JoinCursor::new(&self.r, &self.s, plan, handle);
        let plan_us = us_since(t_plan);

        // drive: join compute + blocked-on-read time; the cursor timed
        // its own waits, which separates the two below.
        let t_drive = now_if::<R>();
        for (a, b) in &mut cursor {
            sink(a, b);
        }
        let stats = cursor.stats();
        let parks = cursor.parks();
        let io_us = if R::ENABLED {
            micros(cursor.blocked())
        } else {
            0
        };
        drop(cursor);
        let drive_us = us_since(t_drive);
        let join_us = drive_us.saturating_sub(io_us);
        self.logical_reads
            .fetch_add(stats.io.disk_accesses, Ordering::Relaxed);

        // emit: response assembly + telemetry recording.
        let t_emit = now_if::<R>();
        R::observe(&self.metrics.queue_wait_us, queue_us);
        for (hist, v) in self
            .metrics
            .stage_us
            .iter()
            .zip([queue_us, plan_us, io_us, join_us])
        {
            R::observe(hist, v);
        }
        R::observe(&self.metrics.pairs, stats.result_pairs);
        R::add(&self.metrics.parks, parks);
        R::add(&self.metrics.queries_ok, 1);
        drop(permit);
        let emit_us = us_since(t_emit);
        let total_us = us_since(t_total);
        R::observe(&self.metrics.stage_us[4], emit_us);
        R::observe(&self.metrics.query_us, total_us);

        Ok((
            stats,
            parks,
            SpanReport {
                queue_us,
                plan_us,
                io_us,
                join_us,
                emit_us,
                total_us,
            },
        ))
    }

    /// Pulls the storage-layer counters into the registry and renders
    /// the full text exposition.
    pub fn telemetry_text(&self) -> String {
        self.export();
        self.registry.render_text()
    }

    /// Pulls the storage-layer counters (cache + completion queue)
    /// into the registry without rendering.
    pub fn export(&self) {
        export_cache(
            &self.registry,
            &self.cache,
            self.logical_reads.load(Ordering::Relaxed),
        );
        export_queue(&self.registry, self.cache.queue());
    }

    /// The metrics registry (push families live here; call
    /// [`JoinService::export`] first for the pull families).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared frame pool queries run over.
    pub fn cache(&self) -> &Arc<SharedPageCache> {
        &self.cache
    }

    /// The admission layer (bounds and live levels).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Warm fraction of the cache's materialize calls so far.
    pub fn hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// The served trees, `(R, S)`.
    pub fn trees(&self) -> (&RTree, &RTree) {
        (&self.r, &self.s)
    }
}
