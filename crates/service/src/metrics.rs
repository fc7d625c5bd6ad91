//! The service's metric families and the pull-based storage exporters.
//!
//! Two recording styles, chosen per instrumentation point:
//!
//! * **push** — per-query facts (latency, stage split, pairs, parks,
//!   admission outcomes) are recorded by `execute` as they happen,
//!   through lock-free handles;
//! * **pull** — the storage layer keeps its own cheap relaxed atomics
//!   ([`SharedPageCache::frame_hits`], [`CompletionQueue`] lag, …);
//!   [`export_cache`]/[`export_queue`] copy them into gauges at snapshot
//!   time. The hot path pays nothing it
//!   was not already paying, which is what keeps the benchmark's
//!   `telemetry.overhead_frac` small.
//!
//! ## Family catalogue
//!
//! | family | kind | labels | meaning |
//! |---|---|---|---|
//! | `rsj_service_open_us` | gauge | | wall time of [`JoinService::open`](crate::JoinService::open): both tree loads, cache and queue start-up |
//! | `rsj_service_open_pages` | gauge | | pages that open read — every page of both files, once each |
//! | `rsj_service_queries_total` | counter | `outcome` | completed (`ok`) vs rejected (`overloaded`) queries |
//! | `rsj_service_in_flight` | gauge | | queries holding admission permits |
//! | `rsj_service_queue_depth` | gauge | | callers parked in the admission queue |
//! | `rsj_service_queue_wait_us` | histogram | | time-in-queue of admitted queries |
//! | `rsj_service_query_us` | histogram | | end-to-end query latency |
//! | `rsj_service_stage_us` | histogram | `stage` | queue/plan/io/join/emit split (see span docs) |
//! | `rsj_service_pairs` | histogram | | result pairs per query |
//! | `rsj_service_parks_total` | counter | | cursor run-ahead parks |
//! | `rsj_cache_reads` | gauge | `kind` | physical vs logical read split |
//! | `rsj_cache_reads{kind="inline"}` | gauge | | the physical reads the demanding thread served itself instead of a queue worker; they are `rsj_cq_*` completions with zero queue wait |
//! | `rsj_cache_physical_reads` | gauge | `store` | per-store physical read split |
//! | `rsj_cache_hits` | gauge | `kind` | resident / adopted / drain-served hits |
//! | `rsj_cache_hit_ratio` | gauge | | warm fraction of materialize calls |
//! | `rsj_cache_evictions` | gauge | | frames evicted |
//! | `rsj_cache_drain_depth` | gauge | | dirty pages evicted but not yet written back |
//! | `rsj_cache_pending_write_back` | gauge | | dirty pages (resident + drained) |
//! | `rsj_cache_resident_pages` | gauge | | frames resident or in flight |
//! | `rsj_cache_physical_writes` | gauge | | pages written back |
//! | `rsj_cq_in_flight` | gauge | | submissions not yet completed |
//! | `rsj_cq_workers` | gauge | | worker-pool size: reads the queue serves at once |
//! | `rsj_cq_lane_depth` | gauge | `lane` | queued submissions per lane (lane = store) |
//! | `rsj_cq_lane_reads` | gauge | `lane` | completed reads per lane (lane = store) |
//! | `rsj_cq_completion_lag_us` | gauge | `stat` | mean/max submit→complete lag |
//! | `rsj_cq_queue_wait_us` | gauge | `stat` | mean/max submit→claim share of the lag (waiting for a worker); ≫ `rsj_cq_service_us` ⇒ the pool, not the device, bounds the reads |
//! | `rsj_cq_service_us` | gauge | `stat` | mean/max claim→complete share of the lag (the read) |
//! | `rsj_cq_completions` | gauge | | completed submissions the three lag families above average over |

use std::sync::Arc;
use std::time::Duration;

use rsj_storage::{CompletionQueue, SharedPageCache};
use rsj_telemetry::{Counter, Gauge, Histogram, Registry};

/// The span stages, in report order.
pub const STAGES: [&str; 5] = ["queue", "plan", "io", "join", "emit"];

/// Push-side handles, created once at service open.
pub(crate) struct ServiceMetrics {
    pub queries_ok: Arc<Counter>,
    pub queries_overloaded: Arc<Counter>,
    pub in_flight: Arc<Gauge>,
    pub queue_depth: Arc<Gauge>,
    pub queue_wait_us: Arc<Histogram>,
    pub query_us: Arc<Histogram>,
    pub stage_us: [Arc<Histogram>; 5],
    pub pairs: Arc<Histogram>,
    pub parks: Arc<Counter>,
}

impl ServiceMetrics {
    pub fn register(registry: &Registry) -> Self {
        let stage = |name: &str| {
            registry.histogram(
                "rsj_service_stage_us",
                "per-query wall time split by stage, microseconds",
                &[("stage", name)],
            )
        };
        ServiceMetrics {
            queries_ok: registry.counter(
                "rsj_service_queries_total",
                "queries by outcome",
                &[("outcome", "ok")],
            ),
            queries_overloaded: registry.counter(
                "rsj_service_queries_total",
                "queries by outcome",
                &[("outcome", "overloaded")],
            ),
            in_flight: registry.gauge(
                "rsj_service_in_flight",
                "queries holding admission permits",
                &[],
            ),
            queue_depth: registry.gauge(
                "rsj_service_queue_depth",
                "callers parked in the admission wait queue",
                &[],
            ),
            queue_wait_us: registry.histogram(
                "rsj_service_queue_wait_us",
                "admission time-in-queue of admitted queries, microseconds",
                &[],
            ),
            query_us: registry.histogram(
                "rsj_service_query_us",
                "end-to-end query latency, microseconds",
                &[],
            ),
            stage_us: STAGES.map(stage),
            pairs: registry.histogram("rsj_service_pairs", "result pairs per query", &[]),
            parks: registry.counter(
                "rsj_service_parks_total",
                "cursor run-ahead parks (blocked on an in-flight read)",
                &[],
            ),
        }
    }
}

/// Records what [`JoinService::open`](crate::JoinService::open) cost:
/// set once, before the service serves anything.
pub(crate) fn record_open(registry: &Registry, elapsed: Duration, pages: usize) {
    registry
        .gauge(
            "rsj_service_open_us",
            "wall time of the service's open, microseconds",
            &[],
        )
        .set(elapsed.as_micros().min(i64::MAX as u128) as i64);
    registry
        .gauge(
            "rsj_service_open_pages",
            "pages read by the service's open (both page files, once each)",
            &[],
        )
        .set(pages as i64);
}

/// Copies a [`SharedPageCache`]'s counters into the registry: hit
/// ratio, single-flight adoptions, evictions, dirty-drain depth, and
/// the read split — physical, the share of those read inline, and
/// logical (`logical_reads` is the summed per-handle `disk_accesses` the
/// caller tracked — pass what it knows; the cache itself only sees
/// physical traffic).
pub fn export_cache(registry: &Registry, cache: &SharedPageCache, logical_reads: u64) {
    let g = |name: &str, help: &str, labels: &[(&str, &str)], v: i64| {
        registry.gauge(name, help, labels).set(v);
    };
    g(
        "rsj_cache_reads",
        "physical vs logical (charged) read split",
        &[("kind", "physical")],
        cache.physical_reads() as i64,
    );
    g(
        "rsj_cache_reads",
        "physical vs logical (charged) read split",
        &[("kind", "logical")],
        logical_reads as i64,
    );
    g(
        "rsj_cache_reads",
        "physical vs logical (charged) read split",
        &[("kind", "inline")],
        cache.inline_reads() as i64,
    );
    for (store, reads) in cache.physical_reads_by_store().iter().enumerate() {
        g(
            "rsj_cache_physical_reads",
            "physical reads by store",
            &[("store", &store.to_string())],
            *reads as i64,
        );
    }
    for (kind, v) in [
        ("resident", cache.frame_hits()),
        ("adopted", cache.adoptions()),
        ("drain", cache.drain_hits()),
    ] {
        g(
            "rsj_cache_hits",
            "materialize calls served without a physical read, by how",
            &[("kind", kind)],
            v as i64,
        );
    }
    registry
        .float_gauge(
            "rsj_cache_hit_ratio",
            "warm fraction of materialize calls",
            &[],
        )
        .set(cache.hit_ratio());
    g(
        "rsj_cache_evictions",
        "frames evicted",
        &[],
        cache.evictions() as i64,
    );
    g(
        "rsj_cache_drain_depth",
        "dirty pages evicted but not yet written back",
        &[],
        cache.drain_depth() as i64,
    );
    g(
        "rsj_cache_pending_write_back",
        "dirty pages pending write-back (resident + drained)",
        &[],
        cache.pending_write_back() as i64,
    );
    g(
        "rsj_cache_resident_pages",
        "frames resident or in flight",
        &[],
        cache.resident_pages() as i64,
    );
    g(
        "rsj_cache_physical_writes",
        "pages physically written back",
        &[],
        cache.physical_writes() as i64,
    );
}

/// Copies a [`CompletionQueue`]'s depth and lag counters into the
/// registry.
pub fn export_queue(registry: &Registry, queue: &CompletionQueue) {
    registry
        .gauge("rsj_cq_in_flight", "submissions not yet completed", &[])
        .set(queue.in_flight() as i64);
    registry
        .gauge(
            "rsj_cq_workers",
            "worker-pool size: reads the queue serves at once",
            &[],
        )
        .set(queue.workers() as i64);
    for lane in 0..queue.lane_count() {
        let label = lane.to_string();
        registry
            .gauge(
                "rsj_cq_lane_depth",
                "queued submissions per lane",
                &[("lane", &label)],
            )
            .set(queue.lane_depth(lane) as i64);
        registry
            .gauge(
                "rsj_cq_lane_reads",
                "completed reads per lane",
                &[("lane", &label)],
            )
            .set(queue.lane_reads(lane) as i64);
    }
    let lag = queue.completion_lag();
    for (name, help, mean_nanos, max_nanos) in [
        (
            "rsj_cq_completion_lag_us",
            "submit-to-complete lag, microseconds",
            lag.mean_nanos(),
            lag.max_nanos,
        ),
        (
            "rsj_cq_queue_wait_us",
            "submit-to-claim share of the lag: waiting for a worker, microseconds",
            lag.queue_wait_mean_nanos(),
            lag.queue_wait_max_nanos,
        ),
        (
            "rsj_cq_service_us",
            "claim-to-complete share of the lag: the read itself, microseconds",
            lag.service_mean_nanos(),
            lag.service_max_nanos,
        ),
    ] {
        for (stat, nanos) in [("mean", mean_nanos), ("max", max_nanos)] {
            registry
                .gauge(name, help, &[("stat", stat)])
                .set((nanos / 1_000) as i64);
        }
    }
    registry
        .gauge(
            "rsj_cq_completions",
            "completed submissions accumulated into the lag stats",
            &[],
        )
        .set(lag.samples as i64);
}
