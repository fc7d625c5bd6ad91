//! Service conformance: [`JoinService`] answers queries over the warm
//! shared cache with the paper's accounting intact — per-query
//! [`JoinStats`] bit-identical to the private [`BufferPool`] oracle
//! *with telemetry enabled* — while the serving behaviors (warm zero
//! physical reads, bounded admission, typed overload, panic-safe
//! permits, text exposition) hold around it.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{build_tree, plans, sorted_ids, CAP_PAGES, PAGE};
use rsj::prelude::*;
use rsj_service::{JoinService, ServiceError};
use rsj_storage::completion::DelayFn;
use rsj_storage::{BufferPool, TempDir};
use rsj_telemetry::SampleValue;

struct Fixture {
    _dir: TempDir,
    r_path: std::path::PathBuf,
    s_path: std::path::PathBuf,
    r_file: RTree,
    s_file: RTree,
}

impl Fixture {
    fn new(test: TestId, scale: f64) -> Fixture {
        let data = rsj::datagen::preset(test, scale);
        let r = build_tree(&data.r, PAGE);
        let s = build_tree(&data.s, PAGE);
        let dir = TempDir::new("service").unwrap();
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

    fn service(&self, cfg: ServiceConfig) -> JoinService {
        JoinService::open(&self.r_path, &self.s_path, cfg).unwrap()
    }
}

/// For SJ1–SJ5, a recorded service query must return the same pairs and
/// a bit-identical [`JoinStats`] as the in-memory BufferPool oracle at
/// the same logical capacity: instrumentation (spans, histograms, the
/// cursor timing its waits) must not move the paper's accounting by one
/// count.
#[test]
fn service_stats_match_buffer_pool_oracle() {
    for (test, scale) in [(TestId::A, 0.003), (TestId::B, 0.003)] {
        let fx = Fixture::new(test, scale);
        let svc = fx.service(ServiceConfig {
            handle_pages: CAP_PAGES,
            ..ServiceConfig::default()
        });
        for (plan, name) in plans() {
            let tag = format!("{test:?}/{name}");
            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.heights());
            let (want, _) = JoinCursor::new(&fx.r_file, &fx.s_file, plan, pool).into_result(true);
            assert!(!want.pairs.is_empty(), "{tag}: fixture must join");

            let got = svc.execute(plan, true).expect("service query");
            assert_eq!(
                sorted_ids(&got.pairs),
                sorted_ids(&want.pairs),
                "{tag}: pairs"
            );
            assert_eq!(got.stats, want.stats, "{tag}: JoinStats bit-identical");
        }
    }
}

/// Steady-state serving is free: after the cold query faults the
/// working set in, every further query does zero physical reads at
/// hit ratio 1.0 — and the unrecorded path behaves identically with a
/// zeroed span.
#[test]
fn warm_queries_do_zero_physical_reads() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = fx.service(ServiceConfig::default());
    let plan = JoinPlan::sj4();

    let cold = svc.execute(plan, false).expect("cold query");
    assert!(svc.cache().physical_reads() > 0, "cold query must fault");
    assert!(cold.span.total_us > 0, "recorded span must tick");

    svc.cache().reset_stats();
    for _ in 0..3 {
        let warm = svc.execute(plan, false).expect("warm query");
        assert_eq!(warm.stats, cold.stats, "warm accounting identical");
    }
    let unrecorded = svc.execute_unrecorded(plan, false).expect("warm query");
    assert_eq!(unrecorded.stats, cold.stats);
    assert_eq!(
        unrecorded.span,
        SpanReport::default(),
        "disabled recorder must report a zero span"
    );
    assert_eq!(
        svc.cache().physical_reads(),
        0,
        "warm queries must perform zero physical reads"
    );
    assert_eq!(svc.hit_ratio(), 1.0, "warm hit ratio must be 1.0");
}

/// The io stage is the time the cursor itself spent waiting: with every
/// page read taking 2 ms a cold query cannot finish without waiting out
/// at least one read, that wait shows up as `io_us`, and io and join
/// together stay inside the query's wall time. Unrecorded, the same cold
/// query reports no span at all. Neither moves the accounting off the
/// `BufferPool` oracle.
#[test]
fn io_stage_is_the_time_the_cursor_waited() {
    let fx = Fixture::new(TestId::A, 0.003);
    let delay: DelayFn = Arc::new(|_| Some(Duration::from_millis(2)));
    let defaults = ServiceConfig::default();
    let svc = fx.service(ServiceConfig {
        handle_pages: CAP_PAGES,
        cache: CacheConfig {
            delay: Some(delay),
            ..defaults.cache
        },
        ..defaults
    });
    let plan = JoinPlan::sj4();
    let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.heights());
    let (want, _) = JoinCursor::new(&fx.r_file, &fx.s_file, plan, pool).into_result(false);

    let cold = svc.execute(plan, false).expect("cold query");
    assert_eq!(cold.stats, want.stats, "recorded: JoinStats bit-identical");
    assert!(cold.parks > 0, "2 ms reads must park the cursor");
    let span = cold.span;
    assert!(span.io_us >= 2_000, "io stage missed the wait: {span:?}");
    assert!(span.io_us + span.join_us <= span.total_us, "{span:?}");

    svc.cache().clear();
    let unrecorded = svc.execute_unrecorded(plan, false).expect("cold query");
    assert_eq!(unrecorded.stats, want.stats, "unrecorded: JoinStats");
    assert!(unrecorded.parks > 0, "the second query must be cold too");
    assert_eq!(
        unrecorded.span,
        SpanReport::default(),
        "disabled recorder must report a zero span"
    );
}

/// The push families count queries exactly, and the rendered exposition
/// carries the service and cache catalogues.
#[test]
fn telemetry_text_reports_the_catalogue() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = fx.service(ServiceConfig::default());
    for _ in 0..4 {
        svc.execute(JoinPlan::sj2(), false).expect("query");
    }

    svc.export();
    let snap = svc.registry().snapshot();
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "ok")])
            .cloned(),
        Some(SampleValue::Counter(4)),
    );
    match snap.get("rsj_service_query_us", &[]) {
        Some(SampleValue::Histogram(h)) => {
            assert_eq!(h.count(), 4, "one latency sample per query");
            assert!(h.quantiles().p99 > 0);
        }
        other => panic!("query_us must be a histogram, got {other:?}"),
    }
    match snap.get("rsj_cache_reads", &[("kind", "logical")]) {
        Some(SampleValue::Gauge(logical)) => assert!(*logical > 0),
        other => panic!("logical reads gauge missing: {other:?}"),
    }
    assert_eq!(
        snap.get("rsj_cache_reads", &[("kind", "inline")]).cloned(),
        Some(SampleValue::Gauge(svc.cache().inline_reads() as i64)),
        "the inline share of the physical reads is exported",
    );
    assert!(svc.cache().inline_reads() <= svc.cache().physical_reads());
    assert_eq!(
        snap.get("rsj_cq_workers", &[]).cloned(),
        Some(SampleValue::Gauge(rsj_storage::QUEUE_DEPTH as i64)),
        "the pool is as deep as the cursor's in-flight cap",
    );

    let text = svc.telemetry_text();
    for family in [
        "rsj_service_queries_total",
        "rsj_service_queue_wait_us",
        "rsj_service_query_us",
        "rsj_service_stage_us",
        "rsj_service_pairs",
        "rsj_cache_hit_ratio",
        "rsj_cache_reads",
        "rsj_cache_physical_reads",
        "rsj_cq_completion_lag_us",
        "rsj_cq_queue_wait_us",
        "rsj_cq_service_us",
        "quantile=\"0.99\"",
    ] {
        assert!(text.contains(family), "exposition must carry {family}");
    }
}

/// What the open cost is on the books before the first query: its wall
/// time, and a page count equal to the two files' — the open reads every
/// page of both once, whichever way its scan scheduled the reads.
#[test]
fn open_cost_is_exported() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = fx.service(ServiceConfig::default());
    let file_pages = [&fx.r_path, &fx.s_path]
        .map(|p| i64::from(PageFile::open(p).unwrap().page_count()))
        .iter()
        .sum::<i64>();
    let snap = svc.registry().snapshot();
    assert_eq!(
        snap.get("rsj_service_open_pages", &[]).cloned(),
        Some(SampleValue::Gauge(file_pages)),
    );
    match snap.get("rsj_service_open_us", &[]) {
        Some(SampleValue::Gauge(us)) => assert!(*us > 0),
        other => panic!("open_us gauge missing: {other:?}"),
    }
    let text = svc.telemetry_text();
    for family in ["rsj_service_open_us", "rsj_service_open_pages"] {
        assert!(text.contains(family), "exposition must carry {family}");
    }
}

/// With the pool and queue both full, a query is rejected with the
/// typed [`Overloaded`] — counted, immediate, and recoverable once the
/// permit frees.
#[test]
fn overloaded_is_typed_counted_and_recoverable() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = fx.service(ServiceConfig {
        max_in_flight: 1,
        max_queue: 0,
        ..ServiceConfig::default()
    });
    let plan = JoinPlan::sj2();

    let permit = svc.admission().acquire().expect("hold the only slot");
    match svc.execute(plan, false) {
        Err(ServiceError::Overloaded(o)) => {
            assert_eq!(o.in_flight, 1);
            assert_eq!(o.queued, 0);
        }
        other => panic!("must reject while the slot is held, got {other:?}"),
    }
    drop(permit);

    svc.execute(plan, false).expect("slot freed, query runs");
    let snap = svc.registry().snapshot();
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "overloaded")])
            .cloned(),
        Some(SampleValue::Counter(1)),
    );
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "ok")])
            .cloned(),
        Some(SampleValue::Counter(1)),
    );
}

/// A client burst against a small pool: every query either completes
/// correctly or is rejected typed — and admission drains back to zero.
#[test]
fn burst_drains_clean() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = Arc::new(fx.service(ServiceConfig {
        max_in_flight: 2,
        max_queue: 2,
        ..ServiceConfig::default()
    }));
    let plan = JoinPlan::sj4();
    let expect = svc.execute(plan, false).expect("probe").stats.result_pairs;

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || match svc.execute(plan, false) {
                Ok(resp) => {
                    assert_eq!(resp.stats.result_pairs, expect, "burst query must agree");
                    true
                }
                Err(ServiceError::Overloaded(_)) => false,
                Err(e) => panic!("only Overloaded is acceptable, got {e}"),
            })
        })
        .collect();
    let outcomes: Vec<bool> = clients
        .into_iter()
        .map(|c| c.join().expect("client must not die"))
        .collect();

    let ok = outcomes.iter().filter(|&&b| b).count() as u64;
    assert!(ok >= 2, "at least the pool width must complete");
    assert_eq!(svc.admission().in_flight(), 0, "admission must drain");
    assert_eq!(svc.admission().queue_depth(), 0);

    let snap = svc.registry().snapshot();
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "ok")])
            .cloned(),
        Some(SampleValue::Counter(ok + 1)), // + the probe
    );
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "overloaded")])
            .cloned(),
        Some(SampleValue::Counter(8 - ok)),
    );
}

/// A sink that panics mid-stream unwinds through the service without
/// leaking its permit: the next query gets the slot.
#[test]
fn panicking_sink_releases_its_permit() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = Arc::new(fx.service(ServiceConfig {
        max_in_flight: 1,
        max_queue: 0,
        ..ServiceConfig::default()
    }));
    let plan = JoinPlan::sj2();

    let svc2 = Arc::clone(&svc);
    let worker = std::thread::spawn(move || {
        svc2.execute_streaming(plan, |_, _| panic!("sink died on the first pair"))
            .map(|_| ())
    });
    assert!(worker.join().is_err(), "the sink panic must propagate");
    assert_eq!(
        svc.admission().in_flight(),
        0,
        "panic must release the permit"
    );
    svc.execute(plan, false)
        .expect("slot must be free after the panic");
}
