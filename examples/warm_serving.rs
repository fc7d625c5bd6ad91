//! Warm serving: file-backed parallel joins sharing one page cache.
//!
//! Builds the preset-(A) relations, saves both R*-trees to disk, then
//! tells the shared-cache story in three acts:
//!
//! 1. **shared-nothing** — a 4-worker parallel SJ2 where every worker
//!    runs its own private `FileNodeAccess` over a quarter of the page
//!    budget: workers faulting the same upper-level page each perform
//!    their own physical read;
//! 2. **shared cache, cold** — the same join over one `SharedPageCache`
//!    of the *same total budget*: per-worker logical `IoStats` are
//!    bit-identical to act 1 (the paper's §4.1 accounting never moves),
//!    but concurrent demanders of one page are single-flight and frames
//!    are reused across workers, so the pool performs strictly fewer
//!    physical reads;
//! 3. **serving loop** — the pool outlives the join: four closed-loop
//!    clients re-run the same join concurrently against the warm pool,
//!    each charging exactly the serial cold join's logical I/O while
//!    the disk stays silent (zero physical reads once the working set
//!    is resident).
//!
//! Run with: `cargo run --release --example warm_serving`

use std::time::Instant;

use rsj::prelude::*;
use rsj::storage::TempDir;

const PAGE: usize = 1024;
const BUDGET_PAGES: usize = 32;
const WORKERS: usize = 4;

fn build(objs: &[rsj::datagen::SpatialObject]) -> RTree {
    let mut t = RTree::new(RTreeParams::for_page_size(PAGE));
    for o in objs {
        t.insert(o.mbr, DataId(o.id));
    }
    t
}

fn main() {
    let data = rsj::datagen::preset(TestId::A, 0.01);
    let (r, s) = (build(&data.r), build(&data.s));
    let plan = JoinPlan::sj2();

    let dir = TempDir::new("warm-serving").expect("temp dir");
    let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r.save_to(&rp).expect("save R");
    s.save_to(&sp).expect("save S");
    let (rf, sf) = (
        RTree::open_from(&rp).expect("reopen R"),
        RTree::open_from(&sp).expect("reopen S"),
    );
    let heights = [rf.height() as usize, sf.height() as usize];
    let working_set = (PageFile::open(&rp).expect("R pages").page_count()
        + PageFile::open(&sp).expect("S pages").page_count()) as usize;
    let cap_per_worker = BUDGET_PAGES / WORKERS;
    println!(
        "preset A: |R| = {}, |S| = {}, SJ2, {WORKERS} workers, \
         {BUDGET_PAGES}-page budget, {working_set}-page working set",
        rf.len(),
        sf.len(),
    );

    // 1: shared-nothing — private file backends, budget/4 pages each.
    // Every logical miss is that worker's own physical read.
    let private = parallel_spatial_join::<CmpCounter, _>(&rf, &sf, plan, false, WORKERS, |_, _| {
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
    // merge_results adds 2 coordinator root charges no worker performed.
    let logical_sum = private.stats.io.disk_accesses - 2;
    println!(
        "\n  shared-nothing  {} pairs, Σ logical misses {logical_sum} = {logical_sum} physical reads",
        private.stats.result_pairs,
    );

    // 2: the same join, same per-worker logical capacity, one shared
    // frame pool of the same total budget.
    let cache = SharedPageCache::open(
        &[rp.clone(), sp.clone()],
        BUDGET_PAGES,
        &heights,
        CacheConfig::default(),
    )
    .expect("shared cache");
    let shared = parallel_spatial_join::<CmpCounter, _>(&rf, &sf, plan, false, WORKERS, |_, _| {
        cache.handle(cap_per_worker)
    });
    cache.drain();
    assert_eq!(
        shared.stats.io, private.stats.io,
        "the shared frame layer never moves the logical accounting"
    );
    let cold_physical = cache.physical_reads();
    assert!(
        cold_physical < logical_sum,
        "overlapping workers must dedup"
    );
    println!(
        "  shared cache    {} pairs, Σ logical misses {} (bit-identical), {cold_physical} physical reads",
        shared.stats.result_pairs,
        shared.stats.io.disk_accesses - 2,
    );

    // 3: the serving loop — a working-set-sized pool (it never evicts),
    // one cold fill, then four concurrent clients running the serial
    // join through their own handles at the full logical budget.
    let pool = SharedPageCache::open(
        &[rp.clone(), sp.clone()],
        working_set,
        &heights,
        CacheConfig::default(),
    )
    .expect("serving pool");
    let serve = |pool: &std::sync::Arc<SharedPageCache>| {
        let start = Instant::now();
        let (res, access) =
            JoinCursor::new(&rf, &sf, plan, pool.handle(BUDGET_PAGES)).into_result(false);
        (res, access.stats(), start.elapsed())
    };
    let (cold, cold_io, cold_t) = serve(&pool);
    pool.drain();
    let fill = pool.physical_reads();
    println!(
        "\n  serving: cold fill request  {} logical misses, {fill} physical reads, {:?}",
        cold_io.disk_accesses, cold_t
    );

    std::thread::scope(|scope| {
        for client in 0..WORKERS {
            let pool = &pool;
            let cold = &cold;
            scope.spawn(move || {
                let (res, io, t) = serve(pool);
                assert_eq!(res.stats.result_pairs, cold.stats.result_pairs);
                assert_eq!(io.disk_accesses, cold_io.disk_accesses);
                println!(
                    "  serving: warm client {client}      {} logical misses (unmoved), {:?}",
                    io.disk_accesses, t
                );
            });
        }
    });
    pool.drain();
    assert_eq!(pool.evictions(), 0, "a working-set-sized pool never evicts");
    println!(
        "  serving: {} physical reads across all warm clients — the pool is warm,\n\
         \u{20} every charge is served from shared frames, the disk stays silent.",
        pool.physical_reads() - fill
    );

    // 4: the same story as a *service* with first-class telemetry — a
    // `JoinService` owns the warm pool, admits queries through bounded
    // permits, and answers with per-query spans. One cold query faults
    // the working set, the warm burst runs disk-silent, and the final
    // text exposition carries the whole picture: latency histograms,
    // stage split, hit ratio, and the per-store read split.
    let svc = JoinService::open(&rp, &sp, ServiceConfig::default()).expect("open service");
    let cold_resp = svc.execute(plan, false).expect("cold service query");
    println!(
        "\n  service: cold query   {} pairs, span {:?}",
        cold_resp.stats.result_pairs, cold_resp.span
    );
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            let svc = &svc;
            scope.spawn(move || {
                for _ in 0..3 {
                    let resp = svc.execute(plan, false).expect("warm service query");
                    assert_eq!(resp.stats.result_pairs, cold_resp.stats.result_pairs);
                }
            });
        }
    });
    println!(
        "  service: warm burst   {} clients x 3 queries, hit ratio {:.3}",
        WORKERS,
        svc.hit_ratio()
    );
    println!("\n--- telemetry exposition ---\n{}", svc.telemetry_text());
}
