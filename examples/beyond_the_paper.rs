//! The extensions beyond the 1993 paper: other join operators (§2.1
//! mentions them, the paper only evaluates intersection) and the parallel
//! join the paper's §6 proposes as future work.
//!
//! ```sh
//! cargo run --release --example beyond_the_paper
//! ```

use rsj::prelude::*;

fn main() {
    let data = rsj::datagen::preset(TestId::E, 0.05); // region data
    let params = RTreeParams::for_page_size(2048);
    let mut r = RTree::new(params);
    for o in &data.r {
        r.insert(o.mbr, DataId(o.id));
    }
    let mut s = RTree::new(params);
    for o in &data.s {
        s.insert(o.mbr, DataId(o.id));
    }
    let cfg = JoinConfig {
        collect_pairs: false,
        ..Default::default()
    };
    println!(
        "region relations: {} x {} objects\n",
        data.r.len(),
        data.s.len()
    );

    // 1. Join operators: intersection, containment, within-distance.
    for (name, pred) in [
        ("intersects", JoinPredicate::Intersects),
        ("contains  ", JoinPredicate::Contains),
        ("within    ", JoinPredicate::Within),
        ("dist <= 2 ", JoinPredicate::WithinDistance(2.0)),
    ] {
        let res = spatial_join(&r, &s, JoinPlan::sj4().with_predicate(pred), &cfg);
        println!(
            "{name}  ->  {:>9} pairs   ({} disk accesses, {} comparisons)",
            res.stats.result_pairs,
            res.stats.io.disk_accesses,
            res.stats.total_comparisons()
        );
    }

    // 2. Parallel join: same result set, wall-clock speedup on multicore,
    //    shared-nothing I/O accounting.
    let seq_t = std::time::Instant::now();
    let seq = spatial_join(&r, &s, JoinPlan::sj4(), &cfg);
    let seq_elapsed = seq_t.elapsed();
    let par_t = std::time::Instant::now();
    // Each worker charges a private pool of its share of the budget.
    let par = parallel_spatial_join::<CmpCounter, _>(
        &r,
        &s,
        JoinPlan::sj4(),
        cfg.collect_pairs,
        4,
        |_, n| JoinConfig::with_buffer(cfg.buffer_bytes / n).buffer_pool(&[&r, &s]),
    );
    let par_elapsed = par_t.elapsed();
    assert_eq!(seq.stats.result_pairs, par.stats.result_pairs);
    println!(
        "\nparallel join (4 workers): {} pairs in {:.1} ms vs sequential {:.1} ms; \
         shared-nothing disk accesses {} vs {}",
        par.stats.result_pairs,
        par_elapsed.as_secs_f64() * 1000.0,
        seq_elapsed.as_secs_f64() * 1000.0,
        par.stats.io.disk_accesses,
        seq.stats.io.disk_accesses,
    );
}
