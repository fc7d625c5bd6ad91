//! A tour of the five join algorithms on the same data: how each of the
//! paper's techniques moves the cost needles.
//!
//! ```sh
//! cargo run --release --example algorithm_tour
//! ```

use rsj::prelude::*;

fn main() {
    let data = rsj::datagen::preset(TestId::A, 0.05);
    let params = RTreeParams::for_page_size(4096);
    let mut r = RTree::new(params);
    for o in &data.r {
        r.insert(o.mbr, DataId(o.id));
    }
    let mut s = RTree::new(params);
    for o in &data.s {
        s.insert(o.mbr, DataId(o.id));
    }
    let cfg = JoinConfig {
        buffer_bytes: 32 * 1024,
        collect_pairs: false,
    };
    let model = CostModel::default();

    println!(
        "test (A) at 5 % scale, 4-KByte pages, 32-KByte LRU buffer ({} x {} objects)\n",
        data.r.len(),
        data.s.len()
    );
    println!(
        "{:<10} {:>14} {:>16} {:>14} {:>10}",
        "algorithm", "disk accesses", "comparisons", "est. time", "pairs"
    );
    let plans = [
        ("SJ1", JoinPlan::sj1()),
        ("SJ2", JoinPlan::sj2()),
        ("SJ3", JoinPlan::sj3()),
        ("SJ4", JoinPlan::sj4()),
        ("SJ5", JoinPlan::sj5()),
    ];
    let mut first_time = None;
    for (name, plan) in plans {
        let stats = spatial_join(&r, &s, plan, &cfg).stats;
        let t = stats.time(&model).total();
        first_time.get_or_insert(t);
        println!(
            "{:<10} {:>14} {:>16} {:>12.2} s {:>10}",
            name,
            stats.io.disk_accesses,
            stats.total_comparisons(),
            t,
            stats.result_pairs
        );
    }
    let speedup = first_time.unwrap()
        / spatial_join(&r, &s, JoinPlan::sj4(), &cfg)
            .stats
            .time(&model)
            .total();
    println!("\nSJ4 is {speedup:.1}x faster than the straightforward SJ1 in estimated time.");
}
