//! Where the CPU time of a join's pair enumeration goes, phase by phase.
//!
//! Builds the repo benchmark's large data shape in memory (10⁵ clustered
//! against 10⁵ uniform rectangles, STR-loaded into 4 KiB pages), walks the
//! SJ4 traversal once to collect every node pair the join enumerates, and
//! then times the three public kernels of `rsj_core::sweep` plus the leaf
//! drain over those node pairs, exactly as the cursor chains them:
//!
//! * **restrict** — `restrict_keyed` on both nodes (entries in → kept);
//! * **verify**   — `sort_keyed_by_xl` on both restricted sequences (a
//!   verification pass on ordered leaves);
//! * **sweep**    — `sorted_intersection_test_keyed` (candidates the
//!   internal loops y-test → pairs);
//! * **drain**    — leaf pairs only: entry indices to data ids, into the
//!   pending queue.
//!
//! Printed once per meter. The benchmark's `core.sweep_kernel_ms` covers
//! verify + sweep over leaf pairs only and excludes restriction; there is
//! no `perf` on the boxes this runs on, so this is the profile.
//!
//! Run with: `cargo run --release --example leaf_kernel [seed]`

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rsj::datagen::synthetic::{clustered_rects, uniform_rects};
use rsj::datagen::SpatialObject;
use rsj::join::sweep::{restrict_keyed, sort_keyed_by_xl, sorted_intersection_test_keyed};
use rsj::prelude::*;
use rsj::rtree::bulk::{str_load, DEFAULT_FILL};
use rsj::rtree::{Entry, Node};

// The benchmark's large data set (`benchmark/src/spec.rs`).
const N: usize = 100_000;
const CLUSTERS: usize = 100;
const CLUSTER_SPREAD: f64 = 25.0;
const R_MAX_EXTENT: f64 = 8.0;
const S_MAX_EXTENT: f64 = 4.0;
const PAGE_BYTES: usize = 4096;

const JOINS: u32 = 20;

fn build(objs: &[SpatialObject]) -> RTree {
    let items: Vec<(Rect, DataId)> = objs.iter().map(|o| (o.mbr, DataId(o.id))).collect();
    str_load(RTreeParams::for_page_size(PAGE_BYTES), &items, DEFAULT_FILL).expect("finite rects")
}

/// One enumeration of the traversal: two nodes of equal level and the
/// search space their parents' entries left them.
type NodePair<'t> = (&'t Node, &'t Node, Rect);

/// Every node pair SJ4 enumerates, found with uncounted tests.
fn node_pairs<'t>(r: &'t RTree, s: &'t RTree) -> Vec<NodePair<'t>> {
    let mut out = Vec::new();
    let Some(space) = r.mbr().intersection(&s.mbr()) else {
        return out;
    };
    let mut stack = vec![(r.root(), s.root(), space)];
    while let Some((rp, sp, space)) = stack.pop() {
        let (rn, sn) = (r.node(rp), s.node(sp));
        assert_eq!(rn.level, sn.level, "the benchmark's trees are equally high");
        out.push((rn, sn, space));
        if rn.is_leaf() {
            continue;
        }
        for a in rn.entries.iter().filter(|e| e.rect.intersects(&space)) {
            for b in sn.entries.iter().filter(|e| e.rect.intersects(&space)) {
                if let Some(sub) = a.rect.intersection(&b.rect) {
                    stack.push((RTree::child_page(a), RTree::child_page(b), sub));
                }
            }
        }
    }
    out
}

#[derive(Default)]
struct Split {
    restrict: Duration,
    verify: Duration,
    sweep: Duration,
    drain: Duration,
    entries_in: u64,
    kept: u64,
    candidates: u64,
    pairs: u64,
    join_comparisons: u64,
    sort_comparisons: u64,
}

/// Runs the enumeration of every node pair `JOINS` times under meter `M`,
/// timing each phase where it happens.
fn profile<M: Meter>(pairs: &[NodePair]) -> Split {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (mut perm, mut packed, mut tmp) = (Vec::new(), Vec::new(), Vec::new());
    let mut raw = Vec::new();
    let mut pending: VecDeque<(DataId, DataId)> = VecDeque::new();
    let mut split = Split::default();
    let id = |e: &Entry| e.child.data().expect("leaf entry");
    for join in 0..JOINS {
        let (mut cmp, mut sort_cmp) = (M::default(), M::default());
        for &(rn, sn, space) in pairs {
            let t0 = Instant::now();
            restrict_keyed(&rn.entries, 0.0, Some(&space), &mut cmp, &mut a);
            restrict_keyed(&sn.entries, 0.0, Some(&space), &mut cmp, &mut b);
            let t1 = Instant::now();
            sort_keyed_by_xl(&mut a, &mut perm, &mut packed, &mut tmp, &mut sort_cmp);
            sort_keyed_by_xl(&mut b, &mut perm, &mut packed, &mut tmp, &mut sort_cmp);
            let t2 = Instant::now();
            raw.clear();
            sorted_intersection_test_keyed(&a, &b, &mut cmp, &mut raw);
            let t3 = Instant::now();
            if rn.is_leaf() {
                pending.extend(
                    raw.iter()
                        .map(|&(ir, js)| (id(&rn.entries[ir]), id(&sn.entries[js]))),
                );
            }
            let t4 = Instant::now();
            std::hint::black_box(&pending);
            pending.clear();
            split.restrict += t1 - t0;
            split.verify += t2 - t1;
            split.sweep += t3 - t2;
            split.drain += t4 - t3;
            if join == 0 {
                split.entries_in += (rn.entries.len() + sn.entries.len()) as u64;
                split.kept += (a.len() + b.len()) as u64;
                // The internal loops y-test each pair whose x-projections
                // intersect, once.
                split.candidates += a
                    .iter()
                    .map(|(r, _)| {
                        b.iter()
                            .filter(|(s, _)| r.xl <= s.xu && s.xl <= r.xu)
                            .count()
                    })
                    .sum::<usize>() as u64;
                split.pairs += raw.len() as u64;
            }
        }
        split.join_comparisons = cmp.get();
        split.sort_comparisons = sort_cmp.get();
    }
    split
}

fn report(meter: &str, s: &Split) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / f64::from(JOINS);
    let total = s.restrict + s.verify + s.sweep + s.drain;
    println!(
        "{meter} (mean of {JOINS} joins, {:.2} ms in the four phases)",
        ms(total)
    );
    println!(
        "  restrict {:6.2} ms   {} entries in -> {} kept ({:.0} %)",
        ms(s.restrict),
        s.entries_in,
        s.kept,
        100.0 * s.kept as f64 / s.entries_in.max(1) as f64
    );
    println!(
        "  verify   {:6.2} ms   {} sort comparisons",
        ms(s.verify),
        s.sort_comparisons
    );
    println!(
        "  sweep    {:6.2} ms   {} candidates -> {} pairs ({:.0} %), {} join comparisons",
        ms(s.sweep),
        s.candidates,
        s.pairs,
        100.0 * s.pairs as f64 / s.candidates.max(1) as f64,
        s.join_comparisons
    );
    println!("  drain    {:6.2} ms", ms(s.drain));
}

fn main() {
    let seed = match std::env::args().nth(1) {
        None => 1,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("usage: leaf_kernel [seed]");
            std::process::exit(2);
        }),
    };
    let r = build(&clustered_rects(
        N,
        CLUSTERS,
        CLUSTER_SPREAD,
        R_MAX_EXTENT,
        seed,
    ));
    let s = build(&uniform_rects(N, S_MAX_EXTENT, seed + 1));
    let pairs = node_pairs(&r, &s);
    let leaf = pairs.iter().filter(|p| p.0.is_leaf()).count();
    println!(
        "seed {seed}: 2 x {N} rectangles, heights {} and {}; SJ4 enumerates {} node pairs ({leaf} leaf/leaf)",
        r.height(),
        s.height(),
        pairs.len(),
    );
    report("counted (CmpCounter)", &profile::<CmpCounter>(&pairs));
    report("raw (NoOp)", &profile::<NoOp>(&pairs));
}
