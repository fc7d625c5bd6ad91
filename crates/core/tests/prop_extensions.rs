//! Property tests for the extension joins: the parallel join must be
//! result-equivalent to the sequential one, and the multi-way join must
//! match its recursive brute-force definition, on arbitrary inputs.

use proptest::prelude::*;
use rsj_core::{
    multiway_join, parallel_spatial_join, spatial_join, JoinConfig, JoinPlan, JoinResult,
    MultiwayResult,
};
use rsj_geom::{CmpCounter, Rect};
use rsj_rtree::{DataId, InsertPolicy, RTree, RTreeParams};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0..400.0f64, 0.0..400.0f64, 0.0..50.0f64, 0.0..50.0f64)
        .prop_map(|(x, y, w, h)| Rect::from_corners(x, y, x + w, y + h))
}

fn build(items: &[(Rect, u64)]) -> RTree {
    let mut t = RTree::new(RTreeParams::explicit(200, 10, 4, InsertPolicy::RStar));
    for &(r, id) in items {
        t.insert(r, DataId(id));
    }
    t
}

/// The shared-nothing in-memory parallel join: each worker a pool of its
/// share of `cfg`'s budget.
fn pooled_parallel(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    cfg: &JoinConfig,
    workers: usize,
) -> JoinResult {
    parallel_spatial_join::<CmpCounter, _>(r, s, plan, cfg.collect_pairs, workers, |_, n| {
        JoinConfig::with_buffer(cfg.buffer_bytes / n).buffer_pool(&[r, s])
    })
}

/// The in-memory multi-way join: every stage a pool of `cfg`'s budget.
fn pooled_multiway(trees: &[&RTree], plan: JoinPlan, cfg: &JoinConfig) -> MultiwayResult {
    multiway_join::<CmpCounter, _>(trees, plan, |_, t| cfg.buffer_pool(t))
}

fn with_ids(rects: Vec<Rect>) -> Vec<(Rect, u64)> {
    rects
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, i as u64))
        .collect()
}

/// `n` rectangles drawn like [`arb_rect`] from a fixed linear
/// congruential stream, so the pinned counts below have fixed inputs.
fn fixed_rects(n: usize, seed: u64) -> Vec<(Rect, u64)> {
    let mut state = seed;
    let mut next = move |scale: f64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * scale
    };
    with_ids(
        (0..n)
            .map(|_| {
                let (x, y, w, h) = (next(400.0), next(400.0), next(50.0), next(50.0));
                Rect::from_corners(x, y, x + w, y + h)
            })
            .collect(),
    )
}

/// The parallel join's summed counts at every worker count, pinned:
/// `(workers, disk_accesses, join_comparisons, sort_comparisons)`. The
/// workers' buffers split the budget, so a change to that split or to
/// the task partition moves these even where the pair set stays.
#[test]
fn parallel_counts_are_pinned() {
    let (a, b) = (fixed_rects(1500, 1), fixed_rects(1500, 2));
    let (ta, tb) = (build(&a), build(&b));
    let cfg = JoinConfig::with_buffer(12 * 200);
    let seq = spatial_join(&ta, &tb, JoinPlan::sj4(), &cfg);
    let pinned: [(usize, u64, u64, u64); 9] = [
        (1, 1635, 285465, 18600),
        (2, 2729, 285443, 18589),
        (3, 3305, 285443, 18589),
        (4, 3490, 285443, 18589),
        (5, 3522, 285443, 18589),
        (6, 3522, 285443, 18589),
        (7, 3522, 285443, 18589),
        (8, 3522, 285443, 18589),
        (64, 3531, 285443, 18589),
    ];
    for (workers, disk, join, sort) in pinned {
        let par = pooled_parallel(&ta, &tb, JoinPlan::sj4(), &cfg, workers);
        assert_eq!(par.stats.result_pairs, seq.stats.result_pairs);
        assert_eq!(
            (
                par.stats.io.disk_accesses,
                par.stats.join_comparisons,
                par.stats.sort_comparisons
            ),
            (disk, join, sort),
            "workers = {workers}"
        );
    }
}

/// The multi-way join's counts, pinned for three and four relations:
/// `(tuples, comparisons, disk_accesses)`. Each probe stage charges a
/// buffer over its own tree, so a change to the stage → trees mapping
/// moves these.
#[test]
fn multiway_counts_are_pinned() {
    let trees: Vec<RTree> = (1..=4).map(|seed| build(&fixed_rects(300, seed))).collect();
    let cfg = JoinConfig::with_buffer(8 * 200);
    for (k, want) in [
        (3usize, (3483usize, 122_664u64, 227u64)),
        (4, (6723, 371_846, 277)),
    ] {
        let refs: Vec<&RTree> = trees[..k].iter().collect();
        let res = pooled_multiway(&refs, JoinPlan::sj4(), &cfg);
        assert_eq!(
            (res.tuples.len(), res.comparisons, res.io.disk_accesses),
            want,
            "{k}-way"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_equals_sequential(
        ra in prop::collection::vec(arb_rect(), 0..200),
        rb in prop::collection::vec(arb_rect(), 0..200),
        workers in 1usize..9,
        buf_pages in 0usize..16,
    ) {
        let a = with_ids(ra);
        let b = with_ids(rb);
        let (ta, tb) = (build(&a), build(&b));
        let cfg = JoinConfig::with_buffer(buf_pages * 200);
        let seq = spatial_join(&ta, &tb, JoinPlan::sj4(), &cfg);
        let par = pooled_parallel(&ta, &tb, JoinPlan::sj4(), &cfg, workers);
        let mut s: Vec<(u64, u64)> = seq.pairs.iter().map(|&(x, y)| (x.0, y.0)).collect();
        let mut p: Vec<(u64, u64)> = par.pairs.iter().map(|&(x, y)| (x.0, y.0)).collect();
        s.sort_unstable();
        p.sort_unstable();
        prop_assert_eq!(s, p);
        prop_assert_eq!(seq.stats.result_pairs, par.stats.result_pairs);
    }

    #[test]
    fn three_way_matches_recursive_brute_force(
        ra in prop::collection::vec(arb_rect(), 1..60),
        rb in prop::collection::vec(arb_rect(), 1..60),
        rc in prop::collection::vec(arb_rect(), 1..60),
    ) {
        let a = with_ids(ra);
        let b = with_ids(rb);
        let c = with_ids(rc);
        let (ta, tb, tc) = (build(&a), build(&b), build(&c));
        let res = pooled_multiway(&[&ta, &tb, &tc], JoinPlan::sj4(), &JoinConfig::default());
        let mut got: Vec<Vec<u64>> =
            res.tuples.iter().map(|t| t.iter().map(|d| d.0).collect()).collect();
        got.sort_unstable();
        let mut want = Vec::new();
        for &(x, ix) in &a {
            for &(y, iy) in &b {
                let Some(xy) = x.intersection(&y) else { continue };
                for &(z, iz) in &c {
                    if xy.intersects(&z) {
                        want.push(vec![ix, iy, iz]);
                    }
                }
            }
        }
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn multiway_comparisons_and_io_are_positive_when_tuples_exist(
        ra in prop::collection::vec(arb_rect(), 5..50),
        rb in prop::collection::vec(arb_rect(), 5..50),
        rc in prop::collection::vec(arb_rect(), 5..50),
    ) {
        let a = with_ids(ra);
        let b = with_ids(rb);
        let c = with_ids(rc);
        let (ta, tb, tc) = (build(&a), build(&b), build(&c));
        let res = pooled_multiway(&[&ta, &tb, &tc], JoinPlan::sj4(), &JoinConfig::default());
        prop_assert!(res.comparisons > 0);
        prop_assert!(res.io.disk_accesses >= 2, "roots are read");
    }
}
