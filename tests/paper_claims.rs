//! The paper's qualitative claims, asserted at reduced scale.
//!
//! These are *shape* tests: who wins, in which metric, in which regime —
//! the properties that must survive the substitution of synthetic data for
//! the TIGER/Line maps.

use rsj::prelude::*;

struct Fixture {
    r: RTree,
    s: RTree,
}

fn fixture(page: usize) -> Fixture {
    fixture_at(page, 0.02)
}

fn fixture_at(page: usize, scale: f64) -> Fixture {
    let data = rsj::datagen::preset(TestId::A, scale);
    let mut r = RTree::new(RTreeParams::for_page_size(page));
    for o in &data.r {
        r.insert(o.mbr, DataId(o.id));
    }
    let mut s = RTree::new(RTreeParams::for_page_size(page));
    for o in &data.s {
        s.insert(o.mbr, DataId(o.id));
    }
    Fixture { r, s }
}

fn stats(f: &Fixture, plan: JoinPlan, buffer: usize) -> JoinStats {
    spatial_join(
        &f.r,
        &f.s,
        plan,
        &JoinConfig {
            buffer_bytes: buffer,
            collect_pairs: false,
        },
    )
    .stats
}

/// §4.2, Table 3: "the technique of restricting the search space improves
/// the number of comparisons by a factor of 4 to 8".
#[test]
fn claim_search_space_restriction_gains_factor_over_2() {
    for page in [1024usize, 4096] {
        let f = fixture(page);
        let c1 = stats(&f, JoinPlan::sj1(), 0).join_comparisons;
        let c2 = stats(&f, JoinPlan::sj2(), 0).join_comparisons;
        let gain = c1 as f64 / c2 as f64;
        assert!(gain > 2.0, "page {page}: gain {gain}");
    }
}

/// Table 3: the SJ2 gain grows with the page size.
///
/// This claim needs a deeper fixture than the others: at the default 0.02
/// scale an 8-KByte page (M = 409) packs the whole relation into a handful
/// of leaves, the directory levels vanish, and the restriction gain
/// saturates below its 4-KByte value. The paper's regime — trees that stay
/// multi-level at every page size — starts around scale 0.05 here.
#[test]
fn claim_restriction_gain_grows_with_page_size() {
    let mut last = 0.0;
    for page in [1024usize, 2048, 4096, 8192] {
        let f = fixture_at(page, 0.05);
        let c1 = stats(&f, JoinPlan::sj1(), 0).join_comparisons;
        let c2 = stats(&f, JoinPlan::sj2(), 0).join_comparisons;
        let gain = c1 as f64 / c2 as f64;
        assert!(gain > last, "page {page}: gain {gain} after {last}");
        last = gain;
    }
}

/// §4.2, Table 4: the plane sweep beats the nested loop, and with
/// restriction the comparison count barely depends on the page size
/// ("The number of comparisons does not vary considerably in the page
/// size").
#[test]
fn claim_sweep_is_page_size_insensitive() {
    let mut counts = Vec::new();
    for page in [1024usize, 8192] {
        let f = fixture(page);
        let nested = stats(&f, JoinPlan::sj2(), 0).join_comparisons;
        let sweep = stats(&f, JoinPlan::sj3(), 0).join_comparisons;
        assert!(
            sweep < nested,
            "page {page}: sweep {sweep} vs nested {nested}"
        );
        counts.push(sweep as f64);
    }
    // SJ1 grows ~8x from 1K to 8K pages; the sweep join must grow far less.
    assert!(
        counts[1] / counts[0] < 3.0,
        "sweep comparisons should be nearly flat across page sizes: {counts:?}"
    );
}

/// §4.1: with a reasonable buffer SJ1 reads each page about 1.5-3x; §4.3 /
/// Table 6: SJ4 with a large buffer approaches the optimum |R|+|S|.
#[test]
fn claim_sj4_approaches_optimum_with_large_buffer() {
    let f = fixture(1024);
    let optimum = (f.r.stats().total_pages() + f.s.stats().total_pages()) as u64;
    let sj4 = stats(&f, JoinPlan::sj4(), 512 * 1024).io.disk_accesses;
    assert!(
        sj4 <= optimum + optimum / 10,
        "SJ4 with 512-KByte buffer: {sj4} vs optimum {optimum}"
    );
    // And without any buffer it is several times the optimum.
    let cold = stats(&f, JoinPlan::sj1(), 0).io.disk_accesses;
    assert!(
        cold > optimum,
        "cold SJ1 {cold} must exceed optimum {optimum}"
    );
}

/// Table 2 → Figure 2: SJ1's comparisons grow superlinearly in page size,
/// flipping the join from I/O-bound to CPU-bound.
#[test]
fn claim_sj1_becomes_cpu_bound_at_large_pages() {
    let model = CostModel::default();
    let f1 = fixture(1024);
    let f8 = fixture(8192);
    let t1 = stats(&f1, JoinPlan::sj1(), 0).time(&model);
    let t8 = stats(&f8, JoinPlan::sj1(), 0).time(&model);
    assert!(
        t1.io_fraction() > t8.io_fraction(),
        "I/O share must fall with page size: {} -> {}",
        t1.io_fraction(),
        t8.io_fraction()
    );
    assert!(t8.io_fraction() < 0.5, "8-KByte SJ1 must be CPU-bound");
}

/// Figure 8: SJ4 is I/O-bound (the opposite of SJ1) except at large pages.
#[test]
fn claim_sj4_is_io_bound_at_small_pages() {
    let model = CostModel::default();
    let f = fixture(1024);
    let t = stats(&f, JoinPlan::sj4(), 0).time(&model);
    assert!(
        t.io_fraction() > 0.5,
        "1-KByte SJ4 should be I/O-bound, got {}",
        t.io_fraction()
    );
}

/// Figure 9 / §6: the combination of all techniques is better by factors;
/// at 4-KByte pages the paper reports about 5x vs SJ1.
#[test]
fn claim_sj4_beats_sj1_by_factors() {
    let model = CostModel::default();
    let f = fixture(4096);
    let t1 = stats(&f, JoinPlan::sj1(), 128 * 1024).time(&model).total();
    let t4 = stats(&f, JoinPlan::sj4(), 128 * 1024).time(&model).total();
    let factor = t1 / t4;
    assert!(factor > 2.0, "SJ4 must win by factors, got {factor:.2}");
}

/// Table 5: pinning (SJ4) improves on the plain sweep schedule (SJ3) for
/// small buffers; the z-order schedule (SJ5) is comparable to SJ4.
#[test]
fn claim_schedules_ranking_small_buffer() {
    let f = fixture(4096);
    let s3 = stats(&f, JoinPlan::sj3(), 0).io.disk_accesses;
    let s4 = stats(&f, JoinPlan::sj4(), 0).io.disk_accesses;
    let s5 = stats(&f, JoinPlan::sj5(), 0).io.disk_accesses;
    assert!(
        s4 <= s3,
        "pinning must help at buffer 0: SJ4 {s4} vs SJ3 {s3}"
    );
    let ratio = s5 as f64 / s4 as f64;
    assert!(
        (0.8..1.2).contains(&ratio),
        "SJ5 should be close to SJ4: {s5} vs {s4}"
    );
}

/// §4.4 / Table 7: policy (b) dominates policy (a) for small buffers when
/// tree heights differ.
#[test]
fn claim_batched_windows_beat_per_pair() {
    let data = rsj::datagen::preset(TestId::C, 0.02);
    let mut r = RTree::new(RTreeParams::for_page_size(2048));
    for o in &data.r {
        r.insert(o.mbr, DataId(o.id));
    }
    let mut s = RTree::new(RTreeParams::for_page_size(2048));
    for o in &data.s {
        s.insert(o.mbr, DataId(o.id));
    }
    assert!(r.height() > s.height());
    let run = |policy| {
        let plan = JoinPlan {
            diff_height: policy,
            ..JoinPlan::sj4()
        };
        spatial_join(
            &r,
            &s,
            plan,
            &JoinConfig {
                buffer_bytes: 0,
                collect_pairs: false,
            },
        )
        .stats
        .io
        .disk_accesses
    };
    let a = run(DiffHeightPolicy::PerPair);
    let b = run(DiffHeightPolicy::Batched);
    assert!(b < a, "batched {b} must beat per-pair {a} without a buffer");
}

/// §4: comparisons are a pure function of the trees and the CPU technique —
/// never of the buffer size (Table 2's single comparison row).
#[test]
fn claim_comparisons_independent_of_buffer() {
    let f = fixture(2048);
    let base = stats(&f, JoinPlan::sj4(), 0);
    for buffer in [8 * 1024, 128 * 1024, 512 * 1024] {
        let s = stats(&f, JoinPlan::sj4(), buffer);
        assert_eq!(s.join_comparisons, base.join_comparisons);
        assert_eq!(s.sort_comparisons, base.sort_comparisons);
        assert_eq!(s.result_pairs, base.result_pairs);
    }
}

/// §4.2's CPU argument — restrict the search space, then sweep — assumes
/// compact nodes, so index quality is a paper measure: on clustered ×
/// uniform data SJ4 over STR-packed trees must not need more comparisons
/// than over Hilbert-packed or R\*-inserted ones. (STR once cut √n slabs
/// instead of √P; its strip-shaped leaves cost 4.6× Hilbert's comparisons
/// here — 6.26 M against 1.37 M, now 1.03 M, R\* 0.79 M — while every
/// result-equality test stayed green.)
#[test]
fn claim_bulk_loaded_trees_join_as_cheaply_as_inserted_ones() {
    use rsj::datagen::synthetic::{clustered_rects, uniform_rects};
    use rsj::rtree::bulk;
    const N: usize = 20_000;
    let items = |objs: Vec<rsj::datagen::SpatialObject>| -> Vec<(Rect, DataId)> {
        objs.iter().map(|o| (o.mbr, DataId(o.id))).collect()
    };
    let r_items = items(clustered_rects(N, 100, 25.0, 8.0, 1));
    let s_items = items(uniform_rects(N, 4.0, 2));
    let params = RTreeParams::for_page_size(4096);
    let inserted = |items: &[(Rect, DataId)]| {
        let mut t = RTree::new(params);
        for &(r, id) in items {
            t.insert(r, id);
        }
        t
    };
    let join = |r: &RTree, s: &RTree| {
        let heights = [r.height() as usize, s.height() as usize];
        let pool = rsj::storage::BufferPool::with_capacity_pages(128, &heights);
        let (res, _) = JoinCursor::new(r, s, JoinPlan::sj4(), pool).into_result(true);
        let mut pairs = res.pairs;
        pairs.sort_unstable();
        (res.stats.total_comparisons(), pairs)
    };
    let (str_cmp, str_pairs) = join(
        &bulk::str_load(params, &r_items, bulk::DEFAULT_FILL).unwrap(),
        &bulk::str_load(params, &s_items, bulk::DEFAULT_FILL).unwrap(),
    );
    let (hilbert_cmp, hilbert_pairs) = join(
        &bulk::hilbert_load(params, &r_items, bulk::DEFAULT_FILL).unwrap(),
        &bulk::hilbert_load(params, &s_items, bulk::DEFAULT_FILL).unwrap(),
    );
    let (rstar_cmp, rstar_pairs) = join(&inserted(&r_items), &inserted(&s_items));
    assert!(!str_pairs.is_empty());
    assert!(str_pairs == hilbert_pairs && str_pairs == rstar_pairs);
    assert!(
        str_cmp as f64 <= 1.1 * hilbert_cmp as f64,
        "STR {str_cmp} vs Hilbert {hilbert_cmp} comparisons"
    );
    assert!(
        str_cmp as f64 <= 1.5 * rstar_cmp as f64,
        "STR {str_cmp} vs R*-inserted {rstar_cmp} comparisons"
    );
}
