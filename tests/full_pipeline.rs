//! End-to-end integration: generated relations → R*-trees → every join
//! algorithm → refinement, validated against brute force.

mod common;

use common::build_tree;
use rsj::prelude::*;

fn brute_force(
    a: &[rsj::datagen::SpatialObject],
    b: &[rsj::datagen::SpatialObject],
) -> Vec<(u64, u64)> {
    let mut v = Vec::new();
    for x in a {
        for y in b {
            if x.mbr.intersects(&y.mbr) {
                v.push((x.id, y.id));
            }
        }
    }
    v.sort_unstable();
    v
}

#[test]
fn all_algorithms_match_brute_force_on_all_presets() {
    for test in [TestId::A, TestId::B, TestId::D, TestId::E] {
        let data = rsj::datagen::preset(test, 0.004);
        let r = build_tree(&data.r, 1024);
        let s = build_tree(&data.s, 1024);
        let want = brute_force(&data.r, &data.s);
        for plan in [
            JoinPlan::sj1(),
            JoinPlan::sj2(),
            JoinPlan::sj3(),
            JoinPlan::sj4(),
            JoinPlan::sj5(),
        ] {
            let res = spatial_join(&r, &s, plan, &JoinConfig::with_buffer(16 * 1024));
            let mut got: Vec<(u64, u64)> = res.pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
            got.sort_unstable();
            assert_eq!(got, want, "{test:?} {}", plan.name());
        }
    }
}

#[test]
fn different_height_presets_match_brute_force() {
    // Test (C): R is ~4.6x larger than S; at 1-KByte pages and small scale
    // the heights differ.
    let data = rsj::datagen::preset(TestId::C, 0.005);
    let r = build_tree(&data.r, 1024);
    let s = build_tree(&data.s, 1024);
    assert!(r.height() > s.height(), "expected differing heights");
    let want = brute_force(&data.r, &data.s);
    for policy in [
        DiffHeightPolicy::PerPair,
        DiffHeightPolicy::Batched,
        DiffHeightPolicy::SweepPinned,
    ] {
        let plan = JoinPlan {
            diff_height: policy,
            ..JoinPlan::sj4()
        };
        let res = spatial_join(&r, &s, plan, &JoinConfig::default());
        let mut got: Vec<(u64, u64)> = res.pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
        got.sort_unstable();
        assert_eq!(got, want, "{policy:?}");
    }
}

#[test]
fn refinement_pipeline_matches_exact_brute_force() {
    let data = rsj::datagen::preset(TestId::A, 0.004);
    let r = build_tree(&data.r, 1024);
    let s = build_tree(&data.s, 1024);
    let robj = ObjectRelation::build(1024, data.r.iter().map(|o| (o.id, o.geometry.clone())));
    let sobj = ObjectRelation::build(1024, data.s.iter().map(|o| (o.id, o.geometry.clone())));
    let res = id_join(
        &r,
        &s,
        &robj,
        &sobj,
        JoinPlan::sj4(),
        &JoinConfig::default(),
    );

    let mut want = Vec::new();
    for x in &data.r {
        for y in &data.s {
            if x.geometry.intersects(&y.geometry) {
                want.push((x.id, y.id));
            }
        }
    }
    want.sort_unstable();
    let mut got = res.pairs.clone();
    got.sort_unstable();
    assert_eq!(got, want);
    // The exact join is a subset of the MBR join.
    assert!(res.pairs.len() as u64 <= res.candidates);
}

#[test]
fn join_is_symmetric_up_to_pair_orientation() {
    let data = rsj::datagen::preset(TestId::A, 0.004);
    let r = build_tree(&data.r, 2048);
    let s = build_tree(&data.s, 2048);
    let rs = spatial_join(&r, &s, JoinPlan::sj4(), &JoinConfig::default());
    let sr = spatial_join(&s, &r, JoinPlan::sj4(), &JoinConfig::default());
    let mut a: Vec<(u64, u64)> = rs.pairs.iter().map(|&(x, y)| (x.0, y.0)).collect();
    let mut b: Vec<(u64, u64)> = sr.pairs.iter().map(|&(x, y)| (y.0, x.0)).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn deletions_keep_join_results_consistent() {
    // Delete a third of R, re-join, and verify against brute force on the
    // survivors: the join must reflect tree mutations.
    let data = rsj::datagen::preset(TestId::A, 0.003);
    let mut r = build_tree(&data.r, 1024);
    let s = build_tree(&data.s, 1024);
    let mut survivors = Vec::new();
    for (k, o) in data.r.iter().enumerate() {
        if k % 3 == 0 {
            assert!(r.delete(&o.mbr, DataId(o.id)), "delete {}", o.id);
        } else {
            survivors.push(o.clone());
        }
    }
    r.validate().unwrap();
    let want = brute_force(&survivors, &data.s);
    let res = spatial_join(&r, &s, JoinPlan::sj4(), &JoinConfig::default());
    let mut got: Vec<(u64, u64)> = res.pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
    got.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn bulk_loaded_trees_join_identically() {
    let data = rsj::datagen::preset(TestId::A, 0.004);
    let items_r: Vec<(Rect, DataId)> = data.r.iter().map(|o| (o.mbr, DataId(o.id))).collect();
    let items_s: Vec<(Rect, DataId)> = data.s.iter().map(|o| (o.mbr, DataId(o.id))).collect();
    let params = RTreeParams::for_page_size(1024);
    let r = rsj::rtree::bulk::str_load(params, &items_r, 0.7).unwrap();
    let s = rsj::rtree::bulk::hilbert_load(params, &items_s, 0.7).unwrap();
    let res = spatial_join(&r, &s, JoinPlan::sj4(), &JoinConfig::default());
    let mut got: Vec<(u64, u64)> = res.pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
    got.sort_unstable();
    assert_eq!(got, brute_force(&data.r, &data.s));
}
