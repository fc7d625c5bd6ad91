//! Property tests: the R-tree must keep its invariants and answer queries
//! identically to a naive scan under arbitrary workloads and policies.

use proptest::prelude::*;
use rsj_geom::Rect;
use rsj_rtree::{DataId, InsertPolicy, RTree, RTreeParams};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0..1000.0f64, 0.0..1000.0f64, 0.0..30.0f64, 0.0..30.0f64)
        .prop_map(|(x, y, w, h)| Rect::from_corners(x, y, x + w, y + h))
}

fn arb_policy() -> impl Strategy<Value = InsertPolicy> {
    prop_oneof![
        Just(InsertPolicy::RStar),
        Just(InsertPolicy::GuttmanQuadratic),
        Just(InsertPolicy::GuttmanLinear),
    ]
}

fn assert_leaves_ordered(t: &RTree, policy: InsertPolicy, step: usize) {
    t.for_each_node(|page, node| {
        if node.is_leaf() {
            let xl: Vec<f64> = node.entries.iter().map(|e| e.rect.xl).collect();
            assert!(
                xl.windows(2).all(|w| w[0] <= w[1]),
                "{policy:?}, step {step}: leaf {page} is not ordered by xl: {xl:?}"
            );
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inserts_preserve_invariants_and_queries(
        rects in prop::collection::vec(arb_rect(), 1..250),
        window in arb_rect(),
        policy in arb_policy(),
    ) {
        let mut t = RTree::new(RTreeParams::explicit(200, 10, 4, policy));
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, DataId(i as u64));
        }
        t.validate().unwrap();
        prop_assert_eq!(t.len(), rects.len());

        let mut got = t.window_query(&window);
        got.sort();
        let mut want: Vec<DataId> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&window))
            .map(|(i, _)| DataId(i as u64))
            .collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn mixed_workload_preserves_content(
        rects in prop::collection::vec(arb_rect(), 1..150),
        deletions in prop::collection::vec(any::<prop::sample::Index>(), 0..60),
        policy in arb_policy(),
    ) {
        let mut t = RTree::new(RTreeParams::explicit(200, 10, 4, policy));
        let mut live: std::collections::BTreeMap<u64, Rect> = Default::default();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, DataId(i as u64));
            live.insert(i as u64, *r);
        }
        for idx in deletions {
            if live.is_empty() {
                break;
            }
            let keys: Vec<u64> = live.keys().copied().collect();
            let key = keys[idx.index(keys.len())];
            let rect = live.remove(&key).unwrap();
            prop_assert!(t.delete(&rect, DataId(key)));
        }
        t.validate().unwrap();
        prop_assert_eq!(t.len(), live.len());
        let mut stored: Vec<(u64, Rect)> =
            t.data_entries().into_iter().map(|(r, d)| (d.0, r)).collect();
        stored.sort_by_key(|&(id, _)| id);
        let expect: Vec<(u64, Rect)> = live.into_iter().collect();
        prop_assert_eq!(stored, expect);
    }

    /// Every leaf stays ordered by `xl` through interleaved inserts and
    /// deletes under each policy: M = 10 over up to 400 steps forces
    /// reinsertion, both split families, CondenseTree orphans and (the
    /// script ends by deleting everything) root shrink. The order is read
    /// off the nodes, not through `validate`, after every step.
    #[test]
    fn leaves_stay_ordered_by_xl_under_updates(
        script in prop::collection::vec((arb_rect(), any::<prop::sample::Index>(), 0..3u8), 1..400),
    ) {
        for policy in [
            InsertPolicy::RStar,
            InsertPolicy::GuttmanQuadratic,
            InsertPolicy::GuttmanLinear,
        ] {
            let mut t = RTree::new(RTreeParams::explicit(200, 10, 4, policy));
            let mut live: Vec<(Rect, DataId)> = Vec::new();
            for (step, (rect, pick, op)) in script.iter().enumerate() {
                // Two inserts to one delete, so the tree grows before it drains.
                if *op == 0 && !live.is_empty() {
                    let (rect, id) = live.swap_remove(pick.index(live.len()));
                    prop_assert!(t.delete(&rect, id));
                } else {
                    let id = DataId(step as u64);
                    t.insert(*rect, id);
                    live.push((*rect, id));
                }
                assert_leaves_ordered(&t, policy, step);
            }
            for (step, (rect, id)) in live.into_iter().enumerate() {
                prop_assert!(t.delete(&rect, id));
                assert_leaves_ordered(&t, policy, script.len() + step);
            }
            prop_assert_eq!(t.height(), 1);
            t.validate().unwrap();
        }
    }

    #[test]
    fn bulk_loads_agree_with_dynamic_tree(
        rects in prop::collection::vec(arb_rect(), 1..300),
        window in arb_rect(),
    ) {
        let params = RTreeParams::explicit(200, 10, 4, InsertPolicy::RStar);
        let items: Vec<(Rect, DataId)> =
            rects.iter().enumerate().map(|(i, &r)| (r, DataId(i as u64))).collect();
        let s = rsj_rtree::bulk::str_load(params, &items, 0.7).unwrap();
        let h = rsj_rtree::bulk::hilbert_load(params, &items, 0.7).unwrap();
        s.validate().unwrap();
        h.validate().unwrap();
        let mut a = s.window_query(&window);
        let mut b = h.window_query(&window);
        a.sort();
        b.sort();
        prop_assert_eq!(&a, &b);
        let mut dynamic = {
            let mut t = RTree::new(params);
            for &(r, id) in &items {
                t.insert(r, id);
            }
            t.window_query(&window)
        };
        dynamic.sort();
        prop_assert_eq!(a, dynamic);
    }

    #[test]
    fn count_in_window_matches_query(
        rects in prop::collection::vec(arb_rect(), 1..200),
        window in arb_rect(),
    ) {
        let mut t = RTree::new(RTreeParams::explicit(200, 10, 4, InsertPolicy::RStar));
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, DataId(i as u64));
        }
        prop_assert_eq!(t.count_in_window(&window), t.window_query(&window).len());
    }
}
