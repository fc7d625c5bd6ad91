//! Property tests: the R-tree must keep its invariants and answer queries
//! identically to a naive scan under arbitrary workloads and policies.

use proptest::prelude::*;
use rsj_geom::Rect;
use rsj_rtree::bulk::{self, BulkConfig, BulkError, BulkLayout};
use rsj_rtree::{DataId, InsertPolicy, RTree, RTreeParams};
use rsj_storage::TempDir;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0..1000.0f64, 0.0..1000.0f64, 0.0..30.0f64, 0.0..30.0f64)
        .prop_map(|(x, y, w, h)| Rect::from_corners(x, y, x + w, y + h))
}

/// A rect that no writer may store: a NaN or ±∞ in one coordinate, or
/// inverted corners on one axis.
fn arb_malformed_rect() -> impl Strategy<Value = Rect> {
    let non_finite = (
        arb_rect(),
        0usize..4,
        prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    )
        .prop_map(|(r, k, v)| {
            let mut c = [r.xl, r.yl, r.xu, r.yu];
            c[k] = v;
            Rect {
                xl: c[0],
                yl: c[1],
                xu: c[2],
                yu: c[3],
            }
        });
    let inverted = (arb_rect(), 0usize..2).prop_map(|(r, axis)| match axis {
        0 => Rect {
            xl: r.xu + 1.0,
            xu: r.xl,
            ..r
        },
        _ => Rect {
            yl: r.yu + 1.0,
            yu: r.yl,
            ..r
        },
    });
    prop_oneof![non_finite, inverted]
}

/// Well-formed rects with up to two malformed ones planted at drawn
/// positions (a third of the vectors stay clean).
fn arb_rects_maybe_malformed() -> impl Strategy<Value = Vec<Rect>> {
    (
        prop::collection::vec(arb_rect(), 1..150),
        prop::collection::vec((0usize..1000, arb_malformed_rect()), 0..3),
    )
        .prop_map(|(mut rects, planted)| {
            for (at, bad) in planted {
                rects.insert(at % (rects.len() + 1), bad);
            }
            rects
        })
}

fn by_id(mut entries: Vec<(Rect, DataId)>) -> Vec<(Rect, DataId)> {
    entries.sort_by_key(|&(_, id)| id);
    entries
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
    fn every_writers_output_opens(rects in arb_rects_maybe_malformed()) {
        let params = RTreeParams::explicit(200, 10, 4, InsertPolicy::RStar);
        let items: Vec<(Rect, DataId)> =
            rects.iter().enumerate().map(|(i, &r)| (r, DataId(i as u64))).collect();
        let first_bad = rects.iter().position(|r| !r.is_well_formed());
        let dir = TempDir::new("prop-rtree-writers").unwrap();

        // A bulk build refuses the first malformed rect, or writes a file
        // that opens with the same entries.
        for layout in [BulkLayout::Str, BulkLayout::Hilbert] {
            let path = dir.file(&format!("{layout:?}.rsj"));
            match (bulk::load_to_file(params, &items, layout, BulkConfig::default(), &path), first_bad) {
                (Err(BulkError::MalformedRect { index }), Some(bad)) => prop_assert_eq!(index, bad),
                (Ok(_), None) => {
                    let opened = RTree::open_from(&path)
                        .unwrap_or_else(|e| panic!("{layout:?} file does not open: {e}"));
                    prop_assert_eq!(by_id(opened.data_entries()), items.clone());
                }
                (other, _) => panic!(
                    "{layout:?}: first malformed at {first_bad:?}, load_to_file gave {:?}",
                    other.map(|(_, stats)| stats)
                ),
            }
        }

        // `insert` panics at the first malformed rect and leaves the tree
        // holding exactly the rects before it; the tree round-trips.
        let mut t = RTree::new(params);
        let inserted = catch_unwind(AssertUnwindSafe(|| {
            for &(r, id) in &items {
                t.insert(r, id);
            }
        }));
        prop_assert_eq!(inserted.is_err(), first_bad.is_some());
        let kept = &items[..first_bad.unwrap_or(items.len())];
        t.validate().unwrap();
        prop_assert_eq!(by_id(t.data_entries()), kept.to_vec());
        let path = dir.file("inserted.rsj");
        t.save_to(&path).unwrap();
        let opened = RTree::open_from(&path)
            .unwrap_or_else(|e| panic!("saved tree does not open: {e}"));
        prop_assert_eq!(by_id(opened.data_entries()), kept.to_vec());
    }
}
