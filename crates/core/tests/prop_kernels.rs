//! The keyed leaf kernels against the literal ones.
//!
//! `sort_indices_by_xl`, `sorted_intersection_test` and
//! `Rect::intersects_counted` *define* what a join is charged: they run the
//! paper's short-circuit predicates and bump the meter once per comparison.
//! The keyed kernels the cursor runs compare unconditionally and add the
//! charge arithmetically, so on every node-sized input they must produce
//! the same pairs in the same order with the same `CmpCounter` tallies
//! (restriction + sweep on the join meter, sorting on its own), and the
//! same sequence again under `NoOp`.

use proptest::prelude::*;
use rsj_core::sweep::{
    restrict_keyed, sort_indices_by_xl, sort_keyed_by_xl, sorted_intersection_test,
    sorted_intersection_test_keyed, KeyedRect,
};
use rsj_geom::{CmpCounter, Meter, NoOp, Rect};
use rsj_rtree::{DataId, Entry};

/// What one enumeration yields: the `(index into a, index into b)` pairs in
/// sweep order, the join tally and the sort tally.
type Enumeration = (Vec<(usize, usize)>, u64, u64);

/// One side of a node pair: its entries and the ε their rectangles carry.
type Side<'a> = (&'a [Entry], f64);

fn entries(rects: &[Rect]) -> Vec<Entry> {
    rects
        .iter()
        .enumerate()
        .map(|(i, &r)| Entry::data(r, DataId(i as u64)))
        .collect()
}

fn eff_rects((entries, eps): Side) -> Vec<Rect> {
    entries
        .iter()
        .map(|e| {
            if eps > 0.0 {
                e.rect.expanded(eps)
            } else {
                e.rect
            }
        })
        .collect()
}

/// The definition: the recursive oracle's plane-sweep enumeration, written
/// out over the literal kernels.
fn literal(a: Side, b: Side, space: Option<&Rect>) -> Enumeration {
    let (mut cmp, mut sort_cmp) = (CmpCounter::new(), CmpCounter::new());
    let (ar, br) = (eff_rects(a), eff_rects(b));
    let mut restrict = |rects: &[Rect]| -> Vec<usize> {
        (0..rects.len())
            .filter(|&i| space.is_none_or(|s| rects[i].intersects_counted(s, &mut cmp)))
            .collect()
    };
    let (mut ai, mut bi) = (restrict(&ar), restrict(&br));
    sort_indices_by_xl(&ar, &mut ai, &mut sort_cmp);
    sort_indices_by_xl(&br, &mut bi, &mut sort_cmp);
    let mut out = Vec::new();
    sorted_intersection_test(&ar, &ai, &br, &bi, &mut cmp, &mut out);
    (out, cmp.get(), sort_cmp.get())
}

/// The same enumeration the way the cursor chains the keyed kernels.
fn keyed<M: Meter>(a: Side, b: Side, space: Option<&Rect>) -> Enumeration {
    let (mut cmp, mut sort_cmp) = (M::default(), M::default());
    let (mut ak, mut bk) = (Vec::new(), Vec::new());
    let (mut perm, mut packed, mut tmp) = (Vec::new(), Vec::new(), Vec::new());
    restrict_keyed(a.0, a.1, space, &mut cmp, &mut ak);
    restrict_keyed(b.0, b.1, space, &mut cmp, &mut bk);
    sort_keyed_by_xl(&mut ak, &mut perm, &mut packed, &mut tmp, &mut sort_cmp);
    sort_keyed_by_xl(&mut bk, &mut perm, &mut packed, &mut tmp, &mut sort_cmp);
    // Something a caller left behind: the sweep appends.
    let mut out = vec![(usize::MAX, usize::MAX)];
    sorted_intersection_test_keyed(&ak, &bk, &mut cmp, &mut out);
    assert_eq!(out.remove(0), (usize::MAX, usize::MAX));
    (out, cmp.get(), sort_cmp.get())
}

fn check(a: Side, b: Side, space: Option<&Rect>) {
    let want = literal(a, b, space);
    let counted = keyed::<CmpCounter>(a, b, space);
    assert_eq!(counted.0, want.0, "pairs, in order");
    assert_eq!(counted.1, want.1, "join tally");
    assert_eq!(counted.2, want.2, "sort tally");
    let raw = keyed::<NoOp>(a, b, space);
    assert_eq!(raw.0, want.0, "raw pairs, in order");
    assert_eq!((raw.1, raw.2), (0, 0));
}

/// Rectangles on a coarse integer lattice around the origin: `xl` ties
/// (across −0.0 and +0.0 too), rectangles that touch along an edge or at a
/// corner, zero extents — and dense enough that one scan passes every
/// rectangle of the other side, runs off its end, and finds more hits than
/// one compaction chunk holds.
fn lattice_rect() -> impl Strategy<Value = Rect> {
    (-4i32..9, -4i32..9, 0i32..7, 0i32..7, any::<bool>()).prop_map(|(x, y, w, h, negative)| {
        let xl = if x == 0 && negative {
            -0.0
        } else {
            f64::from(x)
        };
        Rect::from_corners(xl, f64::from(y), f64::from(x + w), f64::from(y + h))
    })
}

/// Small rectangles spread along x: short scans that end on a failing
/// x-test, few hits.
fn sparse_rect() -> impl Strategy<Value = Rect> {
    (0.0..400.0f64, 0.0..30.0f64, 0.0..12.0f64, 0.0..12.0f64)
        .prop_map(|(x, y, w, h)| Rect::from_corners(x, y, x + w, y + h))
}

/// A node's worth of rectangles (an empty node included), in the order
/// generated or, like a leaf of an ordered tree, ascending by `xl`.
fn node() -> impl Strategy<Value = Vec<Rect>> {
    let rects = prop_oneof![
        prop::collection::vec(lattice_rect(), 0..110),
        prop::collection::vec(sparse_rect(), 0..110),
    ];
    (rects, any::<bool>()).prop_map(|(mut rects, ordered)| {
        if ordered {
            rects.sort_by(|p, q| p.xl.partial_cmp(&q.xl).expect("no NaN"));
        }
        rects
    })
}

/// A search space, or none (an unrestricted plan).
fn space() -> impl Strategy<Value = Option<Rect>> {
    prop_oneof![
        Just(None),
        lattice_rect().prop_map(Some),
        (0.0..300.0f64, 0.0..20.0f64, 0.0..200.0f64, 0.0..20.0f64)
            .prop_map(|(x, y, w, h)| Some(Rect::from_corners(x, y, x + w, y + h))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn keyed_kernels_equal_the_literal_ones(
        a in node(),
        b in node(),
        space in space(),
        eps in prop_oneof![Just(0.0), Just(1.0), 0.0..3.0f64],
    ) {
        let (a, b) = (entries(&a), entries(&b));
        // ε rides on the first side, as in a distance join.
        check((&a, eps), (&b, 0.0), space.as_ref());
    }
}

fn unit_squares(xls: impl IntoIterator<Item = f64>) -> Vec<Rect> {
    xls.into_iter()
        .map(|x| Rect::from_corners(x, 0.0, x + 1.0, 1.0))
        .collect()
}

/// The verify-first shortcut of `sort_keyed_by_xl` charges a non-descending
/// sequence `len − 1` without sorting it. That is right only as long as the
/// standard library's stable sort spends exactly that on such a sequence
/// (insertion sort below its small-sort threshold, run detection above) —
/// if a toolchain changes that, it should fail here and say so, not as a
/// parity mismatch deep inside a join.
#[test]
fn an_ordered_sequence_is_charged_what_the_index_sort_charges() {
    for len in 0..=300usize {
        let ascending = unit_squares((0..len).map(|i| i as f64));
        let with_ties = unit_squares((0..len).map(|i| (i / 3) as f64));
        let all_equal = unit_squares((0..len).map(|_| 7.0));
        for rects in [ascending, with_ties, all_equal] {
            let mut index: Vec<usize> = (0..len).collect();
            let mut want = CmpCounter::new();
            sort_indices_by_xl(&rects, &mut index, &mut want);
            assert!(
                index.iter().copied().eq(0..len),
                "a stable sort moves nothing"
            );
            assert_eq!(
                want.get(),
                len.saturating_sub(1) as u64,
                "the index sort no longer spends len − 1 comparisons on a non-descending \
                 sequence of {len}: sort_keyed_by_xl's verify-first charge is wrong"
            );

            let mut keyed: Vec<KeyedRect> = rects.iter().map(|&r| (r, 0)).collect();
            let before = keyed.clone();
            let mut got = CmpCounter::new();
            let (mut perm, mut packed, mut tmp) = (Vec::new(), Vec::new(), Vec::new());
            sort_keyed_by_xl(&mut keyed, &mut perm, &mut packed, &mut tmp, &mut got);
            assert_eq!(got.get(), want.get(), "length {len}");
            assert_eq!(keyed, before);
        }
    }
}

/// −0.0 and +0.0 compare equal, so a sort must leave them in position
/// order under either meter — the packed-key sort used to put −0.0 first.
#[test]
fn signed_zero_ties_sort_alike_under_both_meters() {
    let rects = unit_squares([3.0, 0.0, -0.0, 0.0, -1.0, -0.0]);
    let sorted = |counting: bool| -> Vec<u32> {
        let mut keyed: Vec<KeyedRect> = (0u32..).zip(&rects).map(|(i, &r)| (r, i)).collect();
        let (mut perm, mut packed, mut tmp) = (Vec::new(), Vec::new(), Vec::new());
        if counting {
            let cmp = &mut CmpCounter::new();
            sort_keyed_by_xl(&mut keyed, &mut perm, &mut packed, &mut tmp, cmp);
        } else {
            sort_keyed_by_xl(&mut keyed, &mut perm, &mut packed, &mut tmp, &mut NoOp);
        }
        keyed.iter().map(|k| k.1).collect()
    };
    assert_eq!(sorted(true), [4, 1, 2, 3, 5, 0]);
    assert_eq!(sorted(false), sorted(true));
}

/// One scan that finds several chunks' worth of hits and runs off the end
/// of the other sequence (no failing x-test to charge), next to one whose
/// every scan stops at its first candidate.
#[test]
fn long_and_short_scans_are_charged_exactly() {
    let wide = entries(&[Rect::from_corners(0.0, 0.0, 200.0, 1.0)]);
    let many = entries(&unit_squares((0..100).map(|i| 1.0 + i as f64)));
    check((&wide, 0.0), (&many, 0.0), None);
    check((&many, 0.0), (&wide, 0.0), None);
    let (pairs, join, _) = keyed::<CmpCounter>((&wide, 0.0), (&many, 0.0), None);
    assert_eq!(pairs.len(), 100);
    // One merge step, 100 passing x-tests and none failing, 2 y-tests each.
    assert_eq!(join, 1 + 100 + 200);

    let evens = entries(&unit_squares((0..50).map(|i| 4.0 * i as f64)));
    let odds = entries(&unit_squares((0..50).map(|i| 4.0 * i as f64 + 2.0)));
    check((&evens, 0.0), (&odds, 0.0), None);
    check((&evens, 0.5), (&odds, 0.0), None);
}
