//! Spatial sorting and the plane-sweep pair enumeration.
//!
//! §4.2 "Spatial sorting and plane sweep": both entry sequences are sorted
//! by the lower x-coordinate of their rectangles; a sweep-line then moves
//! over the union of both sequences. For the rectangle `t` with the lowest
//! `xl` value, the *other* sequence is scanned forward from its first
//! unprocessed rectangle until one starts beyond `t.xu`; every scanned
//! rectangle that also overlaps in y forms a result pair. The algorithm
//! needs no auxiliary data structure and runs in O(n + m + k_x) where k_x
//! counts x-interval intersections — the paper argues this beats the
//! asymptotically optimal computational-geometry solutions for node-sized
//! inputs ("their overhead is too high for a rather small problem size").
//!
//! Crucially, the pairs are produced in **sweep order**, which doubles as
//! the SJ3/SJ4 read schedule (§4.3 "Local plane-sweep order").
//!
//! Of Table 4's two sorting regimes — sort at every node-pair visit, or
//! keep the nodes sorted in the tree — the trees run the second: every
//! writer in `rsj_rtree` keeps a leaf's entries ordered by `xl`
//! (`rsj_rtree::node`, "Entry order"), and restriction is an
//! order-preserving filter. The sorts here exploit that and never assume
//! it: they run on every sequence, cost the n − 1 comparisons of a stable
//! sort that finds one ascending run when the order is there, and skip
//! only the data movement that would move nothing. An unordered sequence
//! (a directory node after updates, a tree some other writer built) is
//! merely slower.

use rsj_geom::{Meter, Rect};

/// Sorts `index` (indices into `rects`) ascending by `xl`, charging the
/// comparator invocations to `cmp` — sorting cost is accounted separately
/// from join cost in the paper's Table 4.
///
/// The counting path uses a stable sort so the tie order (and hence the
/// downstream read schedule) is deterministic and bit-identical to the
/// reference recursion. A non-counting meter takes the faster unstable
/// sort: the pair *multiset* is unaffected, only the order among equal
/// `xl` keys may differ.
pub fn sort_indices_by_xl<M: Meter>(rects: &[Rect], index: &mut [usize], cmp: &mut M) {
    index.sort_by(|&a, &b| {
        cmp.bump();
        rects[a]
            .xl
            .partial_cmp(&rects[b].xl)
            .expect("rect coordinates must not be NaN")
    });
}

/// The `SortedIntersectionTest` of §4.2.
///
/// `rseq` and `sseq` are indices into `rrects`/`srects`, each sorted
/// ascending by `xl`. Appends every intersecting pair `(r_index, s_index)`
/// to `out` in sweep order. Comparisons (sweep-line selection, forward-scan
/// bound checks, y-tests) are charged to `cmp`.
pub fn sorted_intersection_test<M: Meter>(
    rrects: &[Rect],
    rseq: &[usize],
    srects: &[Rect],
    sseq: &[usize],
    cmp: &mut M,
    out: &mut Vec<(usize, usize)>,
) {
    debug_assert!(is_sorted_by_xl(rrects, rseq), "rseq must be sorted by xl");
    debug_assert!(is_sorted_by_xl(srects, sseq), "sseq must be sorted by xl");
    let (mut i, mut j) = (0usize, 0usize);
    while i < rseq.len() && j < sseq.len() {
        let r = &rrects[rseq[i]];
        let s = &srects[sseq[j]];
        if cmp.lt(r.xl, s.xl) {
            // t = r_i: scan S forward from j.
            internal_loop::<false, M>(r, rseq[i], srects, sseq, j, cmp, out);
            i += 1;
        } else {
            // t = s_j: scan R forward from i.
            internal_loop::<true, M>(s, sseq[j], rrects, rseq, i, cmp, out);
            j += 1;
        }
    }
}

/// The `InternalLoop` of the paper: scans `seq` from `unmarked` while the
/// x-projections can still intersect `t`, testing y-projections.
///
/// `SWAPPED = false` means `t` is from R and `seq` is S (pairs are
/// `(t, seq[k])`); `SWAPPED = true` means the converse.
fn internal_loop<const SWAPPED: bool, M: Meter>(
    t: &Rect,
    t_index: usize,
    rects: &[Rect],
    seq: &[usize],
    unmarked: usize,
    cmp: &mut M,
    out: &mut Vec<(usize, usize)>,
) {
    let mut k = unmarked;
    // Loop condition `seq[k].xl <= t.xu` costs one comparison per
    // evaluation, including the failing one.
    while k < seq.len() && cmp.le(rects[seq[k]].xl, t.xu) {
        let other = &rects[seq[k]];
        // Y-intersection: (t.yl <= other.yu) && (t.yu >= other.yl), with
        // short-circuit — at most two comparisons.
        if cmp.le(t.yl, other.yu) && cmp.le(other.yl, t.yu) {
            if SWAPPED {
                out.push((seq[k], t_index));
            } else {
                out.push((t_index, seq[k]));
            }
        }
        k += 1;
    }
}

fn is_sorted_by_xl(rects: &[Rect], seq: &[usize]) -> bool {
    seq.windows(2).all(|w| rects[w[0]].xl <= rects[w[1]].xl)
}

// ---------------------------------------------------------------------------
// Keyed kernel: the executor's cache-friendly variant.
//
// The streaming executor stores each (possibly ε-expanded) entry rectangle
// next to its original entry index and sweeps over the contiguous array,
// instead of sorting an index list and chasing `rects[seq[k]]` double
// indirection. The counting path performs the exact same floating-point
// comparisons in the exact same order as the index-based kernel above
// (same stable sort, same sweep advancement), so the paper's accounting is
// unchanged; the non-counting path additionally swaps the short-circuit
// y-test for a branchless one and the stable sort for an unstable one —
// representation freedoms a meter that must count short-circuits exactly
// does not have.
// ---------------------------------------------------------------------------

/// A rectangle tagged with the index of the entry it came from.
pub type KeyedRect = (Rect, u32);

/// Sorts a keyed vector ascending by `xl`, charging comparator invocations
/// to `cmp`.
///
/// The counting path must report *exactly* the comparison count of the
/// recursion's index-list sort — and the standard library's stable sort
/// picks its strategy based on element size, so sorting the 40-byte keyed
/// elements directly would charge a (slightly) different count. It
/// therefore sorts a `usize` permutation exactly like
/// [`sort_indices_by_xl`] does (same element type, same stable algorithm,
/// same key sequence ⇒ same count) and then applies the permutation with
/// uncounted moves through `tmp`. The non-counting path sorts the keyed
/// elements in place with the faster unstable sort; tie order is free
/// there (the pair multiset is unaffected).
pub fn sort_keyed_by_xl<M: Meter>(
    keyed: &mut Vec<KeyedRect>,
    perm: &mut Vec<usize>,
    packed: &mut Vec<u128>,
    tmp: &mut Vec<KeyedRect>,
    cmp: &mut M,
) {
    if M::COUNTING {
        perm.clear();
        perm.extend(0..keyed.len());
        perm.sort_by(|&a, &b| {
            cmp.bump();
            keyed[a]
                .0
                .xl
                .partial_cmp(&keyed[b].0.xl)
                .expect("rect coordinates must not be NaN")
        });
        // The sort moved nothing (the sequence came ordered, as a restricted
        // leaf of an ordered tree does): skip the gather.
        if perm.iter().enumerate().all(|(i, &k)| i == k) {
            return;
        }
        tmp.clear();
        tmp.extend(perm.iter().map(|&k| keyed[k]));
        std::mem::swap(keyed, tmp);
    } else {
        // Already ordered: nothing to pack, sort or gather.
        if keyed.windows(2).all(|w| w[0].0.xl <= w[1].0.xl) {
            return;
        }
        // Pack (order-preserving xl bits, position) into one u128 and sort
        // those: trivially branchless comparisons on 16-byte elements
        // instead of comparator calls shuffling 40-byte rects, then one
        // gather pass. Position in the low bits keeps the sort stable for
        // free (distinct positions break all ties).
        packed.clear();
        packed.extend(
            keyed
                .iter()
                .enumerate()
                .map(|(p, k)| (u128::from(f64_order_bits(k.0.xl)) << 32) | p as u128),
        );
        packed.sort_unstable();
        tmp.clear();
        tmp.extend(packed.iter().map(|&v| keyed[(v & 0xffff_ffff) as usize]));
        std::mem::swap(keyed, tmp);
    }
}

/// Maps a non-NaN `f64` to a `u64` whose unsigned order equals the float's
/// total order: flip all bits of negatives, set the sign bit of
/// non-negatives.
#[inline(always)]
fn f64_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The `SortedIntersectionTest` of §4.2 over keyed slices sorted by `xl`.
/// Appends every intersecting `(r entry index, s entry index)` pair to
/// `out` in sweep order.
pub fn sorted_intersection_test_keyed<M: Meter>(
    rseq: &[KeyedRect],
    sseq: &[KeyedRect],
    cmp: &mut M,
    out: &mut Vec<(usize, usize)>,
) {
    debug_assert!(rseq.windows(2).all(|w| w[0].0.xl <= w[1].0.xl));
    debug_assert!(sseq.windows(2).all(|w| w[0].0.xl <= w[1].0.xl));
    let (mut i, mut j) = (0usize, 0usize);
    while i < rseq.len() && j < sseq.len() {
        let r = &rseq[i].0;
        let s = &sseq[j].0;
        if cmp.lt(r.xl, s.xl) {
            internal_loop_keyed::<false, M>(r, rseq[i].1, sseq, j, cmp, out);
            i += 1;
        } else {
            internal_loop_keyed::<true, M>(s, sseq[j].1, rseq, i, cmp, out);
            j += 1;
        }
    }
}

/// The `InternalLoop` over a keyed sequence: scans `seq` from `unmarked`
/// while the x-projections can still intersect `t`, testing y-projections.
#[inline]
fn internal_loop_keyed<const SWAPPED: bool, M: Meter>(
    t: &Rect,
    t_index: u32,
    seq: &[KeyedRect],
    unmarked: usize,
    cmp: &mut M,
    out: &mut Vec<(usize, usize)>,
) {
    if M::COUNTING {
        // Short-circuit evaluation with one charge per comparison — the
        // paper's accounting, identical to the index-based kernel.
        let mut k = unmarked;
        while k < seq.len() && cmp.le(seq[k].0.xl, t.xu) {
            let other = &seq[k].0;
            if cmp.le(t.yl, other.yu) && cmp.le(other.yl, t.yu) {
                push_pair::<SWAPPED>(t_index, seq[k].1, out);
            }
            k += 1;
        }
    } else {
        // Branchless y-test: on node-sized inputs the y outcome is close
        // to a coin flip, so trading the two short-circuit branches for
        // straight-line comparisons sidesteps the mispredictions.
        for item in &seq[unmarked..] {
            let other = &item.0;
            if other.xl > t.xu {
                break;
            }
            if (t.yl <= other.yu) & (other.yl <= t.yu) {
                push_pair::<SWAPPED>(t_index, item.1, out);
            }
        }
    }
}

#[inline(always)]
fn push_pair<const SWAPPED: bool>(t_index: u32, other: u32, out: &mut Vec<(usize, usize)>) {
    if SWAPPED {
        out.push((other as usize, t_index as usize));
    } else {
        out.push((t_index as usize, other as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_geom::{CmpCounter, NoOp};

    fn rects(spec: &[(f64, f64, f64, f64)]) -> Vec<Rect> {
        spec.iter()
            .map(|&(a, b, c, d)| Rect::from_corners(a, b, c, d))
            .collect()
    }

    fn run_sweep(r: &[Rect], s: &[Rect]) -> (Vec<(usize, usize)>, u64) {
        let mut cmp = CmpCounter::new();
        let mut ri: Vec<usize> = (0..r.len()).collect();
        let mut si: Vec<usize> = (0..s.len()).collect();
        let mut sort_cmp = CmpCounter::new();
        sort_indices_by_xl(r, &mut ri, &mut sort_cmp);
        sort_indices_by_xl(s, &mut si, &mut sort_cmp);
        let mut out = Vec::new();
        sorted_intersection_test(r, &ri, s, &si, &mut cmp, &mut out);
        (out, cmp.get())
    }

    fn quadratic(r: &[Rect], s: &[Rect]) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for (i, a) in r.iter().enumerate() {
            for (j, b) in s.iter().enumerate() {
                if a.intersects(b) {
                    v.push((i, j));
                }
            }
        }
        v.sort_unstable();
        v
    }

    #[test]
    fn paper_figure_5_example() {
        // Figure 5: the sweep stops at r1, s1, r2, s2, r3 and tests
        // r1↔s1, s1↔r2, r2↔s2, r2↔s3, (s2: none), r3↔s3.
        let r = rects(&[
            (0.0, 2.0, 2.5, 4.0),
            (2.0, 0.5, 5.0, 2.5),
            (6.0, 2.0, 8.0, 4.0),
        ]);
        let s = rects(&[
            (1.0, 0.0, 3.0, 1.5),
            (4.0, 1.0, 6.5, 3.0),
            (6.0, 0.0, 8.5, 1.5),
        ]);
        let (pairs, _) = run_sweep(&r, &s);
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, quadratic(&r, &s));
    }

    #[test]
    fn sweep_order_is_by_x() {
        // Pairs must come out ordered by the sweep position, not by input
        // index: build reversed input.
        let r = rects(&[(10.0, 0.0, 11.0, 1.0), (0.0, 0.0, 1.0, 1.0)]);
        let s = rects(&[(10.5, 0.0, 11.5, 1.0), (0.5, 0.0, 1.5, 1.0)]);
        let (pairs, _) = run_sweep(&r, &s);
        assert_eq!(pairs, vec![(1, 1), (0, 0)], "left pair first");
    }

    #[test]
    fn disjoint_inputs_cost_linear_comparisons() {
        // n + m rectangles in two interleaved but y-disjoint rows still pay
        // the x-scans; just check no pairs and bounded comparisons.
        let r: Vec<Rect> = (0..50)
            .map(|i| Rect::from_corners(i as f64, 0.0, i as f64 + 0.4, 1.0))
            .collect();
        let s: Vec<Rect> = (0..50)
            .map(|i| Rect::from_corners(i as f64 + 0.2, 5.0, i as f64 + 0.6, 6.0))
            .collect();
        let (pairs, cmps) = run_sweep(&r, &s);
        assert!(pairs.is_empty());
        assert!(cmps < 1000, "sweep should be near-linear, used {cmps}");
    }

    #[test]
    fn empty_sequences() {
        let r = rects(&[(0., 0., 1., 1.)]);
        let (pairs, _) = run_sweep(&r, &[]);
        assert!(pairs.is_empty());
        let (pairs, _) = run_sweep(&[], &r);
        assert!(pairs.is_empty());
    }

    #[test]
    fn identical_xl_values_are_handled() {
        let r = rects(&[(0., 0., 1., 1.), (0., 2., 1., 3.)]);
        let s = rects(&[(0., 0., 1., 5.), (0., 4., 1., 6.)]);
        let (pairs, _) = run_sweep(&r, &s);
        let mut sorted = pairs;
        sorted.sort_unstable();
        assert_eq!(sorted, quadratic(&r, &s));
    }

    #[test]
    fn duplicate_rectangles() {
        let r = rects(&[(0., 0., 2., 2.), (0., 0., 2., 2.)]);
        let s = rects(&[(1., 1., 3., 3.), (1., 1., 3., 3.)]);
        let (pairs, _) = run_sweep(&r, &s);
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn touching_rectangles_count() {
        let r = rects(&[(0., 0., 1., 1.)]);
        let s = rects(&[(1., 1., 2., 2.)]); // corner touch
        let (pairs, _) = run_sweep(&r, &s);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn noop_meter_sweep_finds_the_same_pair_multiset() {
        let r = rects(&[
            (0.0, 2.0, 2.5, 4.0),
            (2.0, 0.5, 5.0, 2.5),
            (6.0, 2.0, 8.0, 4.0),
        ]);
        let s = rects(&[
            (1.0, 0.0, 3.0, 1.5),
            (4.0, 1.0, 6.5, 3.0),
            (6.0, 0.0, 8.5, 1.5),
        ]);
        let mut ri: Vec<usize> = (0..r.len()).collect();
        let mut si: Vec<usize> = (0..s.len()).collect();
        sort_indices_by_xl(&r, &mut ri, &mut NoOp);
        sort_indices_by_xl(&s, &mut si, &mut NoOp);
        let mut out = Vec::new();
        sorted_intersection_test(&r, &ri, &s, &si, &mut NoOp, &mut out);
        out.sort_unstable();
        assert_eq!(out, quadratic(&r, &s));
    }

    #[test]
    fn sort_indices_counts_comparisons() {
        let r = rects(&[(3., 0., 4., 1.), (1., 0., 2., 1.), (2., 0., 3., 1.)]);
        let mut idx = vec![0, 1, 2];
        let mut cmp = CmpCounter::new();
        sort_indices_by_xl(&r, &mut idx, &mut cmp);
        assert_eq!(idx, vec![1, 2, 0]);
        assert!(cmp.get() >= 2);
    }
}
