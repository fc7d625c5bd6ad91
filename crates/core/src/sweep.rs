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
use rsj_rtree::Entry;

/// Sorts `index` (indices into `rects`) ascending by `xl`, charging the
/// comparator invocations to `cmp` — sorting cost is accounted separately
/// from join cost in the paper's Table 4.
///
/// A stable sort under either meter, so the tie order (and hence the
/// downstream read schedule) is deterministic; its comparator count is
/// what [`sort_keyed_by_xl`] must charge.
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
// Keyed kernels: what the streaming executor runs.
//
// The executor stores each (possibly ε-expanded) entry rectangle next to
// its original entry index and works on the contiguous array, instead of
// sorting an index list and chasing `rects[seq[k]]` double indirection.
//
// The literal kernels above are the *definition* of the comparison count:
// they evaluate the paper's short-circuit predicates and bump the meter
// once per comparison. What a short-circuit charges is a function of its
// outcomes — `a && b` costs `1 + [a]` — so the keyed kernels perform every
// comparison unconditionally, compact their hits with unconditional
// writes, and add the tally the short-circuit evaluation *would* have
// produced with one `Meter::add` (which `NoOp` compiles away). One
// branch-free body serves both meters: counted mode is defined by the same
// *charge*, not by the same branch structure. The only place the two
// meters still part ways is the sort of a sequence that is not already
// ordered (see `sort_keyed_by_xl`), and there the order they produce is
// the same. `tests/prop_kernels.rs` holds every keyed kernel to its
// literal twin — pairs, order and tally — and a debug build re-runs the
// literal sweep behind every keyed one.
// ---------------------------------------------------------------------------

/// A rectangle tagged with the index of the entry it came from.
pub type KeyedRect = (Rect, u32);

/// The effective rectangle of an entry: virtually ε-expanded for distance
/// joins, the plain MBR otherwise.
#[inline(always)]
pub(crate) fn eff_rect(e: &Entry, eps: f64) -> Rect {
    if eps > 0.0 {
        e.rect.expanded(eps)
    } else {
        e.rect
    }
}

/// The search-space restriction of §4.2 over one node's entries: fills
/// `keyed` with the (ε-expanded) rectangles that intersect `space`, in
/// entry order, each tagged with its entry index — every entry when
/// `space` is `None`.
///
/// Charges what [`Rect::intersects_counted`] charges the recursion's
/// restriction scan: `1 + [c1] + [c1·c2] + [c1·c2·c3]` per entry for its
/// four tests `c1..c4` in order.
pub fn restrict_keyed<M: Meter>(
    entries: &[Entry],
    eps: f64,
    space: Option<&Rect>,
    cmp: &mut M,
    keyed: &mut Vec<KeyedRect>,
) {
    keyed.clear();
    keyed.reserve(entries.len());
    let Some(space) = space else {
        keyed.extend(
            entries
                .iter()
                .enumerate()
                .map(|(i, e)| (eff_rect(e, eps), i as u32)),
        );
        return;
    };
    let mut buf = [(*space, 0u32); CHUNK];
    let mut len = 0usize;
    let mut charge = 0u64;
    for (i, e) in entries.iter().enumerate() {
        let r = eff_rect(e, eps);
        let c1 = r.xl <= space.xu;
        let c2 = space.xl <= r.xu;
        let c3 = r.yl <= space.yu;
        let c4 = space.yl <= r.yu;
        let c12 = c1 & c2;
        let c123 = c12 & c3;
        buf[len] = (r, i as u32);
        len += usize::from(c123 & c4);
        charge += 1 + u64::from(c1) + u64::from(c12) + u64::from(c123);
        if len == CHUNK {
            keyed.extend_from_slice(&buf);
            len = 0;
        }
    }
    keyed.extend_from_slice(&buf[..len]);
    cmp.add(charge);
}

/// Sorts a keyed vector ascending by `xl`, charging comparator invocations
/// to `cmp`.
///
/// The charge must be *exactly* the comparison count of the recursion's
/// index-list sort ([`sort_indices_by_xl`]). The sequence is verified
/// first, under either meter: when it is already non-descending — a
/// restricted leaf of an ordered tree — the stable sort would have found
/// one run with `len − 1` comparisons and moved nothing, so that is what is
/// charged and nothing else happens.
///
/// Only an unordered sequence is sorted, and only there do the meters
/// differ. The standard library's stable sort picks its strategy by element
/// size, so a counting meter sorts a `usize` permutation exactly like
/// [`sort_indices_by_xl`] does (same element type, same algorithm, same key
/// sequence ⇒ same count) and applies it with uncounted moves through
/// `tmp`; a non-counting meter sorts packed `(xl bits, position)` keys
/// instead. Both are stable, so the resulting order is the same.
pub fn sort_keyed_by_xl<M: Meter>(
    keyed: &mut Vec<KeyedRect>,
    perm: &mut Vec<usize>,
    packed: &mut Vec<u128>,
    tmp: &mut Vec<KeyedRect>,
    cmp: &mut M,
) {
    if keyed.windows(2).all(|w| w[0].0.xl <= w[1].0.xl) {
        cmp.add(keyed.len().saturating_sub(1) as u64);
        return;
    }
    tmp.clear();
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
        tmp.extend(perm.iter().map(|&k| keyed[k]));
    } else {
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
        tmp.extend(packed.iter().map(|&v| keyed[(v & 0xffff_ffff) as usize]));
    }
    std::mem::swap(keyed, tmp);
}

/// Maps a non-NaN `f64` to a `u64` whose unsigned order equals the float's
/// order under `partial_cmp`: flip all bits of negatives, set the sign bit
/// of non-negatives. `x + 0.0` first turns −0.0 into +0.0, which compare
/// equal and so must share a key.
#[inline(always)]
fn f64_order_bits(x: f64) -> u64 {
    let b = (x + 0.0).to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Hits are compacted through a stack buffer of this many pairs before
/// they reach the output vector: an unconditional write needs a slot that
/// exists, and zero-filling the vector's tail instead costs more than the
/// branch it saves.
const CHUNK: usize = 32;

/// The `SortedIntersectionTest` of §4.2 over keyed slices sorted by `xl`.
/// Appends every intersecting `(r entry index, s entry index)` pair to
/// `out` in sweep order and charges `cmp` what [`sorted_intersection_test`]
/// would have.
pub fn sorted_intersection_test_keyed<M: Meter>(
    rseq: &[KeyedRect],
    sseq: &[KeyedRect],
    cmp: &mut M,
    out: &mut Vec<(usize, usize)>,
) {
    debug_assert!(rseq.windows(2).all(|w| w[0].0.xl <= w[1].0.xl));
    debug_assert!(sseq.windows(2).all(|w| w[0].0.xl <= w[1].0.xl));
    #[cfg(debug_assertions)]
    let (out_before, tally_before) = (out.len(), cmp.get());

    let mut buf = [(0usize, 0usize); CHUNK];
    let mut len = 0usize;
    let mut charge = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < rseq.len() && j < sseq.len() {
        // The sweep line stops at the lower `xl` (one comparison); `t` is
        // the rectangle there and the *other* sequence is scanned forward
        // from its first unprocessed entry. Which side that is comes close
        // to a coin flip, so it is selected, not branched on.
        let pick_r = rseq[i].0.xl < sseq[j].0.xl;
        let ((t, t_index), tail) = if pick_r {
            (rseq[i], &sseq[j..])
        } else {
            (sseq[j], &rseq[i..])
        };
        i += usize::from(pick_r);
        j += usize::from(!pick_r);

        // The `InternalLoop`: scan while the x-projections can still
        // intersect `t`, testing y-projections.
        let mut n = 0usize;
        while n < tail.len() && tail[n].0.xl <= t.xu {
            let (o, o_index) = tail[n];
            let a = t.yl <= o.yu;
            let b = o.yl <= t.yu;
            // `len < CHUNK` always; the `%` spares the bounds check (worth
            // ~5 % here, nothing in the restriction).
            buf[len % CHUNK] = if pick_r {
                (t_index as usize, o_index as usize)
            } else {
                (o_index as usize, t_index as usize)
            };
            len += usize::from(a & b);
            // `a && b` evaluates `b` only when `a` holds.
            charge += 1 + u64::from(a);
            if len == CHUNK {
                out.extend_from_slice(&buf);
                len = 0;
            }
            n += 1;
        }
        // One x-test per scanned candidate, plus the failing one unless
        // the scan ran off the end of the sequence.
        charge += 1 + n as u64 + u64::from(n < tail.len());
    }
    out.extend_from_slice(&buf[..len]);
    cmp.add(charge);

    #[cfg(debug_assertions)]
    {
        // Every debug run is a differential test against the definition.
        let split = |seq: &[KeyedRect]| -> (Vec<Rect>, Vec<usize>) {
            (seq.iter().map(|k| k.0).collect(), (0..seq.len()).collect())
        };
        let ((rr, ri), (sr, si)) = (split(rseq), split(sseq));
        let (mut literal, mut want) = (M::default(), Vec::new());
        sorted_intersection_test(&rr, &ri, &sr, &si, &mut literal, &mut want);
        for p in &mut want {
            *p = (rseq[p.0].1 as usize, sseq[p.1].1 as usize);
        }
        debug_assert_eq!(out[out_before..], want[..], "keyed sweep pairs");
        debug_assert_eq!(cmp.get() - tally_before, literal.get(), "keyed sweep tally");
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
