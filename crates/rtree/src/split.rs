//! Node splitting.
//!
//! The R\*-split follows §3.2 of the join paper (and the original R\*-tree
//! paper): *"First, we must determine the axis where the split has to be
//! performed. For each axis, all entries are sorted according to the left
//! corner of their rectangles, all possible M-2m+2 splits are considered
//! [...] and eventually, we sum up the perimeters of the resulting nodes
//! over all possible splits. The same process is repeated with the entries
//! ordered according to the right corner [...]. The axis with the minimum
//! overall sum is chosen as the split-axis. [...] Among these possibilities,
//! we choose the split resulting in a minimum of overlap between the minimum
//! bounding rectangles of the two subsequences."*
//!
//! Guttman's quadratic and linear splits are provided for the baseline
//! R-tree insertion policy.

use crate::node::Entry;
use crate::params::{InsertPolicy, RTreeParams};
use rsj_geom::Rect;

/// Splits an overflowing entry set (`M + 1` entries) into two groups, each
/// holding between `m` and `M + 1 - m` entries, using the configured policy.
pub fn split_entries(entries: Vec<Entry>, params: &RTreeParams) -> (Vec<Entry>, Vec<Entry>) {
    debug_assert!(
        entries.len() > params.max_entries,
        "split called without overflow"
    );
    match params.policy {
        InsertPolicy::RStar => rstar_split(entries, params),
        InsertPolicy::GuttmanQuadratic => quadratic_split(entries, params),
        InsertPolicy::GuttmanLinear => linear_split(entries, params),
    }
}

/// Key extractors for the two sort orders per axis: (axis, corner).
/// axis 0 = x, 1 = y; corner 0 = lower ("left"), 1 = upper ("right").
fn sort_key(e: &Entry, axis: usize, corner: usize) -> (f64, f64) {
    let r = &e.rect;
    match (axis, corner) {
        (0, 0) => (r.xl, r.xu),
        (0, 1) => (r.xu, r.xl),
        (1, 0) => (r.yl, r.yu),
        (1, 1) => (r.yu, r.yl),
        _ => unreachable!("axis/corner out of range"),
    }
}

/// Prefix and suffix MBR tables for a sorted sequence.
fn mbr_tables(entries: &[Entry]) -> (Vec<Rect>, Vec<Rect>) {
    let n = entries.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = Rect::empty();
    for e in entries {
        acc.expand(&e.rect);
        prefix.push(acc);
    }
    let mut suffix = vec![Rect::empty(); n];
    let mut acc = Rect::empty();
    for i in (0..n).rev() {
        acc.expand(&entries[i].rect);
        suffix[i] = acc;
    }
    (prefix, suffix)
}

fn rstar_split(entries: Vec<Entry>, params: &RTreeParams) -> (Vec<Entry>, Vec<Entry>) {
    let m = params.min_entries;
    let n = entries.len();
    debug_assert!(n >= 2 * m, "cannot split {n} entries with min fill {m}");

    // ChooseSplitAxis: minimize the margin sum over all distributions of
    // both sort orders.
    let mut best_axis = 0;
    let mut best_margin_sum = f64::INFINITY;
    let mut sorted_per_axis: Vec<[Vec<Entry>; 2]> = Vec::with_capacity(2);
    for axis in 0..2 {
        let mut margin_sum = 0.0;
        let mut sorts: [Vec<Entry>; 2] = [entries.clone(), entries.clone()];
        for (corner, sorted) in sorts.iter_mut().enumerate() {
            sorted.sort_by(|a, b| {
                sort_key(a, axis, corner)
                    .partial_cmp(&sort_key(b, axis, corner))
                    .expect("rect coordinates must not be NaN")
            });
            let (prefix, suffix) = mbr_tables(sorted);
            for first in m..=(n - m) {
                margin_sum += prefix[first - 1].margin() + suffix[first].margin();
            }
        }
        if margin_sum < best_margin_sum {
            best_margin_sum = margin_sum;
            best_axis = axis;
        }
        sorted_per_axis.push(sorts);
    }

    // ChooseSplitIndex: along the chosen axis, pick the distribution with
    // minimum overlap between the two group MBRs, ties by minimum area sum.
    let sorts = &sorted_per_axis[best_axis];
    let mut best: Option<(usize, usize, f64, f64)> = None; // (corner, first, overlap, area)
    for (corner, sorted) in sorts.iter().enumerate() {
        let (prefix, suffix) = mbr_tables(sorted);
        for first in m..=(n - m) {
            let bb1 = prefix[first - 1];
            let bb2 = suffix[first];
            let overlap = bb1.overlap_area(&bb2);
            let area = bb1.area() + bb2.area();
            let better = match best {
                None => true,
                Some((_, _, bo, ba)) => overlap < bo || (overlap == bo && area < ba),
            };
            if better {
                best = Some((corner, first, overlap, area));
            }
        }
    }
    let (corner, first, _, _) = best.expect("at least one distribution exists");
    let mut chosen = sorts[corner].clone();
    let right = chosen.split_off(first);
    (chosen, right)
}

fn quadratic_split(mut entries: Vec<Entry>, params: &RTreeParams) -> (Vec<Entry>, Vec<Entry>) {
    let m = params.min_entries;
    let n = entries.len();

    // PickSeeds: the pair wasting the most area if grouped together.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = entries[i].rect.union(&entries[j].rect).area()
                - entries[i].rect.area()
                - entries[j].rect.area();
            if d > worst {
                worst = d;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove the later index first to keep the earlier valid.
    let seed2 = entries.remove(s2);
    let seed1 = entries.remove(s1);
    let mut g1 = vec![seed1];
    let mut g2 = vec![seed2];
    let mut bb1 = g1[0].rect;
    let mut bb2 = g2[0].rect;

    while !entries.is_empty() {
        // Min-fill forcing.
        let remaining = entries.len();
        if g1.len() + remaining == m {
            for e in entries.drain(..) {
                bb1.expand(&e.rect);
                g1.push(e);
            }
            break;
        }
        if g2.len() + remaining == m {
            for e in entries.drain(..) {
                bb2.expand(&e.rect);
                g2.push(e);
            }
            break;
        }
        // PickNext: entry with the greatest preference difference.
        let (mut pick, mut best_diff) = (0, f64::NEG_INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let d1 = bb1.enlargement(&e.rect);
            let d2 = bb2.enlargement(&e.rect);
            let diff = (d1 - d2).abs();
            if diff > best_diff {
                best_diff = diff;
                pick = i;
            }
        }
        let e = entries.remove(pick);
        let d1 = bb1.enlargement(&e.rect);
        let d2 = bb2.enlargement(&e.rect);
        let to_first = match d1.partial_cmp(&d2).expect("no NaN") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                // Ties: smaller area, then fewer entries.
                if bb1.area() != bb2.area() {
                    bb1.area() < bb2.area()
                } else {
                    g1.len() <= g2.len()
                }
            }
        };
        if to_first {
            bb1.expand(&e.rect);
            g1.push(e);
        } else {
            bb2.expand(&e.rect);
            g2.push(e);
        }
    }
    (g1, g2)
}

fn linear_split(mut entries: Vec<Entry>, params: &RTreeParams) -> (Vec<Entry>, Vec<Entry>) {
    let m = params.min_entries;
    let n = entries.len();

    // PickSeeds (linear): per axis, the entry with the highest low side and
    // the one with the lowest high side; normalize the separation by the
    // axis extent; take the axis with the greatest normalized separation.
    let mut best: Option<(usize, usize, f64)> = None;
    for axis in 0..2 {
        let (mut lo_of_high, mut hi_of_low) = (0usize, 0usize);
        let (mut min_l, mut max_l) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_u, mut max_u) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let (l, u) = if axis == 0 {
                (e.rect.xl, e.rect.xu)
            } else {
                (e.rect.yl, e.rect.yu)
            };
            if l > max_l {
                max_l = l;
                hi_of_low = i; // highest low side
            }
            min_l = min_l.min(l);
            if u < min_u {
                min_u = u;
                lo_of_high = i; // lowest high side
            }
            max_u = max_u.max(u);
        }
        let width = (max_u - min_l).abs();
        let sep = if width > 0.0 {
            (max_l - min_u) / width
        } else {
            0.0
        };
        // (kept as an if/else chain deliberately: mirrors Guttman's text)
        if hi_of_low != lo_of_high {
            let better = best.is_none_or(|(_, _, s)| sep > s);
            if better {
                best = Some((hi_of_low, lo_of_high, sep));
            }
        }
    }
    // Degenerate inputs (all rects identical): fall back to first/last.
    let (s1, s2) = match best {
        Some((a, b, _)) => (a, b),
        None => (0, n - 1),
    };
    let (first, second) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
    let seed2 = entries.remove(second);
    let seed1 = entries.remove(first);
    let mut g1 = vec![seed1];
    let mut g2 = vec![seed2];
    let mut bb1 = g1[0].rect;
    let mut bb2 = g2[0].rect;

    for e in entries.drain(..) {
        // Min-fill forcing uses a conservative check: it is applied lazily
        // below via the remaining count, but since we consume in order we
        // just compare enlargements and rebalance at the end.
        let d1 = bb1.enlargement(&e.rect);
        let d2 = bb2.enlargement(&e.rect);
        if d1 < d2 || (d1 == d2 && g1.len() <= g2.len()) {
            bb1.expand(&e.rect);
            g1.push(e);
        } else {
            bb2.expand(&e.rect);
            g2.push(e);
        }
    }
    // Enforce minimum fill by moving the entries least harmful to shift.
    rebalance_min_fill(&mut g1, &mut g2, m);
    (g1, g2)
}

/// Moves entries from the larger group to the smaller until both meet the
/// minimum fill `m`. Entries whose removal shrinks the donor MBR least are
/// moved first.
fn rebalance_min_fill(g1: &mut Vec<Entry>, g2: &mut Vec<Entry>, m: usize) {
    loop {
        let (donor, recipient) = if g1.len() < m {
            (&mut *g2, &mut *g1)
        } else if g2.len() < m {
            (&mut *g1, &mut *g2)
        } else {
            return;
        };
        let target = Rect::mbr_of(&recipient.iter().map(|e| e.rect).collect::<Vec<_>>());
        // Donate the entry closest to the recipient's MBR.
        let (mut pick, mut best) = (0, f64::INFINITY);
        for (i, e) in donor.iter().enumerate() {
            let cost = target.enlargement(&e.rect);
            if cost < best {
                best = cost;
                pick = i;
            }
        }
        let e = donor.remove(pick);
        recipient.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{DataId, Entry};

    fn entry(xl: f64, yl: f64, xu: f64, yu: f64, id: u64) -> Entry {
        Entry::data(Rect::from_corners(xl, yl, xu, yu), DataId(id))
    }

    fn params(policy: InsertPolicy) -> RTreeParams {
        RTreeParams::explicit(1024, 8, 3, policy)
    }

    /// Nine entries forming two clearly separated clusters (5 left, 4 right).
    fn clustered_entries() -> Vec<Entry> {
        let mut v = Vec::new();
        for i in 0..5 {
            let x = i as f64 * 0.1;
            v.push(entry(x, 0.0, x + 0.05, 0.5, i));
        }
        for i in 0..4 {
            let x = 100.0 + i as f64 * 0.1;
            v.push(entry(x, 0.0, x + 0.05, 0.5, 10 + i));
        }
        v
    }

    fn check_split(
        split: (Vec<Entry>, Vec<Entry>),
        n: usize,
        m: usize,
    ) -> (Vec<Entry>, Vec<Entry>) {
        let (a, b) = split;
        assert_eq!(a.len() + b.len(), n);
        assert!(a.len() >= m, "group sizes {} / {}", a.len(), b.len());
        assert!(b.len() >= m, "group sizes {} / {}", a.len(), b.len());
        (a, b)
    }

    fn ids(g: &[Entry]) -> Vec<u64> {
        let mut v: Vec<u64> = g.iter().map(|e| e.child).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn rstar_split_separates_clusters() {
        let p = params(InsertPolicy::RStar);
        let (a, b) = check_split(split_entries(clustered_entries(), &p), 9, p.min_entries);
        let (left, right) = if a[0].rect.xl < 50.0 { (a, b) } else { (b, a) };
        // m = 3 forces one right-cluster entry... no: left cluster has 5,
        // right has 4; both satisfy m = 3, so a clean separation is optimal.
        assert_eq!(ids(&left), vec![0, 1, 2, 3, 4]);
        assert_eq!(ids(&right), vec![10, 11, 12, 13]);
    }

    #[test]
    fn quadratic_split_separates_clusters() {
        let p = params(InsertPolicy::GuttmanQuadratic);
        let (a, b) = check_split(split_entries(clustered_entries(), &p), 9, p.min_entries);
        let (left, right) = if a[0].rect.xl < 50.0 { (a, b) } else { (b, a) };
        assert_eq!(ids(&left), vec![0, 1, 2, 3, 4]);
        assert_eq!(ids(&right), vec![10, 11, 12, 13]);
    }

    #[test]
    fn linear_split_respects_min_fill() {
        let p = params(InsertPolicy::GuttmanLinear);
        check_split(split_entries(clustered_entries(), &p), 9, p.min_entries);
    }

    #[test]
    fn split_handles_identical_rects() {
        // All entries the same rectangle — any distribution is fine but
        // min-fill must hold for every policy.
        for policy in [
            InsertPolicy::RStar,
            InsertPolicy::GuttmanQuadratic,
            InsertPolicy::GuttmanLinear,
        ] {
            let p = params(policy);
            let entries: Vec<Entry> = (0..9).map(|i| entry(1.0, 1.0, 2.0, 2.0, i)).collect();
            check_split(split_entries(entries, &p), 9, p.min_entries);
        }
    }

    #[test]
    fn split_handles_collinear_degenerate_rects() {
        for policy in [
            InsertPolicy::RStar,
            InsertPolicy::GuttmanQuadratic,
            InsertPolicy::GuttmanLinear,
        ] {
            let p = params(policy);
            let entries: Vec<Entry> = (0..9)
                .map(|i| entry(i as f64, 0.0, i as f64, 0.0, i))
                .collect();
            let (a, b) = check_split(split_entries(entries, &p), 9, p.min_entries);
            // The groups should partition the line into two runs with low
            // overlap for the R* policy.
            if policy == InsertPolicy::RStar {
                let ra = Rect::mbr_of(&a.iter().map(|e| e.rect).collect::<Vec<_>>());
                let rb = Rect::mbr_of(&b.iter().map(|e| e.rect).collect::<Vec<_>>());
                assert_eq!(ra.overlap_area(&rb), 0.0);
            }
        }
    }

    #[test]
    fn rstar_split_minimizes_overlap_on_grid() {
        // A 3x3 grid of unit squares: a straight cut must produce zero
        // overlap between groups.
        let p = params(InsertPolicy::RStar);
        let mut entries = Vec::new();
        let mut id = 0;
        for gx in 0..3 {
            for gy in 0..3 {
                entries.push(entry(
                    gx as f64 * 2.0,
                    gy as f64 * 2.0,
                    gx as f64 * 2.0 + 1.0,
                    gy as f64 * 2.0 + 1.0,
                    id,
                ));
                id += 1;
            }
        }
        let (a, b) = check_split(split_entries(entries, &p), 9, p.min_entries);
        let ra = Rect::mbr_of(&a.iter().map(|e| e.rect).collect::<Vec<_>>());
        let rb = Rect::mbr_of(&b.iter().map(|e| e.rect).collect::<Vec<_>>());
        assert_eq!(ra.overlap_area(&rb), 0.0);
    }
}
