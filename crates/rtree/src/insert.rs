//! Insertion: R\*-tree and Guttman algorithms.
//!
//! §3.2 of the join paper summarizes the three R\*-innovations that this
//! module implements:
//!
//! 1. **ChooseSubtree** — when the children are leaves, pick the entry with
//!    the minimum *overlap enlargement* with its siblings (ties: area
//!    enlargement, then area); on higher directory levels, minimum area
//!    enlargement suffices. When some child already contains the new
//!    rectangle, the answer is settled among the children it does not
//!    enlarge, without the sibling-overlap loop, bit for bit the same
//!    choice.
//! 2. **Forced reinsertion** — on overflow, instead of splitting
//!    immediately, remove the `p` entries whose centres lie furthest from
//!    the node centre and re-insert them at the same level ("re-insertion
//!    […] increases storage utilization, improves the quality of the
//!    partition and makes performance almost independent of the sequence of
//!    insertions"). At most one reinsertion pass per level per insertion; a
//!    second overflow on the same level splits.
//! 3. **Topological split** — see [`crate::split`].
//!
//! The Guttman policies use pure area-enlargement ChooseSubtree and split
//! immediately on overflow (no reinsertion).

use crate::node::{f64_key, sort_by_xl, DataId, Entry, Node};
use crate::params::InsertPolicy;
use crate::split::split_entries;
use crate::tree::RTree;
use rsj_geom::Rect;
use rsj_storage::PageId;

/// Cap on the number of candidate entries examined by the quadratic
/// overlap-enlargement computation in ChooseSubtree. The R\*-tree paper
/// (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990) proposes
/// this very optimization (determine the 32 entries with minimum area
/// enlargement, then resolve overlap among those); without it, inserting
/// into 8-KByte nodes (M = 409) costs O(M²) per level-1 visit.
const CHOOSE_SUBTREE_OVERLAP_CANDIDATES: usize = 32;

impl RTree {
    /// Inserts a data rectangle.
    ///
    /// # Panics
    ///
    /// If `rect` is not [well formed](Rect::is_well_formed): a NaN or
    /// infinite coordinate, or inverted corners. The check runs before
    /// anything changes, so a caught panic leaves the tree as it was.
    /// [`crate::OpenCachedTree::insert`] refuses such a rectangle with a
    /// typed error instead.
    pub fn insert(&mut self, rect: Rect, id: DataId) {
        assert!(
            rect.is_well_formed(),
            "RTree::insert: malformed rectangle {rect:?} \
             (a non-finite coordinate or inverted corners)"
        );
        let mut reinserted_levels = 0u64;
        self.insert_entry(Entry::data(rect, id), 0, &mut reinserted_levels);
        self.len += 1;
    }

    /// Inserts an entry at `target_level` (0 = leaf). `reinserted` is the
    /// per-level bitmask ensuring at most one forced-reinsertion pass per
    /// level within one logical insertion.
    pub(crate) fn insert_entry(&mut self, entry: Entry, target_level: u32, reinserted: &mut u64) {
        debug_assert!(
            self.node(self.root).level >= target_level,
            "target level {target_level} above the root"
        );
        // Descend, remembering (ancestor page, chosen child index).
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut cur = self.root;
        while self.node(cur).level > target_level {
            let idx = self.choose_subtree(cur, &entry.rect);
            path.push((cur, idx));
            cur = Self::child_page(&self.node(cur).entries[idx]);
        }
        // Enlarge ancestor MBRs to cover the new entry.
        for &(p, idx) in &path {
            self.node_mut(p).entries[idx].rect.expand(&entry.rect);
        }
        let entries = &mut self.node_mut(cur).entries;
        if target_level == 0 {
            // Leaves stay ordered by `xl`, ties in arrival order.
            let at = entries.partition_point(|e| e.rect.xl <= entry.rect.xl);
            entries.insert(at, entry);
        } else {
            entries.push(entry);
        }
        self.handle_overflow(cur, path, reinserted);
    }

    /// Picks the child of `page` to descend into for `rect`.
    fn choose_subtree(&self, page: PageId, rect: &Rect) -> usize {
        let node = self.node(page);
        debug_assert!(!node.is_leaf(), "choose_subtree on a leaf");
        let use_overlap = self.params.policy == InsertPolicy::RStar && node.level == 1;
        if use_overlap {
            choose_subtree_overlap(node, rect)
        } else {
            choose_subtree_area(node, rect)
        }
    }

    /// Walks overflow treatment up from `page` along `path`.
    fn handle_overflow(
        &mut self,
        mut page: PageId,
        mut path: Vec<(PageId, usize)>,
        reinserted: &mut u64,
    ) {
        loop {
            if self.node(page).len() <= self.params.max_entries {
                return;
            }
            let level = self.node(page).level;
            let is_root = page == self.root;
            let may_reinsert = self.params.policy == InsertPolicy::RStar
                && !is_root
                && level < 64
                && (*reinserted & (1u64 << level)) == 0;
            if may_reinsert {
                *reinserted |= 1u64 << level;
                self.force_reinsert(page, &path, reinserted);
                return;
            }
            // Split.
            let entries = std::mem::take(&mut self.node_mut(page).entries);
            let (mut g1, mut g2) = split_entries(entries, &self.params);
            if level == 0 {
                sort_by_xl(&mut g1);
                sort_by_xl(&mut g2);
            }
            let bb1 = Rect::mbr_of(&g1.iter().map(|e| e.rect).collect::<Vec<_>>());
            let bb2 = Rect::mbr_of(&g2.iter().map(|e| e.rect).collect::<Vec<_>>());
            self.node_mut(page).entries = g1;
            let sibling = self.alloc_node(Node { level, entries: g2 });
            if is_root {
                debug_assert!(path.is_empty());
                self.grow_root(
                    vec![Entry::dir(bb1, page), Entry::dir(bb2, sibling)],
                    level + 1,
                );
                return;
            }
            let (parent, idx) = path
                .pop()
                .expect("non-root node must have a parent on the path");
            self.node_mut(parent).entries[idx].rect = bb1;
            self.node_mut(parent).entries.push(Entry::dir(bb2, sibling));
            page = parent;
        }
    }

    /// Forced reinsertion: removes the `p` entries furthest from the node
    /// centre, tightens the ancestor MBRs, and re-inserts them closest-first
    /// ("close reinsert").
    fn force_reinsert(&mut self, page: PageId, path: &[(PageId, usize)], reinserted: &mut u64) {
        let level = self.node(page).level;
        let center = self.node(page).mbr().center();
        let mut entries = std::mem::take(&mut self.node_mut(page).entries);
        // Ascending distance; the tail holds the far entries to remove.
        entries.sort_by(|a, b| {
            a.rect
                .center()
                .dist2(&center)
                .partial_cmp(&b.rect.center().dist2(&center))
                .expect("no NaN")
        });
        let p = self
            .params
            .reinsert_count
            .min(entries.len() - self.params.min_entries);
        let removed = entries.split_off(entries.len() - p);
        if level == 0 {
            sort_by_xl(&mut entries);
        }
        self.node_mut(page).entries = entries;
        self.recompute_path_mbrs(path, page);
        // Close reinsert: the removed tail is sorted ascending already.
        for e in removed {
            self.insert_entry(e, level, reinserted);
        }
    }

    /// Recomputes exact MBRs along `path` after entries were removed below.
    /// `path` lists `(ancestor, child_idx)` pairs from the root down to the
    /// parent of `lowest`.
    pub(crate) fn recompute_path_mbrs(&mut self, path: &[(PageId, usize)], lowest: PageId) {
        let mut child = lowest;
        for &(parent, idx) in path.iter().rev() {
            let bb = self.node(child).mbr();
            self.node_mut(parent).entries[idx].rect = bb;
            child = parent;
        }
    }
}

/// R\*: the child whose rectangle needs the least *overlap enlargement*
/// — the first minimum of the key `(overlap_delta, enlargement, area)`
/// — among the [`CHOOSE_SUBTREE_OVERLAP_CANDIDATES`] entries with the
/// least area enlargement, ties by index, when the node is large.
///
/// Most rectangles fall inside some child already, and then the key's
/// sibling loop is wasted. One pass computes every enlargement and
/// keeps, in index order, the first 32 entries whose enlargement is
/// exactly 0. If one of them contains `rect`, the first minimum of the
/// key over those entries alone is the full computation's answer, bit
/// for bit:
///
/// * Rounding is monotone in `min`, `max`, `-` and `*`, so no
///   enlargement and no overlap delta is negative. An enlargement
///   that is NaN (an infinite coordinate, or an area that overflows)
///   sends the call to the full computation.
/// * The candidates are the 32 least enlargements, ties by index, so
///   the zero-enlargement entries head them in index order: exactly
///   the entries kept here.
/// * A containing entry's union with `rect` is the entry itself, so
///   every overlap term is `x - x == 0` and its key is `(0, 0, area)`.
/// * Every positive-enlargement entry's key is strictly larger, so it
///   is never the first minimum, wherever it sits among the candidates.
/// * A kept entry that does not contain `rect` — a zero-width or
///   zero-height MBR extended along itself, or a growth that rounds
///   away — can key `(0, 0, 0)` and win, so its overlap delta is
///   computed in full.
///
/// This holds for rectangles without NaN coordinates, which violate
/// [`Rect`]'s corner-order invariant anyway.
fn choose_subtree_overlap(node: &Node, rect: &Rect) -> usize {
    let mut kept = [0usize; CHOOSE_SUBTREE_OVERLAP_CANDIDATES];
    let (mut zeros, mut contained) = (0, false);
    for (i, e) in node.entries.iter().enumerate() {
        let enlargement = e.rect.enlargement(rect);
        if enlargement.is_nan() {
            return choose_subtree_overlap_sorted(node, rect);
        }
        if enlargement == 0.0 && zeros < kept.len() {
            kept[zeros] = i;
            zeros += 1;
            contained |= e.rect.contains(rect);
        }
    }
    if !contained {
        return choose_subtree_overlap_sorted(node, rect);
    }
    // Every kept entry's enlargement is 0: the key drops that component.
    let mut best = kept[0];
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for &i in &kept[..zeros] {
        let r = &node.entries[i].rect;
        let overlap_delta = if r.contains(rect) {
            0.0
        } else {
            overlap_delta(node, i, &r.union(rect))
        };
        let key = (overlap_delta, r.area());
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// The full R\* ChooseSubtree computation behind
/// [`choose_subtree_overlap`]'s fast path: sort by enlargement, cap
/// at [`CHOOSE_SUBTREE_OVERLAP_CANDIDATES`], and key every candidate.
fn choose_subtree_overlap_sorted(node: &Node, rect: &Rect) -> usize {
    let n = node.len();
    let mut candidates: Vec<usize> = (0..n).collect();
    if n > CHOOSE_SUBTREE_OVERLAP_CANDIDATES {
        // One enlargement per entry, not two per comparison: a
        // bulk-loaded directory node is laid out by `xl`, an order in
        // which enlargement has no runs for the stable sort to find.
        candidates.sort_by_cached_key(|&i| f64_key(node.entries[i].rect.enlargement(rect)));
        candidates.truncate(CHOOSE_SUBTREE_OVERLAP_CANDIDATES);
    }
    let mut best = candidates[0];
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for &i in &candidates {
        let r = &node.entries[i].rect;
        let key = (
            overlap_delta(node, i, &r.union(rect)),
            r.enlargement(rect),
            r.area(),
        );
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// How much the overlap of entry `i` with its siblings grows when its
/// rectangle becomes `enlarged`. A sibling disjoint from `enlarged` is
/// disjoint from the entry too: both its overlap terms are exactly 0 and
/// `x + 0.0 == x`, so it is skipped.
fn overlap_delta(node: &Node, i: usize, enlarged: &Rect) -> f64 {
    let r = &node.entries[i].rect;
    let mut delta = 0.0;
    for (j, other) in node.entries.iter().enumerate() {
        if j == i || !enlarged.intersects(&other.rect) {
            continue;
        }
        delta += enlarged.overlap_area(&other.rect) - r.overlap_area(&other.rect);
    }
    delta
}

/// Guttman ChooseSubtree: least area enlargement, ties by least area.
fn choose_subtree_area(node: &Node, rect: &Rect) -> usize {
    let mut best = 0;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for (i, e) in node.entries.iter().enumerate() {
        let key = (e.rect.enlargement(rect), e.rect.area());
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RTreeParams;

    fn small_params(policy: InsertPolicy) -> RTreeParams {
        RTreeParams::explicit(160, 8, 3, policy)
    }

    fn grid_rect(i: u64) -> Rect {
        let x = (i % 32) as f64 * 10.0;
        let y = (i / 32) as f64 * 10.0;
        Rect::from_corners(x, y, x + 6.0, y + 6.0)
    }

    #[test]
    fn a_malformed_rect_panics_before_anything_changes() {
        // Every 37th insert is an infinite rect. Accepted, it would panic
        // inside a later forced reinsertion, after a node was emptied, or
        // reach a file no open accepts; each must panic up front instead,
        // leaving exactly the well-formed rects in a valid tree.
        let mut t = RTree::new(small_params(InsertPolicy::RStar));
        let mut kept = 0;
        for i in 0..600u64 {
            let x = (i % 32) as f64 * 10.0;
            if i % 37 == 36 {
                let bad = Rect {
                    xl: x,
                    yl: 0.0,
                    xu: f64::INFINITY,
                    yu: 1.0,
                };
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    t.insert(bad, DataId(i))
                }));
                assert!(caught.is_err(), "insert {i} accepted {bad:?}");
            } else {
                t.insert(grid_rect(i), DataId(i));
                kept += 1;
            }
        }
        t.validate().unwrap();
        assert_eq!(t.len(), kept);
        let inverted = Rect {
            xl: 5.0,
            yl: 0.0,
            xu: 4.0,
            yu: 1.0,
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.insert(inverted, DataId(999))
        }));
        assert!(caught.is_err());
        t.validate().unwrap();
    }

    /// The R\* ChooseSubtree overlap computation as it stood before the
    /// fast path, literally: the definition [`choose_subtree_overlap`] is
    /// tested against.
    fn choose_subtree_overlap_reference(node: &Node, rect: &Rect) -> usize {
        let n = node.len();
        let mut candidates: Vec<usize> = (0..n).collect();
        if n > CHOOSE_SUBTREE_OVERLAP_CANDIDATES {
            candidates.sort_by_cached_key(|&i| f64_key(node.entries[i].rect.enlargement(rect)));
            candidates.truncate(CHOOSE_SUBTREE_OVERLAP_CANDIDATES);
        }
        let mut best = candidates[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &i in &candidates {
            let enlarged = node.entries[i].rect.union(rect);
            let mut overlap_delta = 0.0;
            for (j, other) in node.entries.iter().enumerate() {
                if j == i {
                    continue;
                }
                overlap_delta += enlarged.overlap_area(&other.rect)
                    - node.entries[i].rect.overlap_area(&other.rect);
            }
            let key = (
                overlap_delta,
                node.entries[i].rect.enlargement(rect),
                node.entries[i].rect.area(),
            );
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    fn level1(rects: &[Rect]) -> Node {
        let entries = (0..rects.len())
            .map(|i| Entry::dir(rects[i], PageId(i as u32)))
            .collect();
        Node { level: 1, entries }
    }

    fn r(xl: f64, yl: f64, xu: f64, yu: f64) -> Rect {
        Rect::from_corners(xl, yl, xu, yu)
    }

    fn assert_matches_reference(node: &Node, rect: &Rect) -> usize {
        let want = choose_subtree_overlap_reference(node, rect);
        assert_eq!(
            choose_subtree_overlap(node, rect),
            want,
            "rect {rect:?} over {:?}",
            node.entries.iter().map(|e| e.rect).collect::<Vec<_>>()
        );
        want
    }

    #[test]
    fn a_degenerate_entry_extended_along_itself_beats_a_containing_one() {
        // The zero-width entry does not contain `rect`, but covering it
        // keeps its area 0: key (0, 0, 0) against the big entry's
        // (0, 0, 36).
        let node = level1(&[r(0., 0., 6., 6.), r(2., 1., 2., 3.)]);
        assert_eq!(assert_matches_reference(&node, &r(2., 2., 2., 4.)), 1);
        let node = level1(&[r(0., 0., 6., 6.), r(1., 2., 3., 2.)]);
        assert_eq!(assert_matches_reference(&node, &r(2., 2., 5., 2.)), 1);
    }

    #[test]
    fn the_candidate_cap_decides_among_containing_entries() {
        // 40 entries contain `rect`, shrinking with the index: the
        // smallest lies beyond the 32 candidates, so the 32nd wins.
        let rects: Vec<Rect> = (0..40)
            .map(|i| {
                let m = 1.0 - f64::from(i) / 100.0;
                r(2.0 - m, 2.0 - m, 3.0 + m, 3.0 + m)
            })
            .collect();
        let node = level1(&rects);
        assert_eq!(
            assert_matches_reference(&node, &r(2., 2., 3., 3.)),
            CHOOSE_SUBTREE_OVERLAP_CANDIDATES - 1
        );
    }

    /// A level-1 entry on a 7 × 7 integer grid, so duplicates, ties and
    /// containment are common: `big` entries contain the square
    /// [2, 4]², `kind` 0 and 1 make zero-width and zero-height entries.
    fn grid_entry(big: bool, (kind, x, y, w, h): (u32, u32, u32, u32, u32)) -> Rect {
        let (x, y, w, h) = (f64::from(x), f64::from(y), f64::from(w), f64::from(h));
        if big {
            return r(x % 3.0, y % 3.0, 4.0 + w % 3.0, 4.0 + h % 3.0);
        }
        match kind % 3 {
            0 => r(x, y, x, y + h),
            1 => r(x, y, x + w, y),
            _ => r(x, y, x + w, y + h),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn fast_choose_subtree_matches_its_definition(
            cells in proptest::prop::collection::vec((0..9u32, 0..7u32, 0..7u32, 0..4u32, 0..4u32), 1..90),
            big_share in 0..10u32,
            target in (0..3u32, 0..7u32, 0..7u32, 0..3u32, 0..3u32),
            pick in proptest::prelude::any::<proptest::prop::sample::Index>(),
        ) {
            let rects: Vec<Rect> = cells
                .iter()
                .map(|&c| grid_entry(c.0 < big_share, c))
                .collect();
            let node = level1(&rects);
            // `rect` is a small grid rectangle, a degenerate one, or a
            // copy of an entry.
            let rect = match target.0 {
                0 => grid_entry(false, (2, target.1, target.2, target.3, target.4)),
                1 => grid_entry(false, (target.1, target.1, target.2, target.3, target.4)),
                _ => rects[pick.index(rects.len())],
            };
            assert_matches_reference(&node, &rect);
        }
    }

    #[test]
    fn insert_until_root_split() {
        let mut t = RTree::new(small_params(InsertPolicy::RStar));
        for i in 0..9 {
            t.insert(grid_rect(i), DataId(i));
        }
        assert_eq!(t.len(), 9);
        assert!(t.height() >= 2, "nine entries with M = 8 must split");
        t.validate().unwrap();
    }

    #[test]
    fn rstar_bulk_insert_stays_valid() {
        let mut t = RTree::new(small_params(InsertPolicy::RStar));
        for i in 0..500 {
            t.insert(grid_rect(i * 7 % 1024), DataId(i));
            if i % 97 == 0 {
                t.validate().unwrap();
            }
        }
        assert_eq!(t.len(), 500);
        t.validate().unwrap();
    }

    #[test]
    fn guttman_quadratic_bulk_insert_stays_valid() {
        let mut t = RTree::new(small_params(InsertPolicy::GuttmanQuadratic));
        for i in 0..300 {
            t.insert(grid_rect(i * 13 % 900), DataId(i));
        }
        t.validate().unwrap();
    }

    #[test]
    fn guttman_linear_bulk_insert_stays_valid() {
        let mut t = RTree::new(small_params(InsertPolicy::GuttmanLinear));
        for i in 0..300 {
            t.insert(grid_rect(i * 29 % 900), DataId(i));
        }
        t.validate().unwrap();
    }

    #[test]
    fn duplicate_rects_are_allowed() {
        let mut t = RTree::new(small_params(InsertPolicy::RStar));
        let r = Rect::from_corners(0.0, 0.0, 1.0, 1.0);
        for i in 0..50 {
            t.insert(r, DataId(i));
        }
        assert_eq!(t.len(), 50);
        t.validate().unwrap();
        assert_eq!(t.mbr(), r);
    }

    #[test]
    fn tree_mbr_tracks_inserts() {
        let mut t = RTree::new(small_params(InsertPolicy::RStar));
        t.insert(Rect::from_corners(0., 0., 1., 1.), DataId(0));
        t.insert(Rect::from_corners(9., -3., 12., 1.), DataId(1));
        assert_eq!(t.mbr(), Rect::from_corners(0., -3., 12., 1.));
    }

    #[test]
    fn all_data_entries_reachable_after_many_inserts() {
        let mut t = RTree::new(small_params(InsertPolicy::RStar));
        let n = 400;
        for i in 0..n {
            t.insert(grid_rect(i * 31 % 1000), DataId(i));
        }
        let mut ids: Vec<u64> = t.data_entries().iter().map(|(_, d)| d.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }
}
