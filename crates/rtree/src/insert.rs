//! Insertion: R\*-tree and Guttman algorithms.
//!
//! §3.2 of the join paper summarizes the three R\*-innovations that this
//! module implements:
//!
//! 1. **ChooseSubtree** — when the children are leaves, pick the entry with
//!    the minimum *overlap enlargement* with its siblings (ties: area
//!    enlargement, then area); on higher directory levels, minimum area
//!    enlargement suffices.
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
/// overlap-enlargement computation in ChooseSubtree. The R\*-paper proposes
/// this very optimization (determine the 32 entries with minimum area
/// enlargement, then resolve overlap among those); without it, inserting
/// into 8-KByte nodes (M = 409) costs O(M²) per level-1 visit.
const CHOOSE_SUBTREE_OVERLAP_CANDIDATES: usize = 32;

impl RTree {
    /// Inserts a data rectangle.
    pub fn insert(&mut self, rect: Rect, id: DataId) {
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
            self.choose_subtree_overlap(node, rect)
        } else {
            choose_subtree_area(node, rect)
        }
    }

    /// R\*: the child whose rectangle needs the least *overlap enlargement*,
    /// restricted to the [`CHOOSE_SUBTREE_OVERLAP_CANDIDATES`] entries with
    /// the least area enlargement when the node is large.
    fn choose_subtree_overlap(&self, node: &Node, rect: &Rect) -> usize {
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
