//! Deletion with tree condensation.
//!
//! §3.1: "An R-tree is completely dynamic; insertions and deletions can be
//! intermixed with queries without any global reorganization." Deletion
//! follows Guttman's CondenseTree: remove the data entry from its leaf;
//! walking back up, dissolve any node that underflows below `m` and
//! remember its entries; finally re-insert the orphans at their original
//! levels and shrink the root while it has a single directory child.

use crate::node::{ChildRef, DataId, Entry};
use crate::tree::RTree;
use rsj_geom::Rect;
use rsj_storage::PageId;

/// Where a data entry lives: ancestor path, leaf page, entry index.
type LeafLocation = (Vec<(PageId, usize)>, PageId, usize);

impl RTree {
    /// Deletes the data entry `(rect, id)`. Both the rectangle and the id
    /// must match. Returns `true` if an entry was removed.
    pub fn delete(&mut self, rect: &Rect, id: DataId) -> bool {
        let Some((path, leaf, entry_idx)) = self.find_leaf(rect, id) else {
            return false;
        };
        self.node_mut(leaf).entries.remove(entry_idx); // keeps the leaf's xl order
        self.len -= 1;
        self.condense(leaf, path);
        true
    }

    /// Locates the leaf holding `(rect, id)`. Returns the ancestor path as
    /// `(page, child_idx)` pairs plus the leaf page and the entry index.
    fn find_leaf(&self, rect: &Rect, id: DataId) -> Option<LeafLocation> {
        // Iterative DFS with explicit path reconstruction: stack holds
        // (page, path-so-far). Overlap means several branches may contain
        // the rect; the paths are short (tree height), so cloning them per
        // branch is cheap compared to the search itself.
        let mut stack: Vec<(PageId, Vec<(PageId, usize)>)> = vec![(self.root(), Vec::new())];
        while let Some((page, path)) = stack.pop() {
            let node = self.node(page);
            if node.is_leaf() {
                for (i, e) in node.entries.iter().enumerate() {
                    if e.child == ChildRef::Data(id) && e.rect == *rect {
                        return Some((path, page, i));
                    }
                }
                continue;
            }
            for (i, e) in node.entries.iter().enumerate() {
                if e.rect.contains(rect) {
                    let mut p = path.clone();
                    p.push((page, i));
                    stack.push((Self::child_page(e), p));
                }
            }
        }
        None
    }

    /// CondenseTree: ascend from `page`, dissolving underfull nodes and
    /// collecting their entries; then re-insert orphans and shrink the root.
    fn condense(&mut self, mut page: PageId, mut path: Vec<(PageId, usize)>) {
        let mut orphans: Vec<(Entry, u32)> = Vec::new();
        while let Some((parent, idx)) = path.pop() {
            let node_len = self.node(page).len();
            if node_len < self.params().min_entries {
                // Dissolve: orphan the survivors, drop the parent entry,
                // release the page for reuse.
                let level = self.node(page).level;
                let entries = std::mem::take(&mut self.node_mut(page).entries);
                orphans.extend(entries.into_iter().map(|e| (e, level)));
                self.node_mut(parent).entries.remove(idx);
                self.free_node(page);
            } else {
                // Tighten the parent rectangle.
                let bb = self.node(page).mbr();
                self.node_mut(parent).entries[idx].rect = bb;
            }
            page = parent;
        }
        // Re-insert orphans at their original levels (deepest first so that
        // directory orphans find a tree at least as tall as they need).
        orphans.sort_by_key(|&(_, level)| level);
        for (e, level) in orphans {
            let mut reinserted = 0u64;
            let level = level.min(self.node(self.root()).level);
            self.insert_entry(e, level, &mut reinserted);
        }
        // Shrink the root while it is a directory with a single child,
        // releasing each abandoned root page.
        while {
            let root = self.node(self.root());
            !root.is_leaf() && root.len() == 1
        } {
            let old = self.root;
            self.root = Self::child_page(&self.node(self.root()).entries[0]);
            self.free_node(old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{InsertPolicy, RTreeParams};

    fn params() -> RTreeParams {
        RTreeParams::explicit(160, 8, 3, InsertPolicy::RStar)
    }

    fn rect_for(i: u64) -> Rect {
        let x = (i % 25) as f64 * 10.0;
        let y = (i / 25) as f64 * 10.0;
        Rect::from_corners(x, y, x + 7.0, y + 7.0)
    }

    #[test]
    fn delete_from_single_leaf() {
        let mut t = RTree::new(params());
        t.insert(rect_for(0), DataId(0));
        t.insert(rect_for(1), DataId(1));
        assert!(t.delete(&rect_for(0), DataId(0)));
        assert_eq!(t.len(), 1);
        t.validate().unwrap();
        assert!(
            !t.delete(&rect_for(0), DataId(0)),
            "double delete must fail"
        );
    }

    #[test]
    fn delete_requires_matching_rect() {
        let mut t = RTree::new(params());
        t.insert(rect_for(0), DataId(0));
        assert!(!t.delete(&rect_for(1), DataId(0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_everything_returns_to_empty() {
        let mut t = RTree::new(params());
        let n = 120u64;
        for i in 0..n {
            t.insert(rect_for(i), DataId(i));
        }
        t.validate().unwrap();
        for i in 0..n {
            assert!(t.delete(&rect_for(i), DataId(i)), "delete {i}");
            t.validate()
                .unwrap_or_else(|e| panic!("after deleting {i}: {e}"));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn delete_in_reverse_order() {
        let mut t = RTree::new(params());
        let n = 100u64;
        for i in 0..n {
            t.insert(rect_for(i), DataId(i));
        }
        for i in (0..n).rev() {
            assert!(t.delete(&rect_for(i), DataId(i)));
        }
        assert!(t.is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn interleaved_insert_delete_stays_valid() {
        let mut t = RTree::new(params());
        let mut live = Vec::new();
        for round in 0..300u64 {
            if round % 3 == 2 && !live.is_empty() {
                // Delete a pseudo-random live element.
                let k = (round * 7919) as usize % live.len();
                let i: u64 = live.swap_remove(k);
                assert!(t.delete(&rect_for(i), DataId(i)));
            } else {
                t.insert(rect_for(round), DataId(round));
                live.push(round);
            }
            if round % 41 == 0 {
                t.validate()
                    .unwrap_or_else(|e| panic!("round {round}: {e}"));
            }
        }
        t.validate().unwrap();
        assert_eq!(t.len(), live.len());
        let mut ids: Vec<u64> = t.data_entries().iter().map(|(_, d)| d.0).collect();
        ids.sort_unstable();
        live.sort_unstable();
        assert_eq!(ids, live);
    }

    #[test]
    fn deleting_shrinks_height_eventually() {
        let mut t = RTree::new(params());
        for i in 0..200u64 {
            t.insert(rect_for(i), DataId(i));
        }
        let tall = t.height();
        assert!(tall >= 2);
        for i in 0..195u64 {
            assert!(t.delete(&rect_for(i), DataId(i)));
        }
        t.validate().unwrap();
        assert!(
            t.height() < tall,
            "height should shrink: {} -> {}",
            tall,
            t.height()
        );
    }

    #[test]
    fn duplicate_ids_with_distinct_rects_delete_precisely() {
        let mut t = RTree::new(params());
        t.insert(rect_for(1), DataId(7));
        t.insert(rect_for(2), DataId(7));
        assert!(t.delete(&rect_for(1), DataId(7)));
        assert_eq!(t.len(), 1);
        let remaining = t.data_entries();
        assert_eq!(remaining[0].0, rect_for(2));
    }
}
