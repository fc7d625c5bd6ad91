//! Structural invariant checking.
//!
//! §3.1 lists the R-tree properties this module verifies:
//! * the root has at least two children unless it is a leaf;
//! * every node contains between `m` and `M` entries unless it is the root;
//! * the tree is balanced — every leaf has the same distance from the root;
//! * every rectangle of a non-leaf entry covers all rectangles of its child
//!   (and in this implementation is the *exact* MBR of the child).
//!
//! Three invariants are this implementation's own, not the paper's: every
//! data rectangle is finite with ordered corners
//! ([`rsj_geom::Rect::is_well_formed`]); every leaf's entries are
//! ordered by `rect.xl` ([`crate::node`], "Entry order") — the plane
//! sweep's sort order, kept by every writer; and no entry reaches a page
//! on the free list — on disk that slot is a chain marker, and the node
//! an in-memory store keeps there until the page is reused is stale.
//!
//! There is one validator, in two steps. A `PageSummary` per page holds
//! what needs a pass over the entries (the MBR, the first unsound leaf
//! entry) and whether the page is free; `RTree::check_structure` then
//! walks from the root over the summaries, reading only the node's level,
//! fill and directory entries. An open computes each summary on the
//! thread that decoded the page and runs the walk once the scan is in
//! ([`RTree::load`]); [`RTree::validate`] computes the summaries from the
//! nodes. The validator is used pervasively in tests after random
//! workloads.

use crate::node::{ChildRef, Entry, Node};
use crate::tree::RTree;
use rsj_geom::Rect;
use rsj_storage::PageId;

/// A violated invariant, with enough context to debug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError(pub String);

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R-tree invariant violated: {}", self.0)
    }
}

impl std::error::Error for ValidationError {}

/// What the structural walk needs of one page beyond its level, its fill
/// and its directory entries: everything that would take a pass over a
/// leaf's entries. An open computes it on the thread that decoded the
/// page, while the entries are still in that core's cache
/// ([`crate::persist`]); [`RTree::validate`] computes it from the nodes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageSummary {
    /// The MBR of the node's entries, which its parent's entry must equal.
    mbr: Rect,
    /// The first entry of a leaf that breaks a leaf invariant, and how.
    leaf_fault: Option<(u32, LeafFault)>,
    /// The page is on the free list, so no entry may reach it.
    free: bool,
}

/// How a leaf entry breaks the leaf invariants (module docs).
#[derive(Debug, Clone, Copy)]
enum LeafFault {
    PointsToPage,
    Malformed,
    Unordered,
}

impl PageSummary {
    pub(crate) fn of(node: &Node, free: bool) -> Self {
        let leaf_fault = if node.is_leaf() {
            node.entries.iter().enumerate().find_map(|(i, e)| {
                let fault = match e.child {
                    ChildRef::Page(_) => LeafFault::PointsToPage,
                    ChildRef::Data(_) if !e.rect.is_well_formed() => LeafFault::Malformed,
                    ChildRef::Data(_) if i > 0 && node.entries[i - 1].rect.xl > e.rect.xl => {
                        LeafFault::Unordered
                    }
                    ChildRef::Data(_) => return None,
                };
                Some((i as u32, fault))
            })
        } else {
            None
        };
        PageSummary {
            mbr: node.mbr(),
            leaf_fault,
            free,
        }
    }
}

impl LeafFault {
    fn error(self, page: PageId, entries: &[Entry], i: usize) -> ValidationError {
        ValidationError(match self {
            LeafFault::PointsToPage => format!("leaf page {page} entry {i} points to a page"),
            LeafFault::Malformed => format!(
                "leaf page {page} entry {i} has rect {:?}: a non-finite \
                 coordinate or inverted corners",
                entries[i].rect
            ),
            LeafFault::Unordered => format!(
                "leaf page {page} is not ordered by xl: entry {} has xl {} but \
                 entry {i} has xl {}",
                i - 1,
                entries[i - 1].rect.xl,
                entries[i].rect.xl
            ),
        })
    }
}

impl RTree {
    /// Checks all structural invariants, returning the first violation:
    /// the summaries of every page, then the structural walk (module docs).
    pub fn validate(&self) -> Result<(), ValidationError> {
        let free: std::collections::HashSet<PageId> =
            self.page_store().free_pages().iter().copied().collect();
        let pages: Vec<PageSummary> = (0..self.allocated_pages() as u32)
            .map(PageId)
            .map(|id| PageSummary::of(self.node(id), free.contains(&id)))
            .collect();
        self.check_structure(&pages)
    }

    /// The one structural walk, over the summaries `pages` (one per
    /// allocated page, by id): from the root, every reachable page is
    /// reached once, is not free, sits at its expected level with a legal
    /// fill, and matches its parent's entry rect; leaves are sound; the
    /// reachable data entries number [`RTree::len`].
    pub(crate) fn check_structure(&self, pages: &[PageSummary]) -> Result<(), ValidationError> {
        let root = self.node(self.root());
        if !root.is_leaf() && root.len() < 2 {
            return Err(ValidationError(format!(
                "non-leaf root has {} entries, needs >= 2",
                root.len()
            )));
        }
        let mut seen = vec![false; pages.len()];
        let mut data_count = 0usize;
        self.check_subtree(
            pages,
            self.root(),
            self.height() - 1,
            &mut seen,
            &mut data_count,
        )?;
        if data_count != self.len() {
            return Err(ValidationError(format!(
                "tree claims {} data entries but {} are reachable",
                self.len(),
                data_count
            )));
        }
        Ok(())
    }

    fn check_subtree(
        &self,
        pages: &[PageSummary],
        page: PageId,
        expected_level: u32,
        seen: &mut [bool],
        data_count: &mut usize,
    ) -> Result<(), ValidationError> {
        let is_root = page == self.root();
        if std::mem::replace(&mut seen[page.index()], true) {
            return Err(ValidationError(format!("page {page} reachable twice")));
        }
        let summary = &pages[page.index()];
        if summary.free {
            return Err(ValidationError(if is_root {
                format!("root page {page} is on the free chain")
            } else {
                format!("page {page} is reachable but on the free chain")
            }));
        }
        let node = self.node(page);
        if node.level != expected_level {
            return Err(ValidationError(format!(
                "page {page} has level {}, expected {} (tree must be balanced)",
                node.level, expected_level
            )));
        }
        let (min, max) = (self.params().min_entries, self.params().max_entries);
        if !is_root && (node.len() < min || node.len() > max) {
            return Err(ValidationError(format!(
                "page {page} has {} entries, outside [{min}, {max}]",
                node.len()
            )));
        }
        if is_root && node.len() > max {
            return Err(ValidationError(format!(
                "root has {} entries, above M = {max}",
                node.len()
            )));
        }
        if node.is_leaf() {
            if let Some((i, fault)) = summary.leaf_fault {
                return Err(fault.error(page, &node.entries, i as usize));
            }
            *data_count += node.len();
            return Ok(());
        }
        for (i, e) in node.entries.iter().enumerate() {
            let ChildRef::Page(child) = e.child else {
                return Err(ValidationError(format!(
                    "directory page {page} entry {i} points to data"
                )));
            };
            let child_mbr = pages[child.index()].mbr;
            if child_mbr != e.rect {
                return Err(ValidationError(format!(
                    "entry {i} of page {page} has rect {:?} but child {child} has MBR {:?}",
                    e.rect, child_mbr
                )));
            }
            self.check_subtree(pages, child, expected_level - 1, seen, data_count)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{DataId, Entry, Node};
    use crate::params::{InsertPolicy, RTreeParams};
    use rsj_geom::Rect;

    fn params() -> RTreeParams {
        RTreeParams::explicit(1024, 8, 3, InsertPolicy::RStar)
    }

    #[test]
    fn fresh_tree_is_valid() {
        RTree::new(params()).validate().unwrap();
    }

    #[test]
    fn detects_wrong_parent_mbr() {
        let mut t = RTree::new(params());
        for i in 0..40 {
            let x = i as f64;
            t.insert(Rect::from_corners(x, 0.0, x + 0.5, 1.0), DataId(i));
        }
        t.validate().unwrap();
        // Corrupt: shrink a directory rectangle.
        let root = t.root();
        assert!(!t.node(root).is_leaf());
        let e = &mut t.node_mut(root).entries[0];
        e.rect = Rect::from_corners(e.rect.xl, e.rect.yl, e.rect.xl, e.rect.yl);
        assert!(t.validate().is_err());
    }

    #[test]
    fn detects_underfull_node() {
        let mut t = RTree::new(params());
        for i in 0..40 {
            let x = i as f64;
            t.insert(Rect::from_corners(x, 0.0, x + 0.5, 1.0), DataId(i));
        }
        // Corrupt: drain a leaf below the minimum (and fix the parent MBR so
        // only the fill violation fires).
        let root = t.root();
        let child = RTree::child_page(&t.node(root).entries[0]);
        let victim = if t.node(child).is_leaf() {
            child
        } else {
            RTree::child_page(&t.node(child).entries[0])
        };
        t.node_mut(victim).entries.truncate(1);
        let err = t.validate().unwrap_err();
        assert!(err.0.contains("outside") || err.0.contains("MBR"), "{err}");
    }

    #[test]
    fn detects_unbalanced_tree() {
        let mut t = RTree::new(params());
        for i in 0..40 {
            t.insert(
                Rect::from_corners(i as f64, 0.0, i as f64 + 0.5, 1.0),
                DataId(i),
            );
        }
        // Graft a leaf where a subtree of greater height is expected.
        let leaf = t.alloc_node(Node::leaf());
        let root = t.root();
        if t.node(root).level >= 2 {
            t.node_mut(root).entries[0].child = ChildRef::Page(leaf);
        } else {
            // Height-2 tree: force the mismatch one level down by lying
            // about the leaf's level.
            t.node_mut(leaf).level = 5;
            t.node_mut(root).entries[0].child = ChildRef::Page(leaf);
        }
        assert!(t.validate().is_err());
    }

    #[test]
    fn detects_unordered_leaf() {
        let mut t = RTree::new(params());
        for i in 0..40 {
            let x = (i * 7 % 40) as f64;
            t.insert(Rect::from_corners(x, 0.0, x + 0.5, 1.0), DataId(i));
        }
        t.validate().unwrap();
        // Corrupt: reverse one leaf (MBR and fill are unaffected).
        let mut leaf = t.root();
        while !t.node(leaf).is_leaf() {
            leaf = RTree::child_page(&t.node(leaf).entries[0]);
        }
        t.node_mut(leaf).entries.reverse();
        let err = t.validate().unwrap_err();
        assert!(err.0.contains("not ordered by xl"), "{err}");
    }

    #[test]
    fn detects_malformed_data_rect() {
        for bad in [
            [f64::NAN, 0.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, f64::INFINITY],
            [0.0, 2.0, 1.0, 1.0],
        ] {
            let mut t = RTree::new(params());
            t.insert(Rect::from_corners(0., 0., 1., 1.), DataId(0));
            t.insert(Rect::from_corners(2., 2., 3., 3.), DataId(1));
            // `insert` refuses a malformed rect, so plant it in the leaf.
            let [xl, yl, xu, yu] = bad;
            let root = t.root();
            t.node_mut(root).entries[1].rect = Rect { xl, yl, xu, yu };
            let err = t.validate().unwrap_err();
            assert!(err.0.contains("non-finite"), "{err}");
        }
    }

    #[test]
    fn detects_wrong_data_count() {
        let mut t = RTree::new(params());
        t.insert(Rect::from_corners(0., 0., 1., 1.), DataId(0));
        t.len = 5; // lie
        let err = t.validate().unwrap_err();
        assert!(err.0.contains("data entries"), "{err}");
    }

    #[test]
    fn detects_reachable_free_page() {
        let mut t = RTree::new(params());
        for i in 0..40 {
            let x = i as f64;
            t.insert(Rect::from_corners(x, 0.0, x + 0.5, 1.0), DataId(i));
        }
        // Release a live page: its node stays in place, so only the free
        // list says it is gone.
        let child = RTree::child_page(&t.node(t.root()).entries[0]);
        t.store.free(child);
        let err = t.validate().unwrap_err();
        assert!(err.0.contains("on the free chain"), "{err}");
    }

    #[test]
    fn detects_leaf_entry_in_directory() {
        let mut t = RTree::new(params());
        for i in 0..40 {
            t.insert(
                Rect::from_corners(i as f64, 0.0, i as f64 + 0.5, 1.0),
                DataId(i),
            );
        }
        let root = t.root();
        let rect = t.node(root).entries[0].rect;
        t.node_mut(root).entries[0] = Entry::data(rect, DataId(999));
        assert!(t.validate().is_err());
    }
}
