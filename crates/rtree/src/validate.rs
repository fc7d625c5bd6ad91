//! Structural invariant checking.
//!
//! §3.1 lists the R-tree properties this module verifies:
//! * the root has at least two children unless it is a leaf;
//! * every node contains between `m` and `M` entries unless it is the root;
//! * the tree is balanced — every leaf has the same distance from the root;
//! * every rectangle of a non-leaf entry covers all rectangles of its child
//!   (and in this implementation is the *exact* MBR of the child).
//!
//! Two invariants are this implementation's own, not the paper's: every
//! data rectangle is finite with ordered corners
//! ([`rsj_geom::Rect::is_well_formed`]), and every leaf's entries are
//! ordered by `rect.xl` ([`crate::node`], "Entry order") — the plane
//! sweep's sort order, kept by every writer.
//!
//! The validator is used pervasively in tests after random workloads.

use crate::node::ChildRef;
use crate::tree::RTree;
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

impl RTree {
    /// Checks all structural invariants, returning the first violation.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let root = self.node(self.root());
        let height = self.height();
        if !root.is_leaf() && root.len() < 2 {
            return Err(ValidationError(format!(
                "non-leaf root has {} entries, needs >= 2",
                root.len()
            )));
        }
        let mut seen = std::collections::HashSet::new();
        let mut data_count = 0usize;
        self.validate_node(self.root(), height - 1, true, &mut seen, &mut data_count)?;
        if data_count != self.len() {
            return Err(ValidationError(format!(
                "tree claims {} data entries but {} are reachable",
                self.len(),
                data_count
            )));
        }
        Ok(())
    }

    fn validate_node(
        &self,
        page: PageId,
        expected_level: u32,
        is_root: bool,
        seen: &mut std::collections::HashSet<PageId>,
        data_count: &mut usize,
    ) -> Result<(), ValidationError> {
        if !seen.insert(page) {
            return Err(ValidationError(format!("page {page} reachable twice")));
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
        for (i, e) in node.entries.iter().enumerate() {
            match (node.is_leaf(), e.child) {
                (true, ChildRef::Data(_)) => {
                    if !e.rect.is_well_formed() {
                        return Err(ValidationError(format!(
                            "leaf page {page} entry {i} has rect {:?}: a non-finite \
                             coordinate or inverted corners",
                            e.rect
                        )));
                    }
                    if i > 0 && node.entries[i - 1].rect.xl > e.rect.xl {
                        return Err(ValidationError(format!(
                            "leaf page {page} is not ordered by xl: entry {} has xl {} but \
                             entry {i} has xl {}",
                            i - 1,
                            node.entries[i - 1].rect.xl,
                            e.rect.xl
                        )));
                    }
                    *data_count += 1;
                }
                (false, ChildRef::Page(child)) => {
                    let child_node = self.node(child);
                    if child_node.mbr() != e.rect {
                        return Err(ValidationError(format!(
                            "entry {i} of page {page} has rect {:?} but child {child} has MBR {:?}",
                            e.rect,
                            child_node.mbr()
                        )));
                    }
                    self.validate_node(child, expected_level - 1, false, seen, data_count)?;
                }
                (true, ChildRef::Page(_)) => {
                    return Err(ValidationError(format!(
                        "leaf page {page} entry {i} points to a page"
                    )));
                }
                (false, ChildRef::Data(_)) => {
                    return Err(ValidationError(format!(
                        "directory page {page} entry {i} points to data"
                    )));
                }
            }
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
            let [xl, yl, xu, yu] = bad;
            t.insert(Rect { xl, yl, xu, yu }, DataId(1));
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
