//! The tree handle.

use crate::node::{ChildRef, DataId, Entry, Node};
use crate::params::RTreeParams;
use rsj_geom::Rect;
use rsj_storage::{PageId, PageStore};
use std::sync::Arc;

/// A paged R-tree: a root page, a page store holding one node per page, and
/// the structural parameters.
///
/// All mutation goes through the insertion/deletion modules; queries and the
/// join crate use [`RTree::node`] for charge-free borrows and do their own
/// buffer accounting against the page ids.
///
/// Each page holds its node behind an [`Arc`]: a clone of the tree shares
/// every node with the original, and a mutation copies only the page it
/// touches (copy-on-write, [`Arc::make_mut`]). [`RTree::node_shared`]
/// hands out a page's node that outlives the borrow of the tree, which is
/// how a join's helper threads read leaves while a cursor borrows it.
#[derive(Debug, Clone)]
pub struct RTree {
    pub(crate) store: PageStore<Arc<Node>>,
    pub(crate) root: PageId,
    pub(crate) params: RTreeParams,
    pub(crate) len: usize,
}

impl RTree {
    /// Creates an empty tree (a single empty leaf as root).
    pub fn new(params: RTreeParams) -> Self {
        let mut store = PageStore::new(params.page_bytes);
        let root = store.alloc(Arc::new(Node::leaf()));
        RTree {
            store,
            root,
            params,
            len: 0,
        }
    }

    /// The root page.
    #[inline]
    pub fn root(&self) -> PageId {
        self.root
    }

    /// The structural parameters.
    #[inline]
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// Number of data entries stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no data entry is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree in levels (a single leaf root has height 1).
    pub fn height(&self) -> u32 {
        self.node(self.root).level + 1
    }

    /// Depth (distance from the root) of a node given its level; used for
    /// path-buffer bookkeeping, where the root is depth 0.
    #[inline]
    pub fn depth_of_level(&self, level: u32) -> usize {
        (self.height() - 1 - level) as usize
    }

    /// Borrows a node without charging I/O (see `PageStore::peek`).
    #[inline]
    pub fn node(&self, id: PageId) -> &Node {
        self.store.peek(id)
    }

    /// The node of a page as a shared handle: it stays valid, unchanged,
    /// after the tree is mutated or dropped (a later mutation of the page
    /// copies it first).
    #[inline]
    pub fn node_shared(&self, id: PageId) -> Arc<Node> {
        Arc::clone(self.store.peek(id))
    }

    /// MBR of the whole tree ([`Rect::empty`] if the tree is empty).
    pub fn mbr(&self) -> Rect {
        self.node(self.root).mbr()
    }

    /// The underlying page store.
    #[inline]
    pub fn page_store(&self) -> &PageStore<Arc<Node>> {
        &self.store
    }

    /// Number of page slots allocated, including slots currently on the
    /// free list (see [`RTree::live_page_count`] for reachable pages and
    /// [`RTree::free_page_count`] for reusable ones).
    #[inline]
    pub fn allocated_pages(&self) -> usize {
        self.store.len()
    }

    /// Number of pages released by deletions and awaiting reuse.
    #[inline]
    pub fn free_page_count(&self) -> usize {
        self.store.free_pages().len()
    }

    /// Number of pages reachable from the root.
    pub fn live_page_count(&self) -> usize {
        let mut n = 0;
        self.for_each_node(|_, _| n += 1);
        n
    }

    /// Visits every reachable node top-down, passing `(page, node)`.
    pub fn for_each_node(&self, mut f: impl FnMut(PageId, &Node)) {
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = self.node(page);
            f(page, node);
            if !node.is_leaf() {
                for e in &node.entries {
                    stack.push(
                        e.child
                            .page()
                            .expect("directory entry must point to a page"),
                    );
                }
            }
        }
    }

    /// Iterates over all data entries `(rect, id)` in an unspecified order.
    pub fn data_entries(&self) -> Vec<(Rect, DataId)> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_node(|_, node| {
            if node.is_leaf() {
                for e in &node.entries {
                    out.push((
                        e.rect,
                        e.child.data().expect("leaf entry must point to data"),
                    ));
                }
            }
        });
        out
    }

    /// Mutably borrows a node, first copying it if another handle (a clone
    /// of the tree, a [`RTree::node_shared`] holder) still shares it.
    pub(crate) fn node_mut(&mut self, id: PageId) -> &mut Node {
        Arc::make_mut(self.store.peek_mut(id))
    }

    pub(crate) fn alloc_node(&mut self, node: Node) -> PageId {
        self.store.alloc(Arc::new(node))
    }

    /// Releases a page onto the store's free list (§3.1's dynamic
    /// deletions: dissolved nodes and shrunk roots return their pages for
    /// reuse by later splits). The payload is cleared so stale entries
    /// never linger in saved files or slot-size computations.
    pub(crate) fn free_node(&mut self, id: PageId) {
        *self.store.peek_mut(id) = Arc::new(Node::leaf());
        self.store.free(id);
    }

    /// Installs a brand-new root with the given entries at `level`.
    pub(crate) fn grow_root(&mut self, entries: Vec<Entry>, level: u32) {
        let root = self.alloc_node(Node { level, entries });
        self.root = root;
    }

    /// Child page of a directory entry, panicking on leaf entries — a
    /// convenience for traversal code (used heavily by the join crate).
    pub fn child_page(entry: &Entry) -> PageId {
        match entry.child {
            ChildRef::Page(p) => p,
            ChildRef::Data(_) => panic!("expected a directory entry"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::InsertPolicy;
    use rsj_storage::PageEvent;

    fn params() -> RTreeParams {
        RTreeParams::explicit(1024, 8, 3, InsertPolicy::RStar)
    }

    #[test]
    fn fresh_tree_is_a_single_empty_leaf() {
        let t = RTree::new(params());
        assert_eq!(t.height(), 1);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.mbr().is_empty());
        assert_eq!(t.live_page_count(), 1);
        assert_eq!(t.depth_of_level(0), 0);
    }

    #[test]
    fn data_entries_of_empty_tree() {
        let t = RTree::new(params());
        assert!(t.data_entries().is_empty());
    }

    fn cell(c: (u32, u32, u32)) -> Rect {
        let (x, y) = (f64::from(c.0), f64::from(c.1));
        Rect::from_corners(x, y, x + 1.0 + f64::from(c.2), y + 1.0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// A clone shares every page; an update to it copies exactly the
        /// pages it touches and leaves the original as it was.
        #[test]
        fn a_clone_copies_only_the_pages_an_update_touches(
            base in proptest::prop::collection::vec((0..40u32, 0..40u32, 0..3u32), 1..300),
            more in proptest::prop::collection::vec((0..40u32, 0..40u32, 0..3u32), 1..40),
            deletes in 0..20usize,
        ) {
            let mut t = RTree::new(params());
            for (i, &c) in base.iter().enumerate() {
                t.insert(cell(c), DataId(i as u64));
            }
            let before = t.data_entries();
            let mut u = t.clone();
            for id in 0..t.allocated_pages() {
                let p = PageId(id as u32);
                assert!(Arc::ptr_eq(t.store.peek(p), u.store.peek(p)), "page {p}");
            }
            u.store.enable_event_tracking();
            for (i, &c) in more.iter().enumerate() {
                u.insert(cell(c), DataId((base.len() + i) as u64));
            }
            for (i, &c) in base.iter().enumerate().take(deletes) {
                assert!(u.delete(&cell(c), DataId(i as u64)));
            }
            let mut events = Vec::new();
            u.store.take_events(&mut events);
            let touched: std::collections::HashSet<PageId> = events
                .iter()
                .map(|&(PageEvent::Touched(p) | PageEvent::Alloc(p) | PageEvent::Freed(p))| p)
                .collect();
            for id in 0..t.allocated_pages() {
                let p = PageId(id as u32);
                let shared = Arc::ptr_eq(t.store.peek(p), u.store.peek(p));
                assert_eq!(shared, !touched.contains(&p), "page {p}");
            }
            t.validate().unwrap();
            u.validate().unwrap();
            assert_eq!(t.data_entries(), before);
            assert_eq!(u.len(), base.len() + more.len() - deletes.min(base.len()));
        }
    }
}
