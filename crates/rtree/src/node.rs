//! Node and entry layout.
//!
//! §3.1: "A non-leaf node contains entries of the form (ref, rect) where ref
//! is the address of a child node and rect is the minimum bounding rectangle
//! of all rectangles which are entries in that child node. A leaf node
//! contains entries of the same form where ref refers to a spatial object in
//! the database."
//!
//! Levels are counted from the leaves: leaves are level 0, the root is level
//! `height - 1`. (Buffer-pool code counts *depth* from the root; the tree
//! converts.)
//!
//! # Entry order
//!
//! **A leaf's entries are ordered by `rect.xl`**, ties in the order the
//! writer met them. Every writer in this crate maintains it — both bulk
//! loaders, insertion (placement at the `partition_point`, split halves,
//! the survivors of a forced reinsertion), deletion (`remove`, not
//! `swap_remove`), and the page decoder, which re-orders what a foreign
//! or older writer left unordered — the sorting ones through the single
//! rule of `xl_order`, and [`crate::RTree::validate`] enforces it.
//! This is the "maintained-sorted" regime of the join paper's Table 4: the
//! sort the plane sweep needs is paid once, where the entry is written.
//! The join exploits the order (a restricted subsequence of an ordered
//! leaf is ordered, so its sort verifies in n − 1 comparisons and moves
//! nothing) but never assumes it. Directory nodes leave the bulk loaders
//! ordered as well but are *not* maintained under updates: their
//! rectangles change in place while ancestor-path indices are live.

use rsj_geom::Rect;
use rsj_storage::PageId;

/// Identifier of a data object in the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub u64);

impl std::fmt::Display for DataId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What an entry's `ref` points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildRef {
    /// A child node (directory entries).
    Page(PageId),
    /// A data object (leaf entries).
    Data(DataId),
}

impl ChildRef {
    /// The page, if this is a directory reference.
    #[inline]
    pub fn page(self) -> Option<PageId> {
        match self {
            ChildRef::Page(p) => Some(p),
            ChildRef::Data(_) => None,
        }
    }

    /// The data id, if this is a leaf reference.
    #[inline]
    pub fn data(self) -> Option<DataId> {
        match self {
            ChildRef::Page(_) => None,
            ChildRef::Data(d) => Some(d),
        }
    }
}

/// One `(rect, ref)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// MBR of the referenced child node or data object.
    pub rect: Rect,
    /// The reference.
    pub child: ChildRef,
}

impl Entry {
    /// Directory entry pointing at a child page.
    #[inline]
    pub fn dir(rect: Rect, page: PageId) -> Self {
        Entry {
            rect,
            child: ChildRef::Page(page),
        }
    }

    /// Leaf entry pointing at a data object.
    #[inline]
    pub fn data(rect: Rect, id: DataId) -> Self {
        Entry {
            rect,
            child: ChildRef::Data(id),
        }
    }
}

/// Strictly monotone `u64` image of a finite `f64`: sign-flipped IEEE bits
/// (with `-0.0` collapsed onto `0.0`, matching `partial_cmp`). Stable
/// sorts by this key order exactly like comparing the floats.
pub(crate) fn f64_key(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The one ordering rule every writer shares (module docs): fills `order`
/// with `(xl key, index into entries)` in the order the entries belong in
/// — ascending `xl`, ties by index, i.e. a stable sort — so two writers
/// given the same entries in the same arrival order lay out the same
/// page. Only these 16-byte pairs move; the bulk loaders cut a node per
/// ~100 entries and would feel a comparator sort over 48-byte entries.
pub(crate) fn xl_order(entries: &[Entry], order: &mut Vec<(u64, u32)>) {
    order.clear();
    order.extend(
        entries
            .iter()
            .enumerate()
            .map(|(at, e)| (f64_key(e.rect.xl), at as u32)),
    );
    order.sort_unstable();
}

/// Puts `entries` in [`xl_order`] (a no-op pass when they already are).
pub(crate) fn sort_by_xl(entries: &mut [Entry]) {
    if entries.is_sorted_by(|a, b| a.rect.xl <= b.rect.xl) {
        return;
    }
    let mut order = Vec::new();
    xl_order(entries, &mut order);
    let sorted: Vec<Entry> = order.iter().map(|&(_, at)| entries[at as usize]).collect();
    entries.copy_from_slice(&sorted);
}

/// One node — exactly one page (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Level above the leaves (0 = leaf).
    pub level: u32,
    /// The `(rect, ref)` entries; at most `M` outside of transient overflow
    /// during insertion.
    pub entries: Vec<Entry>,
}

impl Node {
    /// An empty node at `level`.
    pub fn new(level: u32) -> Self {
        Node {
            level,
            entries: Vec::new(),
        }
    }

    /// An empty leaf.
    pub fn leaf() -> Self {
        Node::new(0)
    }

    /// True iff this node holds data entries.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the node has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Minimum bounding rectangle of all entries ([`Rect::empty`] when the
    /// node is empty).
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        for e in &self.entries {
            r.expand(&e.rect);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_ref_projections() {
        let p = ChildRef::Page(PageId(3));
        let d = ChildRef::Data(DataId(9));
        assert_eq!(p.page(), Some(PageId(3)));
        assert_eq!(p.data(), None);
        assert_eq!(d.data(), Some(DataId(9)));
        assert_eq!(d.page(), None);
    }

    #[test]
    fn node_mbr_covers_entries() {
        let mut n = Node::leaf();
        assert!(n.is_leaf());
        assert!(n.mbr().is_empty());
        n.entries
            .push(Entry::data(Rect::from_corners(0., 0., 1., 1.), DataId(1)));
        n.entries
            .push(Entry::data(Rect::from_corners(4., -1., 5., 0.5), DataId(2)));
        assert_eq!(n.mbr(), Rect::from_corners(0., -1., 5., 1.));
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn directory_node_is_not_leaf() {
        let n = Node::new(2);
        assert!(!n.is_leaf());
        assert!(n.is_empty());
    }
}
