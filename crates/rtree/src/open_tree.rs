//! Incremental updates on open page files: [`OpenCachedTree`].
//!
//! [`OpenCachedTree`] is what the paper's §3.1 premise demands of a
//! persisted tree (an R-tree is *completely dynamic*; insertions and
//! deletions intermix with queries with no global reorganization, so an
//! update must not cost a whole-tree `save_to` rewrite): `insert` and
//! `delete` run against a tree sitting on an **open**
//! [`rsj_storage::PageFile`], with every page effect flowing through the
//! buffer manager of a [`SharedPageCache`] — the one write path of the
//! storage layer:
//!
//! * pages the update mutates are charged as reads
//!   ([`rsj_storage::NodeAccess::access`]: path buffer → LRU → real read,
//!   which the update handle makes on its own thread); the descent and
//!   ChooseSubtree read the in-memory tree and are not charged;
//! * mutated pages are registered dirty
//!   ([`rsj_storage::NodeAccessMut::write`]): the handle's private pool
//!   charges the write-back at its eviction or flush, while the cache's
//!   dirty set marks the page and the in-memory tree holds its bytes;
//! * pages an R\*-split allocates and pages CondenseTree releases are
//!   marked dirty the same way, without a logical charge: the tree's own
//!   [`rsj_storage::PageStore`] is the only allocator (reuse-before-append
//!   off its free list, so delete-heavy churn does not grow the file);
//! * at [`OpenCachedTree::flush`] every dirty page — node or free-chain
//!   marker — is encoded from the tree and reaches the file once, a page
//!   allocated past the file's end as its next append; then the free
//!   list, root, entry count and parameters land in the header. A node
//!   split and re-split between flushes costs one encode and one
//!   physical write, and the file's bytes change nowhere else.
//!
//! The invariant that makes this safe (enforced by the update-conformance
//! suite): the in-memory tree driving the updates *is* a plain [`RTree`]
//! running the standard insertion/deletion code, and every page the file
//! holds is that tree's page of the same id — so after any update
//! sequence, `flush` + `open_from` yields a tree that is **page-for-page
//! identical** to an in-memory tree that applied the same updates.
//! Identical pages mean identical traversals, which mean bit-identical
//! join results *and* `IoStats` on SJ1–SJ5.
//!
//! The mechanism: the page store records [`PageEvent`]s (touched /
//! allocated / freed, in order) while the tree code runs; after each
//! update the events replay against the update handle — `Touched` as an
//! access charge plus a dirty mark, `Alloc` as a dirty mark, `Freed` as a
//! dirty-state discard plus a dirty mark — and nothing is encoded or
//! written until the flush. A replay only marks pages, so it cannot fail.

use rsj_geom::Rect;
use rsj_storage::codec::StorageError;
use rsj_storage::{
    CacheConfig, IoStats, NodeAccess, NodeAccessMut, PageEvent, PageSource, SharedCacheFileAccess,
    SharedPageCache, StoreFile, UPDATE_MAX_HEIGHT,
};
use std::path::Path;
use std::sync::Arc;

use crate::node::DataId;
use crate::persist::encode_meta;
use crate::tree::RTree;

/// An R\*-tree open for incremental updates on one store of a
/// [`SharedPageCache`] (module docs): updates mark the shared frames
/// dirty while parallel joins may serve reads from the same cache.
///
/// **Dropped unflushed, it abandons its updates since the last flush.**
/// Their dirty marks are discarded from the cache with it: the in-memory
/// tree was the only source of those pages' bytes, so a later handle on
/// the same store flushes only its own pages. The file keeps its last
/// flush, byte for byte — what a crash leaves too.
#[derive(Debug)]
pub struct OpenCachedTree {
    tree: RTree,
    /// The update handle of the tree's store.
    access: SharedCacheFileAccess<StoreFile>,
    /// Event-replay scratch.
    events: Vec<PageEvent>,
}

impl OpenCachedTree {
    /// Opens the page file at `path` read-write for incremental updates,
    /// over a private one-store [`SharedPageCache`] of `cap_pages` frames
    /// whose update handle buffers through a logical LRU of `cap_pages`.
    /// Opening the cache starts its completion queue's
    /// [`QUEUE_DEPTH`](rsj_storage::QUEUE_DEPTH) reader threads. Dirty
    /// pages reach the file at [`OpenCachedTree::flush`], never at
    /// eviction.
    pub fn open(path: impl AsRef<Path>, cap_pages: usize) -> Result<Self, StorageError> {
        let paths = [path.as_ref().to_path_buf()];
        let cfg = CacheConfig::default();
        let cache = SharedPageCache::open(&paths, cap_pages, &[UPDATE_MAX_HEIGHT], cfg)?;
        Self::open_cached(&cache, 0, cap_pages)
    }

    /// Opens store `store` of a live [`SharedPageCache`] for incremental
    /// updates: the returned tree shares the cache's frames with every
    /// concurrent join worker — a write marks its frame dirty in one lock
    /// hold and waits on no join, its dirty marks ride the frames until
    /// [`OpenCachedTree::flush`], and its logical [`IoStats`] replay the
    /// private-buffer oracle of capacity `cap_pages` bit-for-bit. One
    /// store has at most one live updater: while another is open on
    /// `store`, this is the typed error of
    /// [`SharedPageCache::update_handle`].
    pub fn open_cached(
        cache: &Arc<SharedPageCache>,
        store: u8,
        cap_pages: usize,
    ) -> Result<Self, StorageError> {
        let mut access = cache.update_handle(store, cap_pages)?;
        let tree = RTree::load(access.store_file_mut())?;
        access.store_file_mut().reset_io(); // loading is not update I/O
        Self::from_parts(tree, access)
    }

    /// Pairs a loaded [`RTree`] with the update handle of the file it was
    /// loaded from. Validates that tree and file agree on page count, page
    /// size and free list: the flush appends after the file's last page
    /// and rewrites only the pages the tree changed.
    fn from_parts(
        mut tree: RTree,
        access: SharedCacheFileAccess<StoreFile>,
    ) -> Result<Self, StorageError> {
        let file = access.store_file();
        if file.page_count() as usize != tree.allocated_pages() {
            return Err(StorageError::Corrupt(format!(
                "file holds {} pages but the tree allocated {}",
                file.page_count(),
                tree.allocated_pages()
            )));
        }
        file.check_page_bytes(tree.params().page_bytes)?;
        if file.free_pages() != tree.page_store().free_pages() {
            return Err(StorageError::Corrupt(
                "file and tree disagree on the free list".into(),
            ));
        }
        tree.store.enable_event_tracking();
        Ok(OpenCachedTree {
            tree,
            access,
            events: Vec::new(),
        })
    }

    /// The tree, for queries and joins. Mutating it directly would
    /// desynchronize the file — all mutation goes through
    /// [`OpenCachedTree::insert`] / [`OpenCachedTree::delete`].
    #[inline]
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The update handle (counter inspection, the file, the cache).
    #[inline]
    pub fn access(&self) -> &SharedCacheFileAccess<StoreFile> {
        &self.access
    }

    /// I/O charged by the updates so far (reads through the buffer
    /// hierarchy plus [`IoStats::page_writes`] write-backs). Settles any
    /// outstanding asynchronous reads first, so the cache's physical read
    /// counters are comparable to the charges at the moment this returns.
    #[inline]
    pub fn io_stats(&self) -> IoStats {
        self.access.drain_completions();
        self.access.io_stats()
    }

    /// Inserts a data rectangle, through the buffer manager. A rectangle
    /// with a non-finite coordinate or inverted corners is refused with
    /// [`StorageError::MalformedRect`] before anything changes.
    pub fn insert(&mut self, rect: Rect, id: DataId) -> Result<(), StorageError> {
        if !rect.is_well_formed() {
            return Err(StorageError::MalformedRect([
                rect.xl, rect.yl, rect.xu, rect.yu,
            ]));
        }
        self.tree.insert(rect, id);
        self.apply_events();
        Ok(())
    }

    /// Deletes the data entry `(rect, id)`, through the buffer manager.
    /// Returns `true` if an entry was removed.
    pub fn delete(&mut self, rect: &Rect, id: DataId) -> Result<bool, StorageError> {
        let hit = self.tree.delete(rect, id);
        self.apply_events();
        Ok(hit)
    }

    /// Replays the recorded page events of one update against the
    /// update handle, in mutation order (module docs).
    fn apply_events(&mut self) {
        self.events.clear();
        self.tree.store.take_events(&mut self.events);
        let store = self.access.store();
        for i in 0..self.events.len() {
            match self.events[i] {
                PageEvent::Touched(p) => {
                    // The depth only drives path-buffer bookkeeping; the
                    // node's current level gives its depth in the current
                    // tree (a page freed later in this batch reads as a
                    // cleared leaf — harmless, its charge dies with the
                    // Freed event).
                    let depth = self
                        .tree
                        .depth_of_level(self.tree.node(p).level)
                        .min(UPDATE_MAX_HEIGHT - 1);
                    self.access.access(store, p, depth);
                    self.access.write(store, p);
                }
                PageEvent::Alloc(p) => self.access.cache().write(store, p),
                PageEvent::Freed(p) => {
                    self.access.discard(store, p);
                    self.access.cache().write(store, p);
                }
            }
        }
    }

    /// Encodes every dirty page from the in-memory tree and writes it to
    /// the file, once each and in page order
    /// ([`SharedPageCache::flush_dirty`]), a page past the file's end as
    /// its next append; then records the free list and root/len/params in
    /// the header and writes it ([`PageSource::flush`] — through the OS,
    /// not synced). After a flush, `open_from` on the same path yields a
    /// tree page-for-page identical to [`OpenCachedTree::tree`].
    ///
    /// **Why encoding at flush writes the right bytes.** What a dirty
    /// page `p` must reach the file as is its content after the last
    /// update that changed it. Every mutable borrow of a node records a
    /// `Touched` event (the page store's event tracking), every
    /// allocation an `Alloc` and every release a `Freed`, each of them
    /// marks `p` dirty, and the tree is private to this type — so nothing
    /// changes a page without marking it, and the tree's page `p` at flush
    /// (a node, or a free-chain marker if `p` is on the free list) *is*
    /// that last content. A free page's marker links to the page freed
    /// before it, which does not change while it stays on the LIFO list.
    /// Every page allocated since the last flush is dirty and the pages
    /// come in ascending order, so the file grows one append at a time.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        // No read may still be in flight when the write-back starts: the
        // cache's queue holds its own handles onto the same physical file.
        self.access.drain_completions();
        let encode = self
            .tree
            .slot_encoder(self.access.store_file().slot_bytes());
        self.access.flush_writes(&mut |p, buf| encode(p, buf))?;
        let file = self.access.store_file_mut();
        debug_assert_eq!(file.page_count() as usize, self.tree.allocated_pages());
        file.set_free_list(self.tree.page_store().free_pages())?;
        file.set_meta(encode_meta(&self.tree));
        file.flush()
    }

    /// Flushes and returns the update handle (and with it the file).
    /// On a flush failure the tree comes back alongside the error —
    /// dirty set intact; the tree holds the bytes — so the caller can
    /// recover (free space, retry [`OpenCachedTree::flush`]) instead of
    /// silently losing acknowledged updates with the dropped handle.
    #[allow(clippy::result_large_err)] // the handle IS the recovery path
    pub fn close(mut self) -> Result<SharedCacheFileAccess<StoreFile>, (Self, StorageError)> {
        match self.flush() {
            Ok(()) => Ok(self.access),
            Err(e) => Err((self, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{InsertPolicy, RTreeParams};
    use rsj_storage::{PageId, TempDir};
    use std::collections::HashSet;

    fn rect_for(i: u64) -> Rect {
        let x = (i % 25) as f64 * 10.0;
        let y = (i / 25) as f64 * 10.0;
        Rect::from_corners(x, y, x + 7.0, y + 7.0)
    }

    fn build(n: u64) -> RTree {
        let mut t = RTree::new(RTreeParams::explicit(256, 8, 3, InsertPolicy::RStar));
        for i in 0..n {
            t.insert(rect_for(i), DataId(i));
        }
        t
    }

    /// Applies the same scripted update mix to any sink: the callback
    /// receives `(rect, id, is_insert)`.
    fn script(mut op: impl FnMut(Rect, DataId, bool)) {
        for i in 0..60u64 {
            op(rect_for(i * 3 % 200), DataId(i * 3 % 200), false);
            op(rect_for(500 + i), DataId(500 + i), true);
            if i % 7 == 0 {
                op(rect_for(500 + i), DataId(500 + i), false);
            }
        }
    }

    fn assert_page_identical(a: &RTree, b: &RTree) {
        assert_eq!(a.allocated_pages(), b.allocated_pages());
        assert_eq!(a.root(), b.root());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.page_store().free_pages(), b.page_store().free_pages());
        for id in 0..a.allocated_pages() {
            let p = PageId(id as u32);
            assert_eq!(a.node(p), b.node(p), "page {p}");
        }
    }

    #[test]
    fn updates_through_the_file_match_the_in_memory_oracle() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        let seed = build(200);
        seed.save_to(&path).unwrap();

        // Oracle: plain in-memory updates.
        let mut oracle = seed.clone();
        script(|r, id, ins| {
            if ins {
                oracle.insert(r, id);
            } else {
                oracle.delete(&r, id);
            }
        });

        // Device under test: the same updates through the open file.
        let mut open = OpenCachedTree::open(&path, 16).unwrap();
        script(|r, id, ins| {
            if ins {
                open.insert(r, id).unwrap();
            } else {
                open.delete(&r, id).unwrap();
            }
        });
        let io = open.io_stats();
        assert!(io.disk_accesses > 0, "updates must charge reads");
        open.flush().unwrap();
        assert!(io.page_writes <= open.io_stats().page_writes);
        assert!(open.io_stats().page_writes > 0, "updates must write");
        assert_page_identical(open.tree(), &oracle);
        drop(open);

        // And the file itself round-trips the updated tree exactly.
        let back = RTree::open_from(&path).unwrap();
        back.validate().unwrap();
        assert_page_identical(&back, &oracle);
    }

    /// Dirty pages reach the file at flush, once each — not at eviction.
    /// A one-frame cache under an update script evicts dirty pages all
    /// the time and re-dirties them after; until the flush, not one byte
    /// of the file may change, and the flush writes each page the script
    /// touched, allocated or released exactly once.
    #[test]
    fn pages_reach_the_file_only_at_flush_once_each() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        let seed = build(200);
        seed.save_to(&path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // The oracle runs the same script with event tracking on, to know
        // which pages changed since the last flush.
        let mut oracle = seed.clone();
        oracle.store.enable_event_tracking();
        let (mut changed, mut kinds) = (HashSet::new(), [false; 3]);
        let mut events = Vec::new();
        let mut open = OpenCachedTree::open(&path, 1).unwrap();
        script(|r, id, ins| {
            if ins {
                oracle.insert(r, id);
                open.insert(r, id).unwrap();
            } else {
                oracle.delete(&r, id);
                open.delete(&r, id).unwrap();
            }
            oracle.store.take_events(&mut events);
            for e in events.drain(..) {
                let (kind, p) = match e {
                    PageEvent::Touched(p) => (0, p),
                    PageEvent::Alloc(p) => (1, p),
                    PageEvent::Freed(p) => (2, p),
                };
                kinds[kind] = true;
                changed.insert(p);
            }
        });
        let cache = Arc::clone(open.access().cache());
        assert!(cache.evictions() > 0, "the script must evict dirty frames");
        assert_eq!(
            kinds, [true; 3],
            "the script must touch, allocate and release"
        );
        assert_eq!(cache.physical_writes(), 0, "nothing written before flush");
        assert!(std::fs::read(&path).unwrap() == before, "the file changed");

        open.flush().unwrap();
        assert_eq!(
            cache.physical_writes(),
            changed.len() as u64,
            "one write per distinct page touched, allocated or released"
        );
        assert_eq!(open.access().store_file().writes(), cache.physical_writes());
        assert_eq!(cache.pending_write_back(), 0);
        drop(open);
        let back = RTree::open_from(&path).unwrap();
        back.validate().unwrap();
        assert_page_identical(&back, &oracle);
    }

    /// A cold reset of the cache between updates and their flush loses
    /// nothing: the dirty pages stay dirty, drained, and the flush still
    /// writes them before the header that names the new root and length.
    #[test]
    fn a_cold_reset_before_the_flush_keeps_acknowledged_updates() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        let seed = build(200);
        seed.save_to(&path).unwrap();
        let cache = SharedPageCache::open(
            std::slice::from_ref(&path),
            16,
            &[UPDATE_MAX_HEIGHT],
            CacheConfig::default(),
        )
        .unwrap();
        let mut oracle = seed.clone();
        let mut open = OpenCachedTree::open_cached(&cache, 0, 16).unwrap();
        for i in 0..200u64 {
            let (r, id) = (rect_for(1_000 + i), DataId(1_000 + i));
            oracle.insert(r, id);
            open.insert(r, id).unwrap();
        }
        let pending = cache.pending_write_back();
        assert!(pending > 0);
        cache.clear();
        assert_eq!(cache.resident_pages(), 0, "the cache went cold");
        assert_eq!(cache.pending_write_back(), pending, "and kept every mark");
        open.flush().unwrap();
        assert_eq!(cache.physical_writes(), pending as u64);
        drop(open);
        let back = RTree::open_from(&path).unwrap();
        back.validate().unwrap();
        assert_page_identical(&back, &oracle);
    }

    #[test]
    fn delete_heavy_churn_reuses_pages_instead_of_growing_the_file() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        build(300).save_to(&path).unwrap();
        let mut open = OpenCachedTree::open(&path, 16).unwrap();
        let before = open.access().store_file().page_count();
        // Churn: delete a block, insert a block, repeatedly. Deletions
        // must populate the free list and insertions must drain it —
        // that is the reuse the file-growth bound depends on.
        let mut saw_free = 0usize;
        let mut reused = 0usize;
        for round in 0..6u64 {
            for i in 0..40 {
                let id = round * 40 + i;
                open.delete(&rect_for(id % 300), DataId(id % 300)).unwrap();
            }
            let freed = open.tree().free_page_count();
            saw_free = saw_free.max(freed);
            for i in 0..40 {
                let id = round * 40 + i;
                open.insert(rect_for(id % 300), DataId(id % 300)).unwrap();
            }
            reused += freed.saturating_sub(open.tree().free_page_count());
        }
        open.flush().unwrap();
        let after = open.access().store_file().page_count();
        assert!(saw_free > 0, "deletions must release pages");
        assert!(reused > 0, "insertions must reuse released pages");
        assert!(
            after <= before + 16,
            "free-list reuse must bound file growth: {before} -> {after} pages \
             ({reused} slots reused)"
        );
        let freed = open.tree().free_page_count();
        drop(open);
        let back = RTree::open_from(&path).unwrap();
        back.validate().unwrap();
        assert_eq!(back.free_page_count(), freed, "free list round-trips");
        assert_eq!(back.len(), 300);
    }

    #[test]
    fn zero_capacity_buffer_charges_write_through() {
        // The paper's "buffer size = 0" configuration: nothing can stay
        // resident, so every dirty page is charged as a write-through at
        // once, while its bytes wait in the cache for the flush — and the
        // updated file must still be byte-equivalent to the oracle.
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        let seed = build(200);
        seed.save_to(&path).unwrap();
        let mut oracle = seed.clone();
        let mut open = OpenCachedTree::open(&path, 0).unwrap();
        script(|r, id, ins| {
            if ins {
                oracle.insert(r, id);
                open.insert(r, id).unwrap();
            } else {
                oracle.delete(&r, id);
                open.delete(&r, id).unwrap();
            }
        });
        assert!(open.io_stats().page_writes > 0, "write-through charges");
        open.flush().unwrap();
        assert_page_identical(open.tree(), &oracle);
        drop(open);
        let back = RTree::open_from(&path).unwrap();
        back.validate().unwrap();
        assert_page_identical(&back, &oracle);
    }

    /// A NaN, an infinite and an inverted rectangle: none may be stored.
    fn malformed_rects() -> [Rect; 3] {
        [
            Rect {
                xl: f64::NAN,
                yl: 0.0,
                xu: 1.0,
                yu: 1.0,
            },
            Rect {
                xl: 0.0,
                yl: 0.0,
                xu: f64::INFINITY,
                yu: 1.0,
            },
            Rect {
                xl: 2.0,
                yl: 0.0,
                xu: 1.0,
                yu: 1.0,
            },
        ]
    }

    #[test]
    fn malformed_rects_are_refused_before_anything_changes() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        let seed = build(200);
        seed.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut open = OpenCachedTree::open(&path, 16).unwrap();
        for bad in malformed_rects() {
            let err = open.insert(bad, DataId(999)).unwrap_err();
            assert!(matches!(err, StorageError::MalformedRect(_)), "{err}");
        }
        assert_page_identical(open.tree(), &seed);
        assert_eq!(open.io_stats(), IoStats::default());
        assert_eq!(open.access().cache().pending_write_back(), 0);
        drop(open);
        assert!(std::fs::read(&path).unwrap() == bytes, "the file changed");

        let mut open = OpenCachedTree::open(&path, 16).unwrap();
        open.insert(rect_for(7), DataId(999)).unwrap();
        assert_eq!(open.tree().len(), 201, "a well-formed insert still lands");
    }

    #[test]
    fn a_file_carrying_a_malformed_rect_opens_as_corrupt() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        for bad in malformed_rects() {
            // `save_to` does not check; a file carrying the rect (planted
            // in the root leaf, since `insert` refuses it) must not open.
            let mut t = build(5);
            let root = t.root();
            t.node_mut(root).entries[4].rect = bad;
            t.save_to(&path).unwrap();
            let err = RTree::open_from(&path).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt(msg) if msg.contains("inverted corners")),
                "{err}"
            );
        }
    }

    #[test]
    fn from_parts_rejects_a_desynchronized_pair() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        build(100).save_to(&path).unwrap();
        let other = build(200); // a different tree: page counts disagree
        let cache = SharedPageCache::open(&[path], 8, &[UPDATE_MAX_HEIGHT], CacheConfig::default())
            .unwrap();
        let access = cache.update_handle(0, 8).unwrap();
        let err = OpenCachedTree::from_parts(other, access).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }
}
