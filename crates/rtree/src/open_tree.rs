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
//!   dirty set marks the page and the in-memory tree holds its bytes; each
//!   is encoded and reaches the file once, at [`OpenCachedTree::flush`] —
//!   a node split and re-split between flushes costs one encode and one
//!   physical write;
//! * R\*-splits allocate their sibling pages from the file's persistent
//!   **free list** (reuse-before-append), and CondenseTree releases
//!   dissolved pages onto it, so delete-heavy churn does not grow the file;
//! * root, entry count and parameters land in the header metadata at
//!   flush.
//!
//! The invariant that makes this safe (enforced by the update-conformance
//! suite): the in-memory tree driving the updates *is* a plain [`RTree`]
//! running the standard insertion/deletion code, and the in-memory page
//! store uses the same reuse-before-append allocator as the file — so
//! after any update sequence, `flush` + `open_from` yields a tree that is
//! **page-for-page identical** to an in-memory tree that applied the same
//! updates. Identical pages mean identical traversals, which mean
//! bit-identical join results *and* `IoStats` on SJ1–SJ5.
//!
//! The mechanism: the page store records [`PageEvent`]s (touched /
//! allocated / freed, in order) while the tree code runs; after each
//! update the events replay against the update handle — `Alloc` goes to
//! [`PageSource::allocate`] with the page's encoding (which must hand back
//! the very same page id the in-memory allocator chose; divergence is a
//! hard error), `Freed` to [`PageSource::release`] plus a dirty-state
//! discard, `Touched` to an access charge plus a dirty mark — no encode,
//! that waits for the flush.

use rsj_geom::Rect;
use rsj_storage::codec::{self, StorageError};
use rsj_storage::{
    CacheConfig, IoStats, NodeAccess, NodeAccessMut, PageEvent, PageSource, SharedCacheFileAccess,
    SharedPageCache, StoreFile, UPDATE_MAX_HEIGHT,
};
use std::path::Path;
use std::sync::Arc;

use crate::node::DataId;
use crate::persist::{encode_meta, to_disk};
use crate::tree::RTree;

/// An R\*-tree open for incremental updates on one store of a
/// [`SharedPageCache`] (module docs): updates run through the latched
/// shared frames while parallel joins may serve reads from the same
/// cache.
///
/// **Dropped unflushed, it abandons its updates since the last flush.**
/// Their dirty marks are discarded from the cache with it: the in-memory
/// tree was the only source of those pages' bytes, so a later handle on
/// the same store flushes only its own pages. The file keeps its last
/// flush plus the slots this tree allocated or released since, which
/// were written at once — what a crash leaves.
#[derive(Debug)]
pub struct OpenCachedTree {
    tree: RTree,
    /// The update handle of the tree's store.
    access: SharedCacheFileAccess<StoreFile>,
    /// Clears the store's dirty marks when the tree goes away.
    _marks: DirtyMarks,
    /// Event-replay scratch.
    events: Vec<PageEvent>,
    /// Node-encoding scratch for allocations.
    buf: Vec<u8>,
    /// Physical slot size of the file (fixed at creation).
    slot: usize,
    /// On-disk entry format of the file.
    format: codec::EntryFormat,
    /// Set when an event replay failed partway: the in-memory tree has
    /// the update, the file has only a prefix of it. Every further
    /// update or flush is refused — persisting the divergence would
    /// corrupt the file silently.
    poisoned: bool,
}

/// The dirty marks an [`OpenCachedTree`] owns on its store: dropped with
/// the tree, they are cleared, since nothing else can encode their pages.
/// After a successful [`OpenCachedTree::close`] there are none left.
#[derive(Debug)]
struct DirtyMarks {
    cache: Arc<SharedPageCache>,
    store: u8,
}

impl Drop for DirtyMarks {
    fn drop(&mut self) {
        self.cache.clear_store_dirty(self.store);
    }
}

impl OpenCachedTree {
    /// Opens the page file at `path` read-write for incremental updates,
    /// over a private one-store [`SharedPageCache`] of `cap_pages` frames
    /// whose update handle buffers through a logical LRU of `cap_pages`.
    /// Opening the cache starts its completion queue's
    /// [`QUEUE_DEPTH`](rsj_storage::QUEUE_DEPTH) reader threads. Dirty
    /// pages reach the file at [`OpenCachedTree::flush`] (and pages the
    /// update allocates or releases, at once), never at eviction.
    pub fn open(path: impl AsRef<Path>, cap_pages: usize) -> Result<Self, StorageError> {
        let paths = [path.as_ref().to_path_buf()];
        let cfg = CacheConfig::default();
        let cache = SharedPageCache::open(&paths, cap_pages, &[UPDATE_MAX_HEIGHT], cfg)?;
        Self::open_cached(&cache, 0, cap_pages)
    }

    /// Opens store `store` of a live [`SharedPageCache`] for incremental
    /// updates: the returned tree shares the cache's frames with every
    /// concurrent join worker — its writes take the per-frame write
    /// latch, its dirty marks ride the frames until
    /// [`OpenCachedTree::flush`], and its logical [`IoStats`] replay the
    /// private-buffer oracle of capacity `cap_pages` bit-for-bit.
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
    /// size and free list — the lockstep the event replay depends on.
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
        let slot = file.slot_bytes();
        let format = file.entry_format();
        if format != codec::EntryFormat::F64 {
            // F32 encoding is lossy: replaying an insert would write
            // outward-rounded coordinates while the in-memory tree keeps
            // exact f64 — the flush+reopen page-identity invariant (and
            // with it exact-rect deletion) would silently break. Updates
            // on compressed files need rounding applied in memory first;
            // until then, refuse rather than corrupt.
            return Err(StorageError::Corrupt(
                "in-place updates require the f64 entry format; \
                 re-save compressed files with EntryFormat::F64 first"
                    .into(),
            ));
        }
        tree.store.enable_event_tracking();
        let _marks = DirtyMarks {
            cache: Arc::clone(access.cache()),
            store: access.store(),
        };
        Ok(OpenCachedTree {
            tree,
            access,
            _marks,
            events: Vec::new(),
            buf: Vec::new(),
            slot,
            format,
            poisoned: false,
        })
    }

    /// True once an event replay failed partway (module field docs):
    /// the pair is desynchronized and refuses further updates/flushes.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poisoned(&self) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Corrupt(
                "open tree is poisoned: a previous update replay failed \
                 partway, so the file no longer matches the in-memory tree \
                 — reopen from the last flushed state"
                    .into(),
            ));
        }
        Ok(())
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
        self.check_poisoned()?;
        if !rect.is_well_formed() {
            return Err(StorageError::MalformedRect([
                rect.xl, rect.yl, rect.xu, rect.yu,
            ]));
        }
        self.tree.insert(rect, id);
        self.apply_events()
    }

    /// Deletes the data entry `(rect, id)`, through the buffer manager.
    /// Returns `true` if an entry was removed.
    pub fn delete(&mut self, rect: &Rect, id: DataId) -> Result<bool, StorageError> {
        self.check_poisoned()?;
        let hit = self.tree.delete(rect, id);
        self.apply_events()?;
        Ok(hit)
    }

    /// Replays the recorded page events of one update against the
    /// update handle, in mutation order (module docs). A failure poisons
    /// the handle: the in-memory update already happened, the file holds
    /// only a prefix of it, and nothing may widen that gap.
    fn apply_events(&mut self) -> Result<(), StorageError> {
        let res = self.apply_events_inner();
        if res.is_err() {
            self.poisoned = true;
        }
        res
    }

    fn apply_events_inner(&mut self) -> Result<(), StorageError> {
        self.events.clear();
        self.tree.store.take_events(&mut self.events);
        let store = self.access.store();
        for i in 0..self.events.len() {
            match self.events[i] {
                PageEvent::Touched(p) => {
                    // The depth only drives path-buffer bookkeeping; the
                    // node's current level gives its depth in the current
                    // tree (a page freed later in this batch reads as a
                    // cleared leaf — harmless, its dirty state dies with
                    // the Freed event).
                    let depth = self
                        .tree
                        .depth_of_level(self.tree.node(p).level)
                        .min(UPDATE_MAX_HEIGHT - 1);
                    self.access.access(store, p, depth);
                    self.access.write(store, p);
                }
                PageEvent::Alloc(p) => {
                    codec::encode_node_fmt(
                        &to_disk(self.tree.node(p)),
                        self.slot,
                        self.format,
                        &mut self.buf,
                    )?;
                    let got = self.access.store_file_mut().allocate(&self.buf)?;
                    if got != p {
                        return Err(StorageError::Corrupt(format!(
                            "allocator divergence: file allocated {got}, tree expected {p}"
                        )));
                    }
                }
                PageEvent::Freed(p) => {
                    self.access.discard(store, p);
                    self.access.store_file_mut().release(p)?;
                }
            }
        }
        Ok(())
    }

    /// Encodes every dirty page from the in-memory tree and writes it to
    /// the file, once each ([`SharedPageCache::flush_dirty`]), stores
    /// root/len/params in the header metadata, and writes the header
    /// ([`PageSource::flush`] — through the OS, not synced). After a
    /// flush, `open_from` on the same path yields a tree page-for-page
    /// identical to [`OpenCachedTree::tree`].
    ///
    /// **Why encoding at flush writes the right bytes.** What a dirty
    /// page `p` must reach the file as is its content after the last
    /// update that changed it. Every mutable borrow of a node records a
    /// `Touched` event (the page store's event tracking), every `Touched`
    /// page is marked dirty, and the tree is private to this type — so
    /// nothing changes a node without marking it, and `self.tree.node(p)`
    /// at flush *is* that last content. A page released since it was
    /// marked had its mark discarded with the `Freed` event; one
    /// re-allocated since then was written whole by its `Alloc` and is
    /// marked again by any later change. So each dirty page is encoded
    /// once here, however many updates touched it.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.check_poisoned()?;
        // No read may still be in flight when the write-back starts: the
        // cache's queue holds its own handles onto the same physical file.
        self.access.drain_completions();
        let OpenCachedTree {
            tree,
            access,
            slot,
            format,
            ..
        } = self;
        access.flush_writes(&mut |p, buf| {
            codec::encode_node_fmt(&to_disk(tree.node(p)), *slot, *format, buf)
        })?;
        let meta = encode_meta(&self.tree);
        let file = self.access.store_file_mut();
        file.set_meta(meta);
        file.flush()?;
        debug_assert_eq!(
            self.access.store_file().free_pages(),
            self.tree.page_store().free_pages(),
            "file and tree free lists must stay in lockstep"
        );
        Ok(())
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
    use rsj_storage::{PageFile, PageId, TempDir};
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
    /// the time and re-dirties them after; until the flush, no page the
    /// script neither allocates nor releases may change on file.
    #[test]
    fn pages_reach_the_file_only_at_flush_once_each() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        let seed = build(200);
        seed.save_to(&path).unwrap();
        let slots = |path: &Path| {
            let mut f = PageFile::open(path).unwrap();
            let n = f.page_count();
            (0..n)
                .map(|i| f.read_page(PageId(i)).unwrap())
                .collect::<Vec<_>>()
        };
        let before = slots(&path);

        // The oracle runs the same script with event tracking on, to know
        // which pages were allocated, released, and written but not
        // discarded since the last flush.
        let mut oracle = seed.clone();
        oracle.store.enable_event_tracking();
        let (mut allocated, mut released) = (HashSet::new(), HashSet::new());
        let mut pending = HashSet::new();
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
                match e {
                    PageEvent::Touched(p) => {
                        pending.insert(p);
                    }
                    PageEvent::Alloc(p) => {
                        allocated.insert(p);
                    }
                    PageEvent::Freed(p) => {
                        pending.remove(&p);
                        released.insert(p);
                    }
                }
            }
        });
        let cache = Arc::clone(open.access().cache());
        assert!(cache.evictions() > 0, "the script must evict dirty frames");
        assert_eq!(cache.physical_writes(), 0, "nothing written before flush");
        let during = slots(&path);
        let mut untouched = 0;
        for (i, bytes) in before.iter().enumerate() {
            let p = PageId(i as u32);
            if !allocated.contains(&p) && !released.contains(&p) {
                assert_eq!(&during[i], bytes, "page {p} changed before the flush");
                untouched += 1;
            }
        }
        assert!(untouched > 0, "the check must cover pages");

        open.flush().unwrap();
        assert_eq!(
            cache.physical_writes(),
            pending.len() as u64,
            "one write per distinct page written and not discarded"
        );
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
            assert!(!open.is_poisoned(), "a refusal is not a failed replay");
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
            // The in-memory tree does not check; its file must not open.
            let mut t = build(5);
            t.insert(bad, DataId(999));
            t.save_to(&path).unwrap();
            let err = RTree::open_from(&path).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt(msg) if msg.contains("inverted corners")),
                "{err}"
            );
        }
    }

    #[test]
    fn f32_files_refuse_in_place_updates() {
        // Lossy re-encoding would desynchronize file and tree (and make
        // entries undeletable by their exact rects after reopen) — a
        // typed refusal, not silent corruption.
        use rsj_storage::EntryFormat;
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t32.rsj");
        build(150)
            .save_to_with_format(&path, EntryFormat::F32)
            .unwrap();
        let err = OpenCachedTree::open(&path, 8).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
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
