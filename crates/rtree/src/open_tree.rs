//! Incremental updates on open page files: [`OpenTree`].
//!
//! [`OpenTree`] is what the paper's §3.1 premise demands of a persisted
//! tree (an R-tree is *completely dynamic*; insertions and deletions
//! intermix with queries with no global reorganization, so an update must
//! not cost a whole-tree `save_to` rewrite):
//! `insert` and `delete` run against a tree sitting on an **open**
//! [`rsj_storage::PageFile`], with every page effect flowing through the
//! buffer manager —
//!
//! * pages the update descends through are charged as reads
//!   ([`rsj_storage::NodeAccess::access`]: path buffer → LRU → real read);
//! * mutated pages are registered dirty with their encoded payload
//!   ([`rsj_storage::NodeAccessMut::write`]) and written back when evicted
//!   (pin-aware) or at [`OpenTree::flush`] — a node split and re-split
//!   between evictions costs one physical write;
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
//! update the events replay against the backend — `Alloc` goes to
//! [`PageSource::allocate`] (which must hand back the very same page
//! id the in-memory allocator chose; divergence is a hard error), `Freed`
//! to [`PageSource::release`] plus a dirty-state discard, `Touched`
//! to an access charge plus a dirty registration.

use rsj_geom::Rect;
use rsj_storage::codec::{self, StorageError};
use rsj_storage::{
    EvictionPolicy, FileNodeAccess, IoStats, PageEvent, PageFile, PageSource,
    SharedCacheFileAccess, SharedPageCache, StoreFile, UpdateBackend, UPDATE_MAX_HEIGHT,
};
use std::path::Path;
use std::sync::Arc;

use crate::node::DataId;
use crate::persist::{encode_meta, to_disk};
use crate::tree::RTree;

/// The default store tag updates are charged under (a private backend,
/// [`FileNodeAccess`], serves exactly one file, at store 0). Trees opened
/// over a multi-store [`SharedPageCache`] carry their own store tag
/// instead ([`OpenTree::from_parts_at`]).
const STORE: u8 = 0;

/// An R\*-tree open for incremental updates on its backing page file
/// (module docs). Generic over the [`UpdateBackend`]: [`OpenFileTree`]
/// over a private stack, [`OpenCachedTree`] over a shared cache.
#[derive(Debug)]
pub struct OpenTree<B: UpdateBackend> {
    tree: RTree,
    access: B,
    /// The backend store this tree's pages live under ([`STORE`] for
    /// private single-file backends; the caller's choice for a shared
    /// multi-store cache).
    store: u8,
    /// Event-replay scratch.
    events: Vec<PageEvent>,
    /// Node-encoding scratch.
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

/// [`OpenTree`] over a single [`PageFile`].
pub type OpenFileTree = OpenTree<FileNodeAccess>;

/// [`OpenTree`] over one store of a live [`SharedPageCache`]: updates run
/// through the latched shared frames while parallel joins serve reads
/// from the same pool. Opened via [`OpenCachedTree::open_cached`].
pub type OpenCachedTree = OpenTree<SharedCacheFileAccess<StoreFile>>;

impl OpenFileTree {
    /// Opens the page file at `path` read-write for incremental updates,
    /// buffering through an LRU of `cap_pages`.
    pub fn open(path: impl AsRef<Path>, cap_pages: usize) -> Result<Self, StorageError> {
        let mut file = PageFile::open_rw(path)?;
        let tree = RTree::load(&mut file)?;
        file.reset_io(); // loading is not update I/O
        let access = FileNodeAccess::with_capacity_pages(
            vec![file],
            cap_pages,
            &[UPDATE_MAX_HEIGHT],
            EvictionPolicy::Lru,
        )?;
        Self::from_parts(tree, access)
    }
}

impl OpenCachedTree {
    /// Opens store `store` of a live [`SharedPageCache`] for incremental
    /// updates: the returned tree shares the cache's frames with every
    /// concurrent join worker — its writes take the per-frame write
    /// latch, its dirty payloads ride the frames until
    /// [`OpenTree::flush`], and its logical [`IoStats`] replay the
    /// private-buffer oracle of capacity `cap_pages` bit-for-bit.
    pub fn open_cached(
        cache: &Arc<SharedPageCache>,
        store: u8,
        cap_pages: usize,
    ) -> Result<Self, StorageError> {
        let mut access = cache.update_handle(store, cap_pages)?;
        let tree = RTree::load(access.store_file_mut(store))?;
        access.store_file_mut(store).reset_io(); // loading is not update I/O
        Self::from_parts_at(tree, access, store)
    }
}

impl<B: UpdateBackend> OpenTree<B> {
    /// Builds an open tree from a loaded [`RTree`] and a write-capable
    /// backend whose store 0 serves the file the tree was loaded from
    /// (see [`OpenTree::from_parts_at`] for other stores).
    pub fn from_parts(tree: RTree, access: B) -> Result<Self, StorageError> {
        Self::from_parts_at(tree, access, STORE)
    }

    /// [`OpenTree::from_parts`] with an explicit store tag — the slot the
    /// backend serves this tree's file under (a shared cache multiplexes
    /// several stores over one frame pool). Validates that tree and file
    /// agree on page count, page size and free list — the lockstep the
    /// event replay depends on.
    pub fn from_parts_at(mut tree: RTree, access: B, store: u8) -> Result<Self, StorageError> {
        let file = access.store_file(store);
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
        Ok(OpenTree {
            tree,
            access,
            store,
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
    /// [`OpenTree::insert`] / [`OpenTree::delete`].
    #[inline]
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The backend (counter inspection).
    #[inline]
    pub fn access(&self) -> &B {
        &self.access
    }

    /// I/O charged by the updates so far (reads through the buffer
    /// hierarchy plus [`IoStats::page_writes`] write-backs). Settles any
    /// outstanding asynchronous reads first, so a completion-driven
    /// backend's physical read counters are comparable to the charges at
    /// the moment this returns.
    #[inline]
    pub fn io_stats(&self) -> IoStats {
        self.access.drain_completions();
        self.access.io_stats()
    }

    /// Inserts a data rectangle, through the buffer manager.
    pub fn insert(&mut self, rect: Rect, id: DataId) -> Result<(), StorageError> {
        self.check_poisoned()?;
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
    /// backend, in mutation order (module docs). A failure poisons the
    /// handle: the in-memory update already happened, the file holds
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
                    self.access.access(self.store, p, depth);
                    codec::encode_node_fmt(
                        &to_disk(self.tree.node(p)),
                        self.slot,
                        self.format,
                        &mut self.buf,
                    )?;
                    self.access.write(self.store, p, &self.buf);
                }
                PageEvent::Alloc(p) => {
                    codec::encode_node_fmt(
                        &to_disk(self.tree.node(p)),
                        self.slot,
                        self.format,
                        &mut self.buf,
                    )?;
                    let got = self.access.store_file_mut(self.store).allocate(&self.buf)?;
                    if got != p {
                        return Err(StorageError::Corrupt(format!(
                            "allocator divergence: file allocated {got}, tree expected {p}"
                        )));
                    }
                }
                PageEvent::Freed(p) => {
                    self.access.discard(self.store, p);
                    self.access.store_file_mut(self.store).release(p)?;
                }
            }
        }
        Ok(())
    }

    /// Writes back every dirty page, stores root/len/params in the header
    /// metadata, and writes the header ([`PageSource::flush`] — through
    /// the OS, not synced). After a flush, `open_from` on the same path
    /// yields a tree page-for-page identical to [`OpenTree::tree`].
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.check_poisoned()?;
        // No read may still be in flight when the write-back starts: a
        // completion-driven backend's queue holds its own handles onto
        // the same physical file.
        self.access.drain_completions();
        self.access.flush_writes()?;
        let meta = encode_meta(&self.tree);
        let file = self.access.store_file_mut(self.store);
        file.set_meta(meta);
        file.flush()?;
        debug_assert_eq!(
            self.access.store_file(self.store).free_pages(),
            self.tree.page_store().free_pages(),
            "file and tree free lists must stay in lockstep"
        );
        Ok(())
    }

    /// Flushes and returns the backend (and with it the file handles).
    /// On a flush failure the handle comes back alongside the error —
    /// dirty payloads intact — so the caller can recover (free space,
    /// retry [`OpenTree::flush`]) instead of silently losing acknowledged
    /// updates with the dropped handle.
    #[allow(clippy::result_large_err)] // the handle IS the recovery path
    pub fn close(mut self) -> Result<B, (Self, StorageError)> {
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
        let mut open = OpenFileTree::open(&path, 16).unwrap();
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

    #[test]
    fn delete_heavy_churn_reuses_pages_instead_of_growing_the_file() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        build(300).save_to(&path).unwrap();
        let mut open = OpenFileTree::open(&path, 16).unwrap();
        let before = open.access().store_file(STORE).page_count();
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
        let after = open.access().store_file(STORE).page_count();
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
    fn zero_capacity_buffer_writes_through() {
        // The paper's "buffer size = 0" configuration: nothing can stay
        // resident, so every dirty page writes through immediately — and
        // the updated file must still be byte-equivalent to the oracle.
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        let seed = build(200);
        seed.save_to(&path).unwrap();
        let mut oracle = seed.clone();
        let mut open = OpenFileTree::open(&path, 0).unwrap();
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
        let err = OpenFileTree::open(&path, 8).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn from_parts_rejects_a_desynchronized_pair() {
        let dir = TempDir::new("open-tree").unwrap();
        let path = dir.file("t.rsj");
        build(100).save_to(&path).unwrap();
        let other = build(200); // a different tree: page counts disagree
        let file = PageFile::open_rw(&path).unwrap();
        let access = FileNodeAccess::with_capacity_pages(
            vec![file],
            8,
            &[UPDATE_MAX_HEIGHT],
            EvictionPolicy::Lru,
        )
        .unwrap();
        let err = OpenTree::from_parts(other, access).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }
}
