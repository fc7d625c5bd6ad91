//! The shared page cache: one frame table over the submission/completion
//! queue, so file-backed parallel joins share one warm buffer, and
//! background updaters mark pages dirty under that join traffic.
//!
//! This is the one shared-frame owner of the storage layer — the §6
//! shared-buffer win: a page faulted by one worker is free for the next.
//! With only private (blocking or queued) [`FileAccess`] stacks every
//! worker owns an LRU over its own files, so the upper-level pages every
//! subtree task touches are physically read N times, and nothing stays
//! warm between requests. [`SharedPageCache`]
//! closes that gap: one frame table under one mutex holds the page budget
//! for the whole deployment — an [`LruBuffer`] (the paper's §4.1
//! replacement), the in-flight reads and one set of dirty page keys. A
//! frame holds no bytes: a frame is a ledger entry — residency,
//! single-flight and the dirty mark; the read pin is its only pin. The
//! paper's §4.3 pins are logical and live in each handle's private
//! [`crate::BufferPool`]. All physical reads flow through one
//! [`CompletionQueue`] with a lane per store.
//!
//! ## Frame states
//!
//! ```text
//!              materialize (miss)           read completes
//!   Empty ───────────────────────▶ Reading ───────────────▶ Resident
//!     ▲      submit + read pin                (settle)      │      ▲
//!     │                                               write │      │ clear_dirty /
//!     │ evict (no read pin)                                 ▼      │ flush_dirty
//!     ├────────────────────────────────────────────────── Dirty ───┘
//!     │                                                   │    ▲
//!     │                  evict or clear: the key stays    │    │ materialize:
//!     │                  in the dirty set                 ▼    │ reinstall, no read
//!     └─────────────── flush_dirty ───────────────── Drained ──┘
//! ```
//!
//! * **Empty → Reading**: a miss installs the frame, read-pins it for the
//!   duration of the read (a reading frame is never an eviction victim)
//!   and starts a single pread under one queue ticket, on one of two
//!   paths. *Inline*, the demanding thread claims the ticket and reads
//!   the page itself through the queue's lane file, so the ticket is
//!   complete before the handle returns it. *Queued*, the read is
//!   submitted to the queue's workers and the handle's cursor runs ahead
//!   while it flies. An update handle — which writes the page next —
//!   always reads inline. A join handle chooses per miss from the
//!   service times of the queue's last reads
//!   ([`CompletionQueue`] measures every one, inline or queued): inline
//!   while most were fast (a page the OS already holds, read in a few
//!   µs, cheaper than waking a worker), queued while they were slow (a
//!   device, where overlapping up to [`crate::QUEUE_DEPTH`] reads pays).
//!   A fresh cache starts queued. Concurrent demanders of the same key —
//!   from any worker — find the frame in `Reading` and adopt the *same*
//!   in-flight ticket instead of issuing a duplicate pread:
//!   single-flight. The read pin keeps the frame, and so its ticket, in
//!   the table until the read settles.
//! * **Reading → Resident**: settled lazily, the next time the frame
//!   table is touched (or explicitly by [`SharedPageCache::drain`]); the
//!   read pin is released. Every public entry point settles first, so
//!   state observations within one lock hold can never disagree.
//! * **Any state → Dirty**: [`SharedPageCache::write`] settles, installs
//!   the frame and marks it dirty in one lock hold, and waits on nothing.
//!   Nobody computes on a frame's bytes — there are none — so neither a
//!   read in flight nor a reader guards anything a write changes. A write
//!   to a `Reading` frame leaves it dirty; its read pin goes at settle.
//! * **Dirty is a mark; the writer holds the bytes.** The dirty set holds
//!   the key of every page whose newest content is not yet in its file,
//!   resident or not, and no bytes: the updater's in-memory image of the
//!   page is that content (the buffer manager's frame-state `DIRTY` bit
//!   over an in-place image), so a write copies nothing and eviction
//!   moves nothing. A dirty page the LRU has evicted — or
//!   [`SharedPageCache::clear`] dropped — is *drained* (still `Dirty`).
//!   A page leaves the dirty set with its
//!   content on file only through [`SharedPageCache::flush_dirty`], which
//!   hands each page to a caller-supplied writer that encodes and writes
//!   it — the one place pages leave the buffer, and the one place they
//!   are encoded. Otherwise its writer abandons it:
//!   [`SharedPageCache::clear_dirty`] for a released page,
//!   [`SharedPageCache::clear_store_dirty`] for a whole store whose writer
//!   is gone. A
//!   re-demand of a drained page reinstalls it without a read — reading
//!   the file would resurrect stale bytes.
//! * Eviction skips read-pinned frames ([`LruBuffer`] semantics: pinned
//!   overflow beyond capacity is legal, trimmed as pins release).
//!
//! ## Logical vs physical accounting
//!
//! Each worker drives the cache through a handle,
//! [`SharedCacheFileAccess`]: the one file stack, [`FileAccess`], with
//! [`Cached`] as its read strategy. Like every stack it owns a private
//! [`crate::BufferPool`] — the full §4.1 hierarchy ([`crate::pool`]):
//! path buffers, a logical LRU, the write-back protocol, every charge —
//! and drives it exactly as the oracle is driven. A handle's
//! [`crate::IoStats`] is therefore that of a private-buffer worker of the
//! same capacity *by construction*, independent of what other workers
//! do. Only on a charged logical miss does the strategy consult the
//! shared frame layer, where the *physical* story is decided: a resident
//! or in-flight frame costs nothing ([`FileAccess::warm_hits`]); an
//! empty frame costs one pread ([`FileAccess::cold_faults`], counted in
//! [`SharedPageCache::physical_reads`]; the share read inline in
//! [`SharedPageCache::inline_reads`]). Hence the measurable dedup:
//! `physical_reads ≤ Σ per-worker disk_accesses`, strictly `<` whenever
//! workers overlap — and a warm pool serves repeat joins at near-zero
//! physical reads while their logical charges stay exactly the paper's.
//! Resetting a handle ([`FileAccess::reset`]) zeroes its pool and tallies
//! and leaves the shared frames warm; only [`SharedPageCache::clear`]
//! makes the cache cold.
//!
//! The write path mirrors the split. A handle opened through
//! [`SharedPageCache::update_handle`] — at most one live per store — owns
//! the read-write [`PageFile`] of its store and implements
//! [`crate::NodeAccessMut`], the storage layer's one write path: its
//! *logical* `page_writes` are charged by its pool (install + dirty,
//! charged at private eviction or flush — the handle holds no bytes),
//! while the *dirty mark* rides the shared frames and the page is encoded
//! and reaches the disk once, at [`SharedPageCache::flush_dirty`] —
//! counted in [`SharedPageCache::physical_writes`]. That is the only
//! place the file's slots are written, so every write the store file
//! counts is a flushed page. The owner may mark pages dirty without a
//! logical charge (an updater's allocations and releases), so the
//! physical count is not bounded by the logical one.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::access::{EncodePage, NodeAccessMut, Ticket};
use crate::codec::StorageError;
use crate::completion::{CompletionQueue, DelayFn};
use crate::file::{PageFile, PageSource};
use crate::lru::LruBuffer;
use crate::page::PageId;
use crate::path::UPDATE_MAX_HEIGHT;
use crate::pool::BufKey;
use crate::stack::{validate_stores, FileAccess, ReadStrategy};

/// Configuration of a [`SharedPageCache`].
#[derive(Clone, Default)]
pub struct CacheConfig {
    /// Ignored: the cache is one frame table. Kept only because the repo
    /// benchmark (`benchmark/`) sets it.
    pub shards: usize,
    /// Optional per-page completion delay (tests only).
    pub delay: Option<DelayFn>,
}

impl fmt::Debug for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheConfig")
            .field("delay", &self.delay.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// The frame table: residency and recency live in the [`LruBuffer`];
/// `reading` carries the in-flight ticket of every frame currently
/// `Reading` (each such frame also holds its read pin in the LRU, so it
/// cannot be evicted under it); `dirty` is the no-lost-updates contract.
struct Frames {
    lru: LruBuffer,
    reading: HashMap<BufKey, Ticket>,
    /// Every page whose newest content is not in its file, resident or
    /// not. A key here the LRU does not hold is *drained*: evicted, not
    /// yet written.
    dirty: HashSet<BufKey>,
}

/// The concurrent frame cache. Cheap to share via [`Arc`]; it outlives
/// any single join, which is the whole point — successive requests hit
/// warm frames. Workers access it through [`SharedCacheFileAccess`]
/// handles.
pub struct SharedPageCache {
    frames: Mutex<Frames>,
    queue: CompletionQueue,
    /// Preads submitted by cache-level misses (every one becomes exactly
    /// one physical read on a queue lane).
    physical: AtomicU64,
    /// The share of `physical` the demanding thread read itself.
    inline: AtomicU64,
    /// Pages written to disk through [`SharedPageCache::flush_dirty`].
    physical_writes: AtomicU64,
    /// Physical preads split by store (index = store = lane).
    physical_by_store: Vec<AtomicU64>,
    /// Materialize calls served by a resident frame.
    frame_hits: AtomicU64,
    /// Materialize calls that adopted another worker's in-flight read
    /// (the single-flight saving, made visible).
    adoptions: AtomicU64,
    /// Materialize calls that reinstalled a drained page without a read.
    drain_hits: AtomicU64,
    heights: Vec<usize>,
    page_bytes: usize,
    /// The backing files, by store — [`SharedPageCache::update_handle`]
    /// opens its read-write handle from here.
    paths: Vec<PathBuf>,
    /// Per store: whether an update handle is open on it. A handle's
    /// drop clears its store's dirty marks and then releases its flag
    /// (`Release`); the next claim's `Acquire` pairs with it, so the next
    /// writer never sees its predecessor's marks.
    updating: Vec<AtomicBool>,
}

impl fmt::Debug for SharedPageCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedPageCache")
            .field("capacity", &self.capacity())
            .field("physical_reads", &self.physical_reads())
            .field("physical_writes", &self.physical_writes())
            .finish()
    }
}

impl SharedPageCache {
    /// Opens one cache over the page files at `paths` (store `i` = lane
    /// `i`), holding `cap_pages` frames, for trees of the given
    /// `heights`. The files are opened once, validated (consistent page
    /// size) and handed to the queue, whose worker pool is their only
    /// reader from then on.
    pub fn open(
        paths: &[PathBuf],
        cap_pages: usize,
        heights: &[usize],
        cfg: CacheConfig,
    ) -> Result<Arc<Self>, StorageError> {
        let files = paths
            .iter()
            .map(PageFile::open)
            .collect::<Result<Vec<_>, _>>()?;
        validate_stores(&files, heights)?;
        let page_bytes = files
            .first()
            .map(PageFile::page_bytes)
            .ok_or_else(|| StorageError::Corrupt("no page files".into()))?;
        let queue = CompletionQueue::over(files, cfg.delay);
        Ok(Arc::new(SharedPageCache {
            frames: Mutex::new(Frames {
                lru: LruBuffer::new(cap_pages),
                reading: HashMap::new(),
                dirty: HashSet::new(),
            }),
            queue,
            physical: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            physical_writes: AtomicU64::new(0),
            physical_by_store: paths.iter().map(|_| AtomicU64::new(0)).collect(),
            frame_hits: AtomicU64::new(0),
            adoptions: AtomicU64::new(0),
            drain_hits: AtomicU64::new(0),
            heights: heights.to_vec(),
            page_bytes,
            paths: paths.to_vec(),
            updating: paths.iter().map(|_| AtomicBool::new(false)).collect(),
        }))
    }

    /// A worker's view: private path buffers (sized from the cache's
    /// heights), a private logical LRU of `cap_pages` and zeroed
    /// [`crate::IoStats`] over the shared frame layer. It reads and nothing
    /// else: a join handle is a [`crate::NodeAccess`], never a
    /// [`NodeAccessMut`] — the write path is a different type,
    /// [`SharedPageCache::update_handle`].
    ///
    /// An updater takes the one and refuses the other at compile time:
    ///
    /// ```no_run
    /// # use rsj_storage::{CacheConfig, NodeAccessMut, SharedPageCache};
    /// fn updater(_: impl NodeAccessMut) {}
    /// let cache = SharedPageCache::open(&[], 8, &[], CacheConfig::default()).unwrap();
    /// updater(cache.update_handle(0, 8).unwrap());
    /// ```
    ///
    /// ```compile_fail,E0277
    /// # use rsj_storage::{CacheConfig, NodeAccessMut, SharedPageCache};
    /// fn updater(_: impl NodeAccessMut) {}
    /// let cache = SharedPageCache::open(&[], 8, &[], CacheConfig::default()).unwrap();
    /// updater(cache.handle(8)); // a join handle is not a `NodeAccessMut`
    /// ```
    pub fn handle(self: &Arc<Self>, cap_pages: usize) -> SharedCacheFileAccess {
        FileAccess::assemble(cap_pages, &self.heights, Cached::new(Arc::clone(self), ()))
    }

    /// A worker's view *with the write path open* for `store`: the
    /// returned handle owns a read-write [`PageFile`] on that store
    /// ([`FileAccess::store_file`]) and a path buffer sized for any
    /// height an updated tree can grow to ([`UPDATE_MAX_HEIGHT`]).
    /// Logical write charges are its pool's; dirty marks ride the shared
    /// frames until [`NodeAccessMut::flush_writes`] encodes and writes
    /// each page once through [`SharedPageCache::flush_dirty`].
    ///
    /// A store has one writer: while another update handle on `store` is
    /// alive this is a typed [`StorageError::Io`] of kind
    /// [`std::io::ErrorKind::ResourceBusy`]. Dropping a handle discards
    /// its store's dirty marks — their bytes lived with the writer — and
    /// frees the store for the next one.
    pub fn update_handle(
        self: &Arc<Self>,
        store: u8,
        cap_pages: usize,
    ) -> Result<SharedCacheFileAccess<StoreFile>, StorageError> {
        let path = self.paths.get(store as usize).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "store {store} out of range of a {}-store cache",
                self.paths.len()
            ))
        })?;
        let mut heights = self.heights.clone();
        heights[store as usize] = UPDATE_MAX_HEIGHT;
        let file = PageFile::open_rw(path)?;
        if self.updating[store as usize].swap(true, Ordering::AcqRel) {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::ResourceBusy,
                format!("store {store} already has a live update handle"),
            )));
        }
        let writes = StoreFile {
            cache: Arc::clone(self),
            store,
            file,
        };
        let reads = Cached::new(Arc::clone(self), writes);
        Ok(FileAccess::assemble(cap_pages, &heights, reads))
    }

    /// Locks the frame table, recovering from a poisoned mutex: every
    /// mutation under the lock leaves the table structurally consistent
    /// between statements, so a worker that panicked mid-critical-section
    /// can at worst leak a stale recency order or an extra read pin — no
    /// reason to cascade-abort the rest of the fleet.
    fn lock_frames(&self) -> MutexGuard<'_, Frames> {
        self.frames.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flips every completed `Reading` frame to `Resident` and releases
    /// its read pin. Cheap: the in-flight set is bounded by the queue
    /// depth, the frames the completion frontier has passed settle
    /// without the queue's lock, and the rest — reads that completed out
    /// of order, or not yet — take it once
    /// ([`CompletionQueue::retain_pending`]). Every public entry point
    /// settles on entry — the uniform discipline that keeps frame-state
    /// observations coherent within one lock hold.
    fn settle(&self, s: &mut Frames) {
        if s.reading.is_empty() {
            return;
        }
        let Frames { reading, lru, .. } = s;
        self.queue.retain_pending(reading, |key| lru.unpin(key));
    }

    /// Serves one charged logical miss for `(store, page)`: returns the
    /// ticket the caller's cursor may park on and whether a *fresh*
    /// physical read was submitted (`false` = the frame was already
    /// resident, in flight, or drained — a warm hit, the cross-worker
    /// saving).
    pub fn materialize(&self, store: u8, page: PageId) -> (Ticket, bool) {
        self.materialize_with(store, page, CompletionQueue::submit)
    }

    /// [`SharedPageCache::materialize`] for a caller that reads its own
    /// miss, into `buf`, before this returns (see [`MissPath`] for who
    /// does): a hand-off to a worker would park the caller on a read
    /// that costs less than the hand-off, or fetch bytes nobody consumes
    /// while the caller waits for them anyway. The ticket is issued
    /// already claimed ([`CompletionQueue::claim`]) and recorded in
    /// `reading` like a submitted one, so another handle demanding the
    /// page meanwhile adopts it; the read itself is the worker's
    /// ([`CompletionQueue::serve_claimed`]) on the calling thread, and it
    /// is complete before this returns the ticket.
    fn materialize_inline(&self, store: u8, page: PageId, buf: &mut Vec<u8>) -> (Ticket, bool) {
        let mut claimed = None;
        let served = self.materialize_with(store, page, |queue, key| {
            let job = queue.claim(key);
            let ticket = Ticket(job.ticket);
            claimed = Some(job);
            ticket
        });
        if let Some(job) = claimed {
            self.inline.fetch_add(1, Ordering::Relaxed);
            self.queue.serve_claimed(&job, buf);
        }
        served
    }

    /// The frame-table half of a charged miss; `start` issues the ticket
    /// of a fresh physical read.
    fn materialize_with(
        &self,
        store: u8,
        page: PageId,
        start: impl FnOnce(&CompletionQueue, BufKey) -> Ticket,
    ) -> (Ticket, bool) {
        let key = BufKey::new(store, page);
        let mut s = self.lock_frames();
        self.settle(&mut s);
        if let Some(&ticket) = s.reading.get(&key) {
            // Single-flight: adopt the in-flight read, touch recency.
            s.lru.access(key);
            self.adoptions.fetch_add(1, Ordering::Relaxed);
            return (ticket, false);
        }
        if s.lru.contains(key) {
            s.lru.access(key);
            self.frame_hits.fetch_add(1, Ordering::Relaxed);
            return (Ticket::NONE, false);
        }
        if s.dirty.contains(&key) {
            // Drained re-demand: the newest content is the writer's, not
            // the file's — a pread would resurrect stale data.
            // Reinstall, no physical read. (If every other slot is
            // read-pinned the install is evicted on the spot and the page
            // simply stays drained, still flushable.)
            s.lru.install(key);
            self.drain_hits.fetch_add(1, Ordering::Relaxed);
            return (Ticket::NONE, false);
        }
        // Empty → Reading: install the frame, read-pin it so eviction
        // skips it, start exactly one pread of the store's file. The frame
        // table, not the queue, is the single-flight authority.
        s.lru.install(key);
        s.lru.pin(key);
        let ticket = start(&self.queue, key);
        s.reading.insert(key, ticket);
        self.physical.fetch_add(1, Ordering::Relaxed);
        self.physical_by_store[store as usize].fetch_add(1, Ordering::Relaxed);
        (ticket, true)
    }

    /// Marks `(store, page)` dirty: settles, installs the frame and adds
    /// it to the dirty set, all in one lock hold. It waits on nothing: a
    /// frame holds no bytes, so no reader computes on what a write
    /// changes, and a `Reading` frame keeps its read pin and is resident
    /// and dirty once its read settles. It copies nothing either: the
    /// page is written, from its writer's current bytes, at
    /// [`SharedPageCache::flush_dirty`] — never silently dropped, even if
    /// the frame cannot be held at all (every slot read-pinned by other
    /// frames): the page is then drained at once.
    pub fn write(&self, store: u8, page: PageId) {
        let key = BufKey::new(store, page);
        let mut s = self.lock_frames();
        self.settle(&mut s);
        s.lru.install(key);
        s.dirty.insert(key);
    }

    /// Clears the dirty state of a page *without* writing — the owner
    /// already wrote the bytes back (or abandoned them), resident or
    /// drained.
    pub fn clear_dirty(&self, store: u8, page: PageId) {
        let key = BufKey::new(store, page);
        let mut s = self.lock_frames();
        self.settle(&mut s);
        s.dirty.remove(&key);
    }

    /// Clears the dirty state of every page of `store` without writing —
    /// the writer that held their bytes is gone, so nothing can flush
    /// them any more.
    pub fn clear_store_dirty(&self, store: u8) {
        let mut s = self.lock_frames();
        self.settle(&mut s);
        s.dirty.retain(|k| k.store != store);
    }

    /// Hands every pending dirty page of `store` — resident or drained —
    /// to `write`, which encodes the page's current bytes and writes
    /// them: once each and in key order, charging
    /// [`SharedPageCache::physical_writes`] once per page and cleaning
    /// each page after its write succeeds — the only way a page leaves
    /// the dirty set with its content on file. Error-safe: pages written
    /// before a failure are clean, the failing page and the rest stay
    /// dirty — a retry resumes where this stopped.
    pub fn flush_dirty(
        &self,
        store: u8,
        mut write: impl FnMut(PageId) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let mut s = self.lock_frames();
        self.settle(&mut s);
        let mut keys: Vec<BufKey> = s
            .dirty
            .iter()
            .copied()
            .filter(|k| k.store == store)
            .collect();
        keys.sort_unstable();
        for key in keys {
            write(key.page)?;
            self.physical_writes.fetch_add(1, Ordering::Relaxed);
            s.dirty.remove(&key);
        }
        Ok(())
    }

    /// Physical preads submitted by cache misses so far. After
    /// [`SharedPageCache::drain`], equals the queue's completed read
    /// count — every submission became exactly one pread.
    #[inline]
    pub fn physical_reads(&self) -> u64 {
        self.physical.load(Ordering::Relaxed)
    }

    /// The physical reads of [`SharedPageCache::physical_reads`] that the
    /// demanding handle served on its own thread rather than through the
    /// queue's workers: every miss of an update handle, and a join
    /// handle's while recent reads were fast (module docs, "Empty →
    /// Reading"). An inline read is still a queue read: it has a ticket,
    /// a lane count and a [`crate::completion::CompletionLag`] sample,
    /// whose queue wait is zero.
    #[inline]
    pub fn inline_reads(&self) -> u64 {
        self.inline.load(Ordering::Relaxed)
    }

    /// Pages physically written through [`SharedPageCache::flush_dirty`]
    /// so far — one per distinct page marked dirty since its last flush,
    /// however many logical writes it was charged.
    #[inline]
    pub fn physical_writes(&self) -> u64 {
        self.physical_writes.load(Ordering::Relaxed)
    }

    /// Physical preads split by store (index = store = lane). Sums to
    /// [`SharedPageCache::physical_reads`].
    pub fn physical_reads_by_store(&self) -> Vec<u64> {
        self.physical_by_store
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Materialize calls served by an already-resident frame.
    #[inline]
    pub fn frame_hits(&self) -> u64 {
        self.frame_hits.load(Ordering::Relaxed)
    }

    /// Materialize calls that adopted another worker's in-flight read
    /// instead of issuing a duplicate pread (single-flight savings).
    #[inline]
    pub fn adoptions(&self) -> u64 {
        self.adoptions.load(Ordering::Relaxed)
    }

    /// Materialize calls that reinstalled a drained page (its newest
    /// content is its writer's, so the file is not touched).
    #[inline]
    pub fn drain_hits(&self) -> u64 {
        self.drain_hits.load(Ordering::Relaxed)
    }

    /// Frames evicted since open (or the last
    /// [`SharedPageCache::clear`]'s LRU reset).
    pub fn evictions(&self) -> u64 {
        self.lock_frames().lru.evictions()
    }

    /// Drained pages right now — dirty, no longer resident: the
    /// write-back backlog eviction has produced.
    pub fn drain_depth(&self) -> usize {
        let s = self.lock_frames();
        s.dirty.iter().filter(|&&k| !s.lru.contains(k)).count()
    }

    /// Fraction of materialize calls served without a physical read
    /// (resident frame, adopted in-flight read, or drained page). 1.0
    /// when every request was warm; 0.0 with no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let warm = self.frame_hits() + self.adoptions() + self.drain_hits();
        let total = warm + self.physical_reads();
        if total == 0 {
            0.0
        } else {
            warm as f64 / total as f64
        }
    }

    /// Dirty pages the cache currently holds (resident + drained) — what
    /// a full [`SharedPageCache::flush_dirty`] sweep would write.
    pub fn pending_write_back(&self) -> usize {
        let mut s = self.lock_frames();
        self.settle(&mut s);
        s.dirty.len()
    }

    /// The completion queue all physical reads flow through.
    #[inline]
    pub fn queue(&self) -> &CompletionQueue {
        &self.queue
    }

    /// Frame capacity in pages.
    pub fn capacity(&self) -> usize {
        self.lock_frames().lru.capacity()
    }

    /// Frames currently resident or in flight.
    pub fn resident_pages(&self) -> usize {
        self.lock_frames().lru.len()
    }

    /// Tree heights the cache was opened for (path-buffer sizing).
    #[inline]
    pub fn heights(&self) -> &[usize] {
        &self.heights
    }

    /// Logical page size of the underlying stores.
    #[inline]
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Waits out every in-flight read and settles the frame table:
    /// afterwards no frame is `Reading` and `physical_reads` equals the
    /// queue's completed reads (the honesty point).
    pub fn drain(&self) {
        self.queue.drain();
        let mut s = self.lock_frames();
        self.settle(&mut s);
    }

    /// Zeroes the physical-read/-write and queue counters while keeping
    /// every frame resident and every dirty page dirty — the *warm* reset
    /// between measured runs.
    pub fn reset_stats(&self) {
        self.drain();
        self.queue.reset();
        self.physical.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.reset_telemetry();
    }

    fn reset_telemetry(&self) {
        self.inline.store(0, Ordering::Relaxed);
        for c in &self.physical_by_store {
            c.store(0, Ordering::Relaxed);
        }
        self.frame_hits.store(0, Ordering::Relaxed);
        self.adoptions.store(0, Ordering::Relaxed);
        self.drain_hits.store(0, Ordering::Relaxed);
    }

    /// Drops every frame and zeroes the counters — a cold cache. Dirty
    /// pages stay dirty: they become drained and the next
    /// [`SharedPageCache::flush_dirty`] still writes them, so a cold
    /// reset never loses an acknowledged update.
    pub fn clear(&self) {
        self.drain();
        let mut s = self.lock_frames();
        s.lru.clear();
        s.lru.reset_io();
        s.reading.clear();
        drop(s);
        self.queue.reset();
        self.physical.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.reset_telemetry();
    }
}

/// A worker's stack over a [`SharedPageCache`]: the [`FileAccess`] whose
/// read strategy is [`Cached`] (module docs, "Logical vs physical
/// accounting"). `W` is the handle's write capability: `()` — what
/// [`SharedPageCache::handle`] returns — reads only; [`StoreFile`], what
/// [`SharedPageCache::update_handle`] returns, owns the read-write
/// [`PageFile`] of its store and drives updates through [`NodeAccessMut`].
pub type SharedCacheFileAccess<W = ()> = FileAccess<Cached<W>>;

/// Read strategy: a charged miss is [`SharedPageCache::materialize`],
/// read by a queue worker or on the calling thread (module docs, "Empty
/// → Reading"); the stack's pins stay in its own pool. It owns its
/// handle on the cache, the write capability `W`, the buffer its inline
/// reads land in (and an update handle's flush encodes into) and two
/// tallies of how its misses were served; the frames, the queue and the
/// physical reads belong to the cache.
#[derive(Debug)]
pub struct Cached<W = ()> {
    cache: Arc<SharedPageCache>,
    writes: W,
    scratch: Vec<u8>,
    /// Charged misses served by a frame already resident or in flight.
    warm_hits: u64,
    /// Charged misses that submitted the physical read themselves.
    cold_faults: u64,
}

impl<W> Cached<W> {
    fn new(cache: Arc<SharedPageCache>, writes: W) -> Self {
        Cached {
            cache,
            writes,
            scratch: Vec::new(),
            warm_hits: 0,
            cold_faults: 0,
        }
    }
}

/// Which of the two read paths a cached handle's charged miss takes, by
/// its write capability. Either way the frame table decides whether a
/// physical read happens at all, and the read is one queue ticket.
///
/// * An update handle ([`StoreFile`]) reads on its own thread
///   ([`SharedPageCache::materialize_inline`]): it writes the page next,
///   so a worker's read would only make it wait.
/// * A join handle (`()`) asks the queue how fast its recent reads were
///   ([`CompletionQueue::reads_are_fast`], measured service times only).
///   While they were fast — pages the OS already holds — it reads inline
///   too: a hand-off to a worker costs more than the read, and a parked
///   cursor keeps its core's other work (the leaf-pair helper) waiting.
///   While they were slow — a real or modelled device — it submits the
///   read to the queue's workers ([`SharedPageCache::materialize`]) and
///   runs ahead while up to [`crate::QUEUE_DEPTH`] reads overlap. A fresh
///   cache starts on the queue, and each miss decides anew, so the path
///   follows the device both ways.
pub(crate) trait MissPath {
    /// Whether a charged miss on `cache` is read on the calling thread.
    fn reads_inline(&self, cache: &SharedPageCache) -> bool;
}

impl MissPath for () {
    #[inline]
    fn reads_inline(&self, cache: &SharedPageCache) -> bool {
        cache.queue.reads_are_fast()
    }
}

impl MissPath for StoreFile {
    #[inline]
    fn reads_inline(&self, _: &SharedPageCache) -> bool {
        true
    }
}

impl<W: MissPath> ReadStrategy for Cached<W> {
    #[inline]
    fn queue(&self) -> Option<&CompletionQueue> {
        Some(&self.cache.queue)
    }

    fn read(&mut self, store: u8, page: PageId) -> Ticket {
        let cache = &self.cache;
        let (ticket, fresh) = if self.writes.reads_inline(cache) {
            cache.materialize_inline(store, page, &mut self.scratch)
        } else {
            cache.materialize(store, page)
        };
        if fresh {
            self.cold_faults += 1;
        } else {
            self.warm_hits += 1;
        }
        ticket
    }

    /// [`SharedPageCache::drain`]: also settles the `Reading` frames.
    fn drain(&self) {
        self.cache.drain();
    }

    /// Zeroes the handle's own tallies. The cache is every worker's;
    /// going cold is its owner's call ([`SharedPageCache::clear`]).
    fn reset(&mut self) {
        self.warm_hits = 0;
        self.cold_faults = 0;
    }
}

/// The write capability of an update handle: the read-write file of the
/// one store it was opened for. Dropped, it discards the store's dirty
/// marks and frees the store for the next writer
/// ([`SharedPageCache::update_handle`]).
#[derive(Debug)]
pub struct StoreFile {
    cache: Arc<SharedPageCache>,
    store: u8,
    file: PageFile,
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        self.cache.clear_store_dirty(self.store);
        self.cache.updating[self.store as usize].store(false, Ordering::Release);
    }
}

impl<W> FileAccess<Cached<W>> {
    /// The cache this handle charges against.
    #[inline]
    pub fn cache(&self) -> &Arc<SharedPageCache> {
        &self.reads.cache
    }

    /// Charged misses a warm or in-flight frame served
    /// (`warm_hits + cold_faults == disk_accesses`).
    #[inline]
    pub fn warm_hits(&self) -> u64 {
        self.reads.warm_hits
    }

    /// Charged misses that paid for their own pread.
    #[inline]
    pub fn cold_faults(&self) -> u64 {
        self.reads.cold_faults
    }
}

impl NodeAccessMut for FileAccess<Cached<StoreFile>> {
    /// Registers a mutated page: the *logical* charge is the private
    /// pool's ([`crate::BufferPool::mark_dirty`]), while the dirty mark
    /// goes to the shared frames ([`SharedPageCache::write`]).
    fn write(&mut self, store: u8, page: PageId) {
        self.pool.mark_dirty(store, page);
        self.reads.cache.write(store, page);
    }

    fn discard(&mut self, store: u8, page: PageId) {
        self.pool.discard_dirty(store, page);
        self.reads.cache.clear_dirty(store, page);
    }

    /// Charges one logical write per remaining private dirty page
    /// ([`crate::BufferPool::flush_writes`]), then takes every dirty page
    /// of the store this handle owns through
    /// [`SharedPageCache::flush_dirty`]: `encode` fills the handle's
    /// scratch with the page's bytes, and the handle writes them to the
    /// real file — in place, or as its next append when the page is the
    /// first past its end. The pages come in ascending order, so an owner
    /// that marks every page it allocates grows the file one append at a
    /// time; any other page past the end is a typed error.
    fn flush_writes(&mut self, encode: &mut EncodePage<'_>) -> Result<(), StorageError> {
        self.pool.flush_writes();
        let Cached {
            cache,
            writes,
            scratch,
            ..
        } = &mut self.reads;
        let StoreFile { store, file, .. } = writes;
        cache.flush_dirty(*store, |page| {
            encode(page, scratch)?;
            if page.0 == file.page_count() {
                file.append_page(scratch).map(drop)
            } else {
                file.write_page(page, scratch)
            }
        })
    }
}

impl FileAccess<Cached<StoreFile>> {
    /// The store this handle was opened for.
    #[inline]
    pub fn store(&self) -> u8 {
        self.reads.writes.store
    }

    /// The read-write file of [`FileAccess::store`].
    #[inline]
    pub fn store_file(&self) -> &PageFile {
        &self.reads.writes.file
    }

    /// The read-write file of [`FileAccess::store`], mutably (free list,
    /// metadata, header).
    #[inline]
    pub fn store_file_mut(&mut self) -> &mut PageFile {
        &mut self.reads.writes.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::NodeAccess;
    use crate::codec::{self, META_BYTES};
    use crate::pool::{BufferPool, IoStats};
    use crate::temp::TempDir;
    use std::panic::AssertUnwindSafe;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Observable state of one cache frame (see the module diagram): what
    /// the state-machine tests assert on.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum FrameState {
        /// Not resident, no read in flight, no write-back pending.
        Empty,
        /// A single-flight pread is in flight; the frame is read-pinned.
        Reading,
        /// Bytes are resident and clean.
        Resident,
        /// The page's newest content is not in the file (write-back
        /// pending) — either a dirty resident frame or a drained page the
        /// LRU has evicted.
        Dirty,
    }

    impl SharedPageCache {
        /// The observable state of the frame of `(store, page)`. Settles
        /// first, so a completed read reports `Resident`. A drained page
        /// reports `Dirty`: its newest content is still not in the file.
        fn frame_state(&self, store: u8, page: PageId) -> FrameState {
            let key = BufKey::new(store, page);
            let mut s = self.lock_frames();
            self.settle(&mut s);
            if s.reading.contains_key(&key) {
                FrameState::Reading
            } else if s.dirty.contains(&key) {
                FrameState::Dirty
            } else if s.lru.contains(key) {
                FrameState::Resident
            } else {
                FrameState::Empty
            }
        }

        /// Pin count of the frame of `(store, page)`: its read pin while
        /// it is `Reading`, else 0. Settles first, so a completed read's
        /// pin is not miscounted.
        fn pin_count(&self, store: u8, page: PageId) -> u32 {
            let key = BufKey::new(store, page);
            let mut s = self.lock_frames();
            self.settle(&mut s);
            s.lru.pin_count(key)
        }
    }

    /// A delay hook that holds every read of `page` until the returned
    /// sender is dropped (or ten seconds pass, so a failing test cannot
    /// hang): a read pin that lasts as long as a test needs it.
    fn gate(page: u32) -> (mpsc::Sender<()>, DelayFn) {
        let (open, wait) = mpsc::channel::<()>();
        let wait = Mutex::new(wait);
        let hook: DelayFn = Arc::new(move |key: BufKey| {
            if key.page == PageId(page) {
                let _ = wait.lock().unwrap().recv_timeout(Duration::from_secs(10));
            }
            None
        });
        (open, hook)
    }

    fn demo_file(dir: &TempDir, name: &str, pages: u32) -> PathBuf {
        let slot = codec::slot_bytes_for(2);
        let path = dir.file(name);
        let mut f = PageFile::create(&path, 1024, slot).unwrap();
        let mut buf = Vec::new();
        for i in 0..pages {
            let node = codec::DiskNode {
                level: 0,
                entries: vec![codec::DiskEntry {
                    rect: [f64::from(i), 0.0, f64::from(i) + 1.0, 1.0],
                    child: u64::from(i),
                }],
            };
            codec::encode_node(&node, slot, &mut buf).unwrap();
            f.append_page(&buf).unwrap();
        }
        f.set_meta([7; META_BYTES]);
        f.flush().unwrap();
        path
    }

    fn cache(
        dir: &TempDir,
        pages: u32,
        cap: usize,
        delay: Option<DelayFn>,
    ) -> Arc<SharedPageCache> {
        let path = demo_file(dir, "t.rsj", pages);
        SharedPageCache::open(
            &[path],
            cap,
            &[2],
            CacheConfig {
                delay,
                ..CacheConfig::default()
            },
        )
        .unwrap()
    }

    /// A valid encoded node payload that fits the demo file's slots.
    fn node_bytes(tag: u32) -> Vec<u8> {
        let slot = codec::slot_bytes_for(2);
        let node = codec::DiskNode {
            level: 0,
            entries: vec![codec::DiskEntry {
                rect: [f64::from(tag), 2.0, f64::from(tag) + 3.0, 5.0],
                child: u64::from(tag),
            }],
        };
        let mut buf = Vec::new();
        codec::encode_node(&node, slot, &mut buf).unwrap();
        buf
    }

    #[test]
    fn a_read_completing_before_an_older_one_is_resident_at_the_next_settle() {
        let dir = TempDir::new("cache").unwrap();
        let (open, hook) = gate(1);
        let c = cache(&dir, 4, 4, Some(hook));
        let (older, fresh_older) = c.materialize(0, PageId(1));
        let (younger, fresh_younger) = c.materialize(0, PageId(2));
        assert!(fresh_older && fresh_younger && older < younger);
        c.queue().await_ticket(younger);
        assert!(
            !c.queue().is_settled(younger),
            "the gated older read holds the frontier back"
        );
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Resident);
        assert_eq!(c.pin_count(0, PageId(2)), 0, "read pin released at settle");
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Reading);
        drop(open);
        c.queue().await_settled(younger);
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Resident);
        assert_eq!(c.pin_count(0, PageId(1)), 0);
    }

    #[test]
    fn frame_walks_the_state_machine() {
        let dir = TempDir::new("cache").unwrap();
        let slow: DelayFn = Arc::new(|_| Some(Duration::from_millis(15)));
        let c = cache(&dir, 4, 4, Some(slow));
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Empty);
        let (ticket, fresh) = c.materialize(0, PageId(1));
        assert!(fresh);
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Reading);
        assert!(
            c.pin_count(0, PageId(1)) > 0,
            "reading frames carry a read pin"
        );
        c.queue().await_ticket(ticket);
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Resident);
        assert_eq!(c.pin_count(0, PageId(1)), 0, "read pin released at settle");
        c.write(0, PageId(1));
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Dirty);
        c.clear_dirty(0, PageId(1));
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Resident);
        assert_eq!(c.physical_reads(), 1);
    }

    #[test]
    fn clearing_a_stores_dirty_marks_leaves_the_other_stores() {
        let dir = TempDir::new("cache").unwrap();
        let paths = [demo_file(&dir, "a.rsj", 4), demo_file(&dir, "b.rsj", 4)];
        let c = SharedPageCache::open(&paths, 8, &[2, 2], CacheConfig::default()).unwrap();
        for page in [PageId(0), PageId(2)] {
            c.write(0, page);
            c.write(1, page);
        }
        c.clear_store_dirty(0);
        assert_eq!(c.pending_write_back(), 2);
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Resident);
        assert_eq!(c.frame_state(1, PageId(2)), FrameState::Dirty);
        let mut flushed = Vec::new();
        c.flush_dirty(0, |page| {
            flushed.push(page);
            Ok(())
        })
        .unwrap();
        assert!(flushed.is_empty(), "nothing of store 0 is left to write");
    }

    #[test]
    fn concurrent_demanders_share_one_read() {
        let dir = TempDir::new("cache").unwrap();
        let slow: DelayFn = Arc::new(|_| Some(Duration::from_millis(25)));
        let c = cache(&dir, 4, 4, Some(slow));
        let tickets: Vec<(Ticket, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    scope.spawn(move || c.materialize(0, PageId(2)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = tickets.iter().filter(|&&(_, f)| f).count();
        assert_eq!(fresh, 1, "exactly one demander submits");
        let t = tickets.iter().find(|&&(_, f)| f).unwrap().0;
        for &(ticket, f) in &tickets {
            if !f {
                assert_eq!(ticket, t, "adopters park on the single in-flight ticket");
            }
        }
        c.drain();
        assert_eq!(c.physical_reads(), 1);
        assert_eq!(c.queue().total_reads(), 1, "one pread for four demanders");
    }

    #[test]
    fn eviction_skips_pinned_frames() {
        let dir = TempDir::new("cache").unwrap();
        let (gate, hook) = gate(0);
        let c = cache(&dir, 8, 2, Some(hook));
        let (slow, fresh) = c.materialize(0, PageId(0));
        assert!(fresh);
        for p in 1..6u32 {
            let (ticket, _) = c.materialize(0, PageId(p));
            c.queue().await_ticket(ticket);
        }
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Reading,
            "a read-pinned frame survives eviction pressure"
        );
        drop(gate);
        c.queue().await_ticket(slow);
        for p in 6..8u32 {
            c.materialize(0, PageId(p));
        }
        c.drain();
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Empty,
            "a settled frame is evictable again"
        );
        // A re-miss after eviction is a fresh physical read.
        let (_, fresh) = c.materialize(0, PageId(0));
        assert!(fresh);
    }

    /// The writer's side of store 0's dirty pages: the current bytes of
    /// every page it wrote, which a flush asks for.
    #[derive(Default)]
    struct Image(HashMap<PageId, Vec<u8>>);

    impl Image {
        /// Changes `page` to `bytes` and marks it dirty in the cache.
        fn write(&mut self, c: &SharedPageCache, page: PageId, bytes: &[u8]) {
            self.0.insert(page, bytes.to_vec());
            c.write(0, page);
        }
    }

    /// What one `flush_dirty` of store 0 wrote, in order.
    fn flushed(c: &SharedPageCache, img: &Image) -> Vec<(PageId, Vec<u8>)> {
        let mut written = Vec::new();
        c.flush_dirty(0, |page| {
            written.push((page, img.0[&page].clone()));
            Ok(())
        })
        .unwrap();
        written
    }

    #[test]
    fn dirty_eviction_carries_the_payload() {
        // Evicting a dirty frame drops only its residency: the dirty
        // set keeps the page until the flush writes its current bytes.
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        let mut img = Image::default();
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        img.write(&c, PageId(0), b"payload-zero");
        // Pressure: two more pages push out the clean frame, then the
        // dirty one.
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3));
        c.drain();
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Dirty,
            "a drained page still reports Dirty: the file is behind"
        );
        assert_eq!(c.drain_depth(), 1);
        assert_eq!(
            flushed(&c, &img),
            vec![(PageId(0), b"payload-zero".to_vec())],
            "the flush writes the evicted page's payload"
        );
        assert!(flushed(&c, &img).is_empty(), "written means written");
        assert_eq!(c.drain_depth(), 0);
        assert_eq!(c.frame_state(0, PageId(0)), FrameState::Empty);
    }

    #[test]
    fn evicted_dirty_page_redemands_from_the_drain() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        let mut img = Image::default();
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        img.write(&c, PageId(0), b"drain me");
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3)); // evicts dirty page 0 into the drain
        c.drain();
        let before = c.physical_reads();
        let (ticket, fresh) = c.materialize(0, PageId(0));
        assert!(!fresh, "the newest bytes sit in the drain, not the file");
        assert_eq!(ticket, Ticket::NONE);
        assert_eq!(c.physical_reads(), before, "no pread of stale file bytes");
        assert_eq!(c.frame_state(0, PageId(0)), FrameState::Dirty);
        // The drained page still flushes, with its writer's bytes.
        assert_eq!(flushed(&c, &img), vec![(PageId(0), b"drain me".to_vec())]);
        assert_eq!(c.physical_writes(), 1);
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Resident,
            "flushed frame is clean and still warm"
        );
        assert_eq!(c.pending_write_back(), 0);
    }

    #[test]
    fn write_to_an_unholdable_frame_goes_straight_to_the_drain() {
        let dir = TempDir::new("cache").unwrap();
        let (gate, hook) = gate(1);
        let c = cache(&dir, 4, 1, Some(hook));
        let mut img = Image::default();
        c.materialize(0, PageId(1)); // the only frame slot is read-pinned
        img.write(&c, PageId(2), b"homeless");
        assert_eq!(c.drain_depth(), 1);
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Dirty);
        assert_eq!(
            flushed(&c, &img),
            vec![(PageId(2), b"homeless".to_vec())],
            "an unbufferable write must still reach the flush"
        );
        drop(gate);
        c.drain();
    }

    #[test]
    fn drained_redemand_with_no_free_slot_keeps_the_payload_flushable() {
        // Regression: re-demanding a drained page while every slot is
        // pinned used to move the payload into the resident-payload map
        // without residency — invisible to flush, leaked forever. It must
        // stay in the drain instead.
        let dir = TempDir::new("cache").unwrap();
        let (gate, hook) = gate(1);
        let c = cache(&dir, 4, 1, Some(hook));
        let mut img = Image::default();
        c.materialize(0, PageId(1)); // the only slot is read-pinned throughout
        img.write(&c, PageId(2), b"parked");
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Dirty);
        let (ticket, fresh) = c.materialize(0, PageId(2));
        assert!(!fresh, "drained payload serves the re-demand");
        assert_eq!(ticket, Ticket::NONE);
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Dirty);
        assert_eq!(flushed(&c, &img), vec![(PageId(2), b"parked".to_vec())]);
        assert_eq!(c.pending_write_back(), 0, "nothing may leak");
        drop(gate);
        c.drain();
    }

    #[test]
    fn a_write_to_a_reading_frame_waits_for_nothing() {
        let dir = TempDir::new("cache").unwrap();
        let (gate, hook) = gate(1);
        let c = cache(&dir, 4, 4, Some(hook));
        let (ticket, fresh) = c.materialize(0, PageId(1));
        assert!(fresh);
        c.write(0, PageId(1));
        assert_eq!(
            c.frame_state(0, PageId(1)),
            FrameState::Reading,
            "the write returned with the read still in flight"
        );
        assert_eq!(c.pending_write_back(), 1);
        drop(gate);
        c.queue().await_ticket(ticket);
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Dirty);
        assert_eq!(c.pin_count(0, PageId(1)), 0, "read pin released at settle");
        assert_eq!(c.drain_depth(), 0, "resident and dirty");
        assert_eq!(c.physical_reads(), 1);
    }

    #[test]
    fn an_update_handle_writes_a_page_it_pins() {
        // Regression: a handle's pins used to be mirrored onto the shared
        // frames, and a write waited until its frame held no pin, so a
        // thread that wrote a page it pinned waited for itself forever.
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        let (done, wrote) = mpsc::channel();
        let writer = std::thread::spawn({
            let c = Arc::clone(&c);
            move || {
                let mut h = c.update_handle(0, 4).unwrap();
                assert!(h.access(0, PageId(1), 1));
                h.pin(0, PageId(1));
                NodeAccessMut::write(&mut h, 0, PageId(1));
                h.unpin(0, PageId(1));
                done.send(()).unwrap();
                h
            }
        });
        wrote
            .recv_timeout(Duration::from_secs(10))
            .expect("the write of a pinned page never returned");
        let mut h = writer.join().unwrap();
        let mut asked = Vec::new();
        NodeAccessMut::flush_writes(&mut h, &mut |p, buf| {
            asked.push(p);
            *buf = node_bytes(p.0);
            Ok(())
        })
        .unwrap();
        assert_eq!(asked, [PageId(1)], "the flush encodes the page once");
        assert_eq!(c.physical_writes(), 1);
        assert_eq!(h.store_file().writes(), 1, "and writes it once");
    }

    #[test]
    fn fresh_write_supersedes_a_drained_copy() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        let mut img = Image::default();
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        img.write(&c, PageId(0), b"stale");
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3)); // dirty page 0 -> drain
        c.drain();
        img.write(&c, PageId(0), b"current");
        assert_eq!(
            c.drain_depth(),
            0,
            "the stale drained copy must be superseded, not stay drained"
        );
        assert_eq!(flushed(&c, &img), vec![(PageId(0), b"current".to_vec())]);
    }

    #[test]
    fn flush_dirty_failure_is_retryable_without_losing_payloads() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 4, None);
        let mut img = Image::default();
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        img.write(&c, PageId(0), b"a");
        img.write(&c, PageId(1), b"b");
        let err = c.flush_dirty(0, |_| Err(StorageError::Corrupt("disk full".into())));
        assert!(err.is_err());
        assert_eq!(c.pending_write_back(), 2, "the pages stay dirty");
        assert_eq!(
            flushed(&c, &img),
            vec![(PageId(0), b"a".to_vec()), (PageId(1), b"b".to_vec())]
        );
        assert_eq!(c.pending_write_back(), 0);
    }

    #[test]
    fn one_dirty_table_holds_resident_and_drained_pages() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 3, None);
        let mut img = Image::default();
        let resident_dirty = |c: &SharedPageCache| {
            let s = c.lock_frames();
            s.dirty.iter().filter(|&&k| s.lru.contains(k)).count()
        };
        for p in 0..3u32 {
            c.materialize(0, PageId(p));
        }
        c.drain();
        for (p, bytes) in [(0u32, "zero"), (1, "one"), (2, "two")] {
            img.write(&c, PageId(p), bytes.as_bytes());
        }
        // Recency [2, 1, 0]: two more pages drain 0, then 1.
        c.materialize(0, PageId(3));
        c.materialize(0, PageId(4));
        c.drain();
        img.write(&c, PageId(3), b"three");
        assert_eq!(c.drain_depth(), 2);
        assert_eq!(resident_dirty(&c), 2);
        assert_eq!(
            c.drain_depth() + resident_dirty(&c),
            c.pending_write_back(),
            "every pending page is resident-dirty or drained, never both"
        );
        // Recency [3, 4, 2]: a write of page 6 drains dirty page 2, so the
        // flush below meets drained and resident pages interleaved in key
        // order.
        img.write(&c, PageId(6), b"six");
        assert_eq!(c.drain_depth(), 3);
        assert_eq!(resident_dirty(&c), 2);
        assert_eq!(
            flushed(&c, &img),
            vec![
                (PageId(0), b"zero".to_vec()),
                (PageId(1), b"one".to_vec()),
                (PageId(2), b"two".to_vec()),
                (PageId(3), b"three".to_vec()),
                (PageId(6), b"six".to_vec()),
            ],
            "each pending page written once, in key order"
        );
        assert_eq!(c.physical_writes(), 5);
        assert_eq!(c.pending_write_back(), 0);
        assert_eq!(c.drain_depth(), 0);
    }

    #[test]
    fn handles_charge_like_the_buffer_pool_oracle() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 8, None);
        let mut oracle = BufferPool::with_capacity_pages(2, &[2]);
        let mut h = c.handle(2);
        let seq = [
            (PageId(0), 0),
            (PageId(1), 1),
            (PageId(2), 1),
            (PageId(1), 1),
            (PageId(4), 1),
            (PageId(0), 0),
        ];
        for &(p, d) in &seq {
            assert_eq!(h.access(0, p, d), oracle.access(0, p, d), "page {p}");
        }
        assert_eq!(
            h.stats(),
            oracle.stats(),
            "logical accounting is bit-identical"
        );
        assert_eq!(
            h.warm_hits() + h.cold_faults(),
            h.stats().disk_accesses,
            "every charged miss was served exactly once"
        );
        c.drain();
        assert_eq!(
            c.queue().total_reads(),
            c.physical_reads(),
            "every submission became exactly one pread"
        );

        // A second worker re-walking the sequence charges identically
        // (private decision state) but reads nothing: the pool is warm.
        let before = c.physical_reads();
        let mut h2 = c.handle(2);
        for &(p, d) in &seq {
            h2.access(0, p, d);
        }
        assert_eq!(h2.stats(), h.stats(), "same logical charges for worker 2");
        assert_eq!(h2.cold_faults(), 0, "warm frames serve every miss");
        assert_eq!(c.physical_reads(), before, "no new physical reads");
    }

    #[test]
    fn resetting_a_handle_leaves_the_shared_cache_warm() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 8, None);
        let (mut h0, mut h1) = (c.handle(2), c.handle(2));
        let walk = |h: &mut SharedCacheFileAccess| {
            for p in 0..6u32 {
                h.access(0, PageId(p), 1);
            }
            h.drain_completions();
        };
        walk(&mut h0);
        assert!(h0.cold_faults() > 0, "h0 warmed the cache");
        let shared = |c: &SharedPageCache| {
            (
                c.resident_pages(),
                c.physical_reads(),
                c.queue().total_reads(),
            )
        };
        let warm = shared(&c);

        h0.reset();
        assert_eq!(h0.stats(), IoStats::default());
        assert_eq!((h0.warm_hits(), h0.cold_faults()), (0, 0));
        assert_eq!(shared(&c), warm, "a handle's reset touches nothing shared");
        walk(&mut h1);
        assert_eq!(h1.cold_faults(), 0, "the frames h0 read are still warm");
    }

    #[test]
    fn update_handle_accounts_like_the_buffer_pool_oracle() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 8, None);
        let mut h = c.update_handle(0, 2).unwrap();
        let mut oracle = BufferPool::with_capacity_pages(2, &[UPDATE_MAX_HEIGHT]);
        // An update-shaped charge sequence: descend (access), mutate
        // (write), with enough distinct pages to force private dirty
        // evictions — where the deferred write charges land.
        let script = [
            (PageId(0), 0, false),
            (PageId(1), 1, true),
            (PageId(2), 1, true),
            (PageId(3), 1, true),
            (PageId(1), 1, false),
            (PageId(0), 0, true),
        ];
        for &(p, d, w) in &script {
            assert_eq!(h.access(0, p, d), oracle.access(0, p, d), "page {p}");
            if w {
                NodeAccessMut::write(&mut h, 0, p);
                NodeAccessMut::write(&mut oracle, 0, p);
            }
        }
        assert_eq!(
            h.stats(),
            oracle.stats(),
            "write charges are bit-identical to the BufferPool oracle"
        );
        let mut encode = |p: PageId, buf: &mut Vec<u8>| {
            *buf = node_bytes(p.0);
            Ok(())
        };
        NodeAccessMut::flush_writes(&mut h, &mut encode).unwrap();
        NodeAccessMut::flush_writes(&mut oracle, &mut encode).unwrap();
        assert_eq!(h.stats(), oracle.stats(), "flush charges match too");
        assert!(
            c.physical_writes() <= h.stats().page_writes,
            "physical writes ({}) must not exceed logical charges ({})",
            c.physical_writes(),
            h.stats().page_writes
        );
        assert_eq!(c.pending_write_back(), 0, "flush wrote every dirty page");
    }

    /// The slot of `page` in the file at `path`, as it is on disk now.
    fn slot_on_file(path: &std::path::Path, page: PageId) -> Vec<u8> {
        PageFile::open(path).unwrap().read_page(page).unwrap()
    }

    /// `bytes` zero-padded to the demo file's slot, as a write lays them.
    fn padded(bytes: &[u8]) -> Vec<u8> {
        let mut slot = bytes.to_vec();
        slot.resize(codec::slot_bytes_for(2), 0);
        slot
    }

    #[test]
    fn a_flush_encodes_each_written_page_once() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 8, None);
        let path = dir.file("t.rsj");
        let mut h = c.update_handle(0, 4).unwrap();
        let write = |h: &mut SharedCacheFileAccess<StoreFile>, page: u32| {
            h.access(0, PageId(page), 1);
            NodeAccessMut::write(h, 0, PageId(page));
        };
        for _ in 0..5 {
            write(&mut h, 1);
        }
        write(&mut h, 2);
        write(&mut h, 3);
        NodeAccessMut::discard(&mut h, 0, PageId(3));
        assert_eq!(c.pending_write_back(), 2);
        let mut asked = Vec::new();
        NodeAccessMut::flush_writes(&mut h, &mut |p, buf| {
            asked.push(p);
            *buf = node_bytes(p.0 + 10);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            asked,
            [PageId(1), PageId(2)],
            "each written page encoded once, the discarded one never"
        );
        assert_eq!(c.physical_writes(), 2);
        for p in [1, 2] {
            assert_eq!(slot_on_file(&path, PageId(p)), padded(&node_bytes(p + 10)));
        }

        // A source that fails on the second page it is asked for.
        for p in [1, 2, 4] {
            write(&mut h, p);
        }
        let mut asked = Vec::new();
        let err = NodeAccessMut::flush_writes(&mut h, &mut |p, buf| {
            asked.push(p);
            if asked.len() == 2 {
                return Err(StorageError::Corrupt("encoder failed".into()));
            }
            *buf = node_bytes(p.0 + 20);
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(asked, [PageId(1), PageId(2)]);
        assert_eq!(
            c.frame_state(0, PageId(1)),
            FrameState::Resident,
            "written, clean"
        );
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Dirty);
        assert_eq!(c.frame_state(0, PageId(4)), FrameState::Dirty);
        assert_eq!(c.pending_write_back(), 2, "the rest stay dirty");
        assert_eq!(slot_on_file(&path, PageId(1)), padded(&node_bytes(21)));
        assert_eq!(slot_on_file(&path, PageId(2)), padded(&node_bytes(12)));

        // The retry asks for the rest again and writes their bytes as they
        // are now.
        let mut asked = Vec::new();
        NodeAccessMut::flush_writes(&mut h, &mut |p, buf| {
            asked.push(p);
            *buf = node_bytes(p.0 + 30);
            Ok(())
        })
        .unwrap();
        assert_eq!(asked, [PageId(2), PageId(4)]);
        assert_eq!(c.pending_write_back(), 0);
        assert_eq!(c.physical_writes(), 5);
        for p in [2, 4] {
            assert_eq!(slot_on_file(&path, PageId(p)), padded(&node_bytes(p + 30)));
        }
    }

    #[test]
    fn update_handles_read_their_own_misses_join_handles_use_the_workers() {
        let dir = TempDir::new("cache").unwrap();
        // The hook records which thread served each read.
        let served = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&served);
        let hook: DelayFn = Arc::new(move |key: BufKey| {
            log.lock()
                .unwrap()
                .push((key.page, std::thread::current().id()));
            None
        });
        // Three fast reads are too few to take a fresh cache's join
        // handles off the queue (`CompletionQueue::reads_are_fast`).
        let c = cache(&dir, 8, 8, Some(hook));
        let me = std::thread::current().id();
        let mut h = c.update_handle(0, 4).unwrap();
        for p in 0..3u32 {
            assert!(h.access(0, PageId(p), 1));
            assert!(
                c.queue().is_complete(h.last_miss_ticket()),
                "an inline read is done when the access returns"
            );
            assert_eq!(c.queue().in_flight(), 0);
        }
        assert_eq!(h.cold_faults(), 3);
        let lag = c.queue().completion_lag();
        assert_eq!(lag.samples, 3, "inline reads are lag samples");
        assert_eq!(lag.queue_wait_total_nanos, 0, "and never wait in the queue");
        let mut j = c.handle(4);
        for p in 3..6u32 {
            assert!(j.access(0, PageId(p), 1));
        }
        c.drain();
        let served = served.lock().unwrap().clone();
        assert_eq!(served.len(), 6);
        for (page, thread) in served {
            assert_eq!(
                thread == me,
                page.0 < 3,
                "page {page} read on the wrong thread"
            );
        }
        assert_eq!(c.physical_reads(), 6);
        assert_eq!(c.inline_reads(), 3, "the updater's");
        assert_eq!(c.physical_reads(), c.queue().total_reads());
        assert_eq!(c.queue().lane_reads(0), 6);
    }

    #[test]
    fn a_join_adopts_an_inline_read_in_flight() {
        let dir = TempDir::new("cache").unwrap();
        // The hook holds the updater inside its read of page 1 until the
        // join has demanded the page. (A second read of page 1 would find
        // the release channel closed and pass straight through.)
        let (entered, in_read) = mpsc::channel::<()>();
        let (release, released) = mpsc::channel::<()>();
        let (entered, released) = (Mutex::new(entered), Mutex::new(released));
        let hook: DelayFn = Arc::new(move |key: BufKey| {
            if key.page == PageId(1) {
                entered.lock().unwrap().send(()).unwrap();
                let _ = released.lock().unwrap().recv();
            }
            None
        });
        let c = cache(&dir, 8, 8, Some(hook));
        let mut h = c.update_handle(0, 4).unwrap();
        let mut j = c.handle(4);
        let (state, charged, updater) = std::thread::scope(|scope| {
            let updater = scope.spawn(|| {
                assert!(h.access(0, PageId(1), 1));
                h.last_miss_ticket()
            });
            in_read.recv().unwrap();
            let state = c.frame_state(0, PageId(1));
            let charged = j.access(0, PageId(1), 1);
            drop(release);
            (state, charged, updater.join().unwrap())
        });
        assert_eq!(state, FrameState::Reading, "the join came mid-read");
        assert!(charged, "the join's own charge");
        assert_eq!(j.last_miss_ticket(), updater, "one ticket for both");
        assert_eq!((j.warm_hits(), j.cold_faults()), (1, 0));
        assert_eq!(c.adoptions(), 1);
        j.await_ticket(updater);
        c.drain();
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Resident);
        assert_eq!(c.physical_reads(), 1, "single flight");
        assert_eq!(c.queue().total_reads(), 1);
    }

    #[test]
    fn a_failed_inline_read_poisons_the_queue_like_a_worker_read() {
        // Page 99 lies beyond the 4-page file: the read fails either way.
        let beyond = PageId(99);
        let observed = |c: &SharedPageCache| {
            let drain = std::panic::catch_unwind(AssertUnwindSafe(|| c.drain()));
            (
                drain.is_err(),
                c.frame_state(0, beyond),
                c.queue().in_flight(),
                c.queue().total_reads(),
                c.physical_reads(),
                c.queue().completion_lag().samples,
            )
        };
        let dir = TempDir::new("cache").unwrap();
        let worker = cache(&dir, 4, 4, None);
        let mut j = worker.handle(4);
        assert!(j.access(0, beyond, 1), "submitting never fails");
        let by_worker = observed(&worker);
        assert!(by_worker.0, "the next wait panics");

        let dir = TempDir::new("cache").unwrap();
        let inline = cache(&dir, 4, 4, None);
        let mut h = inline.update_handle(0, 4).unwrap();
        let access = std::panic::catch_unwind(AssertUnwindSafe(|| h.access(0, beyond, 1)));
        assert!(
            access.is_err(),
            "the reader is the first waiter, and panics"
        );
        assert_eq!(observed(&inline), by_worker);
    }

    #[test]
    fn update_handle_rejects_an_out_of_range_store() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        assert!(matches!(
            c.update_handle(7, 4).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn a_store_has_one_live_update_handle() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        let mut a = c.update_handle(0, 4).unwrap();
        a.write(0, PageId(1));
        let busy = c.update_handle(0, 4).unwrap_err();
        assert!(
            matches!(&busy, StorageError::Io(e) if e.kind() == std::io::ErrorKind::ResourceBusy),
            "{busy}"
        );
        assert_eq!(c.pending_write_back(), 1, "the refusal touched nothing");
        drop(a);
        assert_eq!(c.pending_write_back(), 0, "A's marks went with A");
        let mut b = c.update_handle(0, 4).unwrap();
        b.write(0, PageId(2));
        b.flush_writes(&mut |page, buf| {
            assert_eq!(page, PageId(2), "B encodes only its own pages");
            codec::encode_node(
                &codec::DiskNode {
                    level: 0,
                    entries: vec![],
                },
                64,
                buf,
            )
        })
        .unwrap();
        assert_eq!(b.store_file().writes(), 1);
    }

    #[test]
    fn clear_goes_cold_and_reset_stats_stays_warm() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        let mut h = c.handle(4);
        for p in 0..4u32 {
            h.access(0, PageId(p), 1);
        }
        c.reset_stats();
        assert_eq!(c.physical_reads(), 0);
        assert_eq!(c.resident_pages(), 4, "reset_stats keeps the frames warm");
        let (_, fresh) = c.materialize(0, PageId(0));
        assert!(!fresh, "still warm after a stats reset");
        c.clear();
        assert_eq!(c.resident_pages(), 0);
        let (_, fresh) = c.materialize(0, PageId(0));
        assert!(fresh, "cold after clear");
    }

    #[test]
    fn clear_keeps_dirty_pages_drained() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        let mut img = Image::default();
        c.materialize(0, PageId(1));
        c.drain();
        img.write(&c, PageId(1), b"acknowledged");
        img.write(&c, PageId(3), b"never resident");
        c.clear();
        assert_eq!(c.resident_pages(), 0, "cold");
        assert_eq!(c.drain_depth(), 2, "both dirty pages are drained");
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Dirty);
        let (_, fresh) = c.materialize(0, PageId(1));
        assert!(!fresh, "a drained page is not read back from the file");
        assert_eq!(
            flushed(&c, &img),
            vec![
                (PageId(1), b"acknowledged".to_vec()),
                (PageId(3), b"never resident".to_vec()),
            ],
            "a cold reset loses no write"
        );
    }

    #[test]
    fn mismatched_page_sizes_are_rejected() {
        let dir = TempDir::new("cache").unwrap();
        let a = demo_file(&dir, "a.rsj", 1);
        let slot = codec::slot_bytes_for(2);
        let b = dir.file("b.rsj");
        PageFile::create(&b, 2048, slot).unwrap().flush().unwrap();
        assert!(matches!(
            SharedPageCache::open(&[a, b], 4, &[1, 1], CacheConfig::default()).unwrap_err(),
            StorageError::PageSizeMismatch { .. }
        ));
    }

    #[test]
    fn poisoned_frame_shard_recovers() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        c.materialize(0, PageId(1));
        let poisoner = std::thread::spawn({
            let c = Arc::clone(&c);
            move || {
                let _guard = c.frames.lock().unwrap();
                panic!("worker dies holding the frame lock");
            }
        });
        assert!(poisoner.join().is_err());
        c.drain();
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Resident);
        let (_, fresh) = c.materialize(0, PageId(2));
        assert!(fresh, "the pool keeps serving after a worker panic");
    }
}
