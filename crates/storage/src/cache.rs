//! The latched shared page cache: pin-counted frames over the
//! submission/completion queue, so file-backed parallel joins share one
//! warm buffer — and, through the per-frame write latch, background
//! updaters can mutate pages *under* that join traffic.
//!
//! This is the one shared-frame owner of the storage layer — the §6
//! shared-buffer win: a page faulted by one worker is free for the next.
//! With only private [`crate::FileAccess`] stacks every worker owns an
//! LRU over its own file handles, so the upper-level pages every subtree
//! task touches are physically read N times, and nothing stays warm
//! between requests. [`SharedPageCache`]
//! closes that gap: one frame table under one mutex holds the page budget
//! for the whole deployment — an [`LruBuffer`] (the paper's §4.1
//! replacement with §4.3 pinning), the in-flight reads, one table of
//! dirty bytes and the write latches. Frames carry a state machine, a pin
//! counter and a write latch (the kv-store `PAGE_BUSY`/`PAGE_WAIT`
//! blueprint), and all physical reads flow through one
//! [`CompletionQueue`] with a lane per store.
//!
//! ## Frame states
//!
//! ```text
//!              materialize (miss)           read completes
//!   Empty ───────────────────────▶ Reading ───────────────▶ Resident
//!     ▲        submit + pin                  (settle)       │      ▲
//!     │                               begin_write           │      │
//!     │                        (waits: no pin, no read)     ▼      │ clear_dirty /
//!     │ evict (unpinned only)                            Writing   │ flush_dirty
//!     │                               complete_write        │      │
//!     ├────────────────────────────────────────────────── Dirty ───┘
//!     │                                                   │    ▲
//!     │                      evict: the bytes stay in     │    │ materialize:
//!     │                      the dirty table              ▼    │ reinstall, no read
//!     └──── flush_dirty / take_dirty_evicted ─────── Drained ──┘
//! ```
//!
//! * **Empty → Reading**: a miss installs the frame, pins it for the
//!   duration of the read (a reading frame is never an eviction victim)
//!   and submits a single pread to the queue. Concurrent demanders of
//!   the same key — from any worker — find the frame in `Reading` and
//!   adopt the *same* in-flight ticket instead of issuing a duplicate
//!   pread: single-flight.
//! * **Reading → Resident**: settled lazily, the next time the frame
//!   table is touched (or explicitly by [`SharedPageCache::drain`]); the
//!   read pin is released. Every public entry point settles first, so
//!   state observations within one lock hold can never disagree.
//! * **Resident/Dirty/Empty → Writing → Dirty**: the write latch.
//!   [`SharedPageCache::write`] waits until the frame holds no pin and no
//!   read is in flight (**writers wait on pins**), marks the frame
//!   `Writing`, and stores the new bytes in the dirty table. While a
//!   frame is `Writing`, `materialize` and `pin` park on the cache's
//!   latch condvar (**readers wait on the write latch**).
//! * **Dirty bytes have one home.** The dirty table maps every page whose
//!   cached bytes are newer than its file to those bytes, resident or
//!   not, so eviction moves nothing. A dirty page the LRU has evicted is
//!   *drained* (it still reports [`FrameState::Dirty`]); its bytes leave
//!   the cache only through [`SharedPageCache::flush_dirty`] (which
//!   writes them through a caller-supplied writer) or
//!   [`SharedPageCache::take_dirty_evicted`] (which hands `(key, bytes)`
//!   pairs to an owner who writes them back itself). A re-demand of a
//!   drained page reinstalls it from the table — reading the file would
//!   resurrect stale bytes.
//! * Eviction skips pinned frames ([`LruBuffer`] semantics: pinned
//!   overflow beyond capacity is legal, trimmed as pins release).
//!
//! ## Logical vs physical accounting
//!
//! Each worker drives the cache through a [`SharedCacheFileAccess`]
//! handle that owns a private [`BufferPool`] — the full §4.1 hierarchy
//! ([`crate::pool`]): path buffers, a logical LRU, the write-back
//! protocol, every charge — and drives it exactly as the oracle is
//! driven. A handle's [`IoStats`] is therefore that of a private-buffer
//! worker of the same capacity *by construction*, independent of what
//! other workers do. Only on a charged logical miss does the handle
//! consult the shared frame layer, where the *physical* story is
//! decided: a resident or in-flight frame costs nothing
//! ([`SharedCacheFileAccess::warm_hits`]); an empty frame submits one
//! pread ([`SharedCacheFileAccess::cold_faults`], counted in
//! [`SharedPageCache::physical_reads`]). Hence the measurable dedup:
//! `physical_reads ≤ Σ per-worker disk_accesses`, strictly `<` whenever
//! workers overlap — and a warm pool serves repeat joins at near-zero
//! physical reads while their logical charges stay exactly the paper's.
//!
//! The write path mirrors the split. A handle opened through
//! [`SharedPageCache::update_handle`] owns the read-write [`PageFile`] of
//! its store and implements [`crate::NodeAccessMut`]/[`UpdateBackend`]:
//! its *logical* `page_writes` are charged by its pool (install + dirty,
//! charged at private eviction or flush — with nothing to write, the
//! handle holds no bytes), while the *bytes* ride the shared frames and
//! reach the disk once, at
//! [`SharedPageCache::flush_dirty`] — counted in
//! [`SharedPageCache::physical_writes`], so
//! `physical_writes ≤ Σ per-worker page_writes` for the same reason the
//! read inequality holds.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::access::{NodeAccess, NodeAccessMut, Ticket};
use crate::codec::StorageError;
use crate::completion::{CompletionQueue, DelayFn};
use crate::file::{PageFile, PageSource};
use crate::lru::LruBuffer;
use crate::page::PageId;
use crate::path::UPDATE_MAX_HEIGHT;
use crate::pool::{BufKey, BufferPool, IoStats};
use crate::stack::validate_stores;
use crate::writeback::UpdateBackend;

/// Observable state of one cache frame (see the module diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// Not resident, no read in flight, no payload pending.
    Empty,
    /// A single-flight pread is in flight; the frame is read-pinned.
    Reading,
    /// Bytes are resident and clean.
    Resident,
    /// The cache holds bytes newer than the file (write-back pending) —
    /// either as a dirty resident frame or as a drained page the LRU has
    /// evicted.
    Dirty,
    /// A writer holds the frame's write latch; readers wait.
    Writing,
}

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

/// The frame table: residency, recency and pins live in the
/// [`LruBuffer`]; `reading` carries the in-flight ticket of every frame
/// currently in [`FrameState::Reading`] (each such frame also holds one
/// read pin in the LRU, so it cannot be evicted under it); `dirty` is the
/// no-lost-payloads contract.
struct Frames {
    lru: LruBuffer,
    reading: HashMap<BufKey, Ticket>,
    /// Bytes of every page newer than its file, resident or not. A key
    /// here the LRU does not hold is *drained*: evicted, not yet written.
    dirty: HashMap<BufKey, Vec<u8>>,
    /// Frames a writer currently holds the write latch of.
    writing: HashSet<BufKey>,
    /// Writers parked on the latch waiting for a pin release — tells
    /// `unpin` when a notify is worth it.
    write_waiters: usize,
}

/// The pin-counted concurrent frame cache. Cheap to share via [`Arc`];
/// it outlives any single join, which is the whole point — successive
/// requests hit warm frames. Workers access it through
/// [`SharedCacheFileAccess`] handles.
pub struct SharedPageCache {
    frames: Mutex<Frames>,
    /// Writers park here while a frame is pinned, readers while it is
    /// `Writing`.
    latch: Condvar,
    queue: CompletionQueue,
    /// Preads submitted by cache-level misses (every one becomes exactly
    /// one physical read on a queue lane).
    physical: AtomicU64,
    /// Pages written to disk through [`SharedPageCache::flush_dirty`].
    physical_writes: AtomicU64,
    /// Physical preads split by store (index = store = lane).
    physical_by_store: Vec<AtomicU64>,
    /// Materialize calls served by a resident frame.
    frame_hits: AtomicU64,
    /// Materialize calls that adopted another worker's in-flight read
    /// (the single-flight saving, made visible).
    adoptions: AtomicU64,
    /// Materialize calls served from a drained page's dirty bytes.
    drain_hits: AtomicU64,
    heights: Vec<usize>,
    page_bytes: usize,
    /// The backing files, by store — [`SharedPageCache::update_handle`]
    /// opens its read-write handle from here.
    paths: Vec<PathBuf>,
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
                dirty: HashMap::new(),
                writing: HashSet::new(),
                write_waiters: 0,
            }),
            latch: Condvar::new(),
            queue,
            physical: AtomicU64::new(0),
            physical_writes: AtomicU64::new(0),
            physical_by_store: paths.iter().map(|_| AtomicU64::new(0)).collect(),
            frame_hits: AtomicU64::new(0),
            adoptions: AtomicU64::new(0),
            drain_hits: AtomicU64::new(0),
            heights: heights.to_vec(),
            page_bytes,
            paths: paths.to_vec(),
        }))
    }

    /// A worker's view: private path buffers (sized from the cache's
    /// heights), a private logical LRU of `cap_pages` and zeroed
    /// [`IoStats`] over the shared frame layer. It reads and nothing else:
    /// a join handle is a [`NodeAccess`], never an [`UpdateBackend`] — the
    /// write path is a different type, [`SharedPageCache::update_handle`].
    ///
    /// An updater takes the one and refuses the other at compile time:
    ///
    /// ```no_run
    /// # use rsj_storage::{CacheConfig, SharedPageCache, UpdateBackend};
    /// fn updater(_: impl UpdateBackend) {}
    /// let cache = SharedPageCache::open(&[], 8, &[], CacheConfig::default()).unwrap();
    /// updater(cache.update_handle(0, 8).unwrap());
    /// ```
    ///
    /// ```compile_fail,E0277
    /// # use rsj_storage::{CacheConfig, SharedPageCache, UpdateBackend};
    /// fn updater(_: impl UpdateBackend) {}
    /// let cache = SharedPageCache::open(&[], 8, &[], CacheConfig::default()).unwrap();
    /// updater(cache.handle(8)); // a join handle is not an `UpdateBackend`
    /// ```
    pub fn handle(self: &Arc<Self>, cap_pages: usize) -> SharedCacheFileAccess {
        let pool = BufferPool::with_capacity_pages(cap_pages, &self.heights);
        self.handle_over(pool, ())
    }

    fn handle_over<W>(self: &Arc<Self>, pool: BufferPool, writes: W) -> SharedCacheFileAccess<W> {
        SharedCacheFileAccess {
            cache: Arc::clone(self),
            pool,
            writes,
            last_miss: Ticket::NONE,
            warm_hits: 0,
            cold_faults: 0,
        }
    }

    /// A worker's view *with the write path open* for `store`: the
    /// returned handle owns a read-write [`PageFile`] on that store (the
    /// file its [`UpdateBackend`] impl serves) and a path buffer sized
    /// for any height an updated tree can grow to ([`UPDATE_MAX_HEIGHT`],
    /// which keeps the handle's logical charges aligned with the
    /// [`crate::FileNodeAccess`] oracle). Logical write charges are its
    /// pool's; payload bytes ride the shared frames until
    /// [`crate::NodeAccessMut::flush_writes`] pushes them through
    /// [`SharedPageCache::flush_dirty`].
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
        let pool = BufferPool::with_capacity_pages(cap_pages, &heights);
        let file = PageFile::open_rw(path)?;
        Ok(self.handle_over(pool, StoreFile { store, file }))
    }

    /// Locks the frame table, recovering from a poisoned mutex: every
    /// mutation under the lock leaves the table structurally consistent
    /// between statements, so a worker that panicked mid-critical-section
    /// can at worst leak a stale recency order or an extra read pin — no
    /// reason to cascade-abort the rest of the fleet.
    fn lock_frames(&self) -> MutexGuard<'_, Frames> {
        self.frames.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks on the latch (poison-recovering, same rationale as
    /// [`SharedPageCache::lock_frames`]).
    fn wait_latch<'a>(&'a self, guard: MutexGuard<'a, Frames>) -> MutexGuard<'a, Frames> {
        self.latch
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Flips every completed `Reading` frame to `Resident` and releases
    /// its read pin. Cheap: the in-flight set is bounded by the queue
    /// depth and the completed check is lock-free once the completion
    /// frontier has passed a ticket. Every public entry point settles on
    /// entry — the uniform discipline that keeps frame-state observations
    /// coherent within one lock hold.
    fn settle(&self, s: &mut Frames) {
        if s.reading.is_empty() {
            return;
        }
        let Frames { reading, lru, .. } = s;
        reading.retain(|&key, &mut ticket| {
            let done = self.queue.is_complete(ticket);
            if done {
                lru.unpin(key);
            }
            !done
        });
    }

    /// Serves one charged logical miss for `(store, page)`: returns the
    /// ticket the caller's cursor may park on and whether a *fresh*
    /// physical read was submitted (`false` = the frame was already
    /// resident, in flight, or drained — a warm hit, the cross-worker
    /// saving). Waits out a concurrent writer first (readers wait on the
    /// write latch).
    pub fn materialize(&self, store: u8, page: PageId) -> (Ticket, bool) {
        let key = BufKey::new(store, page);
        let mut s = self.lock_frames();
        while s.writing.contains(&key) {
            s = self.wait_latch(s);
        }
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
        if s.dirty.contains_key(&key) {
            // Drained re-demand: the newest bytes sit in the dirty table,
            // not the file — a pread would resurrect stale data.
            // Reinstall, no physical read. (If every other slot is
            // pinned the install is evicted on the spot and the page
            // simply stays drained, still flushable.)
            s.lru.install(key);
            self.drain_hits.fetch_add(1, Ordering::Relaxed);
            return (Ticket::NONE, false);
        }
        // Empty → Reading: install the frame, read-pin it so eviction
        // skips it, submit exactly one pread of the store's file — queued
        // behind every older submission, served by whichever pool worker
        // frees up first. The frame table, not the queue, is the
        // single-flight authority.
        s.lru.install(key);
        s.lru.pin(key);
        let ticket = self.queue.submit(key);
        s.reading.insert(key, ticket);
        self.physical.fetch_add(1, Ordering::Relaxed);
        self.physical_by_store[store as usize].fetch_add(1, Ordering::Relaxed);
        (ticket, true)
    }

    /// Adds one pin to the frame of `(store, page)` if it is resident or
    /// in flight. Unlike the logical buffers, pinning never *creates* a
    /// frame — a frame with no read behind it would be a phantom warm
    /// hit and break read honesty. Settles first, so a frame whose read
    /// just completed is pinned as a resident (not double-pinned under
    /// its stale read pin); waits out a concurrent writer.
    pub fn pin(&self, store: u8, page: PageId) {
        let key = BufKey::new(store, page);
        let mut s = self.lock_frames();
        while s.writing.contains(&key) {
            s = self.wait_latch(s);
        }
        self.settle(&mut s);
        if s.lru.contains(key) {
            s.lru.pin(key);
        }
    }

    /// Releases one pin of `(store, page)` (no-op if absent), waking any
    /// writer parked on the pin.
    pub fn unpin(&self, store: u8, page: PageId) {
        let key = BufKey::new(store, page);
        let mut s = self.lock_frames();
        self.settle(&mut s);
        s.lru.unpin(key);
        let notify = s.write_waiters > 0;
        drop(s);
        if notify {
            self.latch.notify_all();
        }
    }

    /// Latched write of `(store, page)`: waits until the frame holds no
    /// pin and no read is in flight, takes the write latch, stores
    /// `payload` as the page's dirty bytes, releases the latch. The bytes
    /// reach the file at [`SharedPageCache::flush_dirty`] (or via
    /// [`SharedPageCache::take_dirty_evicted`] after an eviction) — never
    /// silently dropped, even if the frame cannot be held at all (every
    /// slot pinned by other frames): the page is then drained at once.
    pub fn write(&self, store: u8, page: PageId, payload: &[u8]) {
        let key = BufKey::new(store, page);
        self.begin_write(key);
        self.complete_write(key, payload);
    }

    /// Acquires the write latch of `key`'s frame: writers wait on pins
    /// (and on each other); an in-flight read is awaited off-lock via
    /// its ticket.
    fn begin_write(&self, key: BufKey) {
        let mut s = self.lock_frames();
        loop {
            self.settle(&mut s);
            if s.writing.contains(&key) {
                s = self.wait_latch(s);
                continue;
            }
            if let Some(&ticket) = s.reading.get(&key) {
                // The frame holds a read pin until the ticket settles —
                // park on the queue (off-lock), then re-evaluate.
                drop(s);
                self.queue.await_ticket(ticket);
                s = self.lock_frames();
                continue;
            }
            if s.lru.pin_count(key) > 0 {
                s.write_waiters += 1;
                s = self.wait_latch(s);
                s.write_waiters -= 1;
                continue;
            }
            s.writing.insert(key);
            return;
        }
    }

    /// Installs the frame, overwrites its dirty bytes, releases the write
    /// latch, wakes waiters.
    fn complete_write(&self, key: BufKey, payload: &[u8]) {
        let mut s = self.lock_frames();
        self.settle(&mut s);
        s.lru.install(key);
        let dst = s.dirty.entry(key).or_default();
        dst.clear();
        dst.extend_from_slice(payload);
        s.writing.remove(&key);
        drop(s);
        self.latch.notify_all();
    }

    /// Clears the dirty state of a page *without* writing — the owner
    /// already wrote the bytes back (or abandoned them). Drops the bytes,
    /// resident or drained.
    pub fn clear_dirty(&self, store: u8, page: PageId) {
        let key = BufKey::new(store, page);
        let mut s = self.lock_frames();
        self.settle(&mut s);
        s.dirty.remove(&key);
    }

    /// Every drained page — dirty, no longer resident — **bytes
    /// included**, removed from the cache: the write-back worklist. The
    /// caller MUST write these back (their bytes are gone from the cache
    /// once taken); [`SharedPageCache::flush_dirty`] does it in one step
    /// for owners holding the file. Deterministic order (sorted by key).
    pub fn take_dirty_evicted(&self) -> Vec<(BufKey, Vec<u8>)> {
        let mut s = self.lock_frames();
        self.settle(&mut s);
        let Frames { lru, dirty, .. } = &mut *s;
        let mut out: Vec<_> = dirty.extract_if(|&k, _| !lru.contains(k)).collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Writes every pending dirty page of `store` through `write`, once
    /// each and in key order, charging
    /// [`SharedPageCache::physical_writes`] once per page and cleaning
    /// each page as it lands. Error-safe: pages written before a failure
    /// are clean, the failing page and the rest keep their bytes — a
    /// retry resumes where this stopped.
    pub fn flush_dirty(
        &self,
        store: u8,
        mut write: impl FnMut(PageId, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let mut s = self.lock_frames();
        self.settle(&mut s);
        let mut keys: Vec<BufKey> = s
            .dirty
            .keys()
            .copied()
            .filter(|k| k.store == store)
            .collect();
        keys.sort_unstable();
        for key in keys {
            write(key.page, &s.dirty[&key])?;
            self.physical_writes.fetch_add(1, Ordering::Relaxed);
            s.dirty.remove(&key);
        }
        Ok(())
    }

    /// The observable state of the frame of `(store, page)`. Settles
    /// first, so a completed read reports `Resident`. A drained page
    /// reports `Dirty`: the cache still holds bytes newer than the file.
    pub fn frame_state(&self, store: u8, page: PageId) -> FrameState {
        let key = BufKey::new(store, page);
        let mut s = self.lock_frames();
        self.settle(&mut s);
        if s.writing.contains(&key) {
            FrameState::Writing
        } else if s.reading.contains_key(&key) {
            FrameState::Reading
        } else if s.dirty.contains_key(&key) {
            FrameState::Dirty
        } else if s.lru.contains(key) {
            FrameState::Resident
        } else {
            FrameState::Empty
        }
    }

    /// Nested pin count of the frame of `(store, page)` — includes the
    /// read pin while the frame is `Reading`. Settles first (uniform
    /// discipline), so a completed read's pin is not miscounted.
    pub fn pin_count(&self, store: u8, page: PageId) -> u32 {
        let key = BufKey::new(store, page);
        let mut s = self.lock_frames();
        self.settle(&mut s);
        s.lru.pin_count(key)
    }

    /// Physical preads submitted by cache misses so far. After
    /// [`SharedPageCache::drain`], equals the queue's completed read
    /// count — every submission became exactly one pread.
    #[inline]
    pub fn physical_reads(&self) -> u64 {
        self.physical.load(Ordering::Relaxed)
    }

    /// Pages physically written through [`SharedPageCache::flush_dirty`]
    /// so far. Always `≤ Σ` per-handle logical `page_writes`: the shared
    /// frames absorb repeated logical writes of the same page the way
    /// they absorb repeated logical reads.
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

    /// Materialize calls served from a drained page's dirty bytes (newest
    /// bytes recovered without touching the file).
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
        s.dirty.keys().filter(|&&k| !s.lru.contains(k)).count()
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
    /// every frame resident (dirty payloads included) — the *warm* reset
    /// between measured runs.
    pub fn reset_stats(&self) {
        self.drain();
        self.queue.reset();
        self.physical.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.reset_telemetry();
    }

    fn reset_telemetry(&self) {
        for c in &self.physical_by_store {
            c.store(0, Ordering::Relaxed);
        }
        self.frame_hits.store(0, Ordering::Relaxed);
        self.adoptions.store(0, Ordering::Relaxed);
        self.drain_hits.store(0, Ordering::Relaxed);
    }

    /// Drops every frame and zeroes the counters — a cold cache. Pending
    /// dirty payloads are discarded *without* write-back (same contract
    /// as [`LruBuffer::clear`]): owners flush first.
    pub fn clear(&self) {
        self.drain();
        let mut s = self.lock_frames();
        s.lru.clear();
        s.lru.reset_io();
        s.reading.clear();
        s.dirty.clear();
        s.writing.clear();
        drop(s);
        // Writers parked on vanished pins must re-evaluate.
        self.latch.notify_all();
        self.queue.reset();
        self.physical.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.reset_telemetry();
    }
}

/// One worker's backend over a [`SharedPageCache`] — beside
/// [`crate::BufferPool`] and [`crate::FileAccess`] the third and last
/// [`NodeAccess`] implementor, the one whose frames are shared. It owns
/// a private [`BufferPool`] — path buffers, logical LRU, [`IoStats`] — so
/// the logical accounting is that of a private-buffer worker of the same
/// capacity, while every charged miss is *served* by the shared frame layer
/// (single-flight physical reads, warm frames across workers and across
/// requests). Completion-driven: a miss returns a ticket for the cursor
/// to park on instead of blocking in `access()`.
///
/// `W` is the handle's write capability, and the type says which handle
/// this is: `()` — the default, what [`SharedPageCache::handle`] returns —
/// reads only; [`StoreFile`], what [`SharedPageCache::update_handle`]
/// returns, additionally owns the read-write [`PageFile`] of its store and
/// drives updates through the [`crate::NodeAccessMut`]/[`UpdateBackend`]
/// impls below.
pub struct SharedCacheFileAccess<W = ()> {
    cache: Arc<SharedPageCache>,
    /// The private *logical* hierarchy — accounting only, driven like the
    /// oracle; bytes live in the shared frames.
    pool: BufferPool,
    writes: W,
    last_miss: Ticket,
    /// Charged misses served by a frame already resident or in flight.
    warm_hits: u64,
    /// Charged misses that submitted the physical read themselves.
    cold_faults: u64,
}

/// The write capability of an update handle: the read-write file of the
/// one store it was opened for.
#[derive(Debug)]
pub struct StoreFile {
    store: u8,
    file: PageFile,
}

impl<W> fmt::Debug for SharedCacheFileAccess<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCacheFileAccess")
            .field("stats", &self.pool.stats())
            .field("warm_hits", &self.warm_hits)
            .field("cold_faults", &self.cold_faults)
            .finish()
    }
}

impl<W> SharedCacheFileAccess<W> {
    /// Statistics recorded through this handle.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// The cache this handle charges against.
    #[inline]
    pub fn cache(&self) -> &Arc<SharedPageCache> {
        &self.cache
    }

    /// Charged misses a warm or in-flight frame served
    /// (`warm_hits + cold_faults == disk_accesses`).
    #[inline]
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits
    }

    /// Charged misses that paid for their own pread.
    #[inline]
    pub fn cold_faults(&self) -> u64 {
        self.cold_faults
    }
}

impl<W> NodeAccess for SharedCacheFileAccess<W> {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        let miss = self.pool.access(store, page, depth);
        if miss {
            let (ticket, fresh) = self.cache.materialize(store, page);
            if fresh {
                self.cold_faults += 1;
            } else {
                self.warm_hits += 1;
            }
            self.last_miss = ticket;
        }
        miss
    }

    fn pin(&mut self, store: u8, page: PageId) {
        // The logical pin shapes eviction decisions, hence the charge
        // sequence; the shared-layer pin keeps the frame eviction-proof
        // for every worker.
        self.pool.pin(store, page);
        self.cache.pin(store, page);
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        self.pool.unpin(store, page);
        self.cache.unpin(store, page);
    }

    fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    fn completion_driven(&self) -> bool {
        true
    }

    fn last_miss_ticket(&self) -> Ticket {
        self.last_miss
    }

    fn is_complete(&self, ticket: Ticket) -> bool {
        self.cache.queue.is_complete(ticket)
    }

    fn await_ticket(&self, ticket: Ticket) {
        self.cache.queue.await_ticket(ticket)
    }

    fn is_settled(&self, ticket: Ticket) -> bool {
        self.cache.queue.is_settled(ticket)
    }

    fn await_settled(&self, ticket: Ticket) {
        self.cache.queue.await_settled(ticket)
    }

    fn in_flight(&self) -> usize {
        self.cache.queue.in_flight()
    }

    fn drain_completions(&self) {
        self.cache.drain()
    }
}

impl NodeAccessMut for SharedCacheFileAccess<StoreFile> {
    /// Registers a mutated page: the *logical* charge is the private
    /// pool's ([`BufferPool::mark_dirty`]), while the *bytes* take the
    /// latched shared-frame path ([`SharedPageCache::write`]).
    fn write(&mut self, store: u8, page: PageId, payload: &[u8]) {
        self.pool.mark_dirty(store, page);
        self.cache.write(store, page, payload);
    }

    fn discard(&mut self, store: u8, page: PageId) {
        self.pool.discard_dirty(store, page);
        self.cache.clear_dirty(store, page);
    }

    /// Charges one logical write per remaining private dirty page
    /// ([`BufferPool::flush_writes`]), then pushes every pending payload
    /// of the store this handle owns through
    /// [`SharedPageCache::flush_dirty`] into the real file.
    fn flush_writes(&mut self) -> Result<(), StorageError> {
        self.pool.flush_writes();
        let StoreFile { store, file } = &mut self.writes;
        self.cache
            .flush_dirty(*store, |page, buf| file.write_page(page, buf))
    }
}

/// The one check the type leaves: `store` must be the store the handle
/// was opened for.
impl UpdateBackend for SharedCacheFileAccess<StoreFile> {
    type File = PageFile;

    fn store_file(&self, store: u8) -> &PageFile {
        assert_eq!(store, self.writes.store, "handle opened for another store");
        &self.writes.file
    }

    fn store_file_mut(&mut self, store: u8) -> &mut PageFile {
        assert_eq!(store, self.writes.store, "handle opened for another store");
        &mut self.writes.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{self, META_BYTES};
    use crate::temp::TempDir;
    use std::time::Duration;

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
        c.write(0, PageId(1), b"fresh bytes");
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Dirty);
        c.clear_dirty(0, PageId(1));
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Resident);
        assert_eq!(c.physical_reads(), 1);
    }

    #[test]
    fn pin_lands_immediately_after_completion() {
        // Regression: `pin` used to skip `settle`, so a frame whose read
        // had completed (but not yet settled) kept its stale read pin —
        // a later pin stacked on top of it and the count drifted.
        let dir = TempDir::new("cache").unwrap();
        let slow: DelayFn = Arc::new(|_| Some(Duration::from_millis(10)));
        let c = cache(&dir, 4, 4, Some(slow));
        let (ticket, fresh) = c.materialize(0, PageId(2));
        assert!(fresh);
        // Wait for the completion *without* touching the frame table, so the
        // frame is complete-but-unsettled when pin arrives.
        c.queue().await_ticket(ticket);
        c.pin(0, PageId(2));
        assert_eq!(
            c.pin_count(0, PageId(2)),
            1,
            "settle must release the read pin before the explicit pin"
        );
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Resident);
        c.unpin(0, PageId(2));
        assert_eq!(c.pin_count(0, PageId(2)), 0);
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
        let c = cache(&dir, 8, 2, None);
        c.materialize(0, PageId(0));
        c.drain();
        c.pin(0, PageId(0));
        for p in 1..6u32 {
            c.materialize(0, PageId(p));
        }
        c.drain();
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Resident,
            "pinned frame survives eviction pressure"
        );
        c.unpin(0, PageId(0));
        for p in 6..8u32 {
            c.materialize(0, PageId(p));
        }
        c.drain();
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Empty,
            "unpinned frame is evictable again"
        );
        // A re-miss after eviction is a fresh physical read.
        let (_, fresh) = c.materialize(0, PageId(0));
        assert!(fresh);
    }

    #[test]
    fn pinning_an_absent_frame_creates_nothing() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        c.pin(0, PageId(3));
        assert_eq!(c.frame_state(0, PageId(3)), FrameState::Empty);
        let (_, fresh) = c.materialize(0, PageId(3));
        assert!(fresh, "no phantom warm hit");
    }

    #[test]
    fn dirty_eviction_carries_the_payload() {
        // THE bug this PR fixes: evicting a dirty frame used to surface
        // only the key — the bytes were already recycled. Now the drain
        // holds (key, payload) pairs until the owner writes them back.
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        c.write(0, PageId(0), b"payload-zero");
        // Pressure: two more pages push out the clean frame, then the
        // dirty one.
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3));
        c.drain();
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Dirty,
            "a drained payload still reports Dirty: the cache holds newer bytes"
        );
        let taken = c.take_dirty_evicted();
        assert_eq!(
            taken,
            vec![(BufKey::new(0, PageId(0)), b"payload-zero".to_vec())],
            "eviction must surface the payload with the key"
        );
        assert!(c.take_dirty_evicted().is_empty(), "taken means taken");
        assert_eq!(c.frame_state(0, PageId(0)), FrameState::Empty);
    }

    #[test]
    fn evicted_dirty_page_redemands_from_the_drain() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        c.write(0, PageId(0), b"drain me");
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3)); // evicts dirty page 0 into the drain
        c.drain();
        let before = c.physical_reads();
        let (ticket, fresh) = c.materialize(0, PageId(0));
        assert!(!fresh, "the newest bytes sit in the drain, not the file");
        assert_eq!(ticket, Ticket::NONE);
        assert_eq!(c.physical_reads(), before, "no pread of stale file bytes");
        assert_eq!(c.frame_state(0, PageId(0)), FrameState::Dirty);
        // The preserved payload flushes intact.
        let mut written = Vec::new();
        c.flush_dirty(0, |page, buf| {
            written.push((page, buf.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(written, vec![(PageId(0), b"drain me".to_vec())]);
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
        let c = cache(&dir, 4, 1, None);
        c.materialize(0, PageId(1));
        c.drain();
        c.pin(0, PageId(1)); // the only frame slot is now pinned
        c.write(0, PageId(2), b"homeless");
        let taken = c.take_dirty_evicted();
        assert_eq!(
            taken,
            vec![(BufKey::new(0, PageId(2)), b"homeless".to_vec())],
            "an unbufferable write must still surface its payload"
        );
        c.unpin(0, PageId(1));
    }

    #[test]
    fn drained_redemand_with_no_free_slot_keeps_the_payload_flushable() {
        // Regression: re-demanding a drained page while every slot is
        // pinned used to move the payload into the resident-payload map
        // without residency — invisible to flush, leaked forever. It must
        // stay in the drain instead.
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 1, None);
        c.materialize(0, PageId(1));
        c.drain();
        c.pin(0, PageId(1)); // the only slot is pinned for the duration
        c.write(0, PageId(2), b"parked");
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Dirty);
        let (ticket, fresh) = c.materialize(0, PageId(2));
        assert!(!fresh, "drained payload serves the re-demand");
        assert_eq!(ticket, Ticket::NONE);
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Dirty);
        let mut written = Vec::new();
        c.flush_dirty(0, |page, buf| {
            written.push((page, buf.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(written, vec![(PageId(2), b"parked".to_vec())]);
        assert_eq!(c.pending_write_back(), 0, "nothing may leak");
        c.unpin(0, PageId(1));
    }

    #[test]
    fn write_latch_waits_for_pins() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        c.materialize(0, PageId(1));
        c.drain();
        c.pin(0, PageId(1));
        let writer = std::thread::spawn({
            let c = Arc::clone(&c);
            move || c.write(0, PageId(1), b"after the pin")
        });
        // The writer must park: the frame stays clean while pinned.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            c.frame_state(0, PageId(1)),
            FrameState::Resident,
            "a pinned frame must not be mutated"
        );
        c.unpin(0, PageId(1));
        writer.join().unwrap();
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Dirty);
        let taken = c.take_dirty_evicted();
        assert!(taken.is_empty(), "still resident, nothing drained");
        c.clear_dirty(0, PageId(1));
    }

    #[test]
    fn fresh_write_supersedes_a_drained_copy() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        c.write(0, PageId(0), b"stale");
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3)); // dirty page 0 -> drain
        c.drain();
        c.write(0, PageId(0), b"current");
        let taken = c.take_dirty_evicted();
        assert!(
            taken.is_empty(),
            "the stale drained copy must be superseded, not resurface: {taken:?}"
        );
        let mut written = Vec::new();
        c.flush_dirty(0, |page, buf| {
            written.push((page, buf.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(written, vec![(PageId(0), b"current".to_vec())]);
    }

    #[test]
    fn flush_dirty_failure_is_retryable_without_losing_payloads() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 4, None);
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        c.write(0, PageId(0), b"a");
        c.write(0, PageId(1), b"b");
        let err = c.flush_dirty(0, |_, _| Err(StorageError::Corrupt("disk full".into())));
        assert!(err.is_err());
        assert_eq!(c.pending_write_back(), 2, "payloads survive the failure");
        let mut written = Vec::new();
        c.flush_dirty(0, |page, buf| {
            written.push((page, buf.to_vec()));
            Ok(())
        })
        .unwrap();
        written.sort();
        assert_eq!(
            written,
            vec![(PageId(0), b"a".to_vec()), (PageId(1), b"b".to_vec())]
        );
        assert_eq!(c.pending_write_back(), 0);
    }

    #[test]
    fn one_dirty_table_holds_resident_and_drained_pages() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 3, None);
        let resident_dirty = |c: &SharedPageCache| {
            let s = c.lock_frames();
            s.dirty.keys().filter(|&&k| s.lru.contains(k)).count()
        };
        for p in 0..3u32 {
            c.materialize(0, PageId(p));
        }
        c.drain();
        for (p, bytes) in [(0u32, "zero"), (1, "one"), (2, "two")] {
            c.write(0, PageId(p), bytes.as_bytes());
        }
        // Recency [2, 1, 0]: two more pages drain 0, then 1.
        c.materialize(0, PageId(3));
        c.materialize(0, PageId(4));
        c.drain();
        c.write(0, PageId(3), b"three");
        assert_eq!(c.drain_depth(), 2);
        assert_eq!(resident_dirty(&c), 2);
        assert_eq!(
            c.drain_depth() + resident_dirty(&c),
            c.pending_write_back(),
            "every pending page is resident-dirty or drained, never both"
        );
        assert_eq!(
            c.take_dirty_evicted(),
            vec![
                (BufKey::new(0, PageId(0)), b"zero".to_vec()),
                (BufKey::new(0, PageId(1)), b"one".to_vec()),
            ],
            "only the drained pages are taken"
        );
        assert_eq!(c.pending_write_back(), 2);
        assert_eq!(c.drain_depth(), 0);
        // Recency [3, 4, 2]: a write of page 6 drains dirty page 2, so the
        // flush below meets drained and resident pages interleaved in key
        // order.
        c.write(0, PageId(6), b"six");
        assert_eq!(c.drain_depth(), 1);
        let mut written = Vec::new();
        c.flush_dirty(0, |page, buf| {
            written.push((page, buf.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            written,
            vec![
                (PageId(2), b"two".to_vec()),
                (PageId(3), b"three".to_vec()),
                (PageId(6), b"six".to_vec()),
            ],
            "each remaining page written once, in key order"
        );
        assert_eq!(c.physical_writes(), 3);
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
                let bytes = node_bytes(p.0);
                NodeAccessMut::write(&mut h, 0, p, &bytes);
                NodeAccessMut::write(&mut oracle, 0, p, &bytes);
            }
        }
        assert_eq!(
            h.stats(),
            oracle.stats(),
            "write charges are bit-identical to the BufferPool oracle"
        );
        NodeAccessMut::flush_writes(&mut h).unwrap();
        NodeAccessMut::flush_writes(&mut oracle).unwrap();
        assert_eq!(h.stats(), oracle.stats(), "flush charges match too");
        assert!(
            c.physical_writes() <= h.stats().page_writes,
            "physical writes ({}) must not exceed logical charges ({})",
            c.physical_writes(),
            h.stats().page_writes
        );
        assert_eq!(c.pending_write_back(), 0, "flush drained every payload");
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
