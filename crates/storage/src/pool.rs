//! The §4.1 buffer hierarchy, its write-back protocol and the I/O
//! statistics — one value, [`BufferPool`].
//!
//! A page access during a join resolves in this order (§4.1):
//!
//! 1. the owning tree's **path buffer** (free, belongs to the data
//!    structure);
//! 2. the shared system **LRU buffer**, with pinning on top (§4.3);
//! 3. "disk" — charged as one **disk access**, the paper's I/O unit.
//!
//! A mutated page stays buffered *dirty* and costs one **page write** when
//! the LRU evicts it, when a flush reaches it, or on the spot when nothing
//! can stay resident (zero capacity, every slot pinned).
//!
//! [`BufferPool`] owns all of that — path buffers, LRU buffer,
//! [`IoStats`], every charge — but deliberately *not* the page payloads:
//! the join algorithms borrow node data from their `PageStore`s and only
//! report accesses here, mirroring the paper's accounting, where the
//! buffer question is purely "would this access have gone to disk?". A
//! write is the same kind of question, so a dirty eviction, a
//! write-through or a flush is one `page_writes += n` and nothing can
//! fail. One owner holds a pool; with the oracle itself that makes two
//! [`crate::NodeAccess`] implementors (besides `&mut A`):
//!
//! * on its own the pool is the accounting oracle, reads and writes;
//! * [`crate::FileAccess`] holds one over page files and drives it like
//!   the oracle: every charged miss is served by a real read — its own,
//!   its private queue's, or (cached) a shared frame's — and a cache
//!   update handle's dirty pages reach its file once each, encoded at
//!   [`crate::SharedPageCache::flush_dirty`].
//!
//! So the decisions and `IoStats` of both are the same code, reads and
//! writes alike; only what a miss *does* and where the bytes live
//! differ.

use crate::access::NodeAccess;
pub use crate::lru::BufKey;
use crate::lru::{Access, LruBuffer};
use crate::page::PageId;
use crate::path::PathBuffer;

/// Running I/O tallies of a join, query or update sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched from disk (buffer misses) — the paper's headline metric.
    pub disk_accesses: u64,
    /// Accesses served by a path buffer.
    pub path_hits: u64,
    /// Accesses served by the LRU buffer.
    pub lru_hits: u64,
    /// Pages written back to disk: dirty evictions plus explicit flushes.
    /// Zero for read-only workloads, so every pre-write-path comparison of
    /// whole `IoStats` values is unaffected.
    pub page_writes: u64,
}

impl IoStats {
    /// Total page *read* accesses, however they were served (writes are
    /// tallied separately in [`IoStats::page_writes`]).
    pub fn total_accesses(&self) -> u64 {
        self.disk_accesses + self.path_hits + self.lru_hits
    }
}

/// Field-wise sum: tallies of independent accountants (parallel workers,
/// pipeline stages) merged into one.
impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        self.disk_accesses += rhs.disk_accesses;
        self.path_hits += rhs.path_hits;
        self.lru_hits += rhs.lru_hits;
        self.page_writes += rhs.page_writes;
    }
}

/// Field-wise difference: what one accountant charged since an earlier
/// reading `rhs` of the same (monotone) tallies.
impl std::ops::Sub for IoStats {
    type Output = IoStats;

    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            disk_accesses: self.disk_accesses - rhs.disk_accesses,
            path_hits: self.path_hits - rhs.path_hits,
            lru_hits: self.lru_hits - rhs.lru_hits,
            page_writes: self.page_writes - rhs.page_writes,
        }
    }
}

/// The buffer hierarchy shared by the trees participating in a join
/// (module docs).
#[derive(Debug, Clone)]
pub struct BufferPool {
    lru: LruBuffer,
    paths: Vec<PathBuffer>,
    stats: IoStats,
}

impl BufferPool {
    /// Creates a pool with an LRU buffer of `buffer_bytes / page_bytes`
    /// pages (the paper quotes buffer sizes in KBytes) and one path buffer
    /// per entry of `heights`, sized to the respective tree height.
    pub fn new(buffer_bytes: usize, page_bytes: usize, heights: &[usize]) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        Self::with_capacity_pages(buffer_bytes / page_bytes, heights)
    }

    /// Pool with explicit LRU page capacity.
    pub fn with_capacity_pages(cap_pages: usize, heights: &[usize]) -> Self {
        BufferPool {
            lru: LruBuffer::new(cap_pages),
            paths: heights.iter().map(|&h| PathBuffer::new(h)).collect(),
            stats: IoStats::default(),
        }
    }

    /// Records an access by tree `store` to `page` at depth `level`
    /// (0 = root): the §4.1 access decision — probe the owning tree's path
    /// buffer, fall through to the LRU buffer, charge a disk access on a
    /// miss — plus the write-back of any dirty page the LRU evicted to
    /// make room. Returns `true` iff the caller must actually fetch the
    /// page.
    pub fn access(&mut self, store: u8, page: PageId, level: usize) -> bool {
        let path = &mut self.paths[store as usize];
        let on_path = path.probe(page);
        path.install(level, page);
        if on_path {
            // A path-buffered page is still "used", but the path buffer is
            // separate memory owned by the tree — do not force LRU
            // residency (so nothing was evicted either).
            self.stats.path_hits += 1;
            return false;
        }
        let miss = match self.lru.access(BufKey::new(store, page)) {
            Access::Hit => {
                self.stats.lru_hits += 1;
                false
            }
            Access::Miss => {
                self.stats.disk_accesses += 1;
                true
            }
        };
        self.charge_dirty_evictions();
        miss
    }

    /// Pins `store`'s `page` in the LRU buffer (see
    /// [`LruBuffer::pin`]).
    pub fn pin(&mut self, store: u8, page: PageId) {
        self.lru.pin(BufKey::new(store, page));
        self.charge_dirty_evictions();
    }

    /// Releases one pin.
    pub fn unpin(&mut self, store: u8, page: PageId) {
        self.lru.unpin(BufKey::new(store, page));
        self.charge_dirty_evictions();
    }

    /// Registers `store`'s `page` as mutated: buffer-resident (installed
    /// counter-neutrally if absent) and dirty. The write-back is charged
    /// to [`IoStats::page_writes`] when the page is evicted or flushed —
    /// this pool is the *accounting* model of the write path, exactly as
    /// it is of the read path. A page the buffer cannot hold at all
    /// (zero capacity / all slots pinned) is charged immediately, as a
    /// write-through.
    pub fn mark_dirty(&mut self, store: u8, page: PageId) {
        let key = BufKey::new(store, page);
        self.lru.install(key);
        // An install the LRU evicted at once (clean, so uncounted) has no
        // residency to defer the write under: it is written through now.
        let written_through = !self.lru.mark_dirty(key);
        self.stats.page_writes += u64::from(written_through);
        self.charge_dirty_evictions();
    }

    /// Drops the dirty state of `store`'s `page` without charging a write.
    pub fn discard_dirty(&mut self, store: u8, page: PageId) {
        self.lru.clear_dirty(BufKey::new(store, page));
    }

    /// Charges one write per remaining dirty resident and cleans them —
    /// the accounting image of a backend flush.
    pub fn flush_writes(&mut self) {
        let dirty = self.lru.dirty_keys();
        for &key in &dirty {
            self.lru.clear_dirty(key);
        }
        self.stats.page_writes += dirty.len() as u64;
    }

    /// Charges the write-back of every dirty page the LRU evicted since
    /// the last charge — none in a join, which never writes.
    #[inline]
    fn charge_dirty_evictions(&mut self) {
        self.stats.page_writes += self.lru.take_dirty_evictions();
    }

    /// Statistics so far.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// The underlying LRU buffer (for inspection in tests).
    #[inline]
    pub fn lru(&self) -> &LruBuffer {
        &self.lru
    }

    /// Empties all buffers and zeroes the statistics — including the LRU
    /// buffer's own hit/miss/eviction counters, so a reset pool reports a
    /// genuinely cold start on every channel (benches rely on this; the
    /// file-backed twin [`crate::FileAccess::reset`] additionally zeroes
    /// its read strategy's own counters in the same way). Dirty state is
    /// dropped uncharged.
    pub fn reset(&mut self) {
        self.lru.clear();
        self.lru.reset_io();
        for p in &mut self.paths {
            p.clear();
        }
        self.stats = IoStats::default();
    }
}
impl NodeAccess for BufferPool {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        BufferPool::access(self, store, page, depth)
    }

    fn pin(&mut self, store: u8, page: PageId) {
        BufferPool::pin(self, store, page)
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        BufferPool::unpin(self, store, page)
    }

    fn io_stats(&self) -> IoStats {
        self.stats()
    }
}

impl crate::access::NodeAccessMut for BufferPool {
    /// Accounting-only: the write-back is charged where a real backend
    /// would perform it.
    fn write(&mut self, store: u8, page: PageId) {
        self.mark_dirty(store, page);
    }

    fn discard(&mut self, store: u8, page: PageId) {
        self.discard_dirty(store, page);
    }

    /// Counts only, so it never asks `encode` for a page.
    fn flush_writes(
        &mut self,
        _encode: &mut crate::access::EncodePage<'_>,
    ) -> Result<(), crate::codec::StorageError> {
        BufferPool::flush_writes(self);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_goes_to_disk() {
        let mut pool = BufferPool::with_capacity_pages(4, &[2, 2]);
        assert!(pool.access(0, PageId(1), 0));
        assert_eq!(pool.stats().disk_accesses, 1);
    }

    #[test]
    fn path_buffer_serves_repeat_access() {
        let mut pool = BufferPool::with_capacity_pages(0, &[2]);
        pool.access(0, PageId(1), 0);
        assert!(!pool.access(0, PageId(1), 0), "same path level should hit");
        let s = pool.stats();
        assert_eq!(s.disk_accesses, 1);
        assert_eq!(s.path_hits, 1);
    }

    #[test]
    fn sibling_displaces_path_entry() {
        let mut pool = BufferPool::with_capacity_pages(0, &[2]);
        pool.access(0, PageId(1), 1);
        pool.access(0, PageId(2), 1); // sibling at the same level
        assert!(pool.access(0, PageId(1), 1), "displaced page must re-read");
        assert_eq!(pool.stats().disk_accesses, 3);
    }

    #[test]
    fn lru_serves_when_path_misses() {
        let mut pool = BufferPool::with_capacity_pages(4, &[2]);
        pool.access(0, PageId(1), 1);
        pool.access(0, PageId(2), 1); // 1 leaves path, stays in LRU
        assert!(!pool.access(0, PageId(1), 1));
        let s = pool.stats();
        assert_eq!(s.disk_accesses, 2);
        assert_eq!(s.lru_hits, 1);
    }

    #[test]
    fn stores_have_independent_path_buffers() {
        let mut pool = BufferPool::with_capacity_pages(0, &[1, 1]);
        pool.access(0, PageId(1), 0);
        assert!(
            pool.access(1, PageId(1), 0),
            "other store's page is distinct"
        );
        assert_eq!(pool.stats().disk_accesses, 2);
    }

    #[test]
    fn pin_keeps_page_resident() {
        let mut pool = BufferPool::with_capacity_pages(1, &[1]);
        pool.access(0, PageId(1), 0);
        pool.pin(0, PageId(1));
        // Different level so the path buffer doesn't shortcut.
        pool.access(0, PageId(2), 0);
        pool.access(0, PageId(3), 0);
        // Page 1 still resident in LRU despite capacity 1.
        assert!(pool.lru().contains(BufKey::new(0, PageId(1))));
        pool.unpin(0, PageId(1));
    }

    #[test]
    fn reset_clears_everything() {
        let mut pool = BufferPool::with_capacity_pages(2, &[1]);
        pool.access(0, PageId(1), 0);
        pool.reset();
        assert_eq!(pool.stats(), IoStats::default());
        assert!(pool.access(0, PageId(1), 0));
    }

    #[test]
    fn total_accesses_adds_up() {
        let mut pool = BufferPool::with_capacity_pages(8, &[2]);
        pool.access(0, PageId(1), 0);
        pool.access(0, PageId(1), 0);
        pool.access(0, PageId(2), 1);
        let s = pool.stats();
        assert_eq!(s.total_accesses(), 3);
        assert_eq!(s.disk_accesses + s.path_hits + s.lru_hits, 3);
    }

    #[test]
    fn dirty_accounting_charges_eviction_and_flush() {
        let mut pool = BufferPool::with_capacity_pages(1, &[1]);
        pool.access(0, PageId(1), 0);
        pool.mark_dirty(0, PageId(1));
        assert_eq!(pool.stats().page_writes, 0, "write-back is deferred");
        pool.access(0, PageId(2), 0); // evicts dirty 1 -> one write
        assert_eq!(pool.stats().page_writes, 1);
        pool.mark_dirty(0, PageId(2));
        pool.flush_writes();
        assert_eq!(pool.stats().page_writes, 2);
        pool.flush_writes();
        assert_eq!(pool.stats().page_writes, 2, "flushed pages are clean");
    }

    #[test]
    fn discard_drops_dirty_state_without_a_write() {
        let mut pool = BufferPool::with_capacity_pages(1, &[1]);
        pool.access(0, PageId(1), 0);
        pool.mark_dirty(0, PageId(1));
        pool.discard_dirty(0, PageId(1));
        pool.access(0, PageId(2), 0); // evicts clean 1
        pool.flush_writes();
        assert_eq!(pool.stats().page_writes, 0);
    }

    #[test]
    fn node_access_mut_is_wired_through_the_trait() {
        use crate::access::NodeAccessMut;
        let mut pool = BufferPool::with_capacity_pages(1, &[1]);
        NodeAccessMut::write(&mut pool, 0, PageId(1));
        NodeAccessMut::write(&mut pool, 0, PageId(2)); // evicts dirty 1
        assert_eq!(pool.stats().page_writes, 1);
        NodeAccessMut::flush_writes(&mut pool, &mut |_, _| unreachable!("the pool only counts"))
            .unwrap();
        assert_eq!(pool.stats().page_writes, 2);
        // Read-only stats never moved.
        assert_eq!(pool.stats().disk_accesses, 0);
    }

    #[test]
    fn buffer_bytes_to_pages_conversion() {
        let pool = BufferPool::new(32 * 1024, 4 * 1024, &[3]);
        assert_eq!(pool.lru().capacity(), 8);
        let pool0 = BufferPool::new(0, 1024, &[3]);
        assert_eq!(pool0.lru().capacity(), 0);
    }
}
