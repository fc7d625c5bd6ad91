//! The one file-access stack: [`FileAccess<R>`].
//!
//! The paper defines a single buffer hierarchy — a path buffer per tree,
//! one LRU buffer, then disk (§4.1). [`FileAccess`] is that hierarchy over
//! real page files, written once: it *owns a* [`BufferPool`] — the path
//! buffers, the LRU buffer and every charge are that one value
//! ([`crate::pool`]) — so its decisions and `IoStats` are the oracle's by
//! construction. Its one type parameter, the [`ReadStrategy`], is what a
//! charged miss does, and each strategy owns the source it reads:
//!
//! | read strategy `R` | [`Blocking`]       | [`Queued`]               | [`Cached`]                |
//! |-------------------|--------------------|--------------------------|---------------------------|
//! | stack             | [`FileNodeAccess`] | [`CompletionFileAccess`] | [`SharedCacheFileAccess`] |
//! | owns              | its [`PageFile`]s  | a private [`CompletionQueue`] | a [`SharedPageCache`] handle |
//! | a charged miss    | `pread`s at once   | submits one read         | unless a frame holds the page, `pread`s at once while reads are fast, else submits one |
//! | physical reads    | `= disk_accesses`  | `=`, once drained        | `≤ disk_accesses`         |
//!
//! Queued and cached misses return a [`Ticket`] the executor parks on (a
//! cached miss read at once returns it already complete), so what changes
//! is *when* a read completes, never a number. A cached stack chooses
//! between its two paths per miss from the measured service time of its
//! queue's recent reads (the [`crate::cache`] module docs, "Empty →
//! Reading"). Parallel
//! workers each own a stack; a cached stack's frames, queue and physical
//! reads are its cache's, shared by every handle. The stack reads; the
//! one write path is a cached stack with a write capability
//! ([`SharedPageCache::update_handle`]), whose dirty pages are encoded
//! and reach the file at flush.
//!
//! A failed read panics: files are validated on open, so a failure within
//! bounds means the storage itself broke mid-join.
//!
//! [`SharedCacheFileAccess`]: crate::SharedCacheFileAccess
//! [`SharedPageCache`]: crate::SharedPageCache
//! [`SharedPageCache::update_handle`]: crate::SharedPageCache::update_handle
//! [`Cached`]: crate::cache::Cached

use crate::access::{NodeAccess, Ticket};
use crate::codec::StorageError;
use crate::completion::{CompletionConfig, CompletionQueue};
use crate::file::{PageFile, PageSource};
use crate::lru::{BufKey, EvictionPolicy};
use crate::page::PageId;
use crate::pool::{BufferPool, IoStats};

/// What a charged miss does (module docs). Implemented by [`Blocking`],
/// [`Queued`] and [`crate::cache::Cached`]. A strategy only reads: the
/// stack's §4.3 pins are its pool's, and a shared frame's one pin is its
/// read pin ([`crate::cache`]).
pub trait ReadStrategy {
    /// The queue reads are submitted to — `None` when every read has
    /// finished by the time `access()` returns. Constant per type, so the
    /// ticket plumbing of a blocking stack compiles away.
    fn queue(&self) -> Option<&CompletionQueue>;

    /// Performs or submits the physical read of a charged miss of
    /// `(store, page)`. Returns the ticket to park on.
    fn read(&mut self, store: u8, page: PageId) -> Ticket;

    /// Blocks until every submitted read has completed.
    fn drain(&self) {
        if let Some(q) = self.queue() {
            q.drain();
        }
    }

    /// Zeroes the counters the strategy owns, and nothing it shares.
    fn reset(&mut self);
}

/// Read strategy: one page source per store, and a miss reads its page
/// synchronously into one reusable scratch buffer (steady-state misses
/// allocate nothing).
#[derive(Debug)]
pub struct Blocking<S = PageFile> {
    files: Vec<S>,
    scratch: Vec<u8>,
}

impl<S: PageSource> ReadStrategy for Blocking<S> {
    #[inline]
    fn queue(&self) -> Option<&CompletionQueue> {
        None
    }

    #[inline]
    fn read(&mut self, store: u8, page: PageId) -> Ticket {
        self.files[store as usize]
            .read_page_into(page, &mut self.scratch)
            .expect("page file read failed mid-join");
        Ticket::NONE
    }

    fn reset(&mut self) {
        for f in &mut self.files {
            f.reset_io();
        }
    }
}

/// Read strategy: misses become submissions on a private
/// [`CompletionQueue`] whose lane `i` reads store `i`'s file, served by
/// the queue's worker pool.
#[derive(Debug)]
pub struct Queued {
    queue: CompletionQueue,
}

impl ReadStrategy for Queued {
    #[inline]
    fn queue(&self) -> Option<&CompletionQueue> {
        Some(&self.queue)
    }

    fn read(&mut self, store: u8, page: PageId) -> Ticket {
        self.queue.submit(BufKey::new(store, page))
    }

    fn reset(&mut self) {
        self.queue.reset();
    }
}

/// The file-backed [`NodeAccess`] implementation (module docs): the
/// buffer hierarchy over one backing store per participating tree, with
/// every miss served by the read strategy `R`.
#[derive(Debug)]
pub struct FileAccess<R> {
    /// Path buffers, LRU buffer, [`IoStats`].
    pub(crate) pool: BufferPool,
    pub(crate) reads: R,
    /// Ticket of the most recent demand-miss submission.
    last_miss: Ticket,
}

/// Page files, blocking reads.
pub type FileNodeAccess = FileAccess<Blocking>;
/// Page files, completion-queue reads (one lane per store).
pub type CompletionFileAccess = FileAccess<Queued>;

impl<R: ReadStrategy> FileAccess<R> {
    /// The stack around `reads`, with an LRU buffer of `cap_pages` and one
    /// path buffer per entry of `heights`.
    pub(crate) fn assemble(cap_pages: usize, heights: &[usize], reads: R) -> Self {
        FileAccess {
            pool: BufferPool::with_capacity_pages(cap_pages, heights),
            reads,
            last_miss: Ticket::NONE,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Empties the stack's buffers and zeroes every I/O counter it owns —
    /// [`IoStats`], LRU channels, and the strategy's: page-file counters,
    /// the private queue's lane reads (after in-flight reads finish), a
    /// cache handle's warm/cold tallies. A shared cache stays as it is;
    /// its owner makes it cold ([`crate::SharedPageCache::clear`]).
    pub fn reset(&mut self) {
        self.reads.reset();
        self.pool.reset();
        self.last_miss = Ticket::NONE;
    }
}

impl<S: PageSource> FileAccess<Blocking<S>> {
    /// Stack over `files` (store `i` resolves to `files[i]`, all on one
    /// logical page size) with an LRU buffer of `cap_pages` and one path
    /// buffer per entry of `heights`. `_policy` has one value; it is kept
    /// only because the repo benchmark (`benchmark/`) passes it.
    pub fn with_capacity_pages(
        files: Vec<S>,
        cap_pages: usize,
        heights: &[usize],
        _policy: EvictionPolicy,
    ) -> Result<Self, StorageError> {
        validate_stores(&files, heights)?;
        let reads = Blocking {
            files,
            scratch: Vec::new(),
        };
        Ok(Self::assemble(cap_pages, heights, reads))
    }

    /// The backing page source of `store` (counter inspection).
    pub fn file(&self, store: u8) -> &S {
        &self.reads.files[store as usize]
    }
}

impl CompletionFileAccess {
    /// Stack over `files` with an LRU buffer of `cap_pages`, one path
    /// buffer per entry of `heights`, and a private completion queue
    /// whose lane `i` reads through `files[i]`. `_policy` is kept only
    /// for the repo benchmark, as on the blocking stack.
    pub fn with_capacity_pages(
        files: Vec<PageFile>,
        cap_pages: usize,
        heights: &[usize],
        _policy: EvictionPolicy,
        cfg: CompletionConfig,
    ) -> Result<Self, StorageError> {
        validate_stores(&files, heights)?;
        let reads = Queued {
            queue: CompletionQueue::over(files, cfg.delay),
        };
        Ok(Self::assemble(cap_pages, heights, reads))
    }

    /// The queue this stack submits to (lane reads, poll and lag
    /// counters).
    pub fn queue(&self) -> &CompletionQueue {
        &self.reads.queue
    }

    /// Always 0: nothing reads ahead of demand. Kept only because the
    /// repo benchmark's ladder (`benchmark/`) reads it.
    pub fn staged_hits(&self) -> u64 {
        0
    }

    /// Every miss reads for itself, so this is `disk_accesses`. Kept only
    /// because the repo benchmark's ladder (`benchmark/`) reads it.
    pub fn demand_reads(&self) -> u64 {
        self.pool.stats().disk_accesses
    }
}

impl<R: ReadStrategy> NodeAccess for FileAccess<R> {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        let miss = self.pool.access(store, page, depth);
        if miss {
            // The honest part: a miss is a real read.
            self.last_miss = self.reads.read(store, page);
        }
        miss
    }

    fn pin(&mut self, store: u8, page: PageId) {
        // The §4.3 pin is logical: it shapes the pool's eviction
        // decisions, hence the charge sequence.
        self.pool.pin(store, page);
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        self.pool.unpin(store, page);
    }

    fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    fn last_miss_ticket(&self) -> Ticket {
        self.last_miss
    }

    fn is_complete(&self, ticket: Ticket) -> bool {
        self.reads.queue().is_none_or(|q| q.is_complete(ticket))
    }

    fn await_ticket(&self, ticket: Ticket) {
        if let Some(q) = self.reads.queue() {
            q.await_ticket(ticket);
        }
    }

    fn is_settled(&self, ticket: Ticket) -> bool {
        self.reads.queue().is_none_or(|q| q.is_settled(ticket))
    }

    fn await_settled(&self, ticket: Ticket) {
        if let Some(q) = self.reads.queue() {
            q.await_settled(ticket);
        }
    }

    fn in_flight(&self) -> usize {
        self.reads.queue().map_or(0, CompletionQueue::in_flight)
    }

    fn drain_completions(&self) {
        self.reads.drain();
    }
}

/// Constructor validation shared with [`crate::SharedPageCache`]: one
/// backing store per tree height, and every store on one logical page
/// size.
pub(crate) fn validate_stores<S: PageSource>(
    stores: &[S],
    heights: &[usize],
) -> Result<(), StorageError> {
    if stores.len() != heights.len() {
        return Err(StorageError::Corrupt(format!(
            "{} backing stores but {} tree heights",
            stores.len(),
            heights.len()
        )));
    }
    if let Some((first, rest)) = stores.split_first() {
        let expected = first.page_bytes();
        for s in rest {
            s.check_page_bytes(expected)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;
    use crate::cache::{CacheConfig, SharedPageCache};
    use crate::codec;
    use crate::temp::demo::payload;
    use crate::temp::TempDir;

    const PAGES: u32 = 16;

    /// A flushed file of [`PAGES`] pages, page `i` holding `payload(i)`.
    struct Fixture {
        _dir: TempDir,
        path: PathBuf,
        slot: usize,
    }

    impl Fixture {
        fn new() -> Self {
            let dir = TempDir::new("stack").unwrap();
            let slot = codec::slot_bytes_for(2);
            let path = dir.file("t.rsj");
            let mut p = PageFile::create(&path, 1024, slot).unwrap();
            for i in 0..PAGES {
                p.append_page(&payload(i, slot)).unwrap();
            }
            p.flush().unwrap();
            Fixture {
                _dir: dir,
                path,
                slot,
            }
        }

        fn open(&self) -> PageFile {
            PageFile::open(&self.path).unwrap()
        }
    }

    const SEQ: [(u32, usize); 7] = [(0, 0), (1, 1), (2, 1), (1, 1), (5, 1), (0, 0), (9, 1)];

    /// The oracle property, for one instantiation: the same decisions and
    /// `IoStats` as [`BufferPool`], every miss served by a real read —
    /// `physical` counts them — exactly once on a private stack and at
    /// most once on a `shared` one, and `reset` restoring a cold stack on
    /// every channel the stack owns (and on none it shares).
    fn check_counts_like_the_pool<R: ReadStrategy>(
        mut acc: FileAccess<R>,
        physical: impl Fn(&FileAccess<R>) -> u64,
        shared: bool,
    ) {
        let mut pool = BufferPool::with_capacity_pages(2, &[2]);
        for &(p, d) in &SEQ {
            let (a, b) = (acc.access(0, PageId(p), d), pool.access(0, PageId(p), d));
            assert_eq!(a, b, "page {p} depth {d}");
        }
        assert_eq!(acc.stats(), pool.stats());
        acc.drain_completions();
        assert!(acc.is_complete(acc.last_miss_ticket()));
        let (reads, charges) = (physical(&acc), acc.stats().disk_accesses);
        assert!(
            reads == charges || shared && reads < charges,
            "{reads} physical reads for {charges} charges"
        );
        assert!(acc.pool.lru().misses() > 0);

        acc.reset();
        assert_eq!(acc.stats(), IoStats::default());
        assert_eq!(
            physical(&acc),
            if shared { reads } else { 0 },
            "shared reads stay"
        );
        assert_eq!(
            (
                acc.pool.lru().hits(),
                acc.pool.lru().misses(),
                acc.pool.lru().evictions()
            ),
            (0, 0, 0)
        );
        assert!(acc.access(0, PageId(0), 0), "cold again after reset");
    }

    #[test]
    fn every_instantiation_counts_like_buffer_pool_and_reads_for_real() {
        let fx = Fixture::new();
        let lru = EvictionPolicy::Lru;
        let blocking = FileNodeAccess::with_capacity_pages(vec![fx.open()], 2, &[2], lru);
        check_counts_like_the_pool(blocking.unwrap(), |a| a.file(0).reads(), false);
        let cfg = CompletionConfig::default();
        let queued = CompletionFileAccess::with_capacity_pages(vec![fx.open()], 2, &[2], lru, cfg);
        check_counts_like_the_pool(queued.unwrap(), |a| a.queue().total_reads(), false);
        let paths = std::slice::from_ref(&fx.path);
        let cache = SharedPageCache::open(paths, 2, &[2], CacheConfig::default()).unwrap();
        check_counts_like_the_pool(cache.handle(2), |a| a.cache().physical_reads(), true);
    }

    #[test]
    fn mismatched_stores_are_rejected() {
        let fx = Fixture::new();
        let other = fx._dir.file("b.rsj");
        PageFile::create(&other, 2048, fx.slot)
            .unwrap()
            .flush()
            .unwrap();
        let files = || {
            vec![
                PageFile::open(&fx.path).unwrap(),
                PageFile::open(&other).unwrap(),
            ]
        };
        assert!(matches!(
            FileNodeAccess::with_capacity_pages(files(), 4, &[1, 1], EvictionPolicy::Lru)
                .unwrap_err(),
            StorageError::PageSizeMismatch { .. }
        ));
        // One height per store.
        assert!(matches!(
            FileNodeAccess::with_capacity_pages(files(), 4, &[1], EvictionPolicy::Lru).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }
}
