//! The one file-access stack: [`FileAccess<S, R>`].
//!
//! The paper defines a single buffer hierarchy — a path buffer per tree,
//! one LRU buffer, then disk (§4.1). [`FileAccess`] is that hierarchy over
//! real page files, written once and assembled from two type parameters:
//!
//! | page source `S` ╲ read strategy `R` | [`Blocking`]       | [`Queued`]               |
//! |-------------------------------------|--------------------|--------------------------|
//! | [`PageFile`]                        | [`FileNodeAccess`] | [`CompletionFileAccess`] |
//!
//! * The **page source** ([`PageSource`]) is where a store's pages live:
//!   one page file per store.
//! * The **read strategy** ([`ReadStrategy`]) is what a charged miss does:
//!   [`Blocking`] `pread`s the page before `access()` returns; [`Queued`]
//!   submits the read to the stack's own [`CompletionQueue`] (one lane per
//!   store) and returns a [`Ticket`] for the executor to park on. Parallel
//!   workers each own a stack, queue included.
//!
//! Everything else is shared, and not only between the two: the stack
//! *owns a* [`BufferPool`] — the path buffers, the LRU buffer, the
//! write-back protocol and every charge are that one value
//! ([`crate::pool`]) — so its decisions and `IoStats` are the oracle's by
//! construction, reads and writes alike. What the stack adds is the bytes:
//! a miss is a real read, and the writer it hands the hierarchy
//! (`page_writer`) puts a dirty page's stashed payload
//! ([`crate::writeback`]) into the file that owns it.
//!
//! ## Properties of the queued strategy
//!
//! * It reads only on demand: a charged miss submits exactly one read,
//!   where the blocking strategy would have performed it. What changes is
//!   *when* the read completes, never a number — so once
//!   [`NodeAccess::drain_completions`] returns, physical reads equal
//!   `disk_accesses`.
//! * The strategy is a type, not a flag: the write half of the boundary
//!   ([`NodeAccessMut`], [`UpdateBackend`]) exists for [`Blocking`] only —
//!   queue workers hold independent read handles a write could race, so a
//!   queued stack cannot be handed to an updater at all.
//!
//! A failed read or write-back panics: files are validated on open, so a
//! failure within bounds means the storage itself broke mid-join.

use std::path::PathBuf;

use crate::access::{NodeAccess, NodeAccessMut, Ticket};
use crate::codec::StorageError;
use crate::completion::{CompletionConfig, CompletionQueue};
use crate::file::{PageFile, PageSource};
use crate::lru::{BufKey, EvictionPolicy};
use crate::page::PageId;
use crate::pool::{BufferPool, IoStats};
use crate::writeback::{DirtyPages, UpdateBackend};

/// What a charged miss does (module docs). Implemented by [`Blocking`]
/// and [`Queued`].
pub trait ReadStrategy {
    /// The queue reads are submitted to — `None` when every read has
    /// finished by the time `access()` returns. Constant per type, so the
    /// ticket plumbing of a blocking stack compiles away.
    fn queue(&self) -> Option<&CompletionQueue>;

    /// Performs or submits the physical read of a charged miss on
    /// `files[store]`. Returns the ticket to park on.
    fn read<S: PageSource>(&mut self, files: &mut [S], store: u8, page: PageId) -> Ticket;
}

/// Read strategy: a miss reads its page synchronously into one reusable
/// scratch buffer (steady-state misses allocate nothing).
#[derive(Debug, Default)]
pub struct Blocking {
    scratch: Vec<u8>,
}

impl ReadStrategy for Blocking {
    #[inline]
    fn queue(&self) -> Option<&CompletionQueue> {
        None
    }

    #[inline]
    fn read<S: PageSource>(&mut self, files: &mut [S], store: u8, page: PageId) -> Ticket {
        files[store as usize]
            .read_page_into(page, &mut self.scratch)
            .expect("page file read failed mid-join");
        Ticket::NONE
    }
}

/// Read strategy: misses become submissions on a private
/// [`CompletionQueue`] with one lane per store, served by a worker pool
/// holding its own read-only handles.
#[derive(Debug)]
pub struct Queued {
    queue: CompletionQueue,
}

impl ReadStrategy for Queued {
    #[inline]
    fn queue(&self) -> Option<&CompletionQueue> {
        Some(&self.queue)
    }

    fn read<S: PageSource>(&mut self, _files: &mut [S], store: u8, page: PageId) -> Ticket {
        self.queue.submit(BufKey::new(store, page))
    }
}

/// The writer a [`FileAccess`] hands its hierarchy: the hierarchy names
/// the page whose write is due, this puts the page's stashed payload into
/// the file of its store.
fn page_writer<'a, S: PageSource>(
    files: &'a mut [S],
    dirty: &'a mut DirtyPages,
) -> impl FnMut(BufKey) -> Result<(), StorageError> + 'a {
    dirty.writer(|key, buf| files[key.store as usize].write_page(key.page, buf))
}

/// Unwraps a hierarchy operation that wrote the dirty pages it evicted
/// back through [`page_writer`]. A write-back failure panics, like a
/// failed demand read: the storage broke mid-operation and the buffered
/// payload has nowhere else to go.
fn write_back_evicted<T>(done: Result<T, StorageError>) -> T {
    done.expect("dirty-page write-back failed")
}

/// The file-backed [`NodeAccess`] implementation (module docs): the
/// buffer hierarchy over one page source per participating tree/store,
/// with every miss performing a real page read.
#[derive(Debug)]
pub struct FileAccess<S, R> {
    /// With [`Queued`] these are metadata handles (page sizes, counters);
    /// the reads happen on the queue's own lane handles.
    files: Vec<S>,
    /// Path buffers, LRU buffer, write-back protocol, [`IoStats`].
    pool: BufferPool,
    /// The bytes of the pages `pool` holds dirty ([`NodeAccessMut`]).
    dirty: DirtyPages,
    reads: R,
    /// Ticket of the most recent demand-miss submission.
    last_miss: Ticket,
}

/// Page files, blocking reads.
pub type FileNodeAccess = FileAccess<PageFile, Blocking>;
/// Page files, completion-queue reads (one lane per store).
pub type CompletionFileAccess = FileAccess<PageFile, Queued>;

impl<S: PageSource, R: ReadStrategy> FileAccess<S, R> {
    /// Validates one backing store per tree height, all on one logical
    /// page size, and assembles the stack around `reads`.
    fn assemble(
        files: Vec<S>,
        cap_pages: usize,
        heights: &[usize],
        reads: R,
    ) -> Result<Self, StorageError> {
        validate_stores(&files, heights)?;
        Ok(FileAccess {
            files,
            pool: BufferPool::with_capacity_pages(cap_pages, heights),
            dirty: DirtyPages::default(),
            reads,
            last_miss: Ticket::NONE,
        })
    }

    /// Statistics so far.
    pub fn stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// The backing page source of `store` (counter inspection, reopening).
    pub fn file(&self, store: u8) -> &S {
        &self.files[store as usize]
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

    /// Empties all buffers and zeroes *every* I/O counter — [`IoStats`],
    /// LRU channels, page-source counters, the queue's lane reads — so
    /// consecutive bench runs start genuinely cold. Blocks until in-flight
    /// reads finish. Un-flushed dirty pages are **discarded**: a reset is
    /// a measurement boundary, not a durability point (update paths flush
    /// first).
    pub fn reset(&mut self) {
        if let Some(queue) = self.reads.queue() {
            queue.reset();
        }
        self.pool.reset();
        self.dirty.clear();
        for f in &mut self.files {
            f.reset_io();
        }
        self.last_miss = Ticket::NONE;
    }
}

impl<S: PageSource> FileAccess<S, Blocking> {
    /// Stack over `files` (store `i` resolves to `files[i]`) with an LRU
    /// buffer of `cap_pages` and one path buffer per entry of `heights`.
    /// `_policy` has one value; it is kept only because the repo
    /// benchmark (`benchmark/`) passes it.
    pub fn with_capacity_pages(
        files: Vec<S>,
        cap_pages: usize,
        heights: &[usize],
        _policy: EvictionPolicy,
    ) -> Result<Self, StorageError> {
        Self::assemble(files, cap_pages, heights, Blocking::default())
    }
}

impl CompletionFileAccess {
    /// Stack over `files` with an LRU buffer of `cap_pages`, one path
    /// buffer per entry of `heights`, and a private completion queue
    /// whose lane `i` reads `files[i]`'s path. `_policy` is kept only for
    /// the repo benchmark, as on the blocking stack.
    pub fn with_capacity_pages(
        files: Vec<PageFile>,
        cap_pages: usize,
        heights: &[usize],
        _policy: EvictionPolicy,
        cfg: CompletionConfig,
    ) -> Result<Self, StorageError> {
        let paths: Vec<PathBuf> = files.iter().map(|f| f.path().to_path_buf()).collect();
        let reads = Queued {
            queue: CompletionQueue::open(&paths, cfg.delay)?,
        };
        Self::assemble(files, cap_pages, heights, reads)
    }

    /// The queue this stack submits to (lane reads, poll and lag
    /// counters).
    pub fn queue(&self) -> &CompletionQueue {
        &self.reads.queue
    }
}

impl<S: PageSource, R: ReadStrategy> NodeAccess for FileAccess<S, R> {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        // The decision may evict a dirty page: the hierarchy writes it
        // back before anything else touches the file.
        let write = page_writer(&mut self.files, &mut self.dirty);
        let miss = write_back_evicted(self.pool.access_with(store, page, depth, write));
        if miss {
            // The honest part: a miss is a real read from the file.
            self.last_miss = self.reads.read(&mut self.files, store, page);
        }
        miss
    }

    fn pin(&mut self, store: u8, page: PageId) {
        let write = page_writer(&mut self.files, &mut self.dirty);
        write_back_evicted(self.pool.pin_with(store, page, write));
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        let write = page_writer(&mut self.files, &mut self.dirty);
        write_back_evicted(self.pool.unpin_with(store, page, write));
    }

    fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    fn completion_driven(&self) -> bool {
        self.reads.queue().is_some()
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
        if let Some(q) = self.reads.queue() {
            q.drain();
        }
    }
}

impl<S: PageSource> NodeAccessMut for FileAccess<S, Blocking> {
    fn write(&mut self, store: u8, page: PageId, payload: &[u8]) {
        self.dirty.stash(BufKey::new(store, page), payload);
        let write = page_writer(&mut self.files, &mut self.dirty);
        self.pool
            .mark_dirty_with(store, page, write)
            .expect("dirty-page write-through failed");
    }

    fn discard(&mut self, store: u8, page: PageId) {
        self.pool.discard_dirty(store, page);
        self.dirty.discard(BufKey::new(store, page));
    }

    fn flush_writes(&mut self) -> Result<(), StorageError> {
        let write = page_writer(&mut self.files, &mut self.dirty);
        self.pool.flush_writes_with(write)?;
        debug_assert!(self.dirty.is_empty(), "payloads without dirty bits");
        Ok(())
    }
}

impl<S: PageSource> UpdateBackend for FileAccess<S, Blocking> {
    type File = S;

    fn store_file(&self, store: u8) -> &S {
        self.file(store)
    }

    fn store_file_mut(&mut self, store: u8) -> &mut S {
        &mut self.files[store as usize]
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
    use super::*;
    use crate::codec;
    use crate::temp::demo::payload;
    use crate::temp::TempDir;

    const PAGES: u32 = 16;

    fn child_of(buf: &[u8]) -> u64 {
        codec::decode_node(buf).unwrap().entries[0].child
    }

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
            PageFile::open_rw(&self.path).unwrap()
        }
    }

    fn blocking(fx: &Fixture, cap: usize, height: usize) -> FileNodeAccess {
        FileNodeAccess::with_capacity_pages(vec![fx.open()], cap, &[height], EvictionPolicy::Lru)
            .unwrap()
    }

    fn queued(
        fx: &Fixture,
        cap: usize,
        height: usize,
        cfg: CompletionConfig,
    ) -> CompletionFileAccess {
        let files = vec![fx.open()];
        CompletionFileAccess::with_capacity_pages(files, cap, &[height], EvictionPolicy::Lru, cfg)
            .unwrap()
    }

    /// Pages physically read so far, on whichever handles read them.
    fn physical<R: ReadStrategy>(acc: &FileAccess<PageFile, R>) -> u64 {
        acc.file(0).reads() + acc.reads.queue().map_or(0, CompletionQueue::total_reads)
    }

    const SEQ: [(u32, usize); 7] = [(0, 0), (1, 1), (2, 1), (1, 1), (5, 1), (0, 0), (9, 1)];

    /// The oracle property, for one instantiation: the same decisions and
    /// `IoStats` as [`BufferPool`], every miss served exactly once by a
    /// real read, and `reset` restoring a cold stack on every channel.
    fn check_counts_like_the_pool<R: ReadStrategy>(mut acc: FileAccess<PageFile, R>) {
        let mut pool = BufferPool::with_capacity_pages(2, &[2]);
        for &(p, d) in &SEQ {
            let (a, b) = (acc.access(0, PageId(p), d), pool.access(0, PageId(p), d));
            assert_eq!(a, b, "page {p} depth {d}");
        }
        assert_eq!(acc.stats(), pool.stats());
        acc.drain_completions();
        assert!(acc.is_complete(acc.last_miss_ticket()));
        assert_eq!(
            physical(&acc),
            acc.stats().disk_accesses,
            "every charge became exactly one physical read"
        );
        assert!(acc.pool.lru().misses() > 0);

        acc.reset();
        assert_eq!(acc.stats(), IoStats::default());
        assert_eq!(physical(&acc), 0);
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
        check_counts_like_the_pool(blocking(&fx, 2, 2));
        check_counts_like_the_pool(queued(&fx, 2, 2, CompletionConfig::default()));
    }

    /// The write half: dirty pages are written back on eviction and on
    /// flush, to the file that owns them; a discarded page is never
    /// written.
    #[test]
    fn blocking_write_back_reaches_the_owning_file() {
        let fx = Fixture::new();
        let mut acc = blocking(&fx, 1, 1);
        // Mutate page 1; the write is deferred...
        acc.write(0, PageId(1), &payload(111, fx.slot));
        assert_eq!(acc.pool.lru().dirty_len(), 1);
        assert_eq!(acc.stats().page_writes, 0);
        // ...until eviction pressure pushes it out.
        acc.access(0, PageId(0), 0);
        assert_eq!(acc.pool.lru().dirty_len(), 0);
        assert_eq!(acc.stats().page_writes, 1);
        // Mutate page 2 and flush explicitly.
        acc.access(0, PageId(2), 0);
        acc.write(0, PageId(2), &payload(222, fx.slot));
        acc.flush_writes().unwrap();
        assert_eq!(acc.stats().page_writes, 2);
        // A discarded page's payload dies with it.
        acc.write(0, PageId(3), &payload(333, fx.slot));
        acc.discard(0, PageId(3));
        acc.flush_writes().unwrap();
        assert_eq!(acc.stats().page_writes, 2);
        drop(acc);

        let mut f = fx.open();
        let mut buf = Vec::new();
        for (page, want) in [(1, 111), (2, 222), (3, 3)] {
            f.read_page_into(PageId(page), &mut buf).unwrap();
            assert_eq!(child_of(&buf), want, "page {page}");
        }
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
