//! The one file-access stack: [`FileAccess<S, R>`].
//!
//! The paper defines a single buffer hierarchy — a path buffer per tree,
//! one LRU buffer, then disk (§4.1). [`FileAccess`] is that hierarchy over
//! real page files, written once and assembled from two type parameters:
//!
//! | page source `S` ╲ read strategy `R` | [`Blocking`]          | [`Queued`]                       |
//! |-------------------------------------|-----------------------|----------------------------------|
//! | [`PageFile`]                        | [`FileNodeAccess`]    | [`CompletionFileAccess`]         |
//! | [`ShardedPageFile`]                 | [`ShardedFileAccess`] | [`ShardedCompletionFileAccess`]  |
//!
//! * The **page source** ([`PageSource`]) is where a store's pages live:
//!   one physical file, or N shard files behind a manifest. It tells the
//!   stack which *lane* (physical file) and local slot a page resolves to —
//!   a plain file is simply the one-lane case.
//! * The **read strategy** ([`ReadStrategy`]) is what a charged miss does:
//!   [`Blocking`] `pread`s the page before `access()` returns; [`Queued`]
//!   submits the read to a [`CompletionQueue`] lane and returns a
//!   [`Ticket`] for the executor to park on, and turns read-schedule hints
//!   into early submissions that a later demand miss adopts.
//!
//! Everything else is shared, and not only among the four: the stack
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
//! * Hints are advisory and never move a number: a hinted page still
//!   charges its miss on demand, exactly where the paper charges it.
//!   What changes is *when* the physical read happens, visible in the
//!   [`FileAccess::staged_hits`] / [`FileAccess::demand_reads`] split —
//!   the two always sum to `disk_accesses`.
//! * Hints are deduplicated against buffered and in-flight pages and
//!   bounded by [`CompletionConfig::window`]; a hint past the window is
//!   dropped at submission, never read-then-discarded. So once
//!   [`NodeAccess::drain_completions`] returns, physical reads equal
//!   `disk_accesses` whenever every hinted page was demanded.
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
use crate::completion::{CompletionConfig, CompletionQueue, DelayFn};
use crate::file::{PageFile, PageSource};
use crate::lru::{BufKey, EvictionPolicy};
use crate::page::PageId;
use crate::pool::{BufferPool, IoStats};
use crate::sharded::ShardedPageFile;
use crate::writeback::{DirtyPages, UpdateBackend};

/// What a charged miss does (module docs). Implemented by [`Blocking`]
/// and [`Queued`].
pub trait ReadStrategy {
    /// The queue reads are submitted to — `None` when every read has
    /// finished by the time `access()` returns. Constant per type, so the
    /// ticket plumbing of a blocking stack compiles away.
    fn queue(&self) -> Option<&CompletionQueue>;

    /// Performs or submits the physical read of a charged miss on
    /// `files[store]`. Returns the ticket to park on and whether a hint
    /// had already started the read.
    fn read<S: PageSource>(&mut self, files: &mut [S], store: u8, page: PageId) -> (Ticket, bool);

    /// Starts reading a page the buffers do not hold ahead of its demand
    /// miss. Default: hints are ignored.
    fn read_ahead<S: PageSource>(&mut self, _files: &[S], _store: u8, _page: PageId) {}
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
    fn read<S: PageSource>(&mut self, files: &mut [S], store: u8, page: PageId) -> (Ticket, bool) {
        files[store as usize]
            .read_page_into(page, &mut self.scratch)
            .expect("page file read failed mid-join");
        (Ticket::NONE, false)
    }
}

/// Read strategy: misses and hints become submissions on a
/// [`CompletionQueue`] with one lane per physical file, each lane served
/// by dedicated workers holding their own read-only handles.
#[derive(Debug)]
pub struct Queued {
    queue: CompletionQueue,
    /// Lane of `(store, lane within store)` = `lane_base[store] + lane`.
    lane_base: Vec<usize>,
    window: usize,
}

impl ReadStrategy for Queued {
    #[inline]
    fn queue(&self) -> Option<&CompletionQueue> {
        Some(&self.queue)
    }

    fn read<S: PageSource>(&mut self, files: &mut [S], store: u8, page: PageId) -> (Ticket, bool) {
        let (lane, local) = files[store as usize]
            .lane_of(page)
            .expect("page read failed mid-join: page outside every lane");
        // Adopts the hint's submission if one is unconsumed (making it
        // demand-class, ordered by its ticket), submits a fresh read if not.
        self.queue.adopt_or_submit(
            self.lane_base[store as usize] + lane,
            BufKey::new(store, page),
            local,
        )
    }

    fn read_ahead<S: PageSource>(&mut self, files: &[S], store: u8, page: PageId) {
        let Some((lane, local)) = files[store as usize].lane_of(page) else {
            return; // hints are advisory; bad ones are dropped
        };
        // The queue dedupes against in-flight submissions and enforces
        // the window bound.
        self.queue.submit_hint(
            self.lane_base[store as usize] + lane,
            BufKey::new(store, page),
            local,
            self.window,
        );
    }
}

/// Opens one completion queue with a lane per physical file of `files`,
/// in store-major order — the layout [`Queued`] submits on.
pub(crate) fn open_lanes<S: PageSource>(
    files: &[S],
    delay: Option<DelayFn>,
) -> Result<CompletionQueue, StorageError> {
    let paths: Vec<PathBuf> = files.iter().flat_map(PageSource::lane_paths).collect();
    CompletionQueue::open(&paths, delay)
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
    /// Misses whose physical read a hint had already started.
    staged_hits: u64,
    /// Misses that read (or submitted, or adopted a still-queued read)
    /// themselves.
    demand_reads: u64,
}

/// Plain page files, blocking reads.
pub type FileNodeAccess = FileAccess<PageFile, Blocking>;
/// Plain page files, completion-queue reads (one lane per store).
pub type CompletionFileAccess = FileAccess<PageFile, Queued>;
/// Subtree-sharded page files, blocking reads.
pub type ShardedFileAccess = FileAccess<ShardedPageFile, Blocking>;
/// Subtree-sharded page files, completion-queue reads (one lane per
/// physical shard file — the disk-array model).
pub type ShardedCompletionFileAccess = FileAccess<ShardedPageFile, Queued>;

impl<S: PageSource, R: ReadStrategy> FileAccess<S, R> {
    /// Validates one backing store per tree height, all on one logical
    /// page size, and assembles the stack around `reads`.
    fn assemble(
        files: Vec<S>,
        cap_pages: usize,
        heights: &[usize],
        policy: EvictionPolicy,
        reads: R,
    ) -> Result<Self, StorageError> {
        validate_stores(&files, heights)?;
        Ok(FileAccess {
            files,
            pool: BufferPool::with_pages(cap_pages, heights, policy),
            dirty: DirtyPages::default(),
            reads,
            last_miss: Ticket::NONE,
            staged_hits: 0,
            demand_reads: 0,
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

    /// Misses whose physical read a hint had already started or finished
    /// when demand arrived (always zero with [`Blocking`]).
    pub fn staged_hits(&self) -> u64 {
        self.staged_hits
    }

    /// Misses that read, submitted, or adopted a still-queued read
    /// themselves. `staged_hits + demand_reads == disk_accesses`.
    pub fn demand_reads(&self) -> u64 {
        self.demand_reads
    }

    /// Empties all buffers and zeroes *every* I/O counter — [`IoStats`],
    /// LRU channels, page-source counters, the staged/demand split, the
    /// queue's lane reads — so consecutive bench runs start genuinely
    /// cold. Blocks until in-flight reads finish. Un-flushed dirty pages
    /// are **discarded**: a reset is a measurement boundary, not a
    /// durability point (update paths flush first).
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
        self.staged_hits = 0;
        self.demand_reads = 0;
    }
}

impl<S: PageSource> FileAccess<S, Blocking> {
    /// Stack over `files` (store `i` resolves to `files[i]`) with an LRU
    /// buffer of `cap_pages` and one path buffer per entry of `heights`.
    pub fn with_capacity_pages(
        files: Vec<S>,
        cap_pages: usize,
        heights: &[usize],
        policy: EvictionPolicy,
    ) -> Result<Self, StorageError> {
        Self::assemble(files, cap_pages, heights, policy, Blocking::default())
    }
}

impl<S: PageSource> FileAccess<S, Queued> {
    /// Stack over `files` with an LRU buffer of `cap_pages`, one path
    /// buffer per entry of `heights`, and a private completion queue with
    /// one lane per physical file.
    pub fn with_capacity_pages(
        files: Vec<S>,
        cap_pages: usize,
        heights: &[usize],
        policy: EvictionPolicy,
        cfg: CompletionConfig,
    ) -> Result<Self, StorageError> {
        let queue = open_lanes(&files, cfg.delay)?;
        Self::with_shared_queue(files, cap_pages, heights, policy, queue, cfg.window)
    }

    /// A stack over an externally built queue
    /// ([`crate::sharded::shard_lane_queue`]) —
    /// parallel join workers each wrap their own stack (private buffers,
    /// private `IoStats`) around clones of **one** queue, sharing its
    /// workers, tickets and per-lane read counters. `window` bounds the
    /// hints in flight ([`CompletionConfig::window`]). The queue must hold
    /// exactly one lane per physical file of `files`, in store-major order.
    pub fn with_shared_queue(
        files: Vec<S>,
        cap_pages: usize,
        heights: &[usize],
        policy: EvictionPolicy,
        queue: CompletionQueue,
        window: usize,
    ) -> Result<Self, StorageError> {
        let mut lane_base = Vec::with_capacity(files.len());
        let mut lanes = 0;
        for file in &files {
            lane_base.push(lanes);
            lanes += file.lane_paths().len();
        }
        if queue.lane_count() != lanes {
            return Err(StorageError::Corrupt(format!(
                "completion queue has {} lanes but the stores hold {lanes} physical files",
                queue.lane_count()
            )));
        }
        let reads = Queued {
            queue,
            lane_base,
            window: window.max(1),
        };
        Self::assemble(files, cap_pages, heights, policy, reads)
    }

    /// The queue this stack submits to (lane reads, staged pages, poll
    /// and lag counters). A shared queue counts for *all* its stacks.
    pub fn queue(&self) -> &CompletionQueue {
        &self.reads.queue
    }
}

impl<R: ReadStrategy> FileAccess<ShardedPageFile, R> {
    /// The per-shard physical read split of `store` — one total per
    /// shard file, demand-path and queue-lane reads combined: the
    /// per-spindle numbers a disk-array deployment would observe, and the
    /// vector the telemetry layer exports as the `shard="<i>"`-labeled
    /// read family.
    pub fn read_split(&self, store: u8) -> Vec<u64> {
        let (before, from) = self.files.split_at(store as usize);
        let base: usize = before.iter().map(ShardedPageFile::shard_count).sum();
        let queue = self.reads.queue();
        (0..from[0].shard_count())
            .map(|shard| {
                from[0].shard_reads(shard) + queue.map_or(0, |q| q.lane_reads(base + shard))
            })
            .collect()
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
            let (ticket, staged) = self.reads.read(&mut self.files, store, page);
            if staged {
                self.staged_hits += 1;
            } else {
                self.demand_reads += 1;
            }
            self.last_miss = ticket;
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

    fn wants_hints(&self) -> bool {
        self.reads.queue().is_some()
    }

    fn will_access(&mut self, store: u8, page: PageId, _depth: usize) {
        // Skip pages a demand access would not read anyway.
        if self.pool.holds(store, page) {
            return;
        }
        self.reads.read_ahead(&self.files, store, page);
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
    use crate::access::PageRef;
    use crate::codec;
    use crate::temp::demo::payload;
    use crate::temp::TempDir;

    const PAGES: u32 = 16;
    const SHARDS: usize = 4;

    fn child_of(buf: &[u8]) -> u64 {
        codec::decode_node(buf).unwrap().entries[0].child
    }

    /// The same [`PAGES`] pages as one plain file and as a sharded twin.
    struct Fixture {
        _dir: TempDir,
        plain: PathBuf,
        sharded: PathBuf,
        slot: usize,
    }

    impl Fixture {
        fn new() -> Self {
            let dir = TempDir::new("stack").unwrap();
            let slot = codec::slot_bytes_for(2);
            let (plain, sharded) = (dir.file("t.rsj"), dir.file("t.sharded.rsj"));
            let assign: Vec<u8> = (0..PAGES).map(|i| (i as usize % SHARDS) as u8).collect();
            let mut p = PageFile::create(&plain, 1024, slot).unwrap();
            let mut s = ShardedPageFile::create(&sharded, 1024, slot, SHARDS, &assign).unwrap();
            for i in 0..PAGES {
                p.append_page(&payload(i, slot)).unwrap();
                s.append_page(&payload(i, slot)).unwrap();
            }
            p.flush().unwrap();
            s.flush().unwrap();
            Fixture {
                _dir: dir,
                plain,
                sharded,
                slot,
            }
        }
    }

    /// Opens the fixture's twin of a page-source type.
    trait Twin: PageSource + Sized {
        fn open_twin(fx: &Fixture) -> Self;
        fn reads(&self) -> u64;
    }

    impl Twin for PageFile {
        fn open_twin(fx: &Fixture) -> Self {
            PageFile::open_rw(&fx.plain).unwrap()
        }
        fn reads(&self) -> u64 {
            PageFile::reads(self)
        }
    }

    impl Twin for ShardedPageFile {
        fn open_twin(fx: &Fixture) -> Self {
            ShardedPageFile::open_rw(&fx.sharded).unwrap()
        }
        fn reads(&self) -> u64 {
            ShardedPageFile::reads(self)
        }
    }

    fn blocking<S: Twin>(fx: &Fixture, cap: usize, height: usize) -> FileAccess<S, Blocking> {
        let files = vec![S::open_twin(fx)];
        FileAccess::<S, Blocking>::with_capacity_pages(files, cap, &[height], EvictionPolicy::Lru)
            .unwrap()
    }

    fn queued<S: Twin>(
        fx: &Fixture,
        cap: usize,
        height: usize,
        cfg: CompletionConfig,
    ) -> FileAccess<S, Queued> {
        let files = vec![S::open_twin(fx)];
        FileAccess::<S, Queued>::with_capacity_pages(
            files,
            cap,
            &[height],
            EvictionPolicy::Lru,
            cfg,
        )
        .unwrap()
    }

    /// Pages physically read so far, on whichever handles read them.
    fn physical<S: Twin, R: ReadStrategy>(acc: &FileAccess<S, R>) -> u64 {
        acc.file(0).reads() + acc.reads.queue().map_or(0, CompletionQueue::total_reads)
    }

    const SEQ: [(u32, usize); 7] = [(0, 0), (1, 1), (2, 1), (1, 1), (5, 1), (0, 0), (9, 1)];

    /// The oracle property, for one instantiation: the same decisions and
    /// `IoStats` as [`BufferPool`], every miss served exactly once by a
    /// real read, and `reset` restoring a cold stack on every channel.
    fn check_counts_like_the_pool<S: Twin, R: ReadStrategy>(mut acc: FileAccess<S, R>) {
        let mut pool = BufferPool::with_capacity_pages(2, &[2]);
        for &(p, d) in &SEQ {
            let (a, b) = (acc.access(0, PageId(p), d), pool.access(0, PageId(p), d));
            assert_eq!(a, b, "page {p} depth {d}");
        }
        assert_eq!(acc.stats(), pool.stats());
        assert_eq!(
            acc.staged_hits() + acc.demand_reads(),
            acc.stats().disk_accesses,
            "every miss was served exactly once"
        );
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
        assert_eq!((acc.staged_hits(), acc.demand_reads()), (0, 0));
        assert_eq!(
            (
                acc.pool.lru().hits(),
                acc.pool.lru().misses(),
                acc.pool.lru().evictions()
            ),
            (0, 0, 0)
        );
        assert!(acc.access(0, PageId(0), 0), "cold again after reset");
        assert_eq!(acc.demand_reads(), 1);
    }

    #[test]
    fn every_instantiation_counts_like_buffer_pool_and_reads_for_real() {
        let fx = Fixture::new();
        let cfg = CompletionConfig::default;
        check_counts_like_the_pool(blocking::<PageFile>(&fx, 2, 2));
        check_counts_like_the_pool(blocking::<ShardedPageFile>(&fx, 2, 2));
        check_counts_like_the_pool(queued::<PageFile>(&fx, 2, 2, cfg()));
        check_counts_like_the_pool(queued::<ShardedPageFile>(&fx, 2, 2, cfg()));
    }

    /// Hints interleaved with demand must not move any number — checked
    /// against the blocking twin over the same source — and when every
    /// hinted page is demanded, drained physical reads equal the charges.
    fn check_hints_never_move_a_number<S: Twin>(fx: &Fixture, cfg: CompletionConfig) {
        let mut plain = blocking::<S>(fx, 2, 2);
        let mut pre = queued::<S>(fx, 2, 2, cfg);
        assert!(pre.wants_hints() && pre.completion_driven());
        assert!(!plain.wants_hints() && !plain.completion_driven());
        pre.hint(&[PageRef::new(0, PageId(2), 1), PageRef::new(0, PageId(5), 1)]);
        for &(p, d) in &SEQ {
            pre.will_access(0, PageId(p), d);
            let (a, b) = (pre.access(0, PageId(p), d), plain.access(0, PageId(p), d));
            assert_eq!(a, b, "page {p} depth {d}");
        }
        assert_eq!(pre.stats(), plain.stats(), "hints never move IoStats");
        assert_eq!(
            pre.staged_hits() + pre.demand_reads(),
            pre.stats().disk_accesses,
            "every miss is either a demand read or a consumed hint"
        );
        pre.drain_completions();
        assert_eq!(
            pre.queue().total_reads(),
            pre.stats().disk_accesses,
            "every hinted page was demanded, so reads equal charges"
        );
        assert_eq!(pre.queue().staged_len(), 0);
    }

    #[test]
    fn queued_hints_never_move_a_number() {
        let fx = Fixture::new();
        let narrow = || CompletionConfig {
            window: 4,
            delay: None,
        };
        check_hints_never_move_a_number::<PageFile>(&fx, CompletionConfig::default());
        check_hints_never_move_a_number::<PageFile>(&fx, narrow());
        check_hints_never_move_a_number::<ShardedPageFile>(&fx, CompletionConfig::default());
        check_hints_never_move_a_number::<ShardedPageFile>(&fx, narrow());
    }

    /// The window bounds read-ahead across all lanes of a store, and
    /// repeated hints are free: over-window hints are dropped at
    /// submission, never read-then-discarded.
    fn check_window_bounds_read_ahead<S: Twin>(fx: &Fixture) {
        let mut acc = queued::<S>(
            fx,
            PAGES as usize,
            1,
            CompletionConfig {
                window: 4,
                delay: None,
            },
        );
        let refs: Vec<PageRef> = (0..PAGES).map(|i| PageRef::new(0, PageId(i), 0)).collect();
        acc.hint(&refs);
        acc.hint(&refs);
        acc.drain_completions();
        assert!(
            acc.queue().total_reads() <= 4,
            "read {} pages",
            acc.queue().total_reads()
        );
        assert_eq!(acc.queue().staged_len() as u64, acc.queue().total_reads());
        assert_eq!(acc.stats(), IoStats::default(), "hints charge nothing");
    }

    #[test]
    fn queued_window_bounds_read_ahead_and_dedups_hints() {
        let fx = Fixture::new();
        check_window_bounds_read_ahead::<PageFile>(&fx);
        check_window_bounds_read_ahead::<ShardedPageFile>(&fx);
    }

    /// The write half, for one blocking instantiation: dirty pages are
    /// written back on eviction and on flush, to the file that owns them;
    /// a discarded page is never written.
    fn check_write_back<S: Twin>(fx: &Fixture) {
        let mut acc = blocking::<S>(fx, 1, 1);
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

        let mut f = S::open_twin(fx);
        let mut buf = Vec::new();
        for (page, want) in [(1, 111), (2, 222), (3, 3)] {
            f.read_page_into(PageId(page), &mut buf).unwrap();
            assert_eq!(child_of(&buf), want, "page {page}");
        }
    }

    #[test]
    fn blocking_write_back_reaches_the_owning_file() {
        check_write_back::<PageFile>(&Fixture::new());
        check_write_back::<ShardedPageFile>(&Fixture::new());
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
                PageFile::open(&fx.plain).unwrap(),
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
        // A shared queue must carry one lane per physical file.
        let sharded = || vec![ShardedPageFile::open(&fx.sharded).unwrap()];
        let queue = open_lanes(&[PageFile::open(&fx.plain).unwrap()], None).unwrap();
        assert!(matches!(
            ShardedCompletionFileAccess::with_shared_queue(
                sharded(),
                4,
                &[1],
                EvictionPolicy::Lru,
                queue,
                4,
            )
            .unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }
}
