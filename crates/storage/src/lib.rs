//! Paged storage substrate for the SIGMOD'93 spatial-join reproduction.
//!
//! The paper measures I/O cost in the *number of disk accesses* needed to
//! fetch R\*-tree pages into a bounded buffer (§4.1, §4.3). This crate
//! provides exactly that machinery, deterministic and in-memory:
//!
//! * [`PageStore`] — a tree's page arena: its nodes in memory, one per
//!   page id, and the one allocator of those ids (below). It charges
//!   nothing; a read that misses the buffers is charged as one disk access
//!   by the [`BufferPool`] below.
//! * [`LruBuffer`] — the system buffer of §4.1 ("LRU-buffer, follows the
//!   last recently used policy") with the *pinning* extension of §4.3 that
//!   SJ4/SJ5 rely on: a pinned page is never chosen as eviction victim.
//! * [`PathBuffer`] — the tree-private buffer of §4.1 ("a so-called path
//!   buffer accommodating all nodes of the path which was accessed last").
//! * [`BufferPool`] — the buffer hierarchy as one value: the two lookup
//!   layers (path buffer first, then LRU, then "disk"), the write-back
//!   accounting of dirty pages, and every [`IoStats`] charge ([`pool`]).
//! * [`NodeAccess`] — the pluggable page-access interface the join
//!   executors charge against. Besides `&mut A`, exactly two types
//!   implement it: [`BufferPool`] (on its own: the in-memory accounting
//!   oracle) and [`FileAccess`] (the one file stack, below), which *owns*
//!   a pool, so both decide and charge with the same code.
//! * [`CostModel`] — the paper's linear execution-time estimate: 15 ms
//!   positioning per access, 5 ms per KByte transferred, 3.9 µs per
//!   floating-point comparison (§4.1, Figure 2).
//!
//! Pages carry arbitrary payloads (`PageStore<T>`); the R\*-tree crate
//! instantiates `T = Node`. The accounting layers above count page
//! *accesses*, not bytes moved, so in memory payloads are not serialized —
//! the page-size parameter determines node capacity and transfer cost.
//!
//! The **persistence subsystem** makes the disk real:
//!
//! * [`codec`] — the endian-stable binary page format (header with magic/
//!   version/page sizes, fixed-size node slots) and its typed
//!   [`StorageError`]s;
//! * [`PageFile`] — a page file over `std::fs::File` with read/write
//!   counters;
//! * [`scan`] — the whole-file read every tree open makes: readers claim
//!   pages in ascending order and decode each on the thread that read it
//!   — one reader per core, or [`QUEUE_DEPTH`] when the reads are slow
//!   by the completion queue's rule — and the decoded pages come back in
//!   id order;
//! * [`FileAccess<R>`](FileAccess) — the file-backed [`NodeAccess`]
//!   stack: a [`BufferPool`] (hence bit-identical `IoStats` at equal
//!   capacity) over one page file per store, where every miss is served by
//!   the read strategy `R` ([`stack`]). Its three aliases:
//!   [`FileNodeAccess`] reads the files itself, blocking;
//!   [`CompletionFileAccess`] submits to a private [`CompletionQueue`]
//!   with one lane per store, served FIFO by ticket and moving no
//!   `IoStats` number; [`SharedCacheFileAccess`] is a worker's handle
//!   onto a shared cache (below). Parallel workers each own a stack;
//! * [`SharedPageCache`] — the shared frame cache over the completion
//!   queue: one LRU frame table whose frames walk an Empty → Reading →
//!   Resident → Dirty state machine, one set of dirty page keys,
//!   single-flight physical reads across concurrent demanders, and warm
//!   frames that outlive a single join. A frame is a ledger entry:
//!   residency, single-flight and the dirty mark; the read pin is its
//!   only pin. Every worker's handle owns a private [`BufferPool`], where
//!   its §4.3 pins live, so its [`IoStats`] are those of a
//!   private-buffer worker;
//! * [`TempDir`] — a dependency-free scratch-directory helper for tests
//!   and benches (the environment has no `tempfile` crate).
//!
//! The **write path** makes the persistent structures updatable in place,
//! and there is one of it:
//!
//! * [`NodeAccessMut`] — the write half of the access boundary: dirty-page
//!   registration, charged in [`IoStats::page_writes`] at pin-aware
//!   eviction and explicit flush by [`BufferPool`]. Besides `&mut A`, two
//!   types implement it: the pool alone (the accounting oracle) and a
//!   shared-cache update handle ([`SharedPageCache::update_handle`], the
//!   file stack whose cached read strategy holds a store's read-write
//!   file), whose pool counts while dirty marks ride the frames and each
//!   page is encoded ([`EncodePage`]) and reaches its file once, at
//!   [`SharedPageCache::flush_dirty`] — a capability of the type, so a
//!   join handle or a private stack cannot reach an updater. That flush
//!   is the only place an open file's slots change: a page allocated
//!   since the last one is its next append;
//! * a persistent **free-page list** in [`PageFile`] — header-chained
//!   marker slots, validated on open. The file only records it; the
//!   tree's [`PageStore`] is the one allocator;
//! * [`PageSource`] — what a page file can do, declared once beside
//!   [`PageFile`]; the R\*-tree crate's `OpenCachedTree` sets the free
//!   list and the metadata through the update handle's file at flush;
//! * [`BulkPageWriter`] — the streaming bulk-build write path: append-
//!   order page emission with one reused codec scratch buffer; the header
//!   is written only by `finish`, so a build that crashes mid-emission
//!   reads back as a typed error;
//! * [`PageStore`] — the one allocator: a reuse-before-append free list
//!   plus opt-in [`PageEvent`] tracking, whose events the updater turns
//!   into dirty marks.

#![warn(missing_docs)]

pub mod access;
pub mod bulk;
pub mod cache;
pub mod codec;
pub mod completion;
pub mod cost;
pub mod file;
mod inflight;
pub mod lru;
pub mod page;
pub mod path;
pub mod pool;
pub mod scan;
pub mod stack;
pub mod temp;

pub use access::{EncodePage, NodeAccess, NodeAccessMut, PageRef, Ticket};
pub use bulk::BulkPageWriter;
pub use cache::{CacheConfig, SharedCacheFileAccess, SharedPageCache, StoreFile};
pub use codec::{DiskEntry, DiskNode, FileHeader, StorageError};
pub use completion::{CompletionConfig, CompletionLag, CompletionQueue, QUEUE_DEPTH};
pub use cost::CostModel;
pub use file::{PageFile, PageSource, READ_LATENCY_ENV};
pub use lru::{Access, EvictionPolicy, LruBuffer};
pub use page::{PageEvent, PageId, PageStore};
pub use path::{PathBuffer, UPDATE_MAX_HEIGHT};
pub use pool::{BufKey, BufferPool, IoStats};
pub use scan::cores;
pub use stack::{CompletionFileAccess, FileAccess, FileNodeAccess, ReadStrategy};
pub use temp::TempDir;
