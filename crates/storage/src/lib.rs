//! Paged storage substrate for the SIGMOD'93 spatial-join reproduction.
//!
//! The paper measures I/O cost in the *number of disk accesses* needed to
//! fetch R\*-tree pages into a bounded buffer (§4.1, §4.3). This crate
//! provides exactly that machinery, deterministic and in-memory:
//!
//! * [`PageStore`] — a simulated disk of fixed-size pages; every read that
//!   misses the buffers is charged as one disk access.
//! * [`LruBuffer`] — the system buffer of §4.1 ("LRU-buffer, follows the
//!   last recently used policy") with the *pinning* extension of §4.3 that
//!   SJ4/SJ5 rely on: a pinned page is never chosen as eviction victim.
//! * [`PathBuffer`] — the tree-private buffer of §4.1 ("a so-called path
//!   buffer accommodating all nodes of the path which was accessed last").
//! * [`BufferPool`] — the buffer hierarchy as one value: the two lookup
//!   layers (path buffer first, then LRU, then "disk"), the write-back
//!   protocol of dirty pages, and every [`IoStats`] charge ([`pool`]).
//! * [`NodeAccess`] — the pluggable page-access interface the join
//!   executors charge against. Exactly three types implement it:
//!   [`BufferPool`] (on its own: the in-memory accounting oracle),
//!   [`FileAccess`] (the one file stack, below) and
//!   [`SharedCacheFileAccess`] (a worker's handle onto the shared frame
//!   cache) — the latter two each *own* a pool, so all three decide and
//!   charge with the same code.
//! * [`CostModel`] — the paper's linear execution-time estimate: 15 ms
//!   positioning per access, 5 ms per KByte transferred, 3.9 µs per
//!   floating-point comparison (§4.1, Figure 2).
//! * [`HeapFile`] — a slotted-page heap file for exact object geometry,
//!   used by the refinement step of the ID-/object-spatial-joins.
//!
//! Pages carry arbitrary payloads (`PageStore<T>`); the R\*-tree crate
//! instantiates `T = Node`. Since the metric of interest is page *accesses*,
//! not bytes moved, payloads are not serialized — the page-size parameter
//! only determines node capacity and transfer cost.
//!
//! The **persistence subsystem** makes the disk real:
//!
//! * [`codec`] — the endian-stable binary page format (header with magic/
//!   version/page sizes, fixed-size node slots) and its typed
//!   [`StorageError`]s;
//! * [`PageFile`] — a page file over `std::fs::File` with read/write
//!   counters;
//! * [`scan`] — the ordered whole-file read every tree open makes: pages
//!   reach the consumer in id order on its own thread, read one at a time
//!   or — when the reads are what it waits for — up to [`QUEUE_DEPTH`]
//!   at once through a bounded read-ahead ring;
//! * [`FileAccess<S, R>`](FileAccess) — the file-backed [`NodeAccess`]
//!   stack: a [`BufferPool`] (hence bit-identical `IoStats` at equal
//!   capacity) over one page file per store, where every miss performs
//!   an actual page read. It is assembled from a page source `S` and a
//!   read strategy `R`; its two aliases are [`FileNodeAccess`] (blocking
//!   reads) and [`CompletionFileAccess`], whose misses go to a private
//!   [`CompletionQueue`] with one lane per store, served FIFO by ticket
//!   and moving no `IoStats` number ([`stack`]); parallel workers each own
//!   a stack;
//! * [`SharedPageCache`] / [`SharedCacheFileAccess`] — the latched shared
//!   frame cache over the completion queue: one LRU frame table of
//!   pin-counted frames walking an Empty → Reading → Resident → Dirty
//!   state machine, one table of dirty bytes, single-flight physical
//!   reads across concurrent demanders, and warm frames that outlive a
//!   single join — while every worker's handle owns a private
//!   [`BufferPool`], so its [`IoStats`] are those of a private-buffer
//!   worker;
//! * [`TempDir`] — a dependency-free scratch-directory helper for tests
//!   and benches (the environment has no `tempfile` crate).
//!
//! The **write path** makes the persistent structures updatable in place:
//!
//! * [`NodeAccessMut`] — the write half of the access boundary: dirty-page
//!   registration with pin-aware write-back on eviction and explicit
//!   flush, charged in [`IoStats::page_writes`] — one protocol, in
//!   [`BufferPool`]: alone it only counts, the blocking file stack hands
//!   it a writer over its [`writeback`] payload table and files, the
//!   shared-cache handle lets it count while the bytes ride the frames;
//! * a persistent **free-page list** in [`PageFile`] — header-chained
//!   marker slots, `allocate`/`release` with reuse-before-append,
//!   validated on open;
//! * [`PageSource`] / [`UpdateBackend`] — the traits the R\*-tree crate's
//!   `OpenTree` drives incremental `insert`/`delete` through: what a page
//!   file can do (declared once, beside [`PageFile`]), and a write-capable
//!   backend over such files — a capability of the type, so a shared-cache
//!   join handle or a queued stack cannot reach an updater;
//! * [`EntryFormat`] — the on-disk entry layout: 40-byte f64 entries by
//!   default, or the paper's literal 20-byte f32 entries (outward-rounded)
//!   behind a header flag;
//! * [`BulkPageWriter`] — the streaming bulk-build write path: append-
//!   order page emission with one reused codec scratch buffer; the header
//!   is written only by `finish`, so a build that crashes mid-emission
//!   reads back as a typed error;
//! * [`PageStore`] grows the same reuse-before-append free list plus
//!   opt-in [`PageEvent`] tracking, keeping the in-memory allocator in
//!   lockstep with the files.

pub mod access;
pub mod bulk;
pub mod cache;
pub mod codec;
pub mod completion;
pub mod cost;
pub mod file;
pub mod heapfile;
mod inflight;
pub mod lru;
pub mod page;
pub mod path;
pub mod pool;
pub mod scan;
pub mod stack;
pub mod temp;
pub mod writeback;

pub use access::{NodeAccess, NodeAccessMut, PageRef, Ticket};
pub use bulk::BulkPageWriter;
pub use cache::{CacheConfig, FrameState, SharedCacheFileAccess, SharedPageCache, StoreFile};
pub use codec::{DiskEntry, DiskNode, EntryFormat, FileHeader, StorageError};
pub use completion::{CompletionConfig, CompletionLag, CompletionQueue, QUEUE_DEPTH};
pub use cost::CostModel;
pub use file::{PageFile, PageSource, READ_LATENCY_ENV};
pub use heapfile::{HeapFile, RecordId};
pub use lru::{Access, EvictionPolicy, LruBuffer};
pub use page::{PageEvent, PageId, PageStore};
pub use path::{PathBuffer, UPDATE_MAX_HEIGHT};
pub use pool::{BufKey, BufferPool, IoStats};
pub use stack::{CompletionFileAccess, FileAccess, FileNodeAccess, ReadStrategy};
pub use temp::TempDir;
pub use writeback::UpdateBackend;
