//! The page-access abstraction at the storage/tree boundary.
//!
//! Join execution never touches page payloads through the buffer layer —
//! trees hand out charge-free borrows ([`crate::PageStore::peek`]) and the
//! executor *reports* every logical page access so the buffer hierarchy can
//! answer the paper's question: "would this access have gone to disk?"
//! [`NodeAccess`] is that reporting interface. Two types implement it,
//! and there is one hierarchy between them — a value, [`crate::BufferPool`]
//! ([`crate::pool`]), which the other owns:
//!
//! * [`crate::BufferPool`] — the §4.1 hierarchy (path buffer → LRU →
//!   disk, dirty pages charged at eviction or flush) as pure accounting
//!   over an in-memory tree: the oracle;
//! * [`crate::FileAccess`] — a pool over page files, where every miss is
//!   served by a real read; its read strategy {blocking, queued, cached}
//!   gives its three aliases ([`crate::stack`]). The cached one,
//!   [`crate::SharedCacheFileAccess`], is a worker's handle onto the
//!   latched [`crate::SharedPageCache`]: a private pool for the logical
//!   side, shared physical frames for the bytes. Its update handle is the
//!   one backend that writes ([`NodeAccessMut`]).
//!
//! `&mut A` also implements the trait, so an executor can borrow a caller's
//! accountant instead of owning it — benches re-run joins against one
//! long-lived backend this way.
//!
//! Reads happen on demand only. The executor tells a backend nothing about
//! the §4.3 read schedule ahead of time: measured on the repo benchmark's
//! `join_cold` data, read-ahead hints never beat demand-only reads, which
//! the cursor's run-ahead already overlaps. [`NodeAccess::wants_hints`],
//! [`NodeAccess::will_access`] and [`NodeAccess::hint`] remain as inert
//! defaults that nothing in the workspace calls.
//!
//! ## Completion-driven reads
//!
//! A *completion-driven* backend (the queued and cached strategies of
//! [`crate::FileAccess`] — both on a [`crate::CompletionQueue`]) services
//! a demand miss by **submitting** the
//! physical read to a submission/completion queue and returning
//! immediately: the miss is charged exactly where a blocking backend
//! charges it (so `IoStats` is bit-identical by construction), but the
//! bytes arrive later, identified by a [`Ticket`]. The executor gates work
//! that *consumes* a page on that page's ticket — parking the frame that
//! produced it and advancing other runnable work — via
//! [`NodeAccess::last_miss_ticket`] / [`NodeAccess::is_complete`] /
//! [`NodeAccess::await_ticket`]. Synchronous backends keep the defaults:
//! no tickets, everything always complete.

use crate::codec::StorageError;
use crate::page::PageId;
use crate::pool::IoStats;

/// Identifies one submitted asynchronous page read. Tickets are issued in
/// submission order, starting at 1; [`Ticket::NONE`] (0) is the "no read
/// pending" sentinel and is always complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticket(pub u64);

impl Ticket {
    /// The "no read pending" sentinel; always complete.
    pub const NONE: Ticket = Ticket(0);

    /// Whether this is the [`Ticket::NONE`] sentinel.
    #[inline]
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One upcoming page access, the argument of the inert
/// [`NodeAccess::hint`]. Kept only because `benchmark/` imports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRef {
    /// Which participating tree/store the page belongs to.
    pub store: u8,
    /// The page within that store.
    pub page: PageId,
    /// Distance from the root at which the access will be charged.
    pub depth: usize,
}

/// Records logical page accesses and pinning against a buffer hierarchy.
///
/// `store` tags which participating tree/store a page belongs to (pages of
/// different trees sharing one buffer must not collide); `depth` is the
/// page's distance from its tree's root, used for path-buffer bookkeeping.
pub trait NodeAccess {
    /// Records an access to `page` of `store` at `depth` (0 = root).
    /// Returns `true` if the access had to go to disk.
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool;

    /// Pins `store`'s `page`, preventing its eviction. Pins nest.
    fn pin(&mut self, store: u8, page: PageId);

    /// Releases one pin of `store`'s `page`.
    fn unpin(&mut self, store: u8, page: PageId);

    /// I/O statistics accumulated by this accountant so far.
    fn io_stats(&self) -> IoStats;

    /// Inert and never called; kept only because `benchmark/` overrides it.
    fn wants_hints(&self) -> bool {
        false
    }

    /// Inert and never called; kept only because `benchmark/` overrides it.
    fn will_access(&mut self, _store: u8, _page: PageId, _depth: usize) {}

    /// Inert and never called; kept only because `benchmark/` overrides it.
    fn hint(&mut self, _upcoming: &[PageRef]) {}

    /// Inert and never called; kept only because `benchmark/` overrides it.
    /// The tickets alone tell a synchronous backend (always
    /// [`Ticket::NONE`]) from a completion-driven one.
    fn completion_driven(&self) -> bool {
        false
    }

    /// The ticket of the physical read submitted by the most recent
    /// demand miss, or [`Ticket::NONE`] if no miss is outstanding.
    /// Synchronous backends always report [`Ticket::NONE`].
    fn last_miss_ticket(&self) -> Ticket {
        Ticket::NONE
    }

    /// Non-blocking completion check for `ticket`. Synchronous backends
    /// are always complete. Completion-driven backends count these calls
    /// (the parked-cursor poll budget is testable).
    fn is_complete(&self, _ticket: Ticket) -> bool {
        true
    }

    /// Blocks until `ticket`'s read has completed. No accounting moves —
    /// the miss was charged at submission.
    fn await_ticket(&self, _ticket: Ticket) {}

    /// Whether every submission up to **and including** `ticket` has
    /// completed. Stronger than [`NodeAccess::is_complete`]: completions
    /// arrive out of submission order, so a completed ticket may still
    /// have incomplete predecessors. Executors gate result emission on
    /// this predicate — a result derived from charged-but-still-flying
    /// pages is never surfaced. Synchronous backends are always settled.
    fn is_settled(&self, _ticket: Ticket) -> bool {
        true
    }

    /// Blocks until [`NodeAccess::is_settled`] holds for `ticket`.
    fn await_settled(&self, _ticket: Ticket) {}

    /// Number of submitted reads that have not yet completed. Executors
    /// use this to bound how far they run ahead of the completion stream.
    fn in_flight(&self) -> usize {
        0
    }

    /// Blocks until every outstanding submission has completed — the
    /// honesty point at which physical read counters are comparable to
    /// `disk_accesses`. Default: no-op.
    fn drain_completions(&self) {}
}

/// Where [`NodeAccessMut::flush_writes`] gets a dirty page's bytes:
/// `encode(page, buf)` fills `buf` with the page's current encoding.
pub type EncodePage<'a> = dyn FnMut(PageId, &mut Vec<u8>) -> Result<(), StorageError> + 'a;

/// The write half of the page-access boundary: dirty-page registration
/// with deferred write-back.
///
/// A mutation path calls [`NodeAccess::access`] for every page it charges
/// (like any other access) and then [`NodeAccessMut::write`] for every
/// page it changed. The backend keeps the page buffered **dirty** — a
/// mark, not a copy: the mutator's own in-memory image is the page's
/// newest content. Its write-back is charged one [`IoStats::page_writes`]
/// when the dirty page is *evicted* (pin-aware: a pinned dirty page is
/// never a victim) or at [`NodeAccessMut::flush_writes`] — classic
/// write-back, so a page mutated many times between evictions costs one
/// write.
///
/// The charges have one implementation, [`crate::BufferPool`], the
/// write-path oracle exactly as it is the read-path one. The one backend
/// that writes files, a shared-cache update handle
/// ([`crate::SharedPageCache::update_handle`]), owns a pool for the
/// charges and writes each dirty page to its file once, at
/// [`NodeAccessMut::flush_writes`], asking the mutator for the page's
/// bytes then — so a page is encoded once per flush, however often it
/// changed.
pub trait NodeAccessMut: NodeAccess {
    /// Registers `page` of `store` as mutated. The page becomes
    /// buffer-resident (without hit/miss accounting — the caller
    /// materialized it) and dirty; its bytes are asked for at
    /// [`NodeAccessMut::flush_writes`].
    fn write(&mut self, store: u8, page: PageId);

    /// Drops any dirty state of `page` without writing it back — the page
    /// was released and its content is dead (the free-list marker is
    /// written by the file layer, not by buffer write-back).
    fn discard(&mut self, store: u8, page: PageId);

    /// Writes back every dirty page (charging `page_writes` per page) and
    /// clears the dirty set. `encode(page, buf)` fills `buf` with the
    /// current bytes of one dirty page; it is called once per page the
    /// backend writes, and an error from it stops the flush with that
    /// page and the rest still dirty. Does *not* persist file headers —
    /// that is the owner's close/flush protocol, which knows the metadata.
    fn flush_writes(&mut self, encode: &mut EncodePage<'_>) -> Result<(), StorageError>;
}

impl<A: NodeAccess + ?Sized> NodeAccess for &mut A {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        (**self).access(store, page, depth)
    }

    fn pin(&mut self, store: u8, page: PageId) {
        (**self).pin(store, page)
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        (**self).unpin(store, page)
    }

    fn io_stats(&self) -> IoStats {
        (**self).io_stats()
    }

    fn last_miss_ticket(&self) -> Ticket {
        (**self).last_miss_ticket()
    }

    fn is_complete(&self, ticket: Ticket) -> bool {
        (**self).is_complete(ticket)
    }

    fn await_ticket(&self, ticket: Ticket) {
        (**self).await_ticket(ticket)
    }

    fn is_settled(&self, ticket: Ticket) -> bool {
        (**self).is_settled(ticket)
    }

    fn await_settled(&self, ticket: Ticket) {
        (**self).await_settled(ticket)
    }

    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }

    fn drain_completions(&self) {
        (**self).drain_completions()
    }
}

impl<A: NodeAccessMut + ?Sized> NodeAccessMut for &mut A {
    fn write(&mut self, store: u8, page: PageId) {
        (**self).write(store, page)
    }

    fn discard(&mut self, store: u8, page: PageId) {
        (**self).discard(store, page)
    }

    fn flush_writes(&mut self, encode: &mut EncodePage<'_>) -> Result<(), StorageError> {
        (**self).flush_writes(encode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;

    fn drive(acc: &mut impl NodeAccess) -> IoStats {
        acc.access(0, PageId(1), 0);
        acc.access(0, PageId(1), 0);
        acc.pin(0, PageId(1));
        acc.unpin(0, PageId(1));
        acc.io_stats()
    }

    #[test]
    fn buffer_pool_implements_the_trait() {
        let mut pool = BufferPool::with_capacity_pages(4, &[2]);
        let stats = drive(&mut pool);
        assert_eq!(stats.disk_accesses, 1);
        assert_eq!(stats.total_accesses(), 2);
    }

    #[test]
    fn mut_reference_forwards() {
        let mut pool = BufferPool::with_capacity_pages(4, &[2]);
        let stats = drive(&mut &mut pool);
        assert_eq!(stats, pool.stats());
        assert_eq!(stats.disk_accesses, 1);
    }
}
