//! Simulated disk pages.
//!
//! One R-tree node corresponds to exactly one page on secondary storage
//! (§3.1: "Since one node of the data structure exactly corresponds to one
//! page on secondary storage, we will use both terms synonymously").
//! The store keeps payloads in memory; "disk" reads and writes are counted,
//! not performed, because the paper's I/O metric is the access count.

/// Identifier of a page within one [`PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// The page number as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One page-level effect of a mutation, recorded (in order) when event
/// tracking is enabled — the feed an incrementally-updated page file
/// replays against its buffer manager and free list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageEvent {
    /// The page's payload was (potentially) mutated in place.
    Touched(PageId),
    /// The page was newly allocated — fresh at the end of the store, or
    /// reused off the free list.
    Alloc(PageId),
    /// The page was released onto the free list.
    Freed(PageId),
}

/// A simulated disk holding fixed-size pages with arbitrary payloads.
///
/// `page_bytes` is carried for cost accounting (transfer time is
/// proportional to the page size) and for deriving node capacities; it does
/// not constrain the in-memory payload.
///
/// Pages released with [`PageStore::free`] go onto a LIFO free list that
/// [`PageStore::alloc`] reuses *before* growing the store — the same
/// reuse-before-append discipline the persistent
/// [`crate::PageSource::allocate`] follows, so an in-memory tree and its
/// on-disk twin applying the same update sequence assign identical page
/// ids.
#[derive(Debug, Clone)]
pub struct PageStore<T> {
    pages: Vec<T>,
    page_bytes: usize,
    /// Released pages, reused LIFO by [`PageStore::alloc`].
    free: Vec<PageId>,
    /// Mutation events since the last [`PageStore::take_events`], if
    /// tracking is enabled (it is off by default: the hot insert path of a
    /// purely in-memory tree pays one branch, nothing more).
    events: Option<Vec<PageEvent>>,
    /// Raw count of reads served by this store (i.e. buffer misses that
    /// reached "disk"). [`crate::BufferPool`] keeps the authoritative join
    /// statistics; this counter is useful for store-local tests.
    reads: u64,
    writes: u64,
}

impl<T> PageStore<T> {
    /// Creates an empty store of pages of `page_bytes` bytes each.
    pub fn new(page_bytes: usize) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        PageStore {
            pages: Vec::new(),
            page_bytes,
            free: Vec::new(),
            events: None,
            reads: 0,
            writes: 0,
        }
    }

    /// The configured page size in bytes.
    #[inline]
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of allocated pages.
    #[inline]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no page has been allocated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Allocates a page holding `payload` and returns its id — a slot off
    /// the free list if one is available (LIFO), a fresh one at the end of
    /// the store otherwise.
    pub fn alloc(&mut self, payload: T) -> PageId {
        let id = if let Some(id) = self.free.pop() {
            self.pages[id.index()] = payload;
            id
        } else {
            let id = PageId(u32::try_from(self.pages.len()).expect("page store overflow"));
            self.pages.push(payload);
            id
        };
        if let Some(ev) = &mut self.events {
            ev.push(PageEvent::Alloc(id));
        }
        id
    }

    /// Releases a page onto the free list; a later [`PageStore::alloc`]
    /// will reuse it. The payload stays in place until then (callers that
    /// persist all slots overwrite free ones with chain markers).
    pub fn free(&mut self, id: PageId) {
        debug_assert!(id.index() < self.pages.len(), "free of unallocated {id}");
        debug_assert!(!self.free.contains(&id), "double free of {id}");
        self.free.push(id);
        if let Some(ev) = &mut self.events {
            ev.push(PageEvent::Freed(id));
        }
    }

    /// The free list, oldest release first (the *last* element is the next
    /// page [`PageStore::alloc`] reuses).
    #[inline]
    pub fn free_pages(&self) -> &[PageId] {
        &self.free
    }

    /// Replaces the free list wholesale — for loaders reconstructing a
    /// persisted store. Emits no events.
    pub fn restore_free_list(&mut self, free: Vec<PageId>) {
        debug_assert!(free.iter().all(|id| id.index() < self.pages.len()));
        debug_assert!(
            free.iter().collect::<std::collections::HashSet<_>>().len() == free.len(),
            "free list contains a page twice"
        );
        self.free = free;
    }

    /// Starts recording [`PageEvent`]s (idempotent).
    pub fn enable_event_tracking(&mut self) {
        if self.events.is_none() {
            self.events = Some(Vec::new());
        }
    }

    /// True if event tracking is on.
    #[inline]
    pub fn is_tracking_events(&self) -> bool {
        self.events.is_some()
    }

    /// Drains the recorded events (in mutation order) into `out`.
    /// A no-op when tracking is off.
    pub fn take_events(&mut self, out: &mut Vec<PageEvent>) {
        if let Some(ev) = &mut self.events {
            out.append(ev);
        }
    }

    /// Reads a page *from disk*, charging one read. Callers normally go
    /// through [`crate::BufferPool`], which only reaches this on a miss.
    pub fn read(&mut self, id: PageId) -> &T {
        self.reads += 1;
        &self.pages[id.index()]
    }

    /// Borrows a page without charging I/O — for tree maintenance code
    /// (inserts, validation) whose cost the paper does not attribute to the
    /// join, and for buffered access after the miss accounting has been done.
    #[inline]
    pub fn peek(&self, id: PageId) -> &T {
        &self.pages[id.index()]
    }

    /// Mutably borrows a page without charging I/O. With event tracking on
    /// this records a [`PageEvent::Touched`] — the borrow is assumed to
    /// mutate.
    #[inline]
    pub fn peek_mut(&mut self, id: PageId) -> &mut T {
        if let Some(ev) = &mut self.events {
            // Mutation bursts touch the same page repeatedly (every MBR
            // adjustment of one ancestor); collapsing immediate repeats
            // keeps the event log proportional to the paths walked.
            if ev.last() != Some(&PageEvent::Touched(id)) {
                ev.push(PageEvent::Touched(id));
            }
        }
        &mut self.pages[id.index()]
    }

    /// Overwrites a page, charging one write.
    pub fn write(&mut self, id: PageId, payload: T) {
        self.writes += 1;
        self.pages[id.index()] = payload;
        if let Some(ev) = &mut self.events {
            ev.push(PageEvent::Touched(id));
        }
    }

    /// Reads charged so far.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes charged so far.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Resets the read/write counters (e.g. after building a tree, before
    /// measuring a join).
    pub fn reset_io(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_sequential_ids() {
        let mut s = PageStore::new(1024);
        assert!(s.is_empty());
        let a = s.alloc("a");
        let b = s.alloc("b");
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn read_charges_peek_does_not() {
        let mut s = PageStore::new(1024);
        let a = s.alloc(7u32);
        assert_eq!(*s.read(a), 7);
        assert_eq!(*s.read(a), 7);
        assert_eq!(s.reads(), 2);
        assert_eq!(*s.peek(a), 7);
        assert_eq!(s.reads(), 2);
    }

    #[test]
    fn write_charges_and_replaces() {
        let mut s = PageStore::new(4096);
        let a = s.alloc(1u32);
        s.write(a, 2);
        assert_eq!(*s.peek(a), 2);
        assert_eq!(s.writes(), 1);
        *s.peek_mut(a) = 3;
        assert_eq!(*s.peek(a), 3);
        assert_eq!(s.writes(), 1);
    }

    #[test]
    fn reset_io_clears_counters() {
        let mut s = PageStore::new(1024);
        let a = s.alloc(());
        s.read(a);
        s.write(a, ());
        s.reset_io();
        assert_eq!((s.reads(), s.writes()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "page size must be positive")]
    fn zero_page_size_rejected() {
        let _ = PageStore::<u8>::new(0);
    }

    #[test]
    fn alloc_reuses_freed_pages_lifo() {
        let mut s = PageStore::new(1024);
        let a = s.alloc(1u32);
        let b = s.alloc(2);
        let c = s.alloc(3);
        s.free(a);
        s.free(c);
        assert_eq!(s.free_pages(), &[a, c]);
        assert_eq!(s.alloc(30), c, "last freed is first reused");
        assert_eq!(s.alloc(10), a);
        assert_eq!(s.alloc(4), PageId(3), "exhausted free list appends");
        assert_eq!(s.len(), 4);
        assert_eq!((*s.peek(a), *s.peek(b), *s.peek(c)), (10, 2, 30));
    }

    #[test]
    fn event_tracking_records_mutations_in_order() {
        let mut s = PageStore::new(1024);
        let a = s.alloc(0u32); // before tracking: unrecorded
        s.enable_event_tracking();
        assert!(s.is_tracking_events());
        let b = s.alloc(1);
        *s.peek_mut(a) = 7;
        *s.peek_mut(a) = 8; // immediate repeat collapses
        *s.peek_mut(b) = 9;
        s.free(a);
        let c = s.alloc(2); // reuses a
        assert_eq!(c, a);
        let mut ev = Vec::new();
        s.take_events(&mut ev);
        assert_eq!(
            ev,
            vec![
                PageEvent::Alloc(b),
                PageEvent::Touched(a),
                PageEvent::Touched(b),
                PageEvent::Freed(a),
                PageEvent::Alloc(a),
            ]
        );
        s.take_events(&mut ev);
        assert_eq!(ev.len(), 5, "drained log stays drained");
    }

    #[test]
    fn restore_free_list_feeds_alloc() {
        let mut s = PageStore::new(1024);
        for i in 0..4u32 {
            s.alloc(i);
        }
        s.restore_free_list(vec![PageId(1), PageId(3)]);
        assert_eq!(s.alloc(9), PageId(3));
        assert_eq!(s.alloc(9), PageId(1));
        assert_eq!(s.alloc(9), PageId(4));
    }
}
