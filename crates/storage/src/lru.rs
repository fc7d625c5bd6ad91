//! The system LRU buffer with pinning.
//!
//! §4.1: "an additional buffer is used for single pages, not complete paths
//! […] The buffer, called LRU-buffer, follows the last recently used
//! policy." §4.3 adds *pinning* for SJ4/SJ5: "we pin the page in the buffer
//! whose corresponding rectangle has a maximal degree" — a pinned page must
//! not be evicted until it is unpinned.
//!
//! The implementation is a classic O(1) LRU: a hash map from buffer keys to
//! slab slots plus an intrusive doubly-linked recency list. Eviction scans
//! from the LRU end, skipping pinned pages. Pinned pages may keep the buffer
//! above its nominal capacity (in particular with a zero-size buffer, where
//! the pinned page is the only resident page); unpinned overflow is trimmed
//! immediately.
//!
//! LRU is the only replacement policy, as in the paper: this one type is
//! the logical buffer of every [`crate::BufferPool`] and the frame table
//! of the [`crate::SharedPageCache`].

use crate::page::PageId;

/// Identifies a page across several [`crate::PageStore`]s sharing one
/// buffer — the spatial join runs over *two* R\*-trees that compete for the
/// same system buffer (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufKey {
    /// Which store (tree) the page belongs to.
    pub store: u8,
    /// The page within that store.
    pub page: PageId,
}

impl BufKey {
    /// Creates a key.
    #[inline]
    pub const fn new(store: u8, page: PageId) -> Self {
        BufKey { store, page }
    }
}

/// Outcome of a buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The page was resident; no disk access required.
    Hit,
    /// The page was not resident; the caller fetched it from disk and it is
    /// now the most recently used resident page (unless capacity is zero and
    /// it is not pinned).
    Miss,
}

const NIL: usize = usize::MAX;

/// The one eviction policy, LRU (§4.1). Kept only because the repo
/// benchmark passes `EvictionPolicy::Lru` to the file stacks' constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least recently used page.
    #[default]
    Lru,
}

#[derive(Debug, Clone)]
struct Slot {
    key: BufKey,
    prev: usize,
    next: usize,
    pins: u32,
    /// The resident page differs from its on-disk copy; its eviction is
    /// a write-back (counted for [`LruBuffer::take_dirty_evictions`]).
    dirty: bool,
}

/// A bounded page buffer with LRU replacement and pinning.
#[derive(Debug, Clone)]
pub struct LruBuffer {
    cap: usize,
    map: std::collections::HashMap<BufKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Dirty pages evicted since the owner last took the count — the
    /// write-backs the buffer manager has yet to charge.
    dirty_evictions: u64,
}

impl LruBuffer {
    /// Creates a buffer holding at most `cap_pages` unpinned pages.
    ///
    /// A capacity of zero models the paper's "buffer size = 0" experiments:
    /// every unpinned access is a miss, but pinning still retains pages.
    pub fn new(cap_pages: usize) -> Self {
        LruBuffer {
            cap: cap_pages,
            map: std::collections::HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
            dirty_evictions: 0,
        }
    }

    /// Capacity in pages.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of resident pages (may exceed capacity only due to pins).
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if `key` is resident.
    #[inline]
    pub fn contains(&self, key: BufKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Accesses `key`: on a hit the page becomes most recently used; on a
    /// miss it is brought in (evicting the LRU unpinned page if necessary).
    pub fn access(&mut self, key: BufKey) -> Access {
        if let Some(&slot) = self.map.get(&key) {
            self.hits += 1;
            self.touch(slot);
            return Access::Hit;
        }
        self.misses += 1;
        self.insert(key, 0);
        Access::Miss
    }

    /// Pins `key`, preventing its eviction. If the page is not resident it
    /// is inserted (the caller has it in memory already — pinning happens
    /// right after the page was processed). Pins nest.
    pub fn pin(&mut self, key: BufKey) {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].pins += 1;
        } else {
            self.insert(key, 1);
        }
    }

    /// Releases one pin of `key`. Unpinned pages in excess of the capacity
    /// are evicted immediately (LRU first). No-op if not resident.
    pub fn unpin(&mut self, key: BufKey) {
        if let Some(&slot) = self.map.get(&key) {
            let pins = &mut self.slots[slot].pins;
            *pins = pins.saturating_sub(1);
            self.trim();
        }
    }

    /// True if `key` is resident and pinned.
    pub fn is_pinned(&self, key: BufKey) -> bool {
        self.map.get(&key).is_some_and(|&s| self.slots[s].pins > 0)
    }

    /// Nested pin count of `key` (0 if unpinned or not resident).
    pub fn pin_count(&self, key: BufKey) -> u32 {
        self.map.get(&key).map_or(0, |&s| self.slots[s].pins)
    }

    /// Makes `key` resident (most recently used) *without* touching the
    /// hit/miss counters — the install of a page the caller materialized
    /// itself (a freshly written page) rather than fetched on a miss.
    /// Evictions this forces are still counted, dirty victims included.
    pub fn install(&mut self, key: BufKey) {
        if let Some(&slot) = self.map.get(&key) {
            self.touch(slot);
        } else {
            self.insert(key, 0);
        }
    }

    /// Marks a resident `key` dirty: its eviction will be counted by
    /// [`LruBuffer::take_dirty_evictions`] so the owner can charge the
    /// write-back. Returns `false` (and records nothing) if `key` is not
    /// resident.
    ///
    /// Dirty-marking is a *touch*: the writer just materialized the page's
    /// newest bytes, so the frame is promoted to MRU exactly like a hit.
    /// Without the bump a freshly-dirtied hot page could be the very next
    /// eviction victim under pressure, forcing a pointless immediate
    /// write-back of the hottest page in the working set.
    pub fn mark_dirty(&mut self, key: BufKey) -> bool {
        match self.map.get(&key) {
            Some(&slot) => {
                self.slots[slot].dirty = true;
                self.touch(slot);
                true
            }
            None => false,
        }
    }

    /// Clears the dirty bit of `key` (after a write-back). No-op if not
    /// resident.
    pub fn clear_dirty(&mut self, key: BufKey) {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].dirty = false;
        }
    }

    /// True if `key` is resident and dirty.
    pub fn is_dirty(&self, key: BufKey) -> bool {
        self.map.get(&key).is_some_and(|&s| self.slots[s].dirty)
    }

    /// Resident dirty keys, most recently used first — the set a flush
    /// must write back. Deterministic (recency order), so flush I/O
    /// replays identically across runs.
    pub fn dirty_keys(&self) -> Vec<BufKey> {
        let mut out = Vec::new();
        let mut cur = self.head;
        while cur != NIL {
            if self.slots[cur].dirty {
                out.push(self.slots[cur].key);
            }
            cur = self.slots[cur].next;
        }
        out
    }

    /// Number of resident dirty pages.
    pub fn dirty_len(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head;
        while cur != NIL {
            n += usize::from(self.slots[cur].dirty);
            cur = self.slots[cur].next;
        }
        n
    }

    /// Number of dirty pages evicted since the last call, which resets
    /// it: the write-backs the owner has yet to charge.
    #[inline]
    pub fn take_dirty_evictions(&mut self) -> u64 {
        std::mem::take(&mut self.dirty_evictions)
    }

    /// Zeroes the hit/miss/eviction counters, keeping residents — the
    /// counter half of a full reset (see [`LruBuffer::clear`] for the
    /// residency half). Benches measuring consecutive runs call both.
    pub fn reset_io(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    /// Drops everything, keeping the capacity. Counters are preserved.
    /// Dirty residents (and dirty evictions not yet taken) are discarded
    /// *without* write-back — owners flush first.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.dirty_evictions = 0;
    }

    /// Hits recorded so far.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions recorded so far.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Resident keys from most to least recently used — for tests and
    /// debugging.
    pub fn recency_order(&self) -> Vec<BufKey> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slots[cur].key);
            cur = self.slots[cur].next;
        }
        out
    }

    fn insert(&mut self, key: BufKey, pins: u32) {
        let fresh = Slot {
            key,
            prev: NIL,
            next: NIL,
            pins,
            dirty: false,
        };
        let slot = if let Some(s) = self.free.pop() {
            self.slots[s] = fresh;
            s
        } else {
            self.slots.push(fresh);
            self.slots.len() - 1
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        self.trim();
    }

    /// Evicts LRU unpinned pages until the number of *unpinned* residents
    /// fits the capacity budget left over by pinned residents.
    fn trim(&mut self) {
        while self.map.len() > self.cap {
            let Some(victim) = self.oldest_unpinned() else {
                // Everything resident is pinned; allow the overflow.
                break;
            };
            let key = self.slots[victim].key;
            self.dirty_evictions += u64::from(self.slots[victim].dirty);
            self.detach(victim);
            self.map.remove(&key);
            self.free.push(victim);
            self.evictions += 1;
        }
    }

    /// The eviction victim: the least recently used unpinned slot, `None`
    /// if everything is pinned.
    fn oldest_unpinned(&self) -> Option<usize> {
        let mut cur = self.tail;
        while cur != NIL {
            if self.slots[cur].pins == 0 {
                return Some(cur);
            }
            cur = self.slots[cur].prev;
        }
        None
    }

    /// Promotes `slot` to most recently used.
    fn touch(&mut self, slot: usize) {
        self.detach(slot);
        self.push_front(slot);
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u32) -> BufKey {
        BufKey::new(0, PageId(n))
    }

    #[test]
    fn zero_capacity_never_retains_unpinned() {
        let mut b = LruBuffer::new(0);
        assert_eq!(b.access(k(1)), Access::Miss);
        assert_eq!(b.access(k(1)), Access::Miss);
        assert_eq!(b.len(), 0);
        assert_eq!(b.misses(), 2);
    }

    #[test]
    fn hit_after_miss() {
        let mut b = LruBuffer::new(2);
        assert_eq!(b.access(k(1)), Access::Miss);
        assert_eq!(b.access(k(1)), Access::Hit);
        assert_eq!((b.hits(), b.misses()), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut b = LruBuffer::new(2);
        b.access(k(1));
        b.access(k(2));
        b.access(k(1)); // 1 is now MRU
        b.access(k(3)); // evicts 2
        assert!(b.contains(k(1)));
        assert!(!b.contains(k(2)));
        assert!(b.contains(k(3)));
        assert_eq!(b.evictions(), 1);
        assert_eq!(b.recency_order(), vec![k(3), k(1)]);
    }

    #[test]
    fn pinned_page_survives_eviction_pressure() {
        let mut b = LruBuffer::new(2);
        b.access(k(1));
        b.pin(k(1));
        b.access(k(2));
        b.access(k(3)); // must evict 2, not pinned 1
        assert!(b.contains(k(1)));
        assert!(!b.contains(k(2)));
        assert!(b.contains(k(3)));
    }

    #[test]
    fn pin_on_zero_capacity_buffer_retains() {
        let mut b = LruBuffer::new(0);
        b.access(k(1));
        b.pin(k(1));
        assert!(b.contains(k(1)));
        assert_eq!(b.access(k(1)), Access::Hit);
        b.unpin(k(1));
        assert!(!b.contains(k(1)), "unpinned overflow must be trimmed");
    }

    #[test]
    fn pins_nest() {
        let mut b = LruBuffer::new(1);
        b.access(k(1));
        b.pin(k(1));
        b.pin(k(1));
        b.unpin(k(1));
        b.access(k(2)); // 1 still pinned; 2 overflows and gets trimmed first
        assert!(b.contains(k(1)));
        b.unpin(k(1));
        b.access(k(3));
        assert!(!b.contains(k(1)));
    }

    #[test]
    fn all_pinned_allows_overflow() {
        let mut b = LruBuffer::new(1);
        b.access(k(1));
        b.pin(k(1));
        b.access(k(2));
        b.pin(k(2));
        assert_eq!(b.len(), 2); // over capacity, both pinned
        b.unpin(k(2));
        assert_eq!(b.len(), 1);
        assert!(b.contains(k(1)));
    }

    #[test]
    fn clear_drops_residents_keeps_counters() {
        let mut b = LruBuffer::new(4);
        b.access(k(1));
        b.access(k(2));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.misses(), 2);
        assert_eq!(b.access(k(1)), Access::Miss);
    }

    #[test]
    fn stores_are_distinguished() {
        let mut b = LruBuffer::new(4);
        b.access(BufKey::new(0, PageId(7)));
        assert_eq!(b.access(BufKey::new(1, PageId(7))), Access::Miss);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn recency_order_tracks_touches() {
        let mut b = LruBuffer::new(3);
        b.access(k(1));
        b.access(k(2));
        b.access(k(3));
        b.access(k(2));
        assert_eq!(b.recency_order(), vec![k(2), k(3), k(1)]);
    }

    #[test]
    fn unpin_of_absent_key_is_noop() {
        let mut b = LruBuffer::new(1);
        b.unpin(k(9));
        assert!(b.is_empty());
    }

    #[test]
    fn reset_io_zeroes_counters_keeps_residents() {
        let mut b = LruBuffer::new(2);
        b.access(k(1));
        b.access(k(2));
        b.access(k(1));
        b.access(k(3)); // evicts 2
        b.reset_io();
        assert_eq!((b.hits(), b.misses(), b.evictions()), (0, 0, 0));
        assert!(b.contains(k(1)), "reset_io must not drop residents");
        assert_eq!(b.access(k(1)), Access::Hit);
        assert_eq!(b.hits(), 1);
    }

    // --- Pin-accounting regressions: pinned pages must survive any
    // amount of eviction pressure, and stray unpins must never corrupt the
    // hit/miss/eviction counters or the pin state of other pages.

    #[test]
    fn pinned_pages_survive_sustained_eviction_pressure() {
        let mut b = LruBuffer::new(2);
        b.access(k(1));
        b.pin(k(1));
        b.access(k(2));
        b.pin(k(2));
        // Both capacity slots are pinned: a long stream of distinct pages
        // must each come in and leave again, never touching the pinned two.
        for n in 10..60 {
            b.access(k(n));
            assert!(b.contains(k(1)), "page 1 evicted at n = {n}");
            assert!(b.contains(k(2)), "page 2 evicted at n = {n}");
            assert!(b.len() <= 3, "unpinned overflow must be trimmed");
        }
        assert_eq!(b.misses(), 52, "2 pinned + 50 streamed, all cold");
        assert_eq!(b.evictions(), 50, "every streamed page was its own victim");
        assert!(b.is_pinned(k(1)) && b.is_pinned(k(2)));
        b.unpin(k(1));
        b.unpin(k(2));
    }

    #[test]
    fn unpin_of_non_resident_key_does_not_corrupt_counters() {
        let mut b = LruBuffer::new(2);
        b.access(k(1));
        b.access(k(2));
        b.access(k(1));
        let before = (b.hits(), b.misses(), b.evictions(), b.len());
        for n in [7u32, 8, 9] {
            b.unpin(k(n)); // never resident
        }
        b.unpin(k(1)); // resident but never pinned: saturates at zero
        b.unpin(k(1));
        assert_eq!((b.hits(), b.misses(), b.evictions(), b.len()), before);
        assert!(!b.is_pinned(k(1)));
        // The buffer still behaves: LRU order and eviction are intact.
        b.access(k(3)); // evicts 2, the LRU page
        assert!(b.contains(k(1)) && b.contains(k(3)) && !b.contains(k(2)));
        assert_eq!(b.evictions(), before.2 + 1);
    }

    // --- Dirty-page tracking: the write-back contract of the
    // buffer manager — dirty evictions are counted exactly once, pinned
    // dirty pages survive pressure, and install never moves a counter.

    #[test]
    fn dirty_eviction_is_surfaced_exactly_once() {
        let mut b = LruBuffer::new(1);
        b.access(k(1));
        assert!(b.mark_dirty(k(1)));
        assert!(b.is_dirty(k(1)));
        b.access(k(2)); // evicts dirty 1
        assert_eq!(b.take_dirty_evictions(), 1);
        assert_eq!(
            b.take_dirty_evictions(),
            0,
            "a taken eviction never reappears"
        );
        // A clean eviction counts nothing.
        b.access(k(3)); // evicts clean 2
        assert_eq!(b.take_dirty_evictions(), 0);
    }

    #[test]
    fn mark_dirty_requires_residency_and_clear_dirty_undoes() {
        let mut b = LruBuffer::new(2);
        assert!(!b.mark_dirty(k(9)), "absent page cannot be dirtied");
        b.access(k(1));
        b.mark_dirty(k(1));
        b.clear_dirty(k(1));
        b.access(k(2));
        b.access(k(3)); // evicts 1, now clean
        assert_eq!(b.take_dirty_evictions(), 0);
    }

    #[test]
    fn pinned_dirty_page_defers_write_back() {
        let mut b = LruBuffer::new(0);
        b.access(k(1));
        b.pin(k(1));
        b.mark_dirty(k(1));
        for n in 2..10 {
            b.access(k(n));
        }
        assert!(b.is_dirty(k(1)), "pinned dirty page must stay resident");
        assert_eq!(b.take_dirty_evictions(), 0);
        b.unpin(k(1)); // now unpinned and over capacity: evicted dirty
        assert_eq!(b.take_dirty_evictions(), 1);
        assert!(!b.contains(k(1)));
    }

    #[test]
    fn install_is_counter_neutral_and_promotes() {
        let mut b = LruBuffer::new(2);
        b.access(k(1));
        b.access(k(2));
        let counters = (b.hits(), b.misses());
        b.install(k(1)); // resident: promote to MRU, no counters
        b.install(k(3)); // absent: insert, evicts LRU 2, no hit/miss
        assert_eq!((b.hits(), b.misses()), counters);
        assert!(b.contains(k(1)) && b.contains(k(3)) && !b.contains(k(2)));
        assert_eq!(b.evictions(), 1, "forced evictions are still counted");
        assert_eq!(b.recency_order(), vec![k(3), k(1)]);
    }

    #[test]
    fn mark_dirty_is_a_touch() {
        // LRU: a freshly-dirtied page is MRU, so the next eviction takes
        // the other (clean, older) resident — not the page the updater
        // just wrote.
        let mut b = LruBuffer::new(2);
        b.access(k(1));
        b.access(k(2)); // recency: [2, 1]
        b.mark_dirty(k(1)); // the touch promotes 1 over 2
        b.access(k(3)); // evicts 2
        assert!(b.contains(k(1)), "freshly-dirtied page must not be victim");
        assert!(!b.contains(k(2)));
        assert_eq!(b.take_dirty_evictions(), 0, "the evicted page was clean");
        assert_eq!(b.recency_order(), vec![k(3), k(1)]);
    }

    #[test]
    fn dirty_keys_reports_recency_order_and_dirty_len() {
        let mut b = LruBuffer::new(4);
        for n in 1..=4 {
            b.access(k(n));
        }
        b.mark_dirty(k(2));
        b.mark_dirty(k(4));
        assert_eq!(b.dirty_len(), 2);
        assert_eq!(b.dirty_keys(), vec![k(4), k(2)], "MRU first");
        b.clear();
        assert_eq!(b.dirty_len(), 0);
        assert_eq!(b.take_dirty_evictions(), 0);
    }

    #[test]
    fn unpin_under_overflow_trims_exactly_the_overflow() {
        let mut b = LruBuffer::new(0);
        b.access(k(1));
        b.pin(k(1));
        b.access(k(2));
        b.pin(k(2));
        assert_eq!(b.len(), 2, "both pinned over a zero-capacity buffer");
        let evictions = b.evictions();
        b.unpin(k(2));
        assert_eq!(b.len(), 1, "unpinned overflow trimmed immediately");
        assert!(b.contains(k(1)), "the still-pinned page stays");
        assert_eq!(b.evictions(), evictions + 1);
        b.unpin(k(1));
        assert!(b.is_empty());
    }
}
