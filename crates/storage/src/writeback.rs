//! The byte-holding half of the file backends' write-back, and the trait
//! the update path is generic over.
//!
//! *Which* page is dirty, when it is written and what that costs is one
//! protocol, owned by the buffer hierarchy ([`crate::pool`]): write
//! through when nothing can stay resident, write at dirty eviction, write
//! at flush, charge each write once it returned `Ok`. On its own the
//! hierarchy models that as a counter; the [`crate::FileAccess`] stack
//! must hold the actual bytes of every dirty page until the write
//! happens. `DirtyPages` is that payload table and nothing more:
//! `stash` keeps a mutated page's encoded bytes, `writer` is what the
//! hierarchy calls with each key whose write is due, `discard` drops the
//! bytes of a released page.
//!
//! [`UpdateBackend`] ties a write-capable access backend to the physical
//! files ([`PageSource`]) its stores sit on; the R\*-tree crate's `OpenTree`
//! drives updates through it.

use std::collections::{HashMap, HashSet};

use crate::access::NodeAccessMut;
use crate::codec::{EntryFormat, StorageError};
use crate::file::PageSource;
use crate::lru::BufKey;
use crate::page::PageId;

/// The in-memory mirror of [`crate::PageFile`]'s persistent free-page
/// chain: the LIFO list (last element = chain head) and its set twin,
/// kept coherent in one place — O(1) double-release detection, duplicate
/// rejection, and the pop/undo protocol around a fallible slot write. The
/// physical marker writes stay with the file.
#[derive(Debug, Default)]
pub(crate) struct FreeChain {
    list: Vec<PageId>,
    set: HashSet<PageId>,
}

impl FreeChain {
    /// The chain head — the next page a reuse pops.
    pub fn head(&self) -> Option<PageId> {
        self.list.last().copied()
    }

    /// The chain, oldest release first (head last).
    pub fn as_slice(&self) -> &[PageId] {
        &self.list
    }

    /// Number of free pages.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if `id` is on the chain.
    pub fn contains(&self, id: PageId) -> bool {
        self.set.contains(&id)
    }

    /// Pops the head for reuse. The caller overwrites the slot and then
    /// either [`FreeChain::commit_pop`]s (write succeeded) or
    /// [`FreeChain::undo_pop`]s (slot is still free).
    pub fn pop(&mut self) -> Option<PageId> {
        self.list.pop()
    }

    /// Finalizes a [`FreeChain::pop`] after the slot write succeeded.
    pub fn commit_pop(&mut self, id: PageId) {
        self.set.remove(&id);
    }

    /// Reverts a [`FreeChain::pop`] after the slot write failed.
    pub fn undo_pop(&mut self, id: PageId) {
        self.list.push(id);
    }

    /// Links `id` as the new head, rejecting double releases. The caller
    /// has already written `id`'s marker (with the *previous* head as its
    /// `next`).
    pub fn push_released(&mut self, id: PageId) -> Result<(), StorageError> {
        if !self.set.insert(id) {
            return Err(StorageError::Corrupt(format!("double release of {id}")));
        }
        self.list.push(id);
        Ok(())
    }

    /// Replaces the chain wholesale (save paths that wrote the markers
    /// themselves); duplicates are a typed error and leave the chain
    /// empty.
    pub fn set_list(&mut self, ids: &[PageId]) -> Result<(), StorageError> {
        self.list = ids.to_vec();
        self.set = self.list.iter().copied().collect();
        if self.set.len() != self.list.len() {
            self.list.clear();
            self.set.clear();
            return Err(StorageError::Corrupt(
                "free list contains a page twice".into(),
            ));
        }
        Ok(())
    }

    /// Installs a chain recovered from disk (already walk-validated:
    /// a chain cannot physically contain duplicates — it would cycle).
    pub fn restore(&mut self, list: Vec<PageId>) {
        self.set = list.iter().copied().collect();
        debug_assert_eq!(self.set.len(), list.len());
        self.list = list;
    }

    /// Walks and validates a persisted chain from `head` — every link in
    /// range, landing on a genuine free marker, terminating (cycle-
    /// guarded by the page count) — and returns it oldest-release-first
    /// (head last), ready for [`FreeChain::restore`]. `read_slot` reads
    /// the raw slot of a page id.
    pub fn walk(
        head: Option<PageId>,
        page_count: u32,
        format: EntryFormat,
        mut read_slot: impl FnMut(PageId, &mut Vec<u8>) -> Result<(), StorageError>,
    ) -> Result<Vec<PageId>, StorageError> {
        let mut rev = Vec::new();
        let mut cur = head;
        let mut buf = Vec::new();
        while let Some(id) = cur {
            if rev.len() as u64 > u64::from(page_count) {
                return Err(StorageError::Corrupt("free chain contains a cycle".into()));
            }
            if id.0 >= page_count {
                return Err(StorageError::Corrupt(format!(
                    "free chain links page {id} out of range of a {page_count}-page file"
                )));
            }
            read_slot(id, &mut buf)?;
            match crate::codec::decode_page_fmt(&buf, format)? {
                crate::codec::DiskPage::Free { next } => {
                    rev.push(id);
                    cur = next;
                }
                crate::codec::DiskPage::Node(_) => {
                    return Err(StorageError::Corrupt(format!(
                        "free chain links live page {id}"
                    )));
                }
            }
        }
        rev.reverse();
        Ok(rev)
    }
}

/// The dirty-payload table of the [`crate::FileAccess`] stack (module
/// docs): bytes only — which page is dirty, and when it is written, is
/// the hierarchy's business.
#[derive(Debug, Default)]
pub(crate) struct DirtyPages {
    /// Encoded payload per page awaiting its write-back.
    payloads: HashMap<BufKey, Vec<u8>>,
    /// Recycled payload buffers — steady-state updates allocate nothing.
    spare: Vec<Vec<u8>>,
}

impl DirtyPages {
    /// Keeps `payload` as the bytes `key` will be written back with
    /// (overwrites any previous payload).
    pub fn stash(&mut self, key: BufKey, payload: &[u8]) {
        let buf = self
            .payloads
            .entry(key)
            .or_insert_with(|| self.spare.pop().unwrap_or_default());
        buf.clear();
        buf.extend_from_slice(payload);
    }

    /// Drops `key`'s payload without writing (released page).
    pub fn discard(&mut self, key: BufKey) {
        if let Some(buf) = self.payloads.remove(&key) {
            self.spare.push(buf);
        }
    }

    /// The writer the hierarchy drives ([`crate::pool`]): hands the stashed
    /// payload of each key it is called with to `sink`. A payload leaves
    /// the table only after its write returned `Ok`, so a failed write
    /// loses nothing and a retry finds the bytes where they were.
    pub fn writer<'a>(
        &'a mut self,
        mut sink: impl FnMut(BufKey, &[u8]) -> Result<(), StorageError> + 'a,
    ) -> impl FnMut(BufKey) -> Result<(), StorageError> + 'a {
        move |key| {
            let buf = self
                .payloads
                .get(&key)
                .expect("a page due for write-back must have a stashed payload");
            sink(key, buf)?;
            let buf = self.payloads.remove(&key).expect("present above");
            self.spare.push(buf);
            Ok(())
        }
    }

    /// True once no payload awaits a write.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Discards all staged payloads without writing (backend reset).
    pub fn clear(&mut self) {
        for (_, buf) in self.payloads.drain() {
            self.spare.push(buf);
        }
    }
}

/// A write-capable access backend over one [`PageSource`] per store —
/// what an incrementally-updated tree drives its I/O through. Whether a
/// backend can write is a property of its type: a queued file stack and a
/// shared-cache join handle do not implement this.
pub trait UpdateBackend: NodeAccessMut {
    /// The physical file type.
    type File: PageSource;

    /// The backing file of `store`.
    fn store_file(&self, store: u8) -> &Self::File;

    /// The backing file of `store`, mutably (allocate/release/metadata).
    fn store_file_mut(&mut self, store: u8) -> &mut Self::File;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BufferPool;

    type Written = Vec<(BufKey, Vec<u8>)>;

    fn k(n: u32) -> BufKey {
        BufKey::new(0, PageId(n))
    }

    /// A hierarchy whose path buffer never hits, so every access is an LRU
    /// access.
    fn pool(cap_pages: usize) -> BufferPool {
        BufferPool::with_capacity_pages(cap_pages, &[0])
    }

    fn no_write(_: BufKey, _: &[u8]) -> Result<(), StorageError> {
        panic!("write-through not expected here");
    }

    fn disk_full(_: BufKey, _: &[u8]) -> Result<(), StorageError> {
        Err(StorageError::Corrupt("disk full".into()))
    }

    fn record(written: &mut Written) -> impl FnMut(BufKey, &[u8]) -> Result<(), StorageError> + '_ {
        |key, buf| {
            written.push((key, buf.to_vec()));
            Ok(())
        }
    }

    /// What [`crate::FileAccess`]'s `write` does with the two halves.
    fn stash(
        dirty: &mut DirtyPages,
        key: BufKey,
        payload: &[u8],
        pool: &mut BufferPool,
        sink: impl FnMut(BufKey, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        dirty.stash(key, payload);
        pool.mark_dirty_with(key.store, key.page, dirty.writer(sink))
    }

    #[test]
    fn stash_write_back_flush_lifecycle() {
        let mut dirty = DirtyPages::default();
        let mut pool = pool(1);
        let mut written = Written::new();

        pool.access(0, PageId(1), 0);
        stash(&mut dirty, k(1), b"one", &mut pool, no_write).unwrap();
        assert_eq!(dirty.payloads.len(), 1);
        // Second stash of the same key overwrites, no growth.
        stash(&mut dirty, k(1), b"one!", &mut pool, no_write).unwrap();
        assert_eq!(dirty.payloads.len(), 1);

        // The access evicts dirty 1, and writes it back.
        let write = dirty.writer(record(&mut written));
        pool.access_with(0, PageId(2), 0, write).unwrap();
        assert_eq!(written, vec![(k(1), b"one!".to_vec())]);
        assert_eq!(pool.stats().page_writes, 1);
        assert_eq!(dirty.payloads.len(), 0);

        stash(&mut dirty, k(2), b"two", &mut pool, no_write).unwrap();
        let write = dirty.writer(record(&mut written));
        pool.flush_writes_with(write).unwrap();
        assert_eq!(written.last().unwrap(), &(k(2), b"two".to_vec()));
        assert_eq!(pool.stats().page_writes, 2);
        assert!(!pool.lru().is_dirty(k(2)), "flush cleans the page");
    }

    #[test]
    fn discard_prevents_the_write() {
        let mut dirty = DirtyPages::default();
        let mut pool = pool(4);
        stash(&mut dirty, k(1), b"x", &mut pool, no_write).unwrap();
        pool.discard_dirty(0, PageId(1));
        dirty.discard(k(1));
        let write = dirty.writer(|_, _| panic!("nothing to write"));
        pool.flush_writes_with(write).unwrap();
        assert_eq!(pool.stats().page_writes, 0);
    }

    #[test]
    fn unbufferable_page_writes_through_immediately() {
        // Zero-capacity buffer: install evicts the key on the spot, so
        // the payload must reach the file now, not get lost.
        let mut dirty = DirtyPages::default();
        let mut zero = pool(0);
        let mut written = Written::new();
        stash(&mut dirty, k(1), b"thru", &mut zero, record(&mut written)).unwrap();
        assert_eq!(written, vec![(k(1), b"thru".to_vec())]);
        assert_eq!(zero.stats().page_writes, 1);
        assert_eq!(dirty.payloads.len(), 0, "nothing deferred");
        // All-pinned buffer behaves the same.
        let mut pinned = pool(1);
        pinned.access(0, PageId(9), 0);
        pinned.pin(0, PageId(9));
        stash(
            &mut dirty,
            k(2),
            b"thru2",
            &mut pinned,
            record(&mut written),
        )
        .unwrap();
        assert_eq!(written.last().unwrap(), &(k(2), b"thru2".to_vec()));
        assert_eq!(zero.stats().page_writes + pinned.stats().page_writes, 2);
    }

    #[test]
    fn failed_write_back_is_retryable_without_losing_payloads() {
        let mut dirty = DirtyPages::default();
        let mut two = pool(2);
        stash(&mut dirty, k(1), b"a", &mut two, no_write).unwrap();
        stash(&mut dirty, k(2), b"b", &mut two, no_write).unwrap();
        // First flush attempt: every write fails (disk full).
        let err = two.flush_writes_with(dirty.writer(disk_full));
        assert!(err.is_err());
        assert_eq!(two.stats().page_writes, 0);
        assert_eq!(dirty.payloads.len(), 2, "payloads survive the failure");
        // Retry succeeds and writes both.
        let mut written = Written::new();
        let write = dirty.writer(record(&mut written));
        two.flush_writes_with(write).unwrap();
        assert_eq!(written.len(), 2);
        assert_eq!(two.stats().page_writes, 2);
        assert_eq!(dirty.payloads.len(), 0);

        // Same for an eviction-driven write-back: the failed page stays
        // queued and a later call (or flush) picks it up.
        let mut one = pool(1);
        one.access(0, PageId(3), 0);
        stash(&mut dirty, k(3), b"c", &mut one, no_write).unwrap();
        // The access evicts dirty 3; its write-back fails.
        let err = one.access_with(0, PageId(4), 0, dirty.writer(disk_full));
        assert!(err.is_err());
        assert_eq!(one.stats().page_writes, 0, "charged after the write");
        let mut written = Written::new();
        let write = dirty.writer(record(&mut written));
        one.flush_writes_with(write).unwrap();
        assert_eq!(written, vec![(k(3), b"c".to_vec())]);
    }
}
