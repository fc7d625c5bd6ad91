//! Sharded page files: one logical tree split across N physical files.
//!
//! A shared-nothing parallel join models workers with private disks; with
//! a single page file per tree that model is a fiction — every worker's
//! handle ultimately seeks in the same file. [`ShardedPageFile`] makes
//! the separation physical: the tree's pages are distributed over
//! `shard_count` ordinary [`PageFile`]s according to a caller-supplied
//! assignment (the R\*-tree crate partitions by *root-entry subtree*, so
//! workers joining disjoint subtree pairs read genuinely disjoint files),
//! plus a small **manifest** recording the assignment:
//!
//! ```text
//! manifest (base path):  magic "RSJS" | version u16 | reserved u16
//!                        shard_count u32 | page_count u32
//!                        page_count × (shard u8)
//! shard i (base.shardN): an ordinary PageFile holding, in global-id
//!                        order, the pages assigned to shard i
//! ```
//!
//! Global [`PageId`]s are preserved: page `p` lives in shard
//! `assignment[p]` at a local slot equal to its rank among that shard's
//! pages, and the manifest makes the mapping total — so a tree reopened
//! from shards traverses (and charges buffers) exactly like the original.
//! The tree metadata blob rides in shard 0's header.
//!
//! [`ShardedPageFile`] is the sharded [`PageSource`] of the file-access
//! stack ([`crate::FileAccess`]): each shard file is one *lane*, so the
//! blocking strategy ([`crate::ShardedFileAccess`]) reads a miss from
//! whichever shard owns the page, and the queued strategy
//! ([`crate::ShardedCompletionFileAccess`]) gives every physical shard
//! file its own completion-queue lane, served by the queue's one worker
//! pool — the disk-array model the subtree partition exists for, with
//! per-spindle read counters ([`crate::FileAccess::read_split`]) to show
//! the split.
//!
//! ## Updates and the shard-migration policy
//!
//! Incremental updates (manifest version 2) reuse released pages through a
//! **global free chain**: markers live in the slot of the freed page (in
//! whatever shard owns it), the chain head lives in the manifest. The
//! policy for pages whose logical position changes is deliberately the
//! simplest correct one: **pages stay in their birth shard; the manifest
//! is authoritative.** A page allocated while the root's entry `i` covered
//! its subtree keeps its shard even after splits, merges or reinsertion
//! move the subtree boundaries — and a reused slot keeps the shard of the
//! page that died there. Fresh appends (empty free chain) are assigned by
//! [`partition`] over their global id, the same fallback the initial save
//! uses for the root and unreachable pages. Correctness never depends on
//! the assignment — every read resolves through the manifest — only the
//! *locality* of the subtree partition decays, and a periodic
//! `save_sharded_to` rewrite restores it (state of the world after any
//! update sequence is pinned by the update-conformance suite).

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{self, EntryFormat, StorageError, META_BYTES};
use crate::completion::CompletionQueue;
use crate::file::{PageFile, PageSource};
use crate::page::PageId;
use crate::partition::partition;
use crate::writeback::FreeChain;

/// Manifest signature.
pub const MANIFEST_MAGIC: [u8; 4] = *b"RSJS";

/// Manifest format version. Version 2 added the free-chain head for the
/// incremental write path; version-1 manifests still open (they were
/// written before free chains existed, so reading them as "no free
/// pages" is exact) and are upgraded in place by the next flush.
pub const MANIFEST_VERSION: u16 = 2;

/// Fixed manifest header length in bytes (current version).
pub const MANIFEST_HEADER_BYTES: usize = 20;

/// Header length of version-1 manifests (no free-chain head).
pub const MANIFEST_HEADER_BYTES_V1: usize = 16;

/// Maximum shard count (the assignment stores one byte per page).
pub const MAX_SHARDS: usize = u8::MAX as usize;

/// Path of shard `i` of the sharded file at `base`.
fn shard_path(base: &Path, i: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".shard{i}"));
    PathBuf::from(os)
}

/// One tree's pages across several physical page files (module docs).
#[derive(Debug)]
pub struct ShardedPageFile {
    base: PathBuf,
    shards: Vec<PageFile>,
    /// Owning shard per global page id.
    assign: Vec<u8>,
    /// Local slot within the owning shard per global page id.
    local: Vec<u32>,
    /// Pages appended so far (the write protocol appends in global order).
    appended: u32,
    /// Global free chain (head last, reused first) — see [`FreeChain`].
    /// Markers live in the owning shards; the head rides in the manifest.
    free: FreeChain,
    /// Marker-encoding scratch.
    marker: Vec<u8>,
}

impl ShardedPageFile {
    /// Creates a sharded file at `base` for exactly `assignment.len()`
    /// pages distributed per `assignment` over `shard_count` files. The
    /// write protocol mirrors [`PageFile`]: append every page in global-id
    /// order, set the metadata, then [`ShardedPageFile::flush`].
    pub fn create(
        base: impl AsRef<Path>,
        page_bytes: usize,
        slot_bytes: usize,
        shard_count: usize,
        assignment: &[u8],
    ) -> Result<Self, StorageError> {
        Self::create_with_format(
            base,
            page_bytes,
            slot_bytes,
            shard_count,
            assignment,
            EntryFormat::F64,
        )
    }

    /// [`ShardedPageFile::create`] with an explicit on-disk entry format.
    pub fn create_with_format(
        base: impl AsRef<Path>,
        page_bytes: usize,
        slot_bytes: usize,
        shard_count: usize,
        assignment: &[u8],
        format: EntryFormat,
    ) -> Result<Self, StorageError> {
        if shard_count == 0 || shard_count > MAX_SHARDS {
            return Err(StorageError::Corrupt(format!(
                "shard count {shard_count} outside 1..={MAX_SHARDS}"
            )));
        }
        if assignment.len() > u32::MAX as usize {
            return Err(StorageError::Corrupt("page count exceeds u32".into()));
        }
        if let Some(&bad) = assignment.iter().find(|&&s| usize::from(s) >= shard_count) {
            return Err(StorageError::Corrupt(format!(
                "assignment references shard {bad} of {shard_count}"
            )));
        }
        let base = base.as_ref().to_path_buf();
        let shards = (0..shard_count)
            .map(|i| {
                PageFile::create_with_format(shard_path(&base, i), page_bytes, slot_bytes, format)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let local = local_slots(assignment, shard_count);
        Ok(ShardedPageFile {
            base,
            shards,
            assign: assignment.to_vec(),
            local,
            appended: 0,
            free: FreeChain::default(),
            marker: Vec::new(),
        })
    }

    /// Opens a sharded file read-only: parses the manifest, opens every
    /// shard, and validates that the shards hold exactly the pages the
    /// manifest assigns them at a consistent page size.
    pub fn open(base: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(base, false)
    }

    /// Opens a sharded file read-write — the handle incremental updates
    /// run against.
    pub fn open_rw(base: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(base, true)
    }

    fn open_with(base: impl AsRef<Path>, writable: bool) -> Result<Self, StorageError> {
        let base = base.as_ref().to_path_buf();
        let mut f = std::fs::OpenOptions::new().read(true).open(&base)?;
        let file_len = f.metadata()?.len();
        if file_len < MANIFEST_HEADER_BYTES_V1 as u64 {
            return Err(StorageError::Truncated {
                expected_bytes: MANIFEST_HEADER_BYTES_V1 as u64,
                found_bytes: file_len,
            });
        }
        // The first 16 bytes are common to both versions; version 2
        // appended the free-chain head. Version-1 manifests (written
        // before the write path existed) hold no free pages — reading
        // them as "empty chain" is exactly right.
        let mut head = [0u8; MANIFEST_HEADER_BYTES_V1];
        f.seek(SeekFrom::Start(0))?;
        f.read_exact(&mut head)?;
        if head[0..4] != MANIFEST_MAGIC {
            return Err(StorageError::Corrupt(format!(
                "bad manifest magic {:?}, expected {MANIFEST_MAGIC:?}",
                &head[0..4]
            )));
        }
        let version = u16::from_le_bytes([head[4], head[5]]);
        if version == 0 || version > MANIFEST_VERSION {
            return Err(StorageError::BadVersion { found: version });
        }
        let header_len = if version == 1 {
            MANIFEST_HEADER_BYTES_V1
        } else {
            MANIFEST_HEADER_BYTES
        };
        let shard_count = u32::from_le_bytes(head[8..12].try_into().expect("slice of 4")) as usize;
        let page_count = u32::from_le_bytes(head[12..16].try_into().expect("slice of 4"));
        if shard_count == 0 || shard_count > MAX_SHARDS {
            return Err(StorageError::Corrupt(format!(
                "manifest shard count {shard_count} outside 1..={MAX_SHARDS}"
            )));
        }
        let expected = header_len as u64 + u64::from(page_count);
        if file_len < expected {
            return Err(StorageError::Truncated {
                expected_bytes: expected,
                found_bytes: file_len,
            });
        }
        let free_raw = if version == 1 {
            0
        } else {
            let mut tail = [0u8; 4];
            f.read_exact(&mut tail)?;
            u32::from_le_bytes(tail)
        };
        let free_head = match free_raw {
            0 => None,
            n if n - 1 < page_count => Some(PageId(n - 1)),
            n => {
                return Err(StorageError::Corrupt(format!(
                    "manifest free head {} out of range of {page_count} pages",
                    n - 1
                )))
            }
        };
        let mut assign = vec![0u8; page_count as usize];
        f.read_exact(&mut assign)?;
        if let Some(&bad) = assign.iter().find(|&&s| usize::from(s) >= shard_count) {
            return Err(StorageError::Corrupt(format!(
                "manifest assigns a page to shard {bad} of {shard_count}"
            )));
        }
        let shards = (0..shard_count)
            .map(|i| {
                if writable {
                    PageFile::open_rw(shard_path(&base, i))
                } else {
                    PageFile::open(shard_path(&base, i))
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Per-shard page tallies and page sizes must match the manifest.
        let mut tally = vec![0u32; shard_count];
        for &s in &assign {
            tally[usize::from(s)] += 1;
        }
        let page_bytes = shards[0].page_bytes();
        for (i, shard) in shards.iter().enumerate() {
            shard.check_page_bytes(page_bytes)?;
            if shard.page_count() != tally[i] {
                return Err(StorageError::Corrupt(format!(
                    "shard {i} holds {} pages, manifest assigns {}",
                    shard.page_count(),
                    tally[i]
                )));
            }
        }
        let local = local_slots(&assign, shard_count);
        let mut file = ShardedPageFile {
            base,
            shards,
            local,
            appended: page_count,
            assign,
            free: FreeChain::default(),
            marker: Vec::new(),
        };
        let chain = file.walk_free_chain(free_head)?;
        file.free.restore(chain);
        Ok(file)
    }

    /// Rebuilds the global free list from the chain rooted at `head` via
    /// the shared walker ([`FreeChain::walk`]); markers are read from
    /// whichever shard owns each link, uncounted — open-time recovery,
    /// not join or update I/O.
    fn walk_free_chain(&self, head: Option<PageId>) -> Result<Vec<PageId>, StorageError> {
        FreeChain::walk(head, self.page_count(), self.entry_format(), |id, buf| {
            let shard = usize::from(self.assign[id.0 as usize]);
            self.shards[shard].read_slot_uncounted(PageId(self.local[id.0 as usize]), buf)
        })
    }

    /// The manifest path this sharded file lives at.
    #[inline]
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning global page `id` (bench/test inspection).
    pub fn shard_of(&self, id: PageId) -> Result<usize, StorageError> {
        self.assign
            .get(id.0 as usize)
            .map(|&s| usize::from(s))
            .ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "page {id} out of range of a {}-page sharded file",
                    self.assign.len()
                ))
            })
    }

    /// Number of free (reusable) page slots across all shards.
    #[inline]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// [`PageFile::set_read_latency`] on every shard handle.
    pub fn set_read_latency(&mut self, latency: Option<std::time::Duration>) {
        for s in &mut self.shards {
            s.set_read_latency(latency);
        }
    }

    /// Page reads charged so far, summed over shards.
    pub fn reads(&self) -> u64 {
        self.shards.iter().map(PageFile::reads).sum()
    }

    /// Page reads charged so far on shard `i` alone — the per-spindle
    /// number a disk-array deployment would observe.
    pub fn shard_reads(&self, i: usize) -> u64 {
        self.shards[i].reads()
    }

    /// Page writes charged so far, summed over shards.
    pub fn writes(&self) -> u64 {
        self.shards.iter().map(PageFile::writes).sum()
    }
}

impl PageSource for ShardedPageFile {
    /// Overwrites global page `id` in place in its owning shard. Charges
    /// one write on that shard.
    fn write_page(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        let shard = self.shard_of(id)?;
        self.shards[shard].write_page(PageId(self.local[id.0 as usize]), payload)
    }

    /// Reads global page `id` into `buf` from its owning shard. Charges
    /// one read on that shard.
    fn read_page_into(&mut self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        let shard = self.shard_of(id)?;
        self.shards[shard].read_page_into(PageId(self.local[id.0 as usize]), buf)
    }

    /// Appends the next page in global-id order to its assigned shard and
    /// returns its global id. Charges one write on that shard.
    fn append_page(&mut self, payload: &[u8]) -> Result<PageId, StorageError> {
        let id = self.appended as usize;
        let Some(&shard) = self.assign.get(id) else {
            return Err(StorageError::Corrupt(format!(
                "appending page {id} beyond the assignment of {} pages",
                self.assign.len()
            )));
        };
        self.shards[usize::from(shard)].append_page(payload)?;
        self.appended += 1;
        Ok(PageId(id as u32))
    }

    /// Allocates a slot for `payload`. **Birth-shard policy** (module
    /// docs): a reused free slot keeps the shard it was born in; a fresh
    /// page is appended to shard [`partition`]`(id)` — the manifest grows
    /// and stays authoritative. Only valid on a fully-appended file (an
    /// opened one, or a created one after all assigned pages arrived).
    fn allocate(&mut self, payload: &[u8]) -> Result<PageId, StorageError> {
        if (self.appended as usize) != self.assign.len() {
            return Err(StorageError::Corrupt(format!(
                "allocate before the initial append finished ({} of {} pages)",
                self.appended,
                self.assign.len()
            )));
        }
        if let Some(id) = self.free.pop() {
            let shard = self.shard_of(id)?;
            let local = PageId(self.local[id.0 as usize]);
            if let Err(e) = self.shards[shard].write_page(local, payload) {
                self.free.undo_pop(id);
                return Err(e);
            }
            self.free.commit_pop(id);
            return Ok(id);
        }
        if self.assign.len() >= u32::MAX as usize {
            return Err(StorageError::Corrupt("page count exceeds u32".into()));
        }
        let id = self.assign.len() as u32;
        let shard = partition(u64::from(id), self.shards.len()) as u8;
        let local = self.shards[usize::from(shard)].append_page(payload)?;
        self.assign.push(shard);
        self.local.push(local.0);
        self.appended += 1;
        Ok(PageId(id))
    }

    /// Releases global page `id` onto the free chain: writes its marker
    /// into its owning shard, links it to the previous head. Double
    /// releases and out-of-range pages are typed errors.
    fn release(&mut self, id: PageId) -> Result<(), StorageError> {
        let shard = self.shard_of(id)?;
        if self.free.contains(id) {
            return Err(StorageError::Corrupt(format!("double release of {id}")));
        }
        let local = PageId(self.local[id.0 as usize]);
        let slot = self.shards[shard].slot_bytes();
        let mut marker = std::mem::take(&mut self.marker);
        codec::encode_free_page(self.free.head(), slot, &mut marker)?;
        let res = self.shards[shard].write_page(local, &marker);
        self.marker = marker;
        res?;
        self.free.push_released(id)?;
        Ok(())
    }

    /// The global free list; its head is persisted in the manifest.
    fn set_free_list(&mut self, free: &[PageId]) -> Result<(), StorageError> {
        for &id in free {
            self.shard_of(id)?;
        }
        self.free.set_list(free)
    }

    /// Total pages across all shards.
    #[inline]
    fn page_count(&self) -> u32 {
        self.assign.len() as u32
    }

    #[inline]
    fn page_bytes(&self) -> usize {
        self.shards[0].page_bytes()
    }

    #[inline]
    fn slot_bytes(&self) -> usize {
        self.shards[0].slot_bytes()
    }

    /// The on-disk entry format (recorded in every shard header).
    #[inline]
    fn entry_format(&self) -> EntryFormat {
        self.shards[0].entry_format()
    }

    /// The owner metadata blob (carried by shard 0).
    #[inline]
    fn meta(&self) -> &[u8; META_BYTES] {
        self.shards[0].meta()
    }

    fn set_meta(&mut self, meta: [u8; META_BYTES]) {
        self.shards[0].set_meta(meta);
    }

    /// The global free chain, oldest release first (last element = head).
    #[inline]
    fn free_pages(&self) -> &[PageId] {
        self.free.as_slice()
    }

    /// Persists every shard header and writes the manifest (including the
    /// free-chain head). Errors if not every assigned page was appended.
    fn flush(&mut self) -> Result<(), StorageError> {
        if (self.appended as usize) != self.assign.len() {
            return Err(StorageError::Corrupt(format!(
                "flush after {} of {} assigned pages",
                self.appended,
                self.assign.len()
            )));
        }
        for shard in &mut self.shards {
            shard.flush()?;
        }
        let mut head = [0u8; MANIFEST_HEADER_BYTES];
        head[0..4].copy_from_slice(&MANIFEST_MAGIC);
        head[4..6].copy_from_slice(&MANIFEST_VERSION.to_le_bytes());
        head[8..12].copy_from_slice(&(self.shards.len() as u32).to_le_bytes());
        head[12..16].copy_from_slice(&(self.assign.len() as u32).to_le_bytes());
        let free_head = self.free.head().map_or(0, |p| p.0 + 1);
        head[16..20].copy_from_slice(&free_head.to_le_bytes());
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&self.base)?;
        f.write_all(&head)?;
        f.write_all(&self.assign)?;
        f.flush()?;
        Ok(())
    }

    /// Resets the read/write counters of every shard.
    fn reset_io(&mut self) {
        for s in &mut self.shards {
            s.reset_io();
        }
    }

    /// Feeds every page to `sink` in global-id order through
    /// [`scan_pages`](crate::scan::scan_pages), each read positionally
    /// from its owning shard — [`PageFile`]'s scan across the shard split.
    /// Charges one read on the owning shard per page handed to the sink.
    fn scan(
        &mut self,
        mut sink: impl FnMut(PageId, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let file = &*self;
        let mut delivered = vec![0u64; file.shards.len()];
        let res = crate::scan::scan_pages(
            file.page_count(),
            |id, buf| {
                let shard = file.shard_of(id)?;
                file.shards[shard].read_page_at(PageId(file.local[id.0 as usize]), buf)
            },
            |id, bytes| {
                delivered[usize::from(file.assign[id.0 as usize])] += 1;
                sink(id, bytes)
            },
        );
        for (shard, n) in self.shards.iter_mut().zip(delivered) {
            shard.charge_reads(n);
        }
        res
    }

    fn lane_paths(&self) -> Vec<PathBuf> {
        (0..self.shards.len())
            .map(|i| shard_path(&self.base, i))
            .collect()
    }

    fn lane_of(&self, page: PageId) -> Option<(usize, PageId)> {
        let shard = *self.assign.get(page.0 as usize)?;
        Some((usize::from(shard), PageId(self.local[page.0 as usize])))
    }
}

/// Local slot per global page: its rank among the pages of its shard.
fn local_slots(assign: &[u8], shard_count: usize) -> Vec<u32> {
    let mut next = vec![0u32; shard_count];
    assign
        .iter()
        .map(|&s| {
            let l = next[usize::from(s)];
            next[usize::from(s)] += 1;
            l
        })
        .collect()
}

/// One completion-queue lane per physical shard file of `files`, in
/// store-major order — the layout
/// [`crate::FileAccess::with_shared_queue`] expects. Parallel join workers
/// build one queue here and hand clones to their per-worker stacks, so all
/// workers draw from one submission/completion stream and one pool of
/// [`crate::QUEUE_DEPTH`] readers, while each shard file keeps its own
/// lane (handle and read counter).
pub fn shard_lane_queue(files: &[ShardedPageFile]) -> Result<CompletionQueue, StorageError> {
    crate::stack::open_lanes(files, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::temp::demo::payload;
    use crate::temp::TempDir;

    fn build(dir: &TempDir, name: &str, assign: &[u8], shards: usize) -> PathBuf {
        let slot = codec::slot_bytes_for(2);
        let base = dir.file(name);
        let mut f = ShardedPageFile::create(&base, 1024, slot, shards, assign).unwrap();
        for i in 0..assign.len() as u32 {
            f.append_page(&payload(i, slot)).unwrap();
        }
        f.set_meta([5; META_BYTES]);
        f.flush().unwrap();
        base
    }

    #[test]
    fn round_trips_pages_across_shards() {
        let dir = TempDir::new("sharded").unwrap();
        let assign = [0u8, 2, 1, 0, 2, 2];
        let base = build(&dir, "t.rsj", &assign, 3);
        let mut f = ShardedPageFile::open(&base).unwrap();
        assert_eq!(f.shard_count(), 3);
        assert_eq!(f.page_count(), 6);
        assert_eq!(f.meta(), &[5; META_BYTES]);
        let mut buf = Vec::new();
        for i in 0..6u32 {
            f.read_page_into(PageId(i), &mut buf).unwrap();
            let node = codec::decode_node(&buf).unwrap();
            assert_eq!(node.entries[0].child, u64::from(i), "page {i}");
            assert_eq!(
                f.shard_of(PageId(i)).unwrap(),
                usize::from(assign[i as usize])
            );
        }
        assert_eq!(f.reads(), 6);
        assert_eq!(f.shard_reads(2), 3, "shard 2 owns pages 1, 4, 5");
        f.reset_io();
        assert_eq!(f.reads(), 0);
    }

    #[test]
    fn scan_reads_every_page_from_its_shard_on_both_schedules() {
        let dir = TempDir::new("sharded").unwrap();
        let assign: Vec<u8> = (0..70u32).map(|i| (i * 7 % 3) as u8).collect();
        let base = build(&dir, "t.rsj", &assign, 3);
        let mut f = ShardedPageFile::open(&base).unwrap();
        let per_shard = |s: u8| assign.iter().filter(|&&a| a == s).count() as u64;
        for latency in [None, Some(std::time::Duration::from_micros(300))] {
            f.set_read_latency(latency);
            f.reset_io();
            let mut next = 0;
            f.scan(|id, bytes| {
                assert_eq!(id.0, next, "global id order");
                next += 1;
                let node = codec::decode_node(bytes).unwrap();
                assert_eq!(node.entries[0].child, u64::from(id.0));
                Ok(())
            })
            .unwrap();
            assert_eq!(next, 70);
            assert_eq!(f.reads(), 70, "latency {latency:?}");
            for s in 0..3 {
                assert_eq!(f.shard_reads(usize::from(s)), per_shard(s), "shard {s}");
            }
        }
    }

    #[test]
    fn create_rejects_bad_assignments() {
        let dir = TempDir::new("sharded").unwrap();
        let slot = codec::slot_bytes_for(2);
        assert!(matches!(
            ShardedPageFile::create(dir.file("a"), 1024, slot, 0, &[]).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        assert!(matches!(
            ShardedPageFile::create(dir.file("b"), 1024, slot, 2, &[0, 2]).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn flush_requires_every_assigned_page() {
        let dir = TempDir::new("sharded").unwrap();
        let slot = codec::slot_bytes_for(2);
        let mut f = ShardedPageFile::create(dir.file("t"), 1024, slot, 2, &[0, 1]).unwrap();
        f.append_page(&payload(0, slot)).unwrap();
        assert!(matches!(f.flush().unwrap_err(), StorageError::Corrupt(_)));
        f.append_page(&payload(1, slot)).unwrap();
        f.flush().unwrap();
        assert!(matches!(
            f.append_page(&payload(2, slot)).unwrap_err(),
            StorageError::Corrupt(_),
        ));
    }

    #[test]
    fn version_1_manifest_still_opens_as_no_free_pages() {
        // Files written before the write path existed carry a 16-byte
        // manifest header with no free-chain field; they must keep
        // opening (and read as "no free pages").
        let dir = TempDir::new("sharded-v1").unwrap();
        let base = build(&dir, "t.rsj", &[0, 1, 0, 1], 2);
        // Rewrite the manifest in the version-1 layout.
        let bytes = std::fs::read(&base).unwrap();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&bytes[0..4]); // magic
        v1.extend_from_slice(&1u16.to_le_bytes()); // version 1
        v1.extend_from_slice(&[0, 0]); // reserved
        v1.extend_from_slice(&bytes[8..16]); // shard_count | page_count
        v1.extend_from_slice(&bytes[MANIFEST_HEADER_BYTES..]); // assignment
        std::fs::write(&base, &v1).unwrap();
        let mut f = ShardedPageFile::open(&base).unwrap();
        assert_eq!(f.page_count(), 4);
        assert!(f.free_pages().is_empty());
        let mut buf = Vec::new();
        f.read_page_into(PageId(3), &mut buf).unwrap();
        assert_eq!(codec::decode_node(&buf).unwrap().entries[0].child, 3);
        // A version from the future is still rejected.
        let mut bad = v1.clone();
        bad[4..6].copy_from_slice(&9u16.to_le_bytes());
        std::fs::write(&base, &bad).unwrap();
        assert!(matches!(
            ShardedPageFile::open(&base).unwrap_err(),
            StorageError::BadVersion { found: 9 }
        ));
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = TempDir::new("sharded").unwrap();
        let base = build(&dir, "t.rsj", &[0, 1, 0], 2);
        // Point a page at a shard beyond the count.
        let bytes = std::fs::read(&base).unwrap();
        let mut bad = bytes.clone();
        bad[MANIFEST_HEADER_BYTES] = 9;
        std::fs::write(&base, &bad).unwrap();
        assert!(matches!(
            ShardedPageFile::open(&base).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&base, &bad).unwrap();
        assert!(matches!(
            ShardedPageFile::open(&base).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        // Truncated assignment.
        std::fs::write(&base, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            ShardedPageFile::open(&base).unwrap_err(),
            StorageError::Truncated { .. }
        ));
    }

    #[test]
    fn missing_shard_page_is_detected_on_open() {
        let dir = TempDir::new("sharded").unwrap();
        let base = build(&dir, "t.rsj", &[0, 1, 1], 2);
        // Rewrite shard 1 with only one page: tally mismatch.
        let slot = codec::slot_bytes_for(2);
        let mut shard1 = PageFile::create(shard_path(&base, 1), 1024, slot).unwrap();
        shard1.append_page(&payload(7, slot)).unwrap();
        shard1.flush().unwrap();
        drop(shard1);
        assert!(matches!(
            ShardedPageFile::open(&base).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    // --- Write path: global free chain, birth-shard allocation.

    #[test]
    fn release_then_allocate_keeps_birth_shard_and_reuses_lifo() {
        let dir = TempDir::new("sharded-wp").unwrap();
        let base = build(&dir, "t.rsj", &[0, 1, 0, 1], 2);
        let mut f = ShardedPageFile::open_rw(&base).unwrap();
        let slot = f.shards[0].slot_bytes();
        f.release(PageId(1)).unwrap();
        f.release(PageId(2)).unwrap();
        assert_eq!(f.free_pages(), &[PageId(1), PageId(2)]);
        // LIFO reuse; page 2 keeps its birth shard 0, page 1 its shard 1.
        assert_eq!(f.allocate(&payload(20, slot)).unwrap(), PageId(2));
        assert_eq!(f.shard_of(PageId(2)).unwrap(), 0);
        assert_eq!(f.allocate(&payload(10, slot)).unwrap(), PageId(1));
        assert_eq!(f.shard_of(PageId(1)).unwrap(), 1);
        // Fresh append: partition fallback assigns the shard, manifest
        // grows.
        let fresh = f.allocate(&payload(40, slot)).unwrap();
        assert_eq!(fresh, PageId(4));
        assert_eq!(f.page_count(), 5);
        let want_shard = crate::partition(4, 2);
        assert_eq!(f.shard_of(fresh).unwrap(), want_shard);
        f.flush().unwrap();
        drop(f);
        // Everything — grown manifest, chain, contents — survives reopen.
        let mut f = ShardedPageFile::open(&base).unwrap();
        assert_eq!(f.page_count(), 5);
        assert!(f.free_pages().is_empty());
        let mut buf = Vec::new();
        f.read_page_into(PageId(2), &mut buf).unwrap();
        assert_eq!(codec::decode_node(&buf).unwrap().entries[0].child, 20);
        f.read_page_into(PageId(4), &mut buf).unwrap();
        assert_eq!(codec::decode_node(&buf).unwrap().entries[0].child, 40);
    }

    #[test]
    fn free_chain_survives_reopen_across_shards() {
        let dir = TempDir::new("sharded-wp").unwrap();
        let base = build(&dir, "t.rsj", &[0, 1, 2, 0, 1], 3);
        {
            let mut f = ShardedPageFile::open_rw(&base).unwrap();
            f.release(PageId(4)).unwrap();
            f.release(PageId(0)).unwrap();
            f.release(PageId(2)).unwrap();
            assert!(matches!(
                f.release(PageId(2)).unwrap_err(),
                StorageError::Corrupt(_)
            ));
            f.flush().unwrap();
        }
        let f = ShardedPageFile::open(&base).unwrap();
        assert_eq!(f.free_pages(), &[PageId(4), PageId(0), PageId(2)]);
        assert_eq!(f.free_count(), 3);
    }
}
