//! Persistent page files.
//!
//! [`PageFile`] owns a real `std::fs::File` in the format of
//! [`crate::codec`]: header, then fixed-size page slots. Every page read is
//! one positional read, every write a `seek` + `write_all`, and both are
//! counted, so a cold-opened tree pays genuine file I/O for every buffer
//! miss; the whole-file read an open does is its [`PageSource::scan`],
//! overlapped when reads wait ([`crate::scan`]). [`PageSource`] — declared
//! here — is what a page file can do; [`PageFile`] is the one the
//! file-access stack ([`crate::FileAccess`]) and every open read.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::codec::{
    self, EntryFormat, FileHeader, StorageError, HEADER_BYTES, META_BYTES, SLOT_HEADER_BYTES,
};
use crate::page::PageId;
use crate::writeback::FreeChain;

/// A store's pages as a physical page file: in-place page overwrite,
/// reuse-before-append allocation off a persistent free list, release back
/// onto it, metadata and flush — what the save, bulk-build and update paths
/// write through — plus what [`crate::FileAccess`] reads through: the
/// ordered whole-file scan of an open and counter reset. One store is one
/// file. Implemented by [`PageFile`]; the trait is the seam another source
/// (a fault-injecting one, say) plugs into.
pub trait PageSource {
    /// Overwrites an existing page.
    fn write_page(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError>;

    /// Reads one page slot into `buf`.
    fn read_page_into(&mut self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError>;

    /// Appends the next page in id order (the save protocol: every page
    /// once, then free list, metadata, flush) and returns its id.
    fn append_page(&mut self, payload: &[u8]) -> Result<PageId, StorageError>;

    /// Allocates a page for `payload`: the head of the free chain if one
    /// exists (reuse-before-append), a fresh appended slot otherwise.
    fn allocate(&mut self, payload: &[u8]) -> Result<PageId, StorageError>;

    /// Releases a page onto the free chain (writes its chain marker).
    fn release(&mut self, id: PageId) -> Result<(), StorageError>;

    /// Registers `free` as the free list (oldest release first) without
    /// writing anything — for save paths that already encoded the chain
    /// markers into the corresponding slots. The head is persisted with
    /// the next [`PageSource::flush`].
    fn set_free_list(&mut self, free: &[PageId]) -> Result<(), StorageError>;

    /// Number of page slots.
    fn page_count(&self) -> u32;

    /// Logical page size in bytes.
    fn page_bytes(&self) -> usize;

    /// Physical bytes per page slot.
    fn slot_bytes(&self) -> usize;

    /// The on-disk entry format.
    fn entry_format(&self) -> EntryFormat;

    /// The owner metadata blob.
    fn meta(&self) -> &[u8; META_BYTES];

    /// Replaces the owner metadata (persisted on flush).
    fn set_meta(&mut self, meta: [u8; META_BYTES]);

    /// The free list, oldest release first (last element = chain head).
    fn free_pages(&self) -> &[PageId];

    /// Writes the header (page count, free head, metadata) through the OS.
    /// Nothing is synced: a flushed file survives a process crash, not a
    /// power loss — durability belongs with the page log of ROADMAP item 4.
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Errors if the logical page size differs from `expected` — trees
    /// joined through one buffer must share a page size.
    fn check_page_bytes(&self, expected: usize) -> Result<(), StorageError> {
        let found = self.page_bytes();
        if found != expected {
            return Err(StorageError::PageSizeMismatch {
                expected: expected as u32,
                found: found as u32,
            });
        }
        Ok(())
    }

    /// Zeroes the read/write counters.
    fn reset_io(&mut self);

    /// Feeds every page to `sink` in id order, each read (and charged)
    /// once — what opening a tree does ([`crate::scan`]).
    fn scan(
        &mut self,
        sink: impl FnMut(PageId, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError>;
}

/// A page file: fixed header plus `page_count` slots of `slot_bytes` each.
///
/// The header (including the page count and the owner metadata) lives in
/// memory and is persisted by [`PageFile::flush`]; `create → append_page*
/// → set_meta → flush` is the write protocol (the R-tree crate's
/// `save_to` drives it). Read/write counters mirror [`crate::PageStore`]'s.
///
/// **Free-page list** (write path): released slots are chained through the
/// file — each free slot stores the next free page, the header stores the
/// chain head — and [`PageFile::allocate`] reuses them LIFO *before*
/// appending, so delete-heavy churn does not grow the file monotonically.
/// The chain is mirrored in memory (`free`), rebuilt and validated on
/// open, and persisted incrementally: [`PageFile::release`] writes the
/// slot's marker at release time, the header's `free_head` lands on disk
/// at the next [`PageFile::flush`].
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    header: FileHeader,
    /// In-memory mirror of the on-disk free chain (head last,
    /// reused first) — see [`FreeChain`].
    free: FreeChain,
    reads: u64,
    writes: u64,
    /// Slot-sized zero block reused for write padding, so the steady-state
    /// append/overwrite path allocates nothing (lazily sized on first use
    /// — read-only files never pay for it).
    pad: Vec<u8>,
    /// Scratch for free-chain marker encoding.
    marker: Vec<u8>,
    /// Injected latency per counted page read (see
    /// [`PageFile::set_read_latency`]); `None` = no injection.
    read_latency: Option<Duration>,
}

/// Environment variable naming the injected per-read latency in
/// microseconds. Read once per [`PageFile`] construction, so handles
/// opened by completion-queue workers inherit the same knob. `0`, unset,
/// or unparsable mean "no injection".
pub const READ_LATENCY_ENV: &str = "RSJ_READ_LATENCY_US";

/// The per-read latency currently requested via [`READ_LATENCY_ENV`].
fn env_read_latency() -> Option<Duration> {
    let us: u64 = std::env::var(READ_LATENCY_ENV).ok()?.parse().ok()?;
    (us > 0).then(|| Duration::from_micros(us))
}

/// Fills `buf` from `off` without moving a shared seek cursor, so any
/// number of threads can read through one handle.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, off)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut off: u64) -> std::io::Result<()> {
    use std::io::ErrorKind;
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, off) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                off += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl PageFile {
    /// Creates (truncating) a page file with the given logical page size
    /// and physical slot size and writes the initial header.
    pub fn create(
        path: impl AsRef<Path>,
        page_bytes: usize,
        slot_bytes: usize,
    ) -> Result<Self, StorageError> {
        Self::create_with_format(path, page_bytes, slot_bytes, EntryFormat::F64)
    }

    /// [`PageFile::create`] with an explicit on-disk entry format (the
    /// format is recorded in the header's flag word; the page file itself
    /// never interprets slot contents).
    pub fn create_with_format(
        path: impl AsRef<Path>,
        page_bytes: usize,
        slot_bytes: usize,
        format: EntryFormat,
    ) -> Result<Self, StorageError> {
        if page_bytes == 0 {
            return Err(StorageError::Corrupt("page size of zero".into()));
        }
        if slot_bytes < SLOT_HEADER_BYTES {
            return Err(StorageError::Corrupt(format!(
                "slot size {slot_bytes} below the {SLOT_HEADER_BYTES}-byte slot header"
            )));
        }
        let header = FileHeader {
            flags: format.flags(),
            page_bytes: u32::try_from(page_bytes)
                .map_err(|_| StorageError::Corrupt("page size exceeds u32".into()))?,
            slot_bytes: u32::try_from(slot_bytes)
                .map_err(|_| StorageError::Corrupt("slot size exceeds u32".into()))?,
            page_count: 0,
            free_head: None,
            meta: [0; META_BYTES],
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        file.write_all(&header.encode())?;
        Ok(PageFile {
            file,
            path: path.as_ref().to_path_buf(),
            header,
            free: FreeChain::default(),
            reads: 0,
            writes: 0,
            pad: Vec::new(),
            marker: Vec::new(),
            read_latency: env_read_latency(),
        })
    }

    /// Opens an existing page file read-only, validating magic, version
    /// and length. Read-only is deliberate: this open path serves
    /// `open_from` and join-only stacks, which never write, so saved trees on
    /// read-only media stay usable; write operations against a file
    /// opened this way fail with [`StorageError::Io`].
    /// [`PageFile::open_rw`] holds a writable handle for the update path.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(path, false)
    }

    /// Opens an existing page file read-write — the handle incremental
    /// updates ([`PageFile::allocate`] / [`PageFile::release`] /
    /// [`PageFile::write_page`]) run against.
    pub fn open_rw(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(path, true)
    }

    fn open_with(path: impl AsRef<Path>, writable: bool) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(writable)
            .open(path.as_ref())?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_BYTES as u64 {
            return Err(StorageError::Truncated {
                expected_bytes: HEADER_BYTES as u64,
                found_bytes: file_len,
            });
        }
        let mut buf = [0u8; HEADER_BYTES];
        read_exact_at(&file, &mut buf, 0)?;
        let header = FileHeader::decode(&buf, file_len)?;
        let mut pf = PageFile {
            file,
            path: path.as_ref().to_path_buf(),
            header,
            free: FreeChain::default(),
            reads: 0,
            writes: 0,
            pad: Vec::new(),
            marker: Vec::new(),
            read_latency: env_read_latency(),
        };
        let chain = pf.walk_free_chain()?;
        pf.free.restore(chain);
        Ok(pf)
    }

    /// Rebuilds the in-memory free list from the on-disk chain via
    /// [`FreeChain::walk`], uncounted — chain recovery is
    /// open-time work, not join or update I/O.
    fn walk_free_chain(&self) -> Result<Vec<PageId>, StorageError> {
        FreeChain::walk(
            self.header.free_head,
            self.header.page_count,
            self.header.entry_format(),
            |id, buf| self.read_slot_uncounted(id, buf),
        )
    }

    /// The one positional slot read behind every read this file serves;
    /// the callers differ in exactly its two switches and in whether they
    /// count. `latency` pays the injected read latency *before* the read
    /// (modelling positioning time); `physical` bounds `id` by the
    /// file's length on disk instead of the header page count cached at
    /// open. Takes `&self` and moves no seek cursor, so any number of
    /// threads can read through one handle.
    fn pread_slot(
        &self,
        id: PageId,
        buf: &mut Vec<u8>,
        latency: bool,
        physical: bool,
    ) -> Result<(), StorageError> {
        if let (true, Some(lat)) = (latency, self.read_latency) {
            std::thread::sleep(lat);
        }
        let slot = self.slot_bytes();
        let off = if physical {
            let off = self.slot_start(id);
            let len = self.file.metadata()?.len();
            if off + slot as u64 > len {
                return Err(StorageError::Corrupt(format!(
                    "page {id} beyond the physical end of a {len}-byte file"
                )));
            }
            off
        } else {
            self.slot_offset(id)?
        };
        buf.resize(slot, 0);
        read_exact_at(&self.file, buf, off)?;
        Ok(())
    }

    /// Reads one slot without latency and without touching the read
    /// counter — open-time chain recovery only.
    fn read_slot_uncounted(&self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.pread_slot(id, buf, false, false)
    }

    /// The path this file lives at.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Head of the free chain (the page the next [`PageFile::allocate`]
    /// reuses), if any.
    #[inline]
    pub fn free_head(&self) -> Option<PageId> {
        self.free.head()
    }

    /// Number of free (reusable) page slots.
    #[inline]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Byte offset of slot `id`, in range or not.
    fn slot_start(&self, id: PageId) -> u64 {
        HEADER_BYTES as u64 + u64::from(id.0) * u64::from(self.header.slot_bytes)
    }

    fn slot_offset(&self, id: PageId) -> Result<u64, StorageError> {
        if id.0 >= self.header.page_count {
            return Err(StorageError::Corrupt(format!(
                "page {id} out of range of a {}-page file",
                self.header.page_count
            )));
        }
        Ok(self.slot_start(id))
    }

    /// Writes `payload` at `off`, zero-padded to the slot size, reusing
    /// the file's pad block instead of allocating per write.
    fn write_slot_at(&mut self, off: u64, payload: &[u8]) -> Result<(), StorageError> {
        let slot = self.slot_bytes();
        if payload.len() > slot {
            return Err(StorageError::NodeTooLarge {
                need: payload.len(),
                slot,
            });
        }
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(payload)?;
        if payload.len() < slot {
            if self.pad.len() < slot {
                self.pad.resize(slot, 0);
            }
            self.file.write_all(&self.pad[..slot - payload.len()])?;
        }
        self.writes += 1;
        Ok(())
    }

    /// Reads one slot *positionally* through a shared reference — the
    /// read the completion-queue worker pool and a scan's readers
    /// perform, any number at once on one handle. The injected latency
    /// is paid exactly as in [`PageFile::read_page_into`]; the handle's
    /// own read counter is not touched (the queue counts per lane, a
    /// scan charges what it delivered).
    pub(crate) fn read_page_at(&self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.pread_slot(id, buf, true, false)
    }

    /// [`PageFile::read_page_at`] bounds-checked against the *physical*
    /// file length instead of the header page count cached at open, and
    /// without the injected latency (it is a retry, not a fresh
    /// positioning). The completion-queue workers fall back to this
    /// when a demand read lands on a page a concurrent updater appended
    /// through its own handle: the slot bytes are on disk the moment
    /// `append_page` returns, but neither this handle's cached header nor
    /// the on-disk header (stale until the updater flushes) knows the new
    /// count — only the file length does.
    pub(crate) fn read_slot_fresh(
        &self,
        id: PageId,
        buf: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        self.pread_slot(id, buf, false, true)
    }

    /// Injects (or clears) an artificial latency charged on every counted
    /// page read — the knob that makes latency *hiding* measurable on page
    /// caches and fast NVMe. Handles pick up a default from
    /// [`READ_LATENCY_ENV`] at construction; this setter overrides it per
    /// handle.
    pub fn set_read_latency(&mut self, latency: Option<Duration>) {
        self.read_latency = latency.filter(|l| !l.is_zero());
    }

    /// The injected per-read latency currently in force on this handle.
    #[inline]
    pub fn read_latency(&self) -> Option<Duration> {
        self.read_latency
    }

    /// Reads one slot into a fresh buffer. Charges one read.
    pub fn read_page(&mut self, id: PageId) -> Result<Vec<u8>, StorageError> {
        let mut buf = Vec::new();
        self.read_page_into(id, &mut buf)?;
        Ok(buf)
    }

    /// Page reads charged so far.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Page writes charged so far.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

impl PageSource for PageFile {
    /// Overwrites an existing page in place. Charges one write.
    fn write_page(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        let off = self.slot_offset(id)?;
        self.write_slot_at(off, payload)
    }

    /// Reads one slot into `buf` (resized to `slot_bytes`). Charges one
    /// read. When a read latency is injected, the sleep happens *before*
    /// the read, modelling positioning time; open-time chain recovery
    /// (`read_slot_uncounted`) stays undelayed, matching its
    /// uncounted status.
    fn read_page_into(&mut self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.pread_slot(id, buf, true, false)?;
        self.reads += 1;
        Ok(())
    }

    /// Appends one encoded page (at most `slot_bytes` long; zero-padded)
    /// and returns its id. Charges one write.
    fn append_page(&mut self, payload: &[u8]) -> Result<PageId, StorageError> {
        let id = PageId(self.header.page_count);
        self.write_slot_at(self.slot_start(id), payload)?;
        self.header.page_count += 1;
        Ok(id)
    }

    /// Allocates a slot for `payload`: pops the free-chain head and
    /// overwrites it in place if a released page exists
    /// (**reuse-before-append**), appends a fresh slot otherwise. Charges
    /// one write either way.
    fn allocate(&mut self, payload: &[u8]) -> Result<PageId, StorageError> {
        match self.free.pop() {
            Some(id) => {
                if let Err(e) = self.write_page(id, payload) {
                    self.free.undo_pop(id); // failed: the slot is still free
                    return Err(e);
                }
                self.free.commit_pop(id);
                self.header.free_head = self.free.head();
                Ok(id)
            }
            None => self.append_page(payload),
        }
    }

    /// Releases a page onto the free chain: overwrites its slot with a
    /// chain marker linking to the previous head and makes it the new
    /// head. Charges one write. Double releases and out-of-range pages
    /// are typed errors.
    fn release(&mut self, id: PageId) -> Result<(), StorageError> {
        let off = self.slot_offset(id)?;
        if self.free.contains(id) {
            return Err(StorageError::Corrupt(format!("double release of {id}")));
        }
        let slot = self.slot_bytes();
        let mut marker = std::mem::take(&mut self.marker);
        codec::encode_free_page(self.free.head(), slot, &mut marker)?;
        let res = self.write_slot_at(off, &marker);
        self.marker = marker;
        res?;
        self.free.push_released(id)?;
        self.header.free_head = Some(id);
        Ok(())
    }

    fn set_free_list(&mut self, free: &[PageId]) -> Result<(), StorageError> {
        for &id in free {
            if id.0 >= self.header.page_count {
                return Err(StorageError::Corrupt(format!(
                    "free list references page {id} out of range of a {}-page file",
                    self.header.page_count
                )));
            }
        }
        if let Err(e) = self.free.set_list(free) {
            self.header.free_head = None;
            return Err(e);
        }
        self.header.free_head = self.free.head();
        Ok(())
    }

    #[inline]
    fn page_count(&self) -> u32 {
        self.header.page_count
    }

    /// Logical page size in bytes (the accounting unit).
    #[inline]
    fn page_bytes(&self) -> usize {
        self.header.page_bytes as usize
    }

    #[inline]
    fn slot_bytes(&self) -> usize {
        self.header.slot_bytes as usize
    }

    /// The on-disk entry format recorded in the header.
    #[inline]
    fn entry_format(&self) -> EntryFormat {
        self.header.entry_format()
    }

    #[inline]
    fn meta(&self) -> &[u8; META_BYTES] {
        &self.header.meta
    }

    fn set_meta(&mut self, meta: [u8; META_BYTES]) {
        self.header.meta = meta;
    }

    #[inline]
    fn free_pages(&self) -> &[PageId] {
        self.free.as_slice()
    }

    /// Writes the in-memory header (page count, metadata) through the OS;
    /// not synced (trait docs).
    fn flush(&mut self) -> Result<(), StorageError> {
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&self.header.encode())?;
        self.file.flush()?;
        Ok(())
    }

    /// Resets the read/write counters (e.g. after building, before
    /// measuring — same contract as [`crate::PageStore::reset_io`]).
    fn reset_io(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }

    /// Feeds every page to `sink` in id order through
    /// [`scan_pages`](crate::scan::scan_pages) — the read an open does:
    /// one positional read per page (paying the injected latency exactly
    /// as [`PageFile::read_page_into`] does), overlapped when the reads
    /// are what the scan waits for. Charges one read per page handed to
    /// the sink, as the same pages read one by one would.
    fn scan(
        &mut self,
        mut sink: impl FnMut(PageId, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let (file, mut delivered) = (&*self, 0);
        let res = crate::scan::scan_pages(
            file.page_count(),
            |id, buf| file.read_page_at(id, buf),
            |id, bytes| {
                delivered += 1;
                sink(id, bytes)
            },
        );
        self.reads += delivered; // per page sunk, not per read made
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::temp::demo::{demo_file, payload};
    use crate::temp::TempDir;

    #[test]
    fn create_append_reopen_read() {
        let dir = TempDir::new("pagefile").unwrap();
        let path = {
            let f = demo_file(&dir, "t.rsj", 3);
            f.path().to_path_buf()
        };
        let mut f = PageFile::open(&path).unwrap();
        assert_eq!(f.page_count(), 3);
        assert_eq!(f.page_bytes(), 1024);
        assert_eq!(f.meta(), &[9; META_BYTES]);
        let node = codec::decode_node(&f.read_page(PageId(2)).unwrap()).unwrap();
        assert_eq!(node.entries[0].child, 2);
        assert_eq!(f.reads(), 1);
        f.reset_io();
        assert_eq!(f.reads(), 0);
    }

    #[test]
    fn out_of_range_read_is_a_typed_error() {
        let dir = TempDir::new("pagefile").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 2);
        assert!(matches!(
            f.read_page(PageId(2)).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn page_size_check() {
        let dir = TempDir::new("pagefile").unwrap();
        let f = demo_file(&dir, "t.rsj", 1);
        assert!(f.check_page_bytes(1024).is_ok());
        assert!(matches!(
            f.check_page_bytes(4096).unwrap_err(),
            StorageError::PageSizeMismatch {
                expected: 4096,
                found: 1024
            }
        ));
    }

    #[test]
    fn write_page_overwrites_in_place() {
        let dir = TempDir::new("pagefile").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 2);
        let slot = f.slot_bytes();
        let node = codec::DiskNode {
            level: 0,
            entries: vec![codec::DiskEntry {
                rect: [9.0, 9.0, 10.0, 10.0],
                child: 99,
            }],
        };
        let mut buf = Vec::new();
        codec::encode_node(&node, slot, &mut buf).unwrap();
        f.write_page(PageId(0), &buf).unwrap();
        assert_eq!(f.writes(), 3, "two appends plus one overwrite");
        let got = codec::decode_node(&f.read_page(PageId(0)).unwrap()).unwrap();
        assert_eq!(got, node);
    }

    // --- Write path: the persistent free-page list.

    #[test]
    fn release_then_allocate_reuses_before_append() {
        let dir = TempDir::new("freelist").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 4);
        let slot = f.slot_bytes();
        assert_eq!(f.free_count(), 0);
        f.release(PageId(1)).unwrap();
        f.release(PageId(3)).unwrap();
        assert_eq!(f.free_head(), Some(PageId(3)));
        assert_eq!(f.free_pages(), &[PageId(1), PageId(3)]);
        // Reuse LIFO: 3 first, then 1, then append.
        assert_eq!(f.allocate(&payload(30, slot)).unwrap(), PageId(3));
        assert_eq!(f.allocate(&payload(10, slot)).unwrap(), PageId(1));
        assert_eq!(f.allocate(&payload(40, slot)).unwrap(), PageId(4));
        assert_eq!(f.page_count(), 5, "one append after two reuses");
        let got = codec::decode_node(&f.read_page(PageId(3)).unwrap()).unwrap();
        assert_eq!(got.entries[0].child, 30);
    }

    #[test]
    fn free_chain_survives_reopen() {
        let dir = TempDir::new("freelist").unwrap();
        let path = {
            let mut f = demo_file(&dir, "t.rsj", 5);
            f.release(PageId(2)).unwrap();
            f.release(PageId(0)).unwrap();
            f.release(PageId(4)).unwrap();
            f.flush().unwrap();
            f.path().to_path_buf()
        };
        // Read-only open sees the same chain.
        let f = PageFile::open(&path).unwrap();
        assert_eq!(f.free_pages(), &[PageId(2), PageId(0), PageId(4)]);
        drop(f);
        // Writable reopen allocates in the same LIFO order.
        let mut f = PageFile::open_rw(&path).unwrap();
        let slot = f.slot_bytes();
        assert_eq!(f.allocate(&payload(1, slot)).unwrap(), PageId(4));
        assert_eq!(f.allocate(&payload(2, slot)).unwrap(), PageId(0));
        f.flush().unwrap();
        drop(f);
        let f = PageFile::open(&path).unwrap();
        assert_eq!(f.free_pages(), &[PageId(2)]);
    }

    #[test]
    fn double_release_and_out_of_range_are_typed_errors() {
        let dir = TempDir::new("freelist").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 2);
        f.release(PageId(0)).unwrap();
        assert!(matches!(
            f.release(PageId(0)).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        assert!(matches!(
            f.release(PageId(9)).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn duplicate_free_list_entries_are_rejected() {
        let dir = TempDir::new("freelist").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 3);
        assert!(matches!(
            f.set_free_list(&[PageId(1), PageId(1)]).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        // The failed install leaves a coherent (empty) chain behind.
        assert_eq!(f.free_count(), 0);
        assert_eq!(f.free_head(), None);
        f.set_free_list(&[PageId(1), PageId(2)]).unwrap();
        assert_eq!(f.free_head(), Some(PageId(2)));
    }

    #[test]
    fn corrupt_free_chain_is_rejected_on_open() {
        use std::io::{Seek, SeekFrom, Write};
        let dir = TempDir::new("freelist").unwrap();
        let path = {
            let mut f = demo_file(&dir, "t.rsj", 3);
            f.release(PageId(1)).unwrap();
            f.flush().unwrap();
            f.path().to_path_buf()
        };
        // Point the marker of page 1 at itself: a cycle.
        let (slot, off) = {
            let f = PageFile::open(&path).unwrap();
            (f.slot_bytes() as u64, HEADER_BYTES as u64)
        };
        let mut raw = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        raw.seek(SeekFrom::Start(off + slot + 4)).unwrap();
        raw.write_all(&2u32.to_le_bytes()).unwrap(); // next = page 1 (self)
        drop(raw);
        assert!(matches!(
            PageFile::open(&path).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        // And a chain head pointing at a live page is rejected too.
        let mut raw = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        raw.seek(SeekFrom::Start(20)).unwrap();
        raw.write_all(&1u32.to_le_bytes()).unwrap(); // head = page 0 (live)
        drop(raw);
        assert!(matches!(
            PageFile::open(&path).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }
}
