//! Persistent page files.
//!
//! [`PageFile`] owns a real `std::fs::File` in the format of
//! [`crate::codec`]: header, then fixed-size page slots. Every page read is
//! one positional read, every page write one positional write of the
//! whole slot, and both are counted, so a cold-opened tree pays genuine
//! file I/O for every buffer miss; the whole-file read an open does is
//! a page scan ([`crate::scan`]), which reads and decodes pages on several
//! threads through [`PageSource::scan_read`]. [`PageSource`] — declared
//! here — is what a page file can do; [`PageFile`] is the one the
//! file-access stack's read strategies ([`crate::FileAccess`]) and every
//! open read.
//!
//! A page file chooses no page ids: its writers (a save, a bulk build, an
//! update handle's flush) write slots the tree's [`crate::PageStore`]
//! already numbered, in place or as the next append, and then set the
//! free list and the metadata before [`PageSource::flush`] writes the
//! header.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::codec::{self, FileHeader, StorageError, HEADER_BYTES, META_BYTES, SLOT_HEADER_BYTES};
use crate::page::PageId;

/// A store's pages as a physical page file: in-place page overwrite,
/// append, the persistent free list, metadata and flush — what the save,
/// bulk-build and update paths write through — plus what
/// [`crate::FileAccess`] reads through: the positional read of an
/// open's page scan and counter reset. One store is one file.
/// Implemented by [`PageFile`]; the trait is the seam another source (a
/// fault-injecting one, say) plugs into.
pub trait PageSource: Sync {
    /// Overwrites an existing page; a page past the end is a typed error.
    fn write_page(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError>;

    /// Reads one page slot into `buf`.
    fn read_page_into(&mut self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError>;

    /// Appends the next page in id order (the save protocol: every page
    /// once, then free list, metadata, flush) and returns its id.
    fn append_page(&mut self, payload: &[u8]) -> Result<PageId, StorageError>;

    /// Registers `free` as the free list (oldest release first) without
    /// writing anything: the writer has already encoded the chain markers
    /// into the corresponding slots. The head is persisted with the next
    /// [`PageSource::flush`].
    fn set_free_list(&mut self, free: &[PageId]) -> Result<(), StorageError>;

    /// Number of page slots.
    fn page_count(&self) -> u32;

    /// Logical page size in bytes.
    fn page_bytes(&self) -> usize;

    /// Physical bytes per page slot.
    fn slot_bytes(&self) -> usize;

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

    /// One read of a page scan ([`crate::scan::scan_sources`], what
    /// opening trees does): page `id`'s slot into `buf`, through a shared
    /// reference, so that any number of a scan's readers can call it at
    /// once. It pays what a counted read pays (the injected latency) but
    /// charges nothing: the scan counts its reads and hands the count to
    /// [`PageSource::charge_scan`] when it ends.
    fn scan_read(&self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError>;

    /// Charges `reads` page reads a scan made through
    /// [`PageSource::scan_read`].
    fn charge_scan(&mut self, reads: u64);
}

/// Walks and validates the persisted free chain from `head` — every link
/// in range, landing on a genuine free marker, terminating (cycle-guarded
/// by the page count) — and returns it oldest release first (head last).
/// `read_slot` reads the raw slot of a page id.
fn walk_free_chain(
    head: Option<PageId>,
    page_count: u32,
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
        match codec::decode_page(&buf)? {
            codec::DiskPage::Free { next } => {
                rev.push(id);
                cur = next;
            }
            codec::DiskPage::Node(_) => {
                return Err(StorageError::Corrupt(format!(
                    "free chain links live page {id}"
                )));
            }
        }
    }
    rev.reverse();
    Ok(rev)
}

/// A page file: fixed header plus `page_count` slots of `slot_bytes` each.
///
/// The header (including the page count and the owner metadata) lives in
/// memory and is persisted by [`PageFile::flush`]; `create → append_page*
/// → set_meta → flush` is the write protocol (the R-tree crate's
/// `save_to` drives it). Read/write counters mirror [`crate::PageStore`]'s.
///
/// **Free-page list**: released slots are chained through the file — each
/// free slot stores the next free page, the header stores the chain head.
/// The file does not allocate: the tree's [`crate::PageStore`] reuses its
/// free pages LIFO before appending, its writer encodes the markers into
/// the freed slots, and [`PageFile::set_free_list`] records the list,
/// whose head reaches the disk with the next [`PageFile::flush`]. The
/// chain is rebuilt and validated on open.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    header: FileHeader,
    /// The free list, oldest release first (head last).
    free: Vec<PageId>,
    reads: u64,
    writes: u64,
    /// Slot-sized block a write lays its payload and zero padding into,
    /// so the steady-state append/overwrite path allocates nothing and
    /// makes one write call (lazily sized on first use — read-only files
    /// never pay for it).
    slot_buf: Vec<u8>,
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

/// Writes all of `buf` at `off` without moving the seek cursor: one
/// positional write per call in the common case.
#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], off: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, off)
}

#[cfg(windows)]
fn write_all_at(file: &File, mut buf: &[u8], mut off: u64) -> std::io::Result<()> {
    use std::io::ErrorKind;
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_write(buf, off) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => {
                buf = &buf[n..];
                off += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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
        if page_bytes == 0 {
            return Err(StorageError::Corrupt("page size of zero".into()));
        }
        if slot_bytes < SLOT_HEADER_BYTES {
            return Err(StorageError::Corrupt(format!(
                "slot size {slot_bytes} below the {SLOT_HEADER_BYTES}-byte slot header"
            )));
        }
        let header = FileHeader {
            page_bytes: u32::try_from(page_bytes)
                .map_err(|_| StorageError::Corrupt("page size exceeds u32".into()))?,
            slot_bytes: u32::try_from(slot_bytes)
                .map_err(|_| StorageError::Corrupt("slot size exceeds u32".into()))?,
            page_count: 0,
            free_head: None,
            meta: [0; META_BYTES],
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        write_all_at(&file, &header.encode(), 0)?;
        Ok(PageFile {
            file,
            path: path.as_ref().to_path_buf(),
            header,
            free: Vec::new(),
            reads: 0,
            writes: 0,
            slot_buf: Vec::new(),
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

    /// Opens an existing page file read-write — the handle an update
    /// handle's flush writes through ([`PageFile::write_page`],
    /// [`PageFile::append_page`]).
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
            free: Vec::new(),
            reads: 0,
            writes: 0,
            slot_buf: Vec::new(),
            read_latency: env_read_latency(),
        };
        // Chain recovery is open-time work, not join or update I/O:
        // uncounted and undelayed.
        pf.free = walk_free_chain(pf.header.free_head, pf.header.page_count, |id, buf| {
            pf.pread_slot(id, buf, false, false)
        })?;
        Ok(pf)
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

    /// The path this file lives at.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
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

    /// Writes `payload` at `off`, zero-padded to the slot size, as one
    /// positional write of the whole slot: the payload is laid into the
    /// file's reused slot block first.
    fn write_slot_at(&mut self, off: u64, payload: &[u8]) -> Result<(), StorageError> {
        let slot = self.slot_bytes();
        if payload.len() > slot {
            return Err(StorageError::NodeTooLarge {
                need: payload.len(),
                slot,
            });
        }
        self.slot_buf.resize(slot, 0);
        let (head, pad) = self.slot_buf.split_at_mut(payload.len());
        head.copy_from_slice(payload);
        pad.fill(0);
        write_all_at(&self.file, &self.slot_buf, off)?;
        self.writes += 1;
        Ok(())
    }

    /// Reads one slot *positionally* through a shared reference — the
    /// read the completion-queue worker pool and a scan's readers
    /// perform, any number at once on one handle. The injected latency
    /// is paid exactly as in [`PageFile::read_page_into`]; the handle's
    /// own read counter is not touched (the queue counts per lane, a
    /// scan counts its reads and charges them when it ends).
    pub(crate) fn read_page_at(&self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.pread_slot(id, buf, true, false)
    }

    /// [`PageFile::read_page_at`] bounds-checked against the *physical*
    /// file length instead of the header page count cached at open, and
    /// without the injected latency (it is a retry, not a fresh
    /// positioning). The completion-queue workers fall back to this
    /// when a demand read lands on a page an updater's flush appended
    /// through its own handle: this handle's header, cached at open,
    /// does not know the new count — only the file length does.
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
    /// Overwrites an existing page in place; a page past the end is
    /// [`StorageError::Corrupt`]. Charges one write.
    fn write_page(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        let off = self.slot_offset(id)?;
        self.write_slot_at(off, payload)
    }

    /// Reads one slot into `buf` (resized to `slot_bytes`). Charges one
    /// read. When a read latency is injected, the sleep happens *before*
    /// the read, modelling positioning time; open-time chain recovery
    /// stays undelayed, matching its uncounted status.
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

    fn set_free_list(&mut self, free: &[PageId]) -> Result<(), StorageError> {
        for &id in free {
            if id.0 >= self.header.page_count {
                return Err(StorageError::Corrupt(format!(
                    "free list references page {id} out of range of a {}-page file",
                    self.header.page_count
                )));
            }
        }
        let distinct: HashSet<PageId> = free.iter().copied().collect();
        if distinct.len() != free.len() {
            self.free.clear();
            self.header.free_head = None;
            return Err(StorageError::Corrupt(
                "free list contains a page twice".into(),
            ));
        }
        self.free = free.to_vec();
        self.header.free_head = free.last().copied();
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

    #[inline]
    fn meta(&self) -> &[u8; META_BYTES] {
        &self.header.meta
    }

    fn set_meta(&mut self, meta: [u8; META_BYTES]) {
        self.header.meta = meta;
    }

    #[inline]
    fn free_pages(&self) -> &[PageId] {
        &self.free
    }

    /// Writes the in-memory header (page count, metadata) through the OS;
    /// not synced (trait docs).
    fn flush(&mut self) -> Result<(), StorageError> {
        write_all_at(&self.file, &self.header.encode(), 0)?;
        Ok(())
    }

    /// Resets the read/write counters (e.g. after building, before
    /// measuring).
    fn reset_io(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }

    /// A scan's read: the positional read the completion queue's workers
    /// make too, with the handle's injected latency.
    fn scan_read(&self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.read_page_at(id, buf)
    }

    fn charge_scan(&mut self, reads: u64) {
        self.reads += reads;
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

    // --- The persistent free-page list.

    /// Releases `ids` in order the way a writer does: each slot becomes a
    /// marker linking to the page released before it, then the list is
    /// recorded and the header flushed.
    fn release_all(f: &mut PageFile, ids: &[PageId]) {
        let mut buf = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let next = i.checked_sub(1).map(|j| ids[j]);
            codec::encode_free_page(next, f.slot_bytes(), &mut buf).unwrap();
            f.write_page(id, &buf).unwrap();
        }
        f.set_free_list(ids).unwrap();
        f.flush().unwrap();
    }

    #[test]
    fn free_chain_survives_reopen() {
        let dir = TempDir::new("freelist").unwrap();
        let path = {
            let mut f = demo_file(&dir, "t.rsj", 5);
            release_all(&mut f, &[PageId(2), PageId(0), PageId(4)]);
            f.path().to_path_buf()
        };
        // Read-only and writable opens walk the same chain, uncounted.
        for f in [
            PageFile::open(&path).unwrap(),
            PageFile::open_rw(&path).unwrap(),
        ] {
            assert_eq!(f.free_pages(), &[PageId(2), PageId(0), PageId(4)]);
            assert_eq!(f.reads(), 0);
        }
    }

    #[test]
    fn writes_and_free_lists_past_the_end_are_typed_errors() {
        let dir = TempDir::new("freelist").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 2);
        let slot = f.slot_bytes();
        assert!(matches!(
            f.write_page(PageId(2), &payload(2, slot)).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        assert!(matches!(
            f.set_free_list(&[PageId(9)]).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        assert_eq!(f.append_page(&payload(2, slot)).unwrap(), PageId(2));
        f.write_page(PageId(2), &payload(7, slot)).unwrap();
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
        assert_eq!(f.free_pages(), &[]);
        f.set_free_list(&[PageId(1), PageId(2)]).unwrap();
        assert_eq!(f.free_pages(), &[PageId(1), PageId(2)]);
    }

    #[test]
    fn corrupt_free_chain_is_rejected_on_open() {
        use std::io::{Seek, SeekFrom, Write};
        let dir = TempDir::new("freelist").unwrap();
        let path = {
            let mut f = demo_file(&dir, "t.rsj", 3);
            release_all(&mut f, &[PageId(1)]);
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
