//! Opening a tree is one page scan (`rsj_storage::scan`) whose readers
//! read and decode pages on several threads: one per core when reads are
//! quick, the queue depth when they are what the open waits for. The
//! schedule must not be observable in what the open builds or reports:
//!
//! * a churned tree — free markers mid-file — loads page for page the
//!   same through a slow handle (queue-depth readers) and a fast one,
//!   free list and its order included, at one charged read per page, and
//!   joins SJ4 to identical `JoinStats`;
//! * a corrupt file fails with the same error, variant and message, down
//!   both sides — whether the corruption is caught before the scan (bad
//!   root, truncation), by the decode at a mid-file page (impossible entry
//!   count) or by the structural walk after it (reference cycle);
//! * a read that fails at page k is the error, on both sides, even when
//!   a later page's decode fails first.

mod common;

use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Duration;

use common::sorted_ids;
use rsj::datagen::synthetic::uniform_rects;
use rsj::prelude::*;
use rsj_storage::codec::{HEADER_BYTES, META_BYTES, SLOT_HEADER_BYTES};
use rsj_storage::scan::scan_pages;
use rsj_storage::{PageId, PageSource, StorageError, TempDir};

/// Against a decode of a few hundred bytes per page, a read this slow has
/// every probe page vote for overlap; `None` has none.
const SLOW: Option<Duration> = Some(Duration::from_micros(300));

fn open_with(path: &Path, latency: Option<Duration>) -> Result<RTree, StorageError> {
    let mut file = PageFile::open(path)?;
    file.set_read_latency(latency);
    let tree = RTree::load(&mut file)?;
    assert_eq!(file.reads(), u64::from(file.page_count()));
    Ok(tree)
}

fn assert_page_identical(got: &RTree, want: &RTree, tag: &str) {
    assert_eq!(got.allocated_pages(), want.allocated_pages(), "{tag}");
    assert_eq!(got.root(), want.root(), "{tag}");
    assert_eq!(got.params(), want.params(), "{tag}");
    assert_eq!(got.len(), want.len(), "{tag}");
    assert_eq!(
        got.page_store().free_pages(),
        want.page_store().free_pages(),
        "{tag}: free list and its order"
    );
    for id in (0..want.allocated_pages() as u32).map(PageId) {
        assert_eq!(got.node(id), want.node(id), "{tag}: page {id}");
    }
}

/// R churned until released pages sit between live ones, and a plain S.
fn fixture() -> (RTree, RTree) {
    let objs = uniform_rects(4000, 6.0, 21);
    let mut r = common::build_tree(&objs, common::PAGE);
    for o in objs.iter().filter(|o| o.id % 5 != 0) {
        assert!(r.delete(&o.mbr, DataId(o.id)));
    }
    for o in objs.iter().filter(|o| o.id % 5 == 1) {
        r.insert(o.mbr, DataId(o.id));
    }
    r.validate().unwrap();
    let free = r.page_store().free_pages();
    let last_live = (0..r.allocated_pages())
        .rev()
        .find(|&p| !free.contains(&PageId(p as u32)))
        .unwrap();
    let mid_file = free.iter().filter(|p| p.index() < last_live).count();
    assert!(mid_file >= 8, "only {mid_file} free markers mid-file");
    assert!(
        r.allocated_pages() > 100 && r.height() >= 2,
        "{} pages, height {}",
        r.allocated_pages(),
        r.height()
    );
    (
        r,
        common::build_tree(&uniform_rects(3000, 6.0, 22), common::PAGE),
    )
}

#[test]
fn churned_tree_opens_page_identical_down_both_sides() {
    let (r, s) = fixture();
    let dir = TempDir::new("open-scan").unwrap();
    let path = dir.file("r.rsj");
    r.save_to(&path).unwrap();

    let cfg = JoinConfig::with_buffer(16 * common::PAGE);
    let want = spatial_join(&r, &s, JoinPlan::sj4(), &cfg);
    assert!(want.stats.result_pairs > 0);
    for (tag, latency) in [("fast", None), ("slow", SLOW)] {
        let opened = open_with(&path, latency);
        let opened = opened.unwrap();
        assert_page_identical(&opened, &r, tag);
        let got = spatial_join(&opened, &s, JoinPlan::sj4(), &cfg);
        assert_eq!(got.stats, want.stats, "{tag}");
        assert_eq!(sorted_ids(&got.pairs), sorted_ids(&want.pairs), "{tag}");
    }
}

/// Overwrites `bytes` at `offset` of the file at `path`.
fn poke(path: &Path, offset: u64, bytes: &[u8]) {
    let mut f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(bytes).unwrap();
}

/// Both sides must fail, and fail alike; returns the shared error text.
fn same_error(tag: &str, open: impl Fn(Option<Duration>) -> Result<RTree, StorageError>) -> String {
    let fast = format!("{:?}", open(None).expect_err(tag));
    let slow = format!("{:?}", open(SLOW).expect_err(tag));
    assert_eq!(slow, fast, "{tag}");
    fast
}

/// A live mid-file page of `tree` well past the scan's probe.
fn mid_file_node(tree: &RTree) -> PageId {
    let free = tree.page_store().free_pages();
    (tree.allocated_pages() as u32 / 2..)
        .map(PageId)
        .find(|p| !free.contains(p))
        .unwrap()
}

#[test]
fn corrupt_files_fail_alike_down_both_sides() {
    let (r, _) = fixture();
    let dir = TempDir::new("open-scan-corrupt").unwrap();
    let saved = |name: &str| {
        let path = dir.file(name);
        let slot = r.save_to(&path).unwrap().slot_bytes() as u64;
        (path, slot)
    };
    let slot_offset = |id: PageId, slot: u64| HEADER_BYTES as u64 + u64::from(id.0) * slot;

    // Caught before the scan: a root outside the file.
    let (path, _) = saved("root.rsj");
    let mut file = PageFile::open_rw(&path).unwrap();
    let mut meta = *file.meta();
    meta[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    file.set_meta(meta);
    file.flush().unwrap();
    drop(file);
    let err = same_error("root", |l| open_with(&path, l));
    assert!(
        err.starts_with("Corrupt") && err.contains("root page"),
        "{err}"
    );

    // Caught before the scan: a file one byte short.
    let (path, _) = saved("short.rsj");
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 1).unwrap();
    drop(f);
    let err = same_error("truncated", |l| open_with(&path, l));
    assert!(err.starts_with("Truncated"), "{err}");

    // Caught after the scan, by validate(): the root's first entry points
    // back at the root.
    let (path, slot) = saved("cycle.rsj");
    let child_ref = slot_offset(r.root(), slot) + SLOT_HEADER_BYTES as u64 + 32;
    poke(&path, child_ref, &u64::from(r.root().0).to_le_bytes());
    let err = same_error("cycle", |l| open_with(&path, l));
    assert!(err.starts_with("Corrupt"), "{err}");

    // Caught by the sink mid-scan: a node claiming more entries than a
    // slot can hold.
    let victim = mid_file_node(&r);
    let (path, slot) = saved("count.rsj");
    poke(
        &path,
        slot_offset(victim, slot) + 4,
        &u32::MAX.to_le_bytes(),
    );
    let err = same_error("entry count", |l| open_with(&path, l));
    assert!(err.starts_with("Corrupt"), "{err}");
}

/// A page file whose scan reads its slots from memory, each read taking
/// `latency`, except page `fail_at`, whose read fails — later than every
/// other read ends. Everything else is the file's.
struct FailingRead {
    file: PageFile,
    slots: Vec<Vec<u8>>,
    latency: Option<Duration>,
    fail_at: PageId,
}

impl FailingRead {
    fn open(path: &Path, latency: Option<Duration>, fail_at: PageId) -> Self {
        let mut file = PageFile::open(path).unwrap();
        let slots = (0..file.page_count())
            .map(|id| file.read_page(PageId(id)).unwrap())
            .collect();
        FailingRead {
            file,
            slots,
            latency,
            fail_at,
        }
    }
}

impl PageSource for FailingRead {
    fn write_page(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        self.file.write_page(id, payload)
    }
    fn read_page_into(&mut self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.file.read_page_into(id, buf)
    }
    fn append_page(&mut self, payload: &[u8]) -> Result<PageId, StorageError> {
        self.file.append_page(payload)
    }
    fn set_free_list(&mut self, free: &[PageId]) -> Result<(), StorageError> {
        self.file.set_free_list(free)
    }
    fn page_count(&self) -> u32 {
        self.file.page_count()
    }
    fn page_bytes(&self) -> usize {
        self.file.page_bytes()
    }
    fn slot_bytes(&self) -> usize {
        self.file.slot_bytes()
    }
    fn meta(&self) -> &[u8; META_BYTES] {
        self.file.meta()
    }
    fn set_meta(&mut self, meta: [u8; META_BYTES]) {
        self.file.set_meta(meta)
    }
    fn free_pages(&self) -> &[PageId] {
        self.file.free_pages()
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.file.flush()
    }
    fn reset_io(&mut self) {
        self.file.reset_io()
    }
    fn scan<T: Send>(
        &mut self,
        decode: impl Fn(PageId, &[u8]) -> Result<T, StorageError> + Sync,
    ) -> Result<Vec<T>, StorageError> {
        let read_at = |id: PageId, buf: &mut Vec<u8>| {
            if id == self.fail_at {
                std::thread::sleep(Duration::from_millis(5));
                return Err(StorageError::Io(std::io::Error::other(format!(
                    "injected read failure at page {id}"
                ))));
            }
            if let Some(latency) = self.latency {
                std::thread::sleep(latency);
            }
            buf.clone_from(&self.slots[id.index()]);
            Ok(())
        };
        scan_pages(self.page_count(), read_at, decode)
    }
}

#[test]
fn a_failed_read_wins_over_a_later_corrupt_page_down_both_sides() {
    let (r, _) = fixture();
    let dir = TempDir::new("open-scan-read").unwrap();
    let path = dir.file("r.rsj");
    let slot = r.save_to(&path).unwrap().slot_bytes() as u64;
    let k = mid_file_node(&r);
    let free = r.page_store().free_pages();
    let later = (k.0 + 2..).map(PageId).find(|p| !free.contains(p)).unwrap();
    let slot_offset = HEADER_BYTES as u64 + u64::from(later.0) * slot;
    poke(&path, slot_offset + 4, &u32::MAX.to_le_bytes());
    let open = |latency| RTree::load(&mut FailingRead::open(&path, latency, k));
    // Without the failing read, the corrupt page is the error.
    let corrupt = format!("{:?}", RTree::open_from(&path).expect_err("corrupt"));
    assert!(corrupt.starts_with("Corrupt"), "{corrupt}");
    let err = same_error("failed read", open);
    assert!(
        err.starts_with("Io") && err.contains(&format!("injected read failure at page {k}")),
        "{err}"
    );
}
