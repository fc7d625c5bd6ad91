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
//!
//! A join service opens its two trees in one scan (`RTree::open_all`),
//! and that must not be observable either:
//!
//! * the pair loads page for page as two single opens do, through a slow
//!   and a fast handle pair and through `JoinService::open`, at one
//!   charged read per page;
//! * the scan has at most `QUEUE_DEPTH` reads in flight across both
//!   files, and one reader per core when the files are quick;
//! * the error is the one of opening R, then S: R's failing read wins
//!   over an S failure that happened before it, R's structure over S's
//!   corrupt page, and a corrupt S fails with S's own error when R is
//!   sound.

mod common;

use std::collections::HashSet;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use common::sorted_ids;
use rsj::datagen::synthetic::uniform_rects;
use rsj::prelude::*;
use rsj_storage::codec::{HEADER_BYTES, META_BYTES, SLOT_HEADER_BYTES};
use rsj_storage::{cores, PageId, PageSource, StorageError, TempDir, QUEUE_DEPTH};

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
    fn scan_read(&self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
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
    }
    fn charge_scan(&mut self, reads: u64) {
        self.file.charge_scan(reads)
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

/// `fixture()`'s R and S saved side by side; returns their paths.
fn saved_pair(dir: &TempDir) -> (RTree, RTree, std::path::PathBuf, std::path::PathBuf) {
    let (r, s) = fixture();
    let (r_path, s_path) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r.save_to(&r_path).unwrap();
    s.save_to(&s_path).unwrap();
    (r, s, r_path, s_path)
}

#[test]
fn a_served_pair_opens_page_identical_to_two_single_opens() {
    let dir = TempDir::new("open-scan-pair").unwrap();
    let (r, s, r_path, s_path) = saved_pair(&dir);
    let singles = [
        RTree::open_from(&r_path).unwrap(),
        RTree::open_from(&s_path).unwrap(),
    ];
    assert_page_identical(&singles[0], &r, "single R");
    assert_page_identical(&singles[1], &s, "single S");
    for (tag, latency) in [("fast", None), ("slow", SLOW)] {
        let mut files = [&r_path, &s_path].map(|p| PageFile::open(p).unwrap());
        for file in &mut files {
            file.set_read_latency(latency);
        }
        let [r_file, s_file] = &mut files;
        let [got_r, got_s] = RTree::load_all([r_file, s_file]).unwrap();
        assert_page_identical(&got_r, &singles[0], &format!("{tag} R"));
        assert_page_identical(&got_s, &singles[1], &format!("{tag} S"));
        for file in &files {
            assert_eq!(file.reads(), u64::from(file.page_count()), "{tag}");
        }
    }
    let [got_r, got_s] = RTree::open_all([r_path.as_path(), s_path.as_path()]).unwrap();
    assert_page_identical(&got_r, &singles[0], "open_all R");
    assert_page_identical(&got_s, &singles[1], "open_all S");
    let service = JoinService::open(&r_path, &s_path, ServiceConfig::default()).unwrap();
    let (served_r, served_s) = service.trees();
    assert_page_identical(served_r, &singles[0], "served R");
    assert_page_identical(served_s, &singles[1], "served S");
}

/// What the scan of a pair of [`Watched`] files did, seen from inside
/// their reads.
#[derive(Default)]
struct Meter {
    in_flight: AtomicUsize,
    deepest: AtomicUsize,
    readers: Mutex<HashSet<ThreadId>>,
    /// `(file, page)` of every read.
    reads: Mutex<Vec<(usize, u32)>>,
    /// The files whose injected failure has happened, in time order.
    failed: Mutex<Vec<usize>>,
    failure: Condvar,
}

/// File `index` of a pair: a page file whose scan reads its slots from
/// memory, each read taking `latency`, through a [`Meter`] the pair
/// shares. A read of `fail.0` fails — once the other file's failure has
/// happened when `fail.1` is set.
struct Watched<'m> {
    file: PageFile,
    slots: Vec<Vec<u8>>,
    latency: Option<Duration>,
    meter: &'m Meter,
    index: usize,
    fail: Option<(PageId, bool)>,
}

impl<'m> Watched<'m> {
    fn open(path: &Path, latency: Option<Duration>, meter: &'m Meter, index: usize) -> Self {
        let mut file = PageFile::open(path).unwrap();
        let slots = (0..file.page_count())
            .map(|id| file.read_page(PageId(id)).unwrap())
            .collect();
        file.reset_io();
        Watched {
            file,
            slots,
            latency,
            meter,
            index,
            fail: None,
        }
    }

    fn failing(mut self, at: PageId, after_the_other: bool) -> Self {
        self.fail = Some((at, after_the_other));
        self
    }

    fn read(&self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        let m = self.meter;
        m.reads.lock().unwrap().push((self.index, id.0));
        m.readers
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        if let Some((at, after_the_other)) = self.fail {
            if at == id {
                let mut failed = m.failed.lock().unwrap();
                if after_the_other {
                    failed = m
                        .failure
                        .wait_timeout_while(failed, Duration::from_secs(10), |f| f.is_empty())
                        .unwrap()
                        .0;
                }
                failed.push(self.index);
                m.failure.notify_all();
                return Err(StorageError::Io(std::io::Error::other(format!(
                    "injected read failure at page {id}"
                ))));
            }
        }
        if let Some(latency) = self.latency {
            std::thread::sleep(latency);
        }
        buf.clone_from(&self.slots[id.index()]);
        Ok(())
    }
}

impl PageSource for Watched<'_> {
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
    fn scan_read(&self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        let m = self.meter;
        let now = m.in_flight.fetch_add(1, SeqCst) + 1;
        m.deepest.fetch_max(now, SeqCst);
        let read = self.read(id, buf);
        m.in_flight.fetch_sub(1, SeqCst);
        read
    }
    fn charge_scan(&mut self, reads: u64) {
        self.file.charge_scan(reads)
    }
}

#[test]
fn a_pair_scan_keeps_the_queue_depth_across_both_files() {
    let dir = TempDir::new("open-scan-depth").unwrap();
    let (r, s, r_path, s_path) = saved_pair(&dir);
    for (tag, latency) in [("fast", None), ("slow", SLOW)] {
        let meter = Meter::default();
        let mut r_file = Watched::open(&r_path, latency, &meter, 0);
        let mut s_file = Watched::open(&s_path, latency, &meter, 1);
        let [got_r, got_s] = RTree::load_all([&mut r_file, &mut s_file]).unwrap();
        assert_page_identical(&got_r, &r, &format!("{tag} R"));
        assert_page_identical(&got_s, &s, &format!("{tag} S"));
        // One read per page of each file, charged to its own file.
        let mut reads = meter.reads.lock().unwrap().clone();
        reads.sort_unstable();
        let want: Vec<(usize, u32)> = [&r_file, &s_file]
            .iter()
            .enumerate()
            .flat_map(|(f, file)| (0..file.page_count()).map(move |id| (f, id)))
            .collect();
        assert_eq!(reads, want, "{tag}");
        assert_eq!(r_file.file.reads(), u64::from(r_file.page_count()), "{tag}");
        assert_eq!(s_file.file.reads(), u64::from(s_file.page_count()), "{tag}");
        let deepest = meter.deepest.load(SeqCst);
        let readers = meter.readers.lock().unwrap().len();
        assert!(deepest <= QUEUE_DEPTH, "{tag}: {deepest} reads in flight");
        assert!(readers <= QUEUE_DEPTH, "{tag}: {readers} readers");
        if latency.is_some() {
            assert!(deepest >= 2, "{tag}: the reads never overlapped");
        } else {
            let per_core = cores().min(QUEUE_DEPTH);
            assert!(
                readers <= per_core,
                "{tag}: {readers} readers, {per_core} cores"
            );
        }
    }
}

#[test]
fn rs_failing_read_wins_over_an_s_failure_that_happened_first() {
    let dir = TempDir::new("open-scan-pair-read").unwrap();
    let (r, _, r_path, s_path) = saved_pair(&dir);
    let k = mid_file_node(&r);
    // R alone, as a sequential open would meet it first.
    let alone = Meter::default();
    let mut r_file = Watched::open(&r_path, SLOW, &alone, 0).failing(k, false);
    let want = format!("{:?}", RTree::load(&mut r_file).expect_err("R alone"));
    assert!(
        want.starts_with("Io") && want.contains(&format!("injected read failure at page {k}")),
        "{want}"
    );
    // The pair: R's read of page k waits until S's first page has failed.
    // Slow reads start queue-depth readers, so S's page is claimed while
    // R's read waits.
    let meter = Meter::default();
    let mut r_file = Watched::open(&r_path, SLOW, &meter, 0).failing(k, true);
    let mut s_file = Watched::open(&s_path, SLOW, &meter, 1).failing(PageId(0), false);
    let got = format!(
        "{:?}",
        RTree::load_all([&mut r_file, &mut s_file]).expect_err("pair")
    );
    assert_eq!(*meter.failed.lock().unwrap(), [1, 0], "S failed first");
    assert_eq!(got, want);
}

#[test]
fn a_pair_fails_with_the_error_of_opening_r_then_s() {
    let dir = TempDir::new("open-scan-pair-corrupt").unwrap();
    let (r, s, r_path, s_path) = saved_pair(&dir);
    let paths = || [r_path.as_path(), s_path.as_path()];
    let slot = PageFile::open(&s_path).unwrap().slot_bytes() as u64;
    let victim = mid_file_node(&s);
    poke(
        &s_path,
        HEADER_BYTES as u64 + u64::from(victim.0) * slot + 4,
        &u32::MAX.to_le_bytes(),
    );
    let want = format!("{:?}", RTree::open_from(&s_path).expect_err("S alone"));
    assert!(want.starts_with("Corrupt"), "{want}");
    assert_eq!(
        format!("{:?}", RTree::open_all(paths()).expect_err("pair")),
        want
    );
    for latency in [None, SLOW] {
        let mut files = paths().map(|p| PageFile::open(p).unwrap());
        for file in &mut files {
            file.set_read_latency(latency);
        }
        let [r_file, s_file] = &mut files;
        let got = RTree::load_all([r_file, s_file]).expect_err("pair");
        assert_eq!(format!("{got:?}"), want, "latency {latency:?}");
    }
    match JoinService::open(&r_path, &s_path, ServiceConfig::default()) {
        Err(ServiceError::Storage(err)) => assert_eq!(format!("{err:?}"), want),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("a corrupt S served"),
    }

    // R's structure fails only after every page is in, S's page fails
    // mid-scan: R's error, as when R is opened first.
    let r_slot = PageFile::open(&r_path).unwrap().slot_bytes() as u64;
    let root_child =
        HEADER_BYTES as u64 + u64::from(r.root().0) * r_slot + SLOT_HEADER_BYTES as u64;
    poke(
        &r_path,
        root_child + 32,
        &u64::from(r.root().0).to_le_bytes(),
    );
    let cycle = format!("{:?}", RTree::open_from(&r_path).expect_err("R alone"));
    assert!(cycle.starts_with("Corrupt") && cycle != want, "{cycle}");
    assert_eq!(
        format!("{:?}", RTree::open_all(paths()).expect_err("both")),
        cycle
    );
    r.save_to(&r_path).unwrap();

    // S's header fails before any page is read: with R sound, S's error;
    // with R corrupt too, R's, as when R is opened first.
    let len = std::fs::metadata(&s_path).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&s_path)
        .unwrap();
    f.set_len(len - 1).unwrap();
    drop(f);
    let short = format!("{:?}", RTree::open_all(paths()).expect_err("short S"));
    assert!(short.starts_with("Truncated"), "{short}");
    poke(
        &r_path,
        HEADER_BYTES as u64 + u64::from(mid_file_node(&r).0) * r_slot + 4,
        &u32::MAX.to_le_bytes(),
    );
    let r_first = format!("{:?}", RTree::open_from(&r_path).expect_err("R alone"));
    assert_eq!(
        format!("{:?}", RTree::open_all(paths()).expect_err("both")),
        r_first
    );
}
