//! Opening a tree is one ordered page scan (`rsj_storage::scan`) whose
//! reads are overlapped only when they are what the open waits for. The
//! schedule must not be observable in what the open builds or reports:
//!
//! * a churned tree — free markers mid-file — loads page for page the
//!   same through a slow handle
//!   (overlapped reads) and a fast one (serial reads), free list and its
//!   order included, at one charged read per page, and joins SJ4 to
//!   identical `JoinStats`;
//! * a corrupt file fails with the same error, variant and message, down
//!   both sides — whether the corruption is caught before the scan (bad
//!   root, truncation), by the sink at a mid-file page (impossible entry
//!   count) or by `validate()` after it (reference cycle).

mod common;

use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Duration;

use common::sorted_ids;
use rsj::datagen::synthetic::uniform_rects;
use rsj::prelude::*;
use rsj_storage::codec::{HEADER_BYTES, SLOT_HEADER_BYTES};
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
