//! Cold starts over persistent trees: cold, warm, queued, updated.
//!
//! Builds the preset-(A) relations, saves both R*-trees to page files,
//! then runs the same SJ4 join three ways and prints the I/O story of
//! each, before updating R in place and joining it once more:
//!
//! 1. **cold** — a fresh `FileNodeAccess`: every buffer miss is a real
//!    page read;
//! 2. **warm** — the same accountant again: the LRU still holds the
//!    working set;
//! 3. **queued** — a cold `CompletionFileAccess` (the same file stack
//!    with the queued read strategy): each miss is submitted to the
//!    queue's workers while the cursor runs ahead (identical
//!    `disk_accesses`, and once drained one physical read per access);
//! 4. **update-then-rejoin** — the write path: `OpenTree` deletes and
//!    inserts against the *open* R file (reads charged through the same
//!    buffer hierarchy, dirty pages written back on eviction/flush, split
//!    pages allocated off the persistent free list), then the same SJ4
//!    joins the updated file cold — with exactly as many disk accesses as
//!    a freshly saved tree of the same content would cost.
//!
//! Run with: `cargo run --release --example cold_start`

use rsj::prelude::*;
use rsj::storage::{CompletionConfig, CompletionFileAccess, TempDir};
use rsj_storage::IoStats;

const PAGE: usize = 1024;
const BUFFER: usize = 32 * PAGE;

fn build(objs: &[rsj::datagen::SpatialObject]) -> RTree {
    let mut t = RTree::new(RTreeParams::for_page_size(PAGE));
    for o in objs {
        t.insert(o.mbr, DataId(o.id));
    }
    t
}

fn report(label: &str, io: IoStats, extra: &str) {
    println!(
        "  {label:<11} disk {:>5}  path hits {:>6}  lru hits {:>6}{}",
        io.disk_accesses, io.path_hits, io.lru_hits, extra
    );
}

fn main() {
    let data = rsj::datagen::preset(TestId::A, 0.01);
    let (r, s) = (build(&data.r), build(&data.s));
    let plan = JoinPlan::sj4();
    println!(
        "preset A: |R| = {}, |S| = {}, heights {} and {}, SJ4, {} KB buffer",
        r.len(),
        s.len(),
        r.height(),
        s.height(),
        BUFFER / 1024
    );
    // The saved files and the update-phase working copy get their own
    // subdirectories (TempDir cleanup is recursive).
    let dir = TempDir::new("cold-start").expect("temp dir");
    dir.subdir("plain").expect("subdir");
    dir.subdir("updated").expect("subdir");
    let (rp, sp) = (dir.file("plain/r.rsj"), dir.file("plain/s.rsj"));
    r.save_to(&rp).expect("save R");
    s.save_to(&sp).expect("save S");

    // Reopen everything cold from disk.
    let (rf, sf) = (
        RTree::open_from(&rp).expect("reopen R"),
        RTree::open_from(&sp).expect("reopen S"),
    );
    let heights = [rf.height() as usize, sf.height() as usize];
    let open_files = || {
        vec![
            PageFile::open(&rp).expect("open R file"),
            PageFile::open(&sp).expect("open S file"),
        ]
    };

    // 1 + 2: cold, then warm on the same accountant.
    let access = FileNodeAccess::with_capacity_pages(
        open_files(),
        BUFFER / PAGE,
        &heights,
        EvictionPolicy::Lru,
    )
    .expect("file backend");
    let (cold, access) = rsj_core::spatial_join_with_access(&rf, &sf, plan, false, access);
    println!("\n{} result pairs\n", cold.stats.result_pairs);
    report(
        "cold",
        cold.stats.io,
        &format!(
            "  ({} real page reads)",
            access.file(0).reads() + access.file(1).reads()
        ),
    );
    let (warm, _) = rsj_core::spatial_join_with_access(&rf, &sf, plan, false, access);
    report(
        "warm",
        warm.stats.io,
        &format!(
            "  ({} fewer disk accesses than cold)",
            cold.stats.io.disk_accesses - warm.stats.io.disk_accesses
        ),
    );

    // 3: queued cold run — same accounting, reads overlapped by the queue.
    let access = CompletionFileAccess::with_capacity_pages(
        open_files(),
        BUFFER / PAGE,
        &heights,
        EvictionPolicy::Lru,
        CompletionConfig::default(),
    )
    .expect("queued backend");
    let (queued, access) = rsj_core::spatial_join_with_access(&rf, &sf, plan, false, access);
    assert_eq!(
        queued.stats.io, cold.stats.io,
        "the queue never moves IoStats"
    );
    // The cursor drained the queue when the join ended.
    let reads = access.queue().total_reads();
    assert_eq!(reads, queued.stats.io.disk_accesses);
    report(
        "queued",
        queued.stats.io,
        &format!("  ({reads} physical reads once drained, one per disk access)"),
    );

    println!(
        "\nthe cold and queued runs report identical disk accesses — the\n\
         paper's metric is a property of the schedule and the buffer, not of\n\
         when the bytes were fetched."
    );

    // 4: the write path — update R *in place* on an open file, then rejoin.
    let rup = dir.file("updated/r.rsj");
    std::fs::copy(&rp, &rup).expect("copy R file");
    let mut open = rsj::rtree::OpenFileTree::open(&rup, BUFFER / PAGE).expect("open for update");
    let before_pages = open.access().file(0).page_count();
    // Delete a band of R, insert shifted copies — splits allocate from the
    // free list that CondenseTree fills.
    let band: Vec<_> = data.r.iter().take(data.r.len() / 2).collect();
    for o in &band {
        open.delete(&o.mbr, DataId(o.id)).expect("delete");
    }
    let freed = open.tree().free_page_count();
    for (k, o) in band.iter().enumerate() {
        let d = 2e-4 * ((k % 5) as f64 - 2.0);
        let r2 = rsj::geom::Rect::from_corners(o.mbr.xl + d, o.mbr.yl, o.mbr.xu + d, o.mbr.yu);
        open.insert(r2, DataId(1_000_000 + k as u64))
            .expect("insert");
    }
    open.flush().expect("flush");
    let upd_io = open.io_stats();
    let after_pages = open.access().file(0).page_count();
    println!(
        "\nupdate phase: {} deletes + {} inserts through the open file\n\
         \u{20} update I/O: {} disk reads, {} page write-backs\n\
         \u{20} free list: {} pages released at the trough, {} free after reinserts\n\
         \u{20} file size: {} -> {} pages (reuse-before-append)",
        band.len(),
        band.len(),
        upd_io.disk_accesses,
        upd_io.page_writes,
        freed,
        open.tree().free_page_count(),
        before_pages,
        after_pages,
    );
    drop(open);

    // Rejoin the updated file cold, against a fresh save of the same tree.
    let rf2 = RTree::open_from(&rup).expect("reopen updated R");
    let heights2 = [rf2.height() as usize, sf.height() as usize];
    let access = FileNodeAccess::with_capacity_pages(
        vec![
            PageFile::open(&rup).expect("open updated R"),
            PageFile::open(&sp).expect("open S file"),
        ],
        BUFFER / PAGE,
        &heights2,
        EvictionPolicy::Lru,
    )
    .expect("file backend");
    let (upd, _) = rsj_core::spatial_join_with_access(&rf2, &sf, plan, false, access);
    let rfresh = dir.file("updated/r.fresh.rsj");
    rf2.save_to(&rfresh).expect("fresh save of updated tree");
    let access = FileNodeAccess::with_capacity_pages(
        vec![
            PageFile::open(&rfresh).expect("open fresh R"),
            PageFile::open(&sp).expect("open S file"),
        ],
        BUFFER / PAGE,
        &heights2,
        EvictionPolicy::Lru,
    )
    .expect("file backend");
    let (fresh, _) = rsj_core::spatial_join_with_access(&rf2, &sf, plan, false, access);
    report(
        "updated",
        upd.stats.io,
        &format!(
            "  ({} result pairs after the update)",
            upd.stats.result_pairs
        ),
    );
    assert_eq!(
        upd.stats.io.disk_accesses, fresh.stats.io.disk_accesses,
        "updated-in-place and freshly-saved trees cost the same cold I/O"
    );
    println!(
        "               (identical to a freshly saved tree of the same content:\n\
         \u{20}               {} cold disk accesses either way — incremental updates\n\
         \u{20}               leave no I/O scar)",
        fresh.stats.io.disk_accesses
    );
}
