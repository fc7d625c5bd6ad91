//! Update-path conformance: incremental `insert`/`delete` through an open
//! page file must be indistinguishable — to queries, to joins, and to the
//! paper's I/O accounting — from the same updates applied to a purely
//! in-memory tree.
//!
//! For pseudo-random interleaved update sequences on presets A and B the
//! suite asserts:
//!
//! * `OpenTree` + `flush` + `open_from` yields a tree **page-for-page
//!   identical** to the in-memory oracle (same page ids, same free list);
//! * SJ1–SJ5 over the updated trees produce identical pair multisets AND
//!   identical `IoStats` whether the updated relation lives in memory
//!   (`BufferPool`) or comes off the updated file (`FileNodeAccess`);
//! * free-list reuse really happens (deletions release pages, insertions
//!   reuse them, the file does not grow monotonically);
//! * every row of the file-stack table — read strategy {blocking,
//!   queued} — conformance-matches on the updated files too.

mod common;

use common::{build_tree, plans, run, Files, Stack, CAP_PAGES, PAGE};
use rsj::prelude::*;
use rsj_storage::{BufferPool, CompletionConfig, PageId, TempDir};

/// One update operation of the scripted workload.
#[derive(Clone, Copy)]
enum Op {
    Insert(Rect, DataId),
    Delete(Rect, DataId),
}

/// Deterministic pseudo-random interleaved update script over a preset
/// relation: deletes existing objects, inserts fresh ones (translated
/// copies), re-deletes some of the fresh ones — enough churn to exercise
/// splits, condense, root growth/shrink and free-list reuse.
fn update_script(objs: &[rsj::datagen::SpatialObject], ops: usize, seed: u64) -> Vec<Op> {
    let mut x = seed | 1;
    let mut rng = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut script = Vec::with_capacity(ops);
    let mut fresh: Vec<(Rect, DataId)> = Vec::new();
    let mut next_id = 1_000_000u64;
    for _ in 0..ops {
        match rng() % 3 {
            0 => {
                // Delete an existing (original) object.
                let o = &objs[(rng() as usize) % objs.len()];
                script.push(Op::Delete(o.mbr, DataId(o.id)));
            }
            1 => {
                // Insert a translated copy of an existing rectangle.
                let o = &objs[(rng() as usize) % objs.len()];
                let (dx, dy) = (
                    (rng() % 1000) as f64 / 1e6 - 0.0005,
                    (rng() % 1000) as f64 / 1e6 - 0.0005,
                );
                let r =
                    Rect::from_corners(o.mbr.xl + dx, o.mbr.yl + dy, o.mbr.xu + dx, o.mbr.yu + dy);
                let id = DataId(next_id);
                next_id += 1;
                fresh.push((r, id));
                script.push(Op::Insert(r, id));
            }
            _ => {
                // Delete a fresh object again (if any) — double churn.
                if let Some(k) = fresh.pop() {
                    script.push(Op::Delete(k.0, k.1));
                } else {
                    let o = &objs[(rng() as usize) % objs.len()];
                    script.push(Op::Delete(o.mbr, DataId(o.id)));
                }
            }
        }
    }
    script
}

fn apply_to_oracle(tree: &mut RTree, script: &[Op]) {
    for op in script {
        match *op {
            Op::Insert(r, id) => tree.insert(r, id),
            Op::Delete(r, id) => {
                tree.delete(&r, id);
            }
        }
    }
}

fn apply_to_open<B: rsj_storage::UpdateBackend>(open: &mut OpenTree<B>, script: &[Op]) {
    for op in script {
        match *op {
            Op::Insert(r, id) => open.insert(r, id).unwrap(),
            Op::Delete(r, id) => {
                open.delete(&r, id).unwrap();
            }
        }
    }
}

fn assert_page_identical(a: &RTree, b: &RTree, label: &str) {
    assert_eq!(a.allocated_pages(), b.allocated_pages(), "{label}: pages");
    assert_eq!(a.root(), b.root(), "{label}: root");
    assert_eq!(a.len(), b.len(), "{label}: len");
    assert_eq!(
        a.page_store().free_pages(),
        b.page_store().free_pages(),
        "{label}: free list"
    );
    for id in 0..a.allocated_pages() {
        let p = PageId(id as u32);
        assert_eq!(a.node(p), b.node(p), "{label}: page {p}");
    }
}

/// One row of the file-stack table on updated files against the
/// in-memory oracle: pairs, whole `IoStats`, every miss read for real
/// exactly once.
fn check_on_updated_files<A: Stack>(
    label: &str,
    oracle: [&RTree; 2],
    [r, s]: &[RTree; 2],
    plan: JoinPlan,
    access: A,
) {
    let heights = oracle.map(|t| t.height() as usize);
    let pool = BufferPool::with_capacity_pages(CAP_PAGES, &heights);
    let (want_pairs, want_io, _) = run(oracle[0], oracle[1], plan, pool);
    assert!(!want_pairs.is_empty(), "{label}: updated fixture joins");
    let (pairs, io, access) = run(r, s, plan, access);
    assert_eq!(pairs, want_pairs, "{label}: pairs on updated files");
    assert_eq!(io, want_io, "{label}: IoStats on updated files");
    access.drain_completions();
    assert_eq!(access.physical_reads(), io.disk_accesses, "{label}: reads");
}

/// Saves `(r0, s0)`, runs `script` against R through the open file, and
/// returns the reopened files with the in-memory oracle of the updated R.
fn updated_files(tag: &str, r0: &RTree, s0: &RTree, script: &[Op]) -> (Files, RTree) {
    let f = Files::save(tag, r0, s0);
    let mut oracle = r0.clone();
    apply_to_oracle(&mut oracle, script);
    let mut open = OpenFileTree::open(&f.paths[0], CAP_PAGES).unwrap();
    apply_to_open(&mut open, script);
    open.close().unwrap();
    (Files::reopen(f.dir, f.paths), oracle)
}

#[test]
fn updated_open_trees_join_identically_to_in_memory_oracles() {
    for (test, scale, seed) in [(TestId::A, 0.003, 7u64), (TestId::B, 0.003, 11)] {
        let data = rsj::datagen::preset(test, scale);
        let (r0, s0) = (build_tree(&data.r, PAGE), build_tree(&data.s, PAGE));
        let dir = TempDir::new("update-conf").unwrap();
        let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
        r0.save_to(&rp).unwrap();
        s0.save_to(&sp).unwrap();

        // Oracles: in-memory updates on BOTH relations.
        let (mut r_oracle, mut s_oracle) = (r0.clone(), s0.clone());
        let r_script = update_script(&data.r, 240, seed);
        let s_script = update_script(&data.s, 240, seed ^ 0xDEAD_BEEF);
        apply_to_oracle(&mut r_oracle, &r_script);
        apply_to_oracle(&mut s_oracle, &s_script);

        // Device under test: the same updates through the open files.
        let mut r_open = OpenFileTree::open(&rp, CAP_PAGES).unwrap();
        let mut s_open = OpenFileTree::open(&sp, CAP_PAGES).unwrap();
        apply_to_open(&mut r_open, &r_script);
        apply_to_open(&mut s_open, &s_script);
        let upd_io = r_open.io_stats();
        assert!(upd_io.disk_accesses > 0, "{test:?}: updates charge reads");
        r_open.flush().unwrap();
        s_open.flush().unwrap();
        assert!(
            r_open.io_stats().page_writes > 0,
            "{test:?}: updates write pages"
        );
        // Free-list reuse was exercised by the script.
        let real_writes = r_open.access().file(0).writes() + s_open.access().file(0).writes();
        assert!(real_writes > 0, "{test:?}: physical writes happened");
        drop(r_open);
        drop(s_open);

        // Reopened trees are page-identical to the oracles.
        let r_file = RTree::open_from(&rp).unwrap();
        let s_file = RTree::open_from(&sp).unwrap();
        r_file.validate().unwrap();
        s_file.validate().unwrap();
        assert_page_identical(&r_file, &r_oracle, &format!("{test:?}/R"));
        assert_page_identical(&s_file, &s_oracle, &format!("{test:?}/S"));

        // SJ1–SJ5: identical pairs AND identical IoStats, memory vs file.
        let heights = [r_oracle.height() as usize, s_oracle.height() as usize];
        let trees = [r_file, s_file];
        for (plan, name) in plans() {
            let files = vec![PageFile::open(&rp).unwrap(), PageFile::open(&sp).unwrap()];
            let access = FileNodeAccess::with_capacity_pages(
                files,
                CAP_PAGES,
                &heights,
                EvictionPolicy::Lru,
            )
            .unwrap();
            let label = format!("{test:?}/{name}");
            check_on_updated_files(&label, [&r_oracle, &s_oracle], &trees, plan, access);
        }
    }
}

#[test]
fn delete_heavy_churn_is_bounded_by_free_list_reuse() {
    let data = rsj::datagen::preset(TestId::A, 0.003);
    let tree = build_tree(&data.r, PAGE);
    let dir = TempDir::new("update-churn").unwrap();
    let path = dir.file("r.rsj");
    tree.save_to(&path).unwrap();
    let mut open = OpenFileTree::open(&path, CAP_PAGES).unwrap();
    let before = open.access().file(0).page_count();
    let n = data.r.len().min(200);
    let mut reused = 0usize;
    for round in 0..4 {
        for o in data.r.iter().take(n) {
            open.delete(&o.mbr, DataId(o.id)).unwrap();
        }
        let freed = open.tree().free_page_count();
        assert!(freed > 0, "round {round}: deletions must release pages");
        for o in data.r.iter().take(n) {
            open.insert(o.mbr, DataId(o.id)).unwrap();
        }
        reused += freed.saturating_sub(open.tree().free_page_count());
    }
    open.flush().unwrap();
    let after = open.access().file(0).page_count();
    assert!(reused > 0, "insertions must reuse released pages");
    assert!(
        u64::from(after) <= u64::from(before) + 16,
        "churn must not grow the file monotonically: {before} -> {after}"
    );
    drop(open);
    let back = RTree::open_from(&path).unwrap();
    back.validate().unwrap();
    assert_eq!(back.len(), tree.len());
}

/// Preset-A trees plus an update script over R of `ops` operations.
fn scripted(ops: usize, seed: u64) -> (RTree, RTree, Vec<Op>) {
    let data = rsj::datagen::preset(TestId::A, 0.003);
    let script = update_script(&data.r, ops, seed);
    (build_tree(&data.r, PAGE), build_tree(&data.s, PAGE), script)
}

#[test]
fn prefetch_backend_conformance_on_updated_files() {
    // "Prefetch" is the queued strategy: the cursor's run-ahead submits
    // demand misses ahead of the results that need them.
    let (r0, s0, script) = scripted(200, 23);
    let (f, r_oracle) = updated_files("update-queued", &r0, &s0, &script);
    for (plan, name) in [(JoinPlan::sj3(), "SJ3"), (JoinPlan::sj4(), "SJ4")] {
        let access = f.queued(CAP_PAGES, CompletionConfig::default());
        let label = format!("queued/{name}");
        check_on_updated_files(&label, [&r_oracle, &s0], &f.trees, plan, access);
    }
}

#[test]
fn post_update_cold_join_equals_a_freshly_saved_tree() {
    // A tree updated in place and a fresh `save_to` of the
    // identically-updated in-memory tree are interchangeable — same cold
    // SJ2 disk accesses.
    let data = rsj::datagen::preset(TestId::A, 0.003);
    let (r0, s0) = (build_tree(&data.r, PAGE), build_tree(&data.s, PAGE));
    let dir = TempDir::new("update-vs-fresh").unwrap();
    let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r0.save_to(&rp).unwrap();
    s0.save_to(&sp).unwrap();
    let script = update_script(&data.r, 220, 99);
    let mut oracle = r0.clone();
    apply_to_oracle(&mut oracle, &script);
    let mut open = OpenFileTree::open(&rp, CAP_PAGES).unwrap();
    apply_to_open(&mut open, &script);
    open.close().unwrap();

    let fresh_path = dir.file("r.fresh.rsj");
    oracle.save_to(&fresh_path).unwrap();

    let heights = [oracle.height() as usize, s0.height() as usize];
    let join_cold = |r_path: &std::path::Path| {
        let tree = RTree::open_from(r_path).unwrap();
        let access = FileNodeAccess::with_capacity_pages(
            vec![
                PageFile::open(r_path).unwrap(),
                PageFile::open(&sp).unwrap(),
            ],
            CAP_PAGES,
            &heights,
            EvictionPolicy::Lru,
        )
        .unwrap();
        run(&tree, &s0, JoinPlan::sj2(), access)
    };
    let (pairs_updated, io_updated, _) = join_cold(&rp);
    let (pairs_fresh, io_fresh, _) = join_cold(&fresh_path);
    assert_eq!(pairs_updated, pairs_fresh);
    assert_eq!(
        io_updated.disk_accesses, io_fresh.disk_accesses,
        "post-update cold SJ2 disk accesses equal a freshly saved tree's"
    );
    assert_eq!(io_updated, io_fresh, "full IoStats agree");
}
