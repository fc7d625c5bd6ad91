//! The one fixture list of the conformance suites: two trees saved as
//! plain page files *and* as subtree-sharded twins, and the four
//! [`FileAccess`] instantiations — page source {plain, sharded} × read
//! strategy {blocking, queued} — every property is driven over.
// Each suite uses its own subset.
#![allow(dead_code)]

use std::path::PathBuf;

use rsj::prelude::*;
use rsj_core::spatial_join_with_access;
use rsj_storage::completion::DelayFn;
use rsj_storage::stack::{Blocking, Queued};
use rsj_storage::{
    CompletionConfig, CompletionFileAccess, FileAccess, IoStats, NodeAccess, PageSource,
    ShardedCompletionFileAccess, TempDir,
};

pub const PAGE: usize = 1024;
pub const CAP_PAGES: usize = 16;
/// Shard count the sharded twins are partitioned into.
pub const SHARDS: usize = 4;

pub fn build_tree(objs: &[rsj::datagen::SpatialObject], page_bytes: usize) -> RTree {
    let mut t = RTree::new(RTreeParams::for_page_size(page_bytes));
    for o in objs {
        t.insert(o.mbr, DataId(o.id));
    }
    t.validate().expect("tree invariants after build");
    t
}

pub fn sorted_ids(pairs: &[(DataId, DataId)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
    v.sort_unstable();
    v
}

pub fn plans() -> [(JoinPlan, &'static str); 5] {
    [
        (JoinPlan::sj1(), "SJ1"),
        (JoinPlan::sj2(), "SJ2"),
        (JoinPlan::sj3(), "SJ3"),
        (JoinPlan::sj4(), "SJ4"),
        (JoinPlan::sj5(), "SJ5"),
    ]
}

/// One counted join over an arbitrary backend, from whatever state the
/// backend is in.
pub fn run<A: NodeAccess>(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    access: A,
) -> (Vec<(u64, u64)>, IoStats, A) {
    let (res, access) = spatial_join_with_access(r, s, plan, true, access);
    (sorted_ids(&res.pairs), res.stats.io, access)
}

/// The non-default queue configuration every queued row is also run
/// under: four hints in flight.
pub fn narrow() -> CompletionConfig {
    CompletionConfig {
        window: 4,
        delay: None,
    }
}

/// The R and S relations on disk, both ways, plus the trees reopened
/// cold from each layout (the sharded twins preserve global page ids, but
/// a bulk loader may number the two layouts differently — every stack is
/// driven by the tree opened from its own files).
pub struct Files {
    /// Keeps the files alive for the fixture's lifetime.
    pub dir: TempDir,
    pub plain: [PathBuf; 2],
    pub sharded: [PathBuf; 2],
    pub plain_trees: [RTree; 2],
    pub sharded_trees: [RTree; 2],
}

impl Files {
    /// Writes both layouts of both relations into a fresh directory with
    /// `write(path, relation (0 = R, 1 = S), sharded?)`, then reopens them.
    pub fn create(tag: &str, write: impl Fn(&std::path::Path, usize, bool)) -> Files {
        let dir = TempDir::new(tag).unwrap();
        let plain = [dir.file("r.rsj"), dir.file("s.rsj")];
        let sharded = [dir.file("r.sharded.rsj"), dir.file("s.sharded.rsj")];
        for rel in 0..2 {
            write(&plain[rel], rel, false);
            write(&sharded[rel], rel, true);
        }
        Files::reopen(dir, plain, sharded)
    }

    /// [`Files::create`] for trees that exist in memory: `save_to` +
    /// `save_sharded_to`.
    pub fn save(tag: &str, r: &RTree, s: &RTree) -> Files {
        Files::save_as(tag, r, s, EntryFormat::F64)
    }

    /// [`Files::save`] in an explicit on-disk entry format.
    pub fn save_as(tag: &str, r: &RTree, s: &RTree, format: EntryFormat) -> Files {
        Files::create(tag, |path, rel, sharded| {
            let t = [r, s][rel];
            if sharded {
                t.save_sharded_to_with_format(path, SHARDS, format).unwrap();
            } else {
                t.save_to_with_format(path, format).unwrap();
            }
        })
    }

    /// Reopens the trees from files that changed on disk.
    pub fn reopen(dir: TempDir, plain: [PathBuf; 2], sharded: [PathBuf; 2]) -> Files {
        let plain_trees = plain.each_ref().map(|p| RTree::open_from(p).unwrap());
        let sharded_trees = sharded
            .each_ref()
            .map(|p| RTree::open_sharded_from(p).unwrap());
        Files {
            dir,
            plain,
            sharded,
            plain_trees,
            sharded_trees,
        }
    }

    pub fn heights(&self) -> [usize; 2] {
        self.plain_trees.each_ref().map(|t| t.height() as usize)
    }

    pub fn plain_files(&self) -> Vec<PageFile> {
        self.plain
            .iter()
            .map(|p| PageFile::open(p).unwrap())
            .collect()
    }

    pub fn sharded_files(&self) -> Vec<ShardedPageFile> {
        self.sharded
            .iter()
            .map(|p| ShardedPageFile::open(p).unwrap())
            .collect()
    }

    pub fn plain_blocking(&self, cap_pages: usize) -> FileNodeAccess {
        let (files, h) = (self.plain_files(), self.heights());
        FileNodeAccess::with_capacity_pages(files, cap_pages, &h, EvictionPolicy::Lru).unwrap()
    }

    /// One cold SJ2 over the plain files behind a blocking stack of
    /// `cap_pages`.
    pub fn cold_sj2(&self, cap_pages: usize) -> (Vec<(u64, u64)>, IoStats) {
        let [r, s] = &self.plain_trees;
        let (pairs, io, _) = run(r, s, JoinPlan::sj2(), self.plain_blocking(cap_pages));
        (pairs, io)
    }

    pub fn plain_queued(&self, cap_pages: usize, cfg: CompletionConfig) -> CompletionFileAccess {
        let (files, h) = (self.plain_files(), self.heights());
        CompletionFileAccess::with_capacity_pages(files, cap_pages, &h, EvictionPolicy::Lru, cfg)
            .unwrap()
    }

    pub fn sharded_blocking(&self, cap_pages: usize) -> ShardedFileAccess {
        let (files, h) = (self.sharded_files(), self.heights());
        ShardedFileAccess::with_capacity_pages(files, cap_pages, &h, EvictionPolicy::Lru).unwrap()
    }

    pub fn sharded_queued(
        &self,
        cap_pages: usize,
        cfg: CompletionConfig,
    ) -> ShardedCompletionFileAccess {
        let (files, h) = (self.sharded_files(), self.heights());
        ShardedCompletionFileAccess::with_capacity_pages(
            files,
            cap_pages,
            &h,
            EvictionPolicy::Lru,
            cfg,
        )
        .unwrap()
    }
}

impl Files {
    /// Calls `check(row name, the row's [R, S] trees, a cold stack of
    /// `cap_pages`)` once per row of the instantiation table — {plain,
    /// sharded} × {blocking, queued (default and [`narrow`] configs, both
    /// under the per-page completion `delay`)}.
    pub fn for_each_stack(
        &self,
        cap_pages: usize,
        delay: Option<DelayFn>,
        mut check: impl FnMut(&str, &[RTree; 2], &mut dyn Stack),
    ) {
        let (plain, sharded) = (&self.plain_trees, &self.sharded_trees);
        check(
            "plain × blocking",
            plain,
            &mut self.plain_blocking(cap_pages),
        );
        check(
            "sharded × blocking",
            sharded,
            &mut self.sharded_blocking(cap_pages),
        );
        let default: fn() -> CompletionConfig = CompletionConfig::default;
        for (name, cfg) in [("default", default), ("1 worker, window 4", narrow)] {
            let cfg = || CompletionConfig {
                delay: delay.clone(),
                ..cfg()
            };
            let mut access = self.plain_queued(cap_pages, cfg());
            check(&format!("plain × queued ({name})"), plain, &mut access);
            let mut access = self.sharded_queued(cap_pages, cfg());
            check(&format!("sharded × queued ({name})"), sharded, &mut access);
        }
    }
}

/// A preset's R and S: the in-memory trees (the oracle's side) and their
/// files.
pub struct Fixture {
    pub r: RTree,
    pub s: RTree,
    pub files: Files,
}

impl Fixture {
    pub fn new(tag: &str, test: TestId, scale: f64) -> Fixture {
        let data = rsj::datagen::preset(test, scale);
        let (r, s) = (build_tree(&data.r, PAGE), build_tree(&data.s, PAGE));
        let files = Files::save(tag, &r, &s);
        Fixture { r, s, files }
    }
}

/// Read counter of either page source.
pub trait Reads {
    fn reads(&self) -> u64;
}

impl Reads for PageFile {
    fn reads(&self) -> u64 {
        PageFile::reads(self)
    }
}

impl Reads for ShardedPageFile {
    fn reads(&self) -> u64 {
        ShardedPageFile::reads(self)
    }
}

/// What the table-driven properties need of an instantiation beyond
/// [`NodeAccess`].
pub trait Stack: NodeAccess {
    /// Pages physically read so far, on whichever handles read them
    /// (call after [`NodeAccess::drain_completions`]).
    fn physical_reads(&self) -> u64;
    /// `(staged_hits, demand_reads)`.
    fn served(&self) -> (u64, u64);
    fn reset(&mut self);
}

impl<S: PageSource + Reads> Stack for FileAccess<S, Blocking> {
    fn physical_reads(&self) -> u64 {
        self.file(0).reads() + self.file(1).reads()
    }
    fn served(&self) -> (u64, u64) {
        (self.staged_hits(), self.demand_reads())
    }
    fn reset(&mut self) {
        FileAccess::reset(self)
    }
}

impl<S: PageSource> Stack for FileAccess<S, Queued> {
    fn physical_reads(&self) -> u64 {
        self.queue().total_reads()
    }
    fn served(&self) -> (u64, u64) {
        (self.staged_hits(), self.demand_reads())
    }
    fn reset(&mut self) {
        FileAccess::reset(self)
    }
}
