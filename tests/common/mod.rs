//! The one fixture list of the conformance suites: two trees saved as
//! page files, and the [`FileAccess`] instantiations — read strategy
//! {blocking, queued} — every property is driven over.
// Each suite uses its own subset.
#![allow(dead_code)]

use std::path::PathBuf;

use rsj::prelude::*;
use rsj_core::spatial_join_with_access;
use rsj_storage::completion::DelayFn;
use rsj_storage::{
    CompletionConfig, CompletionFileAccess, FileAccess, IoStats, NodeAccess, TempDir,
};

pub const PAGE: usize = 1024;
pub const CAP_PAGES: usize = 16;

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

/// The R and S relations on disk, plus the trees reopened cold from them.
pub struct Files {
    /// Keeps the files alive for the fixture's lifetime.
    pub dir: TempDir,
    pub paths: [PathBuf; 2],
    pub trees: [RTree; 2],
}

impl Files {
    /// Writes both relations into a fresh directory with
    /// `write(path, relation (0 = R, 1 = S))`, then reopens them.
    pub fn create(tag: &str, write: impl Fn(&std::path::Path, usize)) -> Files {
        let dir = TempDir::new(tag).unwrap();
        let paths = [dir.file("r.rsj"), dir.file("s.rsj")];
        for (rel, path) in paths.iter().enumerate() {
            write(path, rel);
        }
        Files::reopen(dir, paths)
    }

    /// [`Files::create`] for trees that exist in memory: `save_to`.
    pub fn save(tag: &str, r: &RTree, s: &RTree) -> Files {
        Files::save_as(tag, r, s, EntryFormat::F64)
    }

    /// [`Files::save`] in an explicit on-disk entry format.
    pub fn save_as(tag: &str, r: &RTree, s: &RTree, format: EntryFormat) -> Files {
        Files::create(tag, |path, rel| {
            [r, s][rel].save_to_with_format(path, format).unwrap();
        })
    }

    /// Reopens the trees from files that changed on disk.
    pub fn reopen(dir: TempDir, paths: [PathBuf; 2]) -> Files {
        let trees = paths.each_ref().map(|p| RTree::open_from(p).unwrap());
        Files { dir, paths, trees }
    }

    pub fn heights(&self) -> [usize; 2] {
        self.trees.each_ref().map(|t| t.height() as usize)
    }

    pub fn files(&self) -> Vec<PageFile> {
        self.paths
            .iter()
            .map(|p| PageFile::open(p).unwrap())
            .collect()
    }

    pub fn blocking(&self, cap_pages: usize) -> FileNodeAccess {
        let (files, h) = (self.files(), self.heights());
        FileNodeAccess::with_capacity_pages(files, cap_pages, &h, EvictionPolicy::Lru).unwrap()
    }

    /// One cold SJ2 over the files behind a blocking stack of
    /// `cap_pages`.
    pub fn cold_sj2(&self, cap_pages: usize) -> (Vec<(u64, u64)>, IoStats) {
        let [r, s] = &self.trees;
        let (pairs, io, _) = run(r, s, JoinPlan::sj2(), self.blocking(cap_pages));
        (pairs, io)
    }

    pub fn queued(&self, cap_pages: usize, cfg: CompletionConfig) -> CompletionFileAccess {
        let (files, h) = (self.files(), self.heights());
        CompletionFileAccess::with_capacity_pages(files, cap_pages, &h, EvictionPolicy::Lru, cfg)
            .unwrap()
    }

    /// Calls `check(row name, a cold stack of `cap_pages`)` once per row
    /// of the instantiation table — blocking, and queued under the
    /// per-page completion `delay`.
    pub fn for_each_stack(
        &self,
        cap_pages: usize,
        delay: Option<DelayFn>,
        mut check: impl FnMut(&str, &mut dyn Stack),
    ) {
        check("blocking", &mut self.blocking(cap_pages));
        check(
            "queued",
            &mut self.queued(cap_pages, CompletionConfig { delay }),
        );
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

/// What the table-driven properties need of an instantiation beyond
/// [`NodeAccess`].
pub trait Stack: NodeAccess {
    /// Pages physically read so far, on whichever handles read them
    /// (call after [`NodeAccess::drain_completions`]).
    fn physical_reads(&self) -> u64;
    fn reset(&mut self);
}

impl Stack for FileNodeAccess {
    fn physical_reads(&self) -> u64 {
        self.file(0).reads() + self.file(1).reads()
    }
    fn reset(&mut self) {
        FileAccess::reset(self)
    }
}

impl Stack for CompletionFileAccess {
    fn physical_reads(&self) -> u64 {
        self.queue().total_reads()
    }
    fn reset(&mut self) {
        FileAccess::reset(self)
    }
}
