//! Experiment harness for the SIGMOD'93 reproduction.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation; this library holds the shared machinery: tree
//! construction over the generated relations, the paper's parameter grids
//! (page sizes 1/2/4/8 KByte, LRU buffers 0/8/32/128/512 KByte), and small
//! formatting helpers. Wall time is not measured here: that is the repo
//! benchmark's job (`benchmark/`).

pub mod experiments;

use rsj_datagen::{preset, PresetData, TestId};
use rsj_rtree::{bulk, DataId, InsertPolicy, RTree, RTreeParams};

/// The paper's page-size grid in bytes (Table 1 ff.).
pub const PAGE_SIZES: [usize; 4] = [1024, 2048, 4096, 8192];

/// The paper's LRU-buffer grid in bytes (Table 2 ff.).
pub const BUFFER_SIZES: [usize; 5] = [0, 8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024];

/// Builds an R\*-tree over `(mbr, id)` items by dynamic insertion — the way
/// the paper's trees were built.
pub fn build_rstar(items: &[(rsj_geom::Rect, u64)], page_bytes: usize) -> RTree {
    build_with_policy(items, page_bytes, InsertPolicy::RStar)
}

/// Builds a tree with an explicit insertion policy (tree-quality ablation).
pub fn build_with_policy(
    items: &[(rsj_geom::Rect, u64)],
    page_bytes: usize,
    policy: InsertPolicy,
) -> RTree {
    let mut t = RTree::new(RTreeParams::with_policy(page_bytes, policy));
    for &(r, id) in items {
        t.insert(r, DataId(id));
    }
    t
}

/// Builds an STR bulk-loaded tree (tree-quality ablation).
pub fn build_str(items: &[(rsj_geom::Rect, u64)], page_bytes: usize) -> RTree {
    build_bulk(items, page_bytes, bulk::BulkLayout::Str)
}

/// Builds a Hilbert-packed tree (tree-quality ablation).
pub fn build_hilbert(items: &[(rsj_geom::Rect, u64)], page_bytes: usize) -> RTree {
    build_bulk(items, page_bytes, bulk::BulkLayout::Hilbert)
}

fn build_bulk(
    items: &[(rsj_geom::Rect, u64)],
    page_bytes: usize,
    layout: bulk::BulkLayout,
) -> RTree {
    let data: Vec<(rsj_geom::Rect, DataId)> =
        items.iter().map(|&(r, id)| (r, DataId(id))).collect();
    let params = RTreeParams::for_page_size(page_bytes);
    match layout {
        bulk::BulkLayout::Str => bulk::str_load(params, &data, bulk::DEFAULT_FILL),
        bulk::BulkLayout::Hilbert => bulk::hilbert_load(params, &data, bulk::DEFAULT_FILL),
    }
    .expect("preset rectangles are finite")
}

/// Lazily-built tree cache for one preset: experiments share trees across
/// page sizes instead of rebuilding per table.
pub struct Workbench {
    /// The generated relations.
    pub data: PresetData,
    /// The scale the data was generated at.
    pub scale: f64,
    trees: std::collections::HashMap<(usize, bool), std::rc::Rc<RTree>>,
}

impl Workbench {
    /// Generates the preset at `scale` (see `rsj_datagen::preset`).
    pub fn new(test: TestId, scale: f64) -> Self {
        Workbench {
            data: preset(test, scale),
            scale,
            trees: Default::default(),
        }
    }

    /// The R tree at a page size (cached).
    pub fn tree_r(&mut self, page_bytes: usize) -> std::rc::Rc<RTree> {
        self.tree(page_bytes, true)
    }

    /// The S tree at a page size (cached).
    pub fn tree_s(&mut self, page_bytes: usize) -> std::rc::Rc<RTree> {
        self.tree(page_bytes, false)
    }

    fn tree(&mut self, page_bytes: usize, is_r: bool) -> std::rc::Rc<RTree> {
        let key = (page_bytes, is_r);
        if let Some(t) = self.trees.get(&key) {
            return t.clone();
        }
        let objs = if is_r { &self.data.r } else { &self.data.s };
        let items = rsj_datagen::mbr_items(objs);
        let tree = std::rc::Rc::new(build_rstar(&items, page_bytes));
        self.trees.insert(key, tree.clone());
        tree
    }
}

/// Formats a count with thousands separators, paper style ("24,727").
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.0} ms", s * 1000.0)
    }
}

/// Buffer-size label in the paper's KByte convention.
pub fn fmt_buffer(bytes: usize) -> String {
    format!("{} KByte", bytes / 1024)
}

/// Page-size label.
pub fn fmt_page(bytes: usize) -> String {
    format!("{} KByte", bytes / 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(24727), "24,727");
        assert_eq!(fmt_count(33_566_961), "33,566,961");
        assert_eq!(fmt_buffer(32 * 1024), "32 KByte");
        assert_eq!(fmt_secs(0.020), "20 ms");
        assert_eq!(fmt_secs(12.34), "12.3 s");
        assert_eq!(fmt_secs(495.0), "495 s");
    }

    #[test]
    fn workbench_caches_trees() {
        let mut w = Workbench::new(TestId::A, 0.002);
        let a = w.tree_r(1024);
        let b = w.tree_r(1024);
        assert!(std::rc::Rc::ptr_eq(&a, &b));
        let c = w.tree_r(2048);
        assert!(!std::rc::Rc::ptr_eq(&a, &c));
        assert_eq!(a.len(), w.data.r.len());
        a.validate().unwrap();
    }

    #[test]
    fn builders_produce_valid_trees() {
        let w = Workbench::new(TestId::A, 0.002);
        let items = rsj_datagen::mbr_items(&w.data.s);
        for build in [build_rstar as fn(&_, _) -> RTree, build_str, build_hilbert] {
            let t = build(&items, 1024);
            t.validate().unwrap();
            assert_eq!(t.len(), items.len());
        }
        let g = build_with_policy(&items, 1024, InsertPolicy::GuttmanQuadratic);
        g.validate().unwrap();
    }
}
