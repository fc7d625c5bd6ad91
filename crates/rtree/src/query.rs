//! Queries: window, point, containment, and the batched multi-window query.
//!
//! §3.2: "Let S be a query rectangle of a window query. Then, the query is
//! performed by starting in the root and computing all entries whose
//! rectangle intersects S. For these entries, the corresponding child nodes
//! are read into main memory and the query is performed like in the root
//! node unless it is a leaf node."
//!
//! Every traversal takes two hooks so callers can do the paper's
//! accounting:
//! * a [`CmpCounter`] charged by the counted rectangle tests, and
//! * an `on_access(page, level)` callback fired once per node visited, which
//!   the join crate routes into the shared [`rsj_storage::BufferPool`].
//!
//! The *multi-window* query implements policy (b) of §4.4 (spatial join of
//! trees with different heights): "for each entry E_R, all window queries
//! with query rectangles E_S.rect […] are performed in the subtree rooted in
//! E_R.ref in one step", guaranteeing each page of the subtree is read at
//! most once.

use crate::node::DataId;
use crate::tree::RTree;
use rsj_geom::{CmpCounter, Meter, Rect};
use rsj_storage::{NodeAccess, PageId};

impl RTree {
    /// Window query over the whole tree: all data entries whose MBR
    /// intersects `window`. Convenience wrapper without accounting.
    pub fn window_query(&self, window: &Rect) -> Vec<DataId> {
        let mut cmp = CmpCounter::new();
        let mut out = Vec::new();
        self.window_query_from(self.root(), window, &mut cmp, &mut |_, _| {}, &mut out);
        out.into_iter().map(|(_, id)| id).collect()
    }

    /// Window query with full accounting, starting at the subtree rooted in
    /// `start`. Results are `(rect, id)` pairs.
    pub fn window_query_from<M: Meter>(
        &self,
        start: PageId,
        window: &Rect,
        cmp: &mut M,
        on_access: &mut dyn FnMut(PageId, u32),
        out: &mut Vec<(Rect, DataId)>,
    ) {
        let node = self.node(start);
        on_access(start, node.level);
        if node.is_leaf() {
            for e in &node.entries {
                if e.rect.intersects_counted(window, cmp) {
                    out.push((e.rect, e.id()));
                }
            }
            return;
        }
        for e in &node.entries {
            if e.rect.intersects_counted(window, cmp) {
                self.window_query_from(Self::child_page(e), window, cmp, on_access, out);
            }
        }
    }

    /// Batched multi-window query (policy (b) of §4.4): runs all `windows`
    /// through the subtree rooted at `start` in a single traversal. Each
    /// window carries a caller-chosen tag; results are `(tag, rect, id)`.
    ///
    /// A child is descended once if *any* window intersects its MBR, and
    /// only the windows that do are propagated, so each subtree page is
    /// visited at most once regardless of how many windows qualify.
    pub fn multi_window_query_from<T: Copy, M: Meter>(
        &self,
        start: PageId,
        windows: &[(T, Rect)],
        cmp: &mut M,
        on_access: &mut dyn FnMut(PageId, u32),
        out: &mut Vec<(T, Rect, DataId)>,
    ) {
        if windows.is_empty() {
            return;
        }
        let node = self.node(start);
        on_access(start, node.level);
        if node.is_leaf() {
            for e in &node.entries {
                for (tag, w) in windows {
                    if e.rect.intersects_counted(w, cmp) {
                        out.push((*tag, e.rect, e.id()));
                    }
                }
            }
            return;
        }
        let mut surviving: Vec<(T, Rect)> = Vec::new();
        for e in &node.entries {
            surviving.clear();
            for (tag, w) in windows {
                if e.rect.intersects_counted(w, cmp) {
                    surviving.push((*tag, *w));
                }
            }
            if !surviving.is_empty() {
                self.multi_window_query_from(Self::child_page(e), &surviving, cmp, on_access, out);
            }
        }
    }

    /// [`RTree::window_query_from`] charging page accesses to a buffer
    /// hierarchy through [`NodeAccess`] — the storage/tree boundary the
    /// join executors use. `store` tags this tree in the accountant.
    pub fn window_query_charged<M: Meter, A: NodeAccess>(
        &self,
        start: PageId,
        window: &Rect,
        cmp: &mut M,
        store: u8,
        access: &mut A,
        out: &mut Vec<(Rect, DataId)>,
    ) {
        self.window_query_from(
            start,
            window,
            cmp,
            &mut |page, level| {
                access.access(store, page, self.depth_of_level(level));
            },
            out,
        );
    }

    /// [`RTree::multi_window_query_from`] charging page accesses through
    /// [`NodeAccess`] (see [`RTree::window_query_charged`]).
    pub fn multi_window_query_charged<T: Copy, M: Meter, A: NodeAccess>(
        &self,
        start: PageId,
        windows: &[(T, Rect)],
        cmp: &mut M,
        store: u8,
        access: &mut A,
        out: &mut Vec<(T, Rect, DataId)>,
    ) {
        self.multi_window_query_from(
            start,
            windows,
            cmp,
            &mut |page, level| {
                access.access(store, page, self.depth_of_level(level));
            },
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{InsertPolicy, RTreeParams};

    fn build_grid_tree() -> RTree {
        // 20 x 20 grid of 8x8 squares spaced 10 apart.
        let mut t = RTree::new(RTreeParams::explicit(320, 16, 6, InsertPolicy::RStar));
        for gx in 0..20u64 {
            for gy in 0..20u64 {
                let r = Rect::from_corners(
                    gx as f64 * 10.0,
                    gy as f64 * 10.0,
                    gx as f64 * 10.0 + 8.0,
                    gy as f64 * 10.0 + 8.0,
                );
                t.insert(r, DataId(gx * 100 + gy));
            }
        }
        t.validate().unwrap();
        t
    }

    fn naive_window(t: &RTree, w: &Rect) -> Vec<DataId> {
        let mut v: Vec<DataId> = t
            .data_entries()
            .into_iter()
            .filter(|(r, _)| r.intersects(w))
            .map(|(_, id)| id)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn window_query_matches_naive_scan() {
        let t = build_grid_tree();
        for w in [
            Rect::from_corners(0., 0., 200., 200.),
            Rect::from_corners(15., 15., 42., 33.),
            Rect::from_corners(-50., -50., -1., -1.),
            Rect::from_corners(95., 95., 95., 95.),
        ] {
            let mut got = t.window_query(&w);
            got.sort();
            assert_eq!(got, naive_window(&t, &w), "window {w:?}");
        }
    }

    #[test]
    fn window_query_counts_accesses_and_comparisons() {
        let t = build_grid_tree();
        let mut cmp = CmpCounter::new();
        let mut pages = Vec::new();
        let mut out = Vec::new();
        let w = Rect::from_corners(0., 0., 50., 50.);
        t.window_query_from(t.root(), &w, &mut cmp, &mut |p, _| pages.push(p), &mut out);
        assert!(cmp.get() > 0);
        assert!(!pages.is_empty());
        assert_eq!(pages[0], t.root());
        assert!(pages.len() <= t.live_page_count());
    }

    #[test]
    fn multi_window_equals_separate_windows() {
        let t = build_grid_tree();
        let windows = [
            (0u32, Rect::from_corners(5., 5., 25., 25.)),
            (1u32, Rect::from_corners(100., 100., 130., 140.)),
            (2u32, Rect::from_corners(-10., -10., -5., -5.)),
            (3u32, Rect::from_corners(5., 5., 25., 25.)), // duplicate window
        ];
        let mut cmp = CmpCounter::new();
        let mut out = Vec::new();
        t.multi_window_query_from(t.root(), &windows, &mut cmp, &mut |_, _| {}, &mut out);
        for (tag, w) in &windows {
            let mut got: Vec<DataId> = out
                .iter()
                .filter(|(t_, _, _)| t_ == tag)
                .map(|(_, _, id)| *id)
                .collect();
            got.sort();
            assert_eq!(got, naive_window(&t, w), "tag {tag}");
        }
    }

    #[test]
    fn multi_window_visits_each_page_once() {
        let t = build_grid_tree();
        let windows: Vec<(u32, Rect)> = (0..10)
            .map(|i| {
                (
                    i,
                    Rect::from_corners(i as f64 * 15.0, 0.0, i as f64 * 15.0 + 30.0, 180.0),
                )
            })
            .collect();
        let mut cmp = CmpCounter::new();
        let mut visited = std::collections::HashMap::new();
        let mut out = Vec::new();
        t.multi_window_query_from(
            t.root(),
            &windows,
            &mut cmp,
            &mut |p, _| {
                *visited.entry(p).or_insert(0) += 1;
            },
            &mut out,
        );
        assert!(
            visited.values().all(|&c| c == 1),
            "a page was visited twice: {visited:?}"
        );
    }

    #[test]
    fn empty_tree_queries() {
        let t = RTree::new(RTreeParams::explicit(320, 16, 6, InsertPolicy::RStar));
        assert!(t
            .window_query(&Rect::from_corners(0., 0., 1., 1.))
            .is_empty());
    }
}
