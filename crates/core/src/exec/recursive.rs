//! The original recursive join driver, kept as a reference oracle.
//!
//! This is the pre-cursor implementation of the SJ1–SJ5 traversal: one
//! recursion, scheduling and pinning inline, results materialized in a
//! `Vec`. The streaming [`crate::exec::JoinCursor`] replaced it as the
//! production executor; the recursion stays because it is the *accounting
//! oracle* — the cursor must report bit-identical `disk_accesses`,
//! `join_comparisons` and `sort_comparisons` for every sequential plan,
//! and the differential tests in [`crate::exec`] compare the two
//! directly.

use crate::exec::{TAG_R, TAG_S};
use crate::join::JoinResult;
use crate::plan::{DiffHeightPolicy, Enumerate, JoinConfig, JoinPlan};
use crate::stats::JoinStats;
use crate::sweep::{sort_indices_by_xl, sorted_intersection_test};
use rsj_geom::{zorder, CmpCounter, Rect};
use rsj_rtree::{DataId, Entry, RTree};
use rsj_storage::{BufferPool, PageId};

/// Computes the MBR-spatial-join of `r` and `s` under `plan` with the
/// recursive reference driver. Semantics and accounting match
/// [`crate::spatial_join`] exactly.
pub fn recursive_spatial_join(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    cfg: &JoinConfig,
) -> JoinResult {
    assert_eq!(
        r.params().page_bytes,
        s.params().page_bytes,
        "joined trees must share a page size"
    );
    let page_bytes = r.params().page_bytes;
    let pool = BufferPool::new(
        cfg.buffer_bytes,
        page_bytes,
        &[r.height() as usize, s.height() as usize],
    );
    let zframe = r.mbr().union(&s.mbr());
    let eps = plan.predicate.epsilon();
    assert!(
        eps >= 0.0 && eps.is_finite(),
        "distance-join epsilon must be finite and >= 0"
    );
    let mut runner = Runner {
        r,
        s,
        plan,
        eps,
        pool,
        cmp: CmpCounter::new(),
        sort_cmp: CmpCounter::new(),
        pairs: Vec::new(),
        result_count: 0,
        collect: cfg.collect_pairs,
        zframe,
    };
    // The roots are read once up front (SpatialJoin1 is handed both root
    // nodes).
    runner.access(TAG_R, r.root());
    runner.access(TAG_S, s.root());
    if !r.is_empty() && !s.is_empty() {
        if let Some(rect) = plan.search_space(&r.mbr(), &s.mbr()) {
            runner.join_nodes(r.root(), s.root(), rect);
        }
    }
    JoinResult {
        stats: JoinStats {
            join_comparisons: runner.cmp.get(),
            sort_comparisons: runner.sort_cmp.get(),
            io: runner.pool.stats(),
            result_pairs: runner.result_count,
            page_bytes,
        },
        pairs: runner.pairs,
    }
}

/// Runs the reference recursion over an explicit list of node-pair tasks
/// with a private buffer pool. Root accesses are *not* charged here; the
/// caller accounts for them once. The oracle twin of the cursor's
/// task-list mode ([`crate::JoinCursor::metered_with_tasks`]).
pub fn recursive_subjoin(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    buffer_bytes: usize,
    collect: bool,
    tasks: &[(PageId, PageId, Rect)],
) -> JoinResult {
    let page_bytes = r.params().page_bytes;
    let pool = BufferPool::new(
        buffer_bytes,
        page_bytes,
        &[r.height() as usize, s.height() as usize],
    );
    let mut runner = Runner {
        r,
        s,
        plan,
        eps: plan.predicate.epsilon(),
        pool,
        cmp: CmpCounter::new(),
        sort_cmp: CmpCounter::new(),
        pairs: Vec::new(),
        result_count: 0,
        collect,
        zframe: r.mbr().union(&s.mbr()),
    };
    for &(rp, sp, rect) in tasks {
        runner.access(TAG_R, rp);
        runner.access(TAG_S, sp);
        runner.join_nodes(rp, sp, rect);
    }
    JoinResult {
        stats: JoinStats {
            join_comparisons: runner.cmp.get(),
            sort_comparisons: runner.sort_cmp.get(),
            io: runner.pool.stats(),
            result_pairs: runner.result_count,
            page_bytes,
        },
        pairs: runner.pairs,
    }
}

struct Runner<'a> {
    r: &'a RTree,
    s: &'a RTree,
    plan: JoinPlan,
    /// Virtual expansion of R-side rectangles (distance joins), else 0.
    eps: f64,
    pool: BufferPool,
    cmp: CmpCounter,
    sort_cmp: CmpCounter,
    pairs: Vec<(DataId, DataId)>,
    result_count: u64,
    collect: bool,
    zframe: Rect,
}

/// A scheduled directory pair: entry indices plus the intersection of the
/// two entry rectangles (the restricted search space passed down).
#[derive(Debug, Clone, Copy)]
struct DirPair {
    ir: usize,
    js: usize,
    rect: Rect,
}

impl<'a> Runner<'a> {
    fn tree(&self, tag: u8) -> &'a RTree {
        if tag == TAG_R {
            self.r
        } else {
            self.s
        }
    }

    /// Charges one page access for `tag`/`page` at its path-buffer depth.
    fn access(&mut self, tag: u8, page: PageId) {
        let tree = self.tree(tag);
        let depth = tree.depth_of_level(tree.node(page).level);
        self.pool.access(tag, page, depth);
    }

    fn emit(&mut self, rid: DataId, sid: DataId) {
        self.result_count += 1;
        if self.collect {
            self.pairs.push((rid, sid));
        }
    }

    /// Entry rectangles of an R-side node, virtually expanded by ε for
    /// distance joins (`dist∞(r, s) ≤ ε ⇔ expand(r, ε) ∩ s ≠ ∅`); a no-op
    /// for the other predicates.
    fn eff_rects(&self, entries: &[Entry]) -> Vec<Rect> {
        if self.eps > 0.0 {
            entries.iter().map(|e| e.rect.expanded(self.eps)).collect()
        } else {
            entries.iter().map(|e| e.rect).collect()
        }
    }

    /// Plain entry rectangles (S side).
    fn plain_rects(entries: &[Entry]) -> Vec<Rect> {
        entries.iter().map(|e| e.rect).collect()
    }

    /// Final data-pair test beyond MBR intersection. Intersection and
    /// distance joins are fully decided by the (expanded) intersection test
    /// of the enumeration; containment joins re-check the original
    /// rectangles.
    fn leaf_predicate_holds(&mut self, r_rect: &Rect, s_rect: &Rect) -> bool {
        use crate::plan::JoinPredicate::*;
        match self.plan.predicate {
            Intersects | WithinDistance(_) => true,
            Contains => r_rect.contains_counted(s_rect, &mut self.cmp),
            Within => s_rect.contains_counted(r_rect, &mut self.cmp),
        }
    }

    fn join_nodes(&mut self, rp: PageId, sp: PageId, rect: Rect) {
        let rn = self.r.node(rp);
        let sn = self.s.node(sp);
        match (rn.is_leaf(), sn.is_leaf()) {
            (true, true) => {
                let arects = self.eff_rects(&rn.entries);
                let brects = Self::plain_rects(&sn.entries);
                let pairs = self.enumerate_pairs(&arects, &brects, &rect);
                for (ir, js) in pairs {
                    if !self.leaf_predicate_holds(&rn.entries[ir].rect, &sn.entries[js].rect) {
                        continue;
                    }
                    let rid = rn.entries[ir].child.data().expect("leaf entry");
                    let sid = sn.entries[js].child.data().expect("leaf entry");
                    self.emit(rid, sid);
                }
            }
            (false, false) => {
                let arects = self.eff_rects(&rn.entries);
                let brects = Self::plain_rects(&sn.entries);
                let raw = self.enumerate_pairs(&arects, &brects, &rect);
                let pairs: Vec<DirPair> = raw
                    .into_iter()
                    .map(|(ir, js)| DirPair {
                        ir,
                        js,
                        rect: arects[ir]
                            .intersection(&brects[js])
                            .expect("qualifying pair must intersect"),
                    })
                    .collect();
                self.schedule_pairs(rp, sp, pairs);
            }
            // Different heights: the shorter tree bottomed out (§4.4).
            (false, true) => self.join_mixed(TAG_R, rp, TAG_S, sp, rect),
            (true, false) => self.join_mixed(TAG_S, sp, TAG_R, rp, rect),
        }
    }

    /// Enumerates qualifying `(index into a, index into b)` pairs between
    /// two (effective) rectangle slices, applying search-space restriction
    /// and the configured enumeration strategy. For plane-sweep enumeration
    /// the pairs come back in sweep order.
    fn enumerate_pairs(&mut self, a: &[Rect], b: &[Rect], rect: &Rect) -> Vec<(usize, usize)> {
        // Restriction: a linear scan through each node marks the entries
        // that intersect the intersection rectangle of the two node MBRs
        // (§4.2 "Restricting the search space").
        let ai: Vec<usize> = if self.plan.restrict_space {
            (0..a.len())
                .filter(|&i| a[i].intersects_counted(rect, &mut self.cmp))
                .collect()
        } else {
            (0..a.len()).collect()
        };
        let bi: Vec<usize> = if self.plan.restrict_space {
            (0..b.len())
                .filter(|&j| b[j].intersects_counted(rect, &mut self.cmp))
                .collect()
        } else {
            (0..b.len()).collect()
        };
        match self.plan.enumerate {
            Enumerate::NestedLoop => {
                // SpatialJoin1: outer loop over S (here: `b`), inner over R.
                let mut out = Vec::new();
                for &j in &bi {
                    for &i in &ai {
                        if a[i].intersects_counted(&b[j], &mut self.cmp) {
                            out.push((i, j));
                        }
                    }
                }
                out
            }
            Enumerate::PlaneSweep => {
                let mut ai = ai;
                let mut bi = bi;
                sort_indices_by_xl(a, &mut ai, &mut self.sort_cmp);
                sort_indices_by_xl(b, &mut bi, &mut self.sort_cmp);
                let mut out = Vec::new();
                sorted_intersection_test(a, &ai, b, &bi, &mut self.cmp, &mut out);
                out
            }
        }
    }

    /// Processes directory pairs in the order dictated by the schedule,
    /// optionally pinning the page with maximal degree after each pair
    /// (§4.3).
    fn schedule_pairs(&mut self, rp: PageId, sp: PageId, mut pairs: Vec<DirPair>) {
        if self.plan.zorders() {
            // Local z-order (§4.3): sort the intersection rectangles by the
            // z-value of their centres. The key computation and sort are
            // CPU the paper notes is "not compensated"; we charge the
            // comparator invocations like a sort.
            let frame = self.zframe;
            let keys: Vec<u64> = pairs
                .iter()
                .map(|p| zorder::z_center(&p.rect, &frame, 16))
                .collect();
            let mut order: Vec<usize> = (0..pairs.len()).collect();
            order.sort_by(|&x, &y| {
                self.sort_cmp.bump();
                keys[x].cmp(&keys[y])
            });
            pairs = order.into_iter().map(|k| pairs[k]).collect();
        }
        let rn = self.r.node(rp);
        let sn = self.s.node(sp);
        let mut done = vec![false; pairs.len()];
        for k in 0..pairs.len() {
            if done[k] {
                continue;
            }
            self.process_dir_pair(rp, sp, &pairs[k]);
            done[k] = true;
            if !self.plan.pins() {
                continue;
            }
            // Degree of both pages among the unprocessed pairs (§4.3:
            // "the number of intersections between rectangle E.rect and the
            // rectangles which belong to entries of the other tree not
            // processed until now").
            let DirPair { ir, js, .. } = pairs[k];
            let deg_r = count_remaining(&pairs, &done, k, |p| p.ir == ir);
            let deg_s = count_remaining(&pairs, &done, k, |p| p.js == js);
            if deg_r == 0 && deg_s == 0 {
                continue;
            }
            if deg_r >= deg_s {
                let page = RTree::child_page(&rn.entries[ir]);
                self.pool.pin(TAG_R, page);
                self.drain_pairs(rp, sp, &pairs, &mut done, k, |p| p.ir == ir);
                self.pool.unpin(TAG_R, page);
            } else {
                let page = RTree::child_page(&sn.entries[js]);
                self.pool.pin(TAG_S, page);
                self.drain_pairs(rp, sp, &pairs, &mut done, k, |p| p.js == js);
                self.pool.unpin(TAG_S, page);
            }
        }
    }

    /// Processes all remaining pairs selected by `pred`, in order.
    fn drain_pairs(
        &mut self,
        rp: PageId,
        sp: PageId,
        pairs: &[DirPair],
        done: &mut [bool],
        after: usize,
        pred: impl Fn(&DirPair) -> bool,
    ) {
        for l in (after + 1)..pairs.len() {
            if !done[l] && pred(&pairs[l]) {
                self.process_dir_pair(rp, sp, &pairs[l]);
                done[l] = true;
            }
        }
    }

    /// Reads the two child pages (`ReadPage(E_R.ref); ReadPage(E_S.ref)`)
    /// and recurses.
    fn process_dir_pair(&mut self, rp: PageId, sp: PageId, pair: &DirPair) {
        let cr = RTree::child_page(&self.r.node(rp).entries[pair.ir]);
        let cs = RTree::child_page(&self.s.node(sp).entries[pair.js]);
        self.access(TAG_R, cr);
        self.access(TAG_S, cs);
        self.join_nodes(cr, cs, pair.rect);
    }

    /// Directory × leaf join for trees of different height (§4.4): finish
    /// with window queries into the directory-side subtrees, using the
    /// configured [`DiffHeightPolicy`].
    fn join_mixed(
        &mut self,
        dir_tag: u8,
        dir_page: PageId,
        leaf_tag: u8,
        leaf_page: PageId,
        rect: Rect,
    ) {
        let dir_node = self.tree(dir_tag).node(dir_page);
        let leaf_node = self.tree(leaf_tag).node(leaf_page);
        // R-side rectangles carry the distance-join expansion, whichever
        // side of the mixed pair they are on.
        let dir_rects = if dir_tag == TAG_R {
            self.eff_rects(&dir_node.entries)
        } else {
            Self::plain_rects(&dir_node.entries)
        };
        let leaf_rects = if leaf_tag == TAG_R {
            self.eff_rects(&leaf_node.entries)
        } else {
            Self::plain_rects(&leaf_node.entries)
        };
        // (dir entry index, leaf entry index), sweep-ordered under
        // plane-sweep enumeration.
        let pairs = self.enumerate_pairs(&dir_rects, &leaf_rects, &rect);
        match self.plan.diff_height {
            DiffHeightPolicy::PerPair => {
                for &(id, il) in &pairs {
                    self.window_query_pair(dir_tag, dir_page, leaf_tag, leaf_page, id, il);
                }
            }
            DiffHeightPolicy::Batched => {
                // Group the leaf windows per directory entry, preserving
                // first-occurrence order, then one batched traversal per
                // subtree: every required page is read exactly once.
                let mut order: Vec<usize> = Vec::new();
                let mut windows: std::collections::HashMap<usize, Vec<(usize, Rect)>> =
                    std::collections::HashMap::new();
                for &(id, il) in &pairs {
                    let w = leaf_node.entries[il].rect.expanded(self.eps);
                    let slot = windows.entry(id).or_default();
                    if slot.is_empty() {
                        order.push(id);
                    }
                    slot.push((il, w));
                }
                for id in order {
                    let ws = &windows[&id];
                    self.multi_window_query(dir_tag, dir_page, leaf_tag, leaf_page, id, ws);
                }
            }
            DiffHeightPolicy::SweepPinned => {
                // Like SJ4: after each pair, pin the directory child with
                // maximal degree and drain its window queries first.
                let mut done = vec![false; pairs.len()];
                for k in 0..pairs.len() {
                    if done[k] {
                        continue;
                    }
                    let (id, il) = pairs[k];
                    self.window_query_pair(dir_tag, dir_page, leaf_tag, leaf_page, id, il);
                    done[k] = true;
                    let deg = pairs
                        .iter()
                        .zip(done.iter())
                        .skip(k + 1)
                        .filter(|(&(pid, _), &d)| !d && pid == id)
                        .count();
                    if deg == 0 {
                        continue;
                    }
                    let page = RTree::child_page(&dir_node.entries[id]);
                    self.pool.pin(dir_tag, page);
                    for l in (k + 1)..pairs.len() {
                        if !done[l] && pairs[l].0 == id {
                            let (_, il2) = pairs[l];
                            self.window_query_pair(dir_tag, dir_page, leaf_tag, leaf_page, id, il2);
                            done[l] = true;
                        }
                    }
                    self.pool.unpin(dir_tag, page);
                }
            }
        }
    }

    /// Policy (a)/(c) unit: one window query with the leaf entry's rect
    /// into the subtree of the directory entry.
    fn window_query_pair(
        &mut self,
        dir_tag: u8,
        dir_page: PageId,
        leaf_tag: u8,
        leaf_page: PageId,
        id: usize,
        il: usize,
    ) {
        let dir_tree = self.tree(dir_tag);
        let dir_node = dir_tree.node(dir_page);
        let leaf_entry = &self.tree(leaf_tag).node(leaf_page).entries[il];
        let leaf_id = leaf_entry.child.data().expect("leaf entry");
        let child = RTree::child_page(&dir_node.entries[id]);
        // The ε expansion commutes across sides (`expand(r, ε) ∩ s ⇔
        // r ∩ expand(s, ε)`), so the query window absorbs it regardless of
        // which tree is the directory side.
        let window = leaf_entry.rect.expanded(self.eps);
        let leaf_rect = leaf_entry.rect;
        let mut hits = Vec::new();
        {
            let pool = &mut self.pool;
            let cmp = &mut self.cmp;
            dir_tree.window_query_from(
                child,
                &window,
                cmp,
                &mut |pg, lvl| {
                    pool.access(dir_tag, pg, dir_tree.depth_of_level(lvl));
                },
                &mut hits,
            );
        }
        for (hit_rect, did) in hits {
            let (r_rect, s_rect) = if dir_tag == TAG_R {
                (hit_rect, leaf_rect)
            } else {
                (leaf_rect, hit_rect)
            };
            if !self.leaf_predicate_holds(&r_rect, &s_rect) {
                continue;
            }
            if dir_tag == TAG_R {
                self.emit(did, leaf_id);
            } else {
                self.emit(leaf_id, did);
            }
        }
    }

    /// Policy (b) unit: all qualifying leaf windows of one directory entry
    /// in a single traversal.
    fn multi_window_query(
        &mut self,
        dir_tag: u8,
        dir_page: PageId,
        leaf_tag: u8,
        leaf_page: PageId,
        id: usize,
        windows: &[(usize, Rect)],
    ) {
        let dir_tree = self.tree(dir_tag);
        let leaf_node = self.tree(leaf_tag).node(leaf_page);
        let child = RTree::child_page(&dir_tree.node(dir_page).entries[id]);
        let mut hits = Vec::new();
        {
            let pool = &mut self.pool;
            let cmp = &mut self.cmp;
            dir_tree.multi_window_query_from(
                child,
                windows,
                cmp,
                &mut |pg, lvl| {
                    pool.access(dir_tag, pg, dir_tree.depth_of_level(lvl));
                },
                &mut hits,
            );
        }
        for (il, hit_rect, did) in hits {
            let leaf_rect = leaf_node.entries[il].rect;
            let (r_rect, s_rect) = if dir_tag == TAG_R {
                (hit_rect, leaf_rect)
            } else {
                (leaf_rect, hit_rect)
            };
            if !self.leaf_predicate_holds(&r_rect, &s_rect) {
                continue;
            }
            let leaf_id = leaf_node.entries[il].child.data().expect("leaf entry");
            if dir_tag == TAG_R {
                self.emit(did, leaf_id);
            } else {
                self.emit(leaf_id, did);
            }
        }
    }
}

fn count_remaining(
    pairs: &[DirPair],
    done: &[bool],
    after: usize,
    pred: impl Fn(&DirPair) -> bool,
) -> usize {
    pairs
        .iter()
        .zip(done.iter())
        .skip(after + 1)
        .filter(|(p, &d)| !d && pred(p))
        .count()
}
