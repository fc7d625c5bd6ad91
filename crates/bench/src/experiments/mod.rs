//! One module per table/figure of the paper's evaluation.
//!
//! Every experiment prints a markdown table mirroring the paper's rows and
//! columns, so `experiments all | tee` produces a document directly
//! comparable against the original. The per-experiment index is the
//! target list of the `experiments` binary (`--help`), one target per
//! module below.

pub mod cpu;
pub mod diff_height;
pub mod extensions;
pub mod io_sched;
pub mod sj1_io;
pub mod summary;
pub mod table1;

use crate::Workbench;
use rsj_core::{spatial_join, JoinConfig, JoinPlan, JoinStats};
use rsj_rtree::RTree;

/// Runs a join in counting-only mode and returns its statistics.
pub fn run_join(r: &RTree, s: &RTree, plan: JoinPlan, buffer_bytes: usize) -> JoinStats {
    let cfg = JoinConfig {
        buffer_bytes,
        collect_pairs: false,
    };
    spatial_join(r, s, plan, &cfg).stats
}

/// Runs a join on the workbench's trees for `page_bytes`.
pub fn run_on(
    w: &mut Workbench,
    page_bytes: usize,
    plan: JoinPlan,
    buffer_bytes: usize,
) -> JoinStats {
    let r = w.tree_r(page_bytes);
    let s = w.tree_s(page_bytes);
    run_join(&r, &s, plan, buffer_bytes)
}

/// Comparisons needed to sort every node of a tree once by `xl` — the
/// "sorting" cost of Table 4's maintained-sorted scenario, which is the
/// regime the engine runs: every writer in `rsj-rtree` keeps leaves in `xl`
/// order, so this is a cost the trees have already paid. To price it, each
/// node's entries are first put back in reference order (data id, page id:
/// the arrival order an unsorted tree would hold them in) and sorted from
/// there; sorting the nodes as stored would only count the n − 1
/// comparisons that verify an order.
pub fn tree_sort_comparisons(tree: &RTree) -> u64 {
    let mut cmp = rsj_geom::CmpCounter::new();
    tree.for_each_node(|_, node| {
        let mut entries = node.entries.clone();
        entries.sort_by_key(|e| match e.child {
            rsj_rtree::ChildRef::Data(d) => d.0,
            rsj_rtree::ChildRef::Page(p) => u64::from(p.0),
        });
        let rects: Vec<rsj_geom::Rect> = entries.iter().map(|e| e.rect).collect();
        let mut idx: Vec<usize> = (0..rects.len()).collect();
        rsj_core::sweep::sort_indices_by_xl(&rects, &mut idx, &mut cmp);
    });
    cmp.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_datagen::TestId;

    #[test]
    fn run_join_smoke() {
        let mut w = Workbench::new(TestId::A, 0.002);
        let s = run_on(&mut w, 1024, JoinPlan::sj1(), 0);
        let s2 = run_on(&mut w, 1024, JoinPlan::sj4(), 32 * 1024);
        assert_eq!(s.result_pairs, s2.result_pairs);
        assert!(s.io.disk_accesses >= s2.io.disk_accesses);
    }

    #[test]
    fn tree_sort_cost_positive() {
        let mut w = Workbench::new(TestId::A, 0.002);
        let t = w.tree_r(1024);
        assert!(tree_sort_comparisons(&t) > 0);
    }
}
