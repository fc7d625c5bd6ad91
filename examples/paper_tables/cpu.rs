//! Tables 3 and 4: CPU-time tuning.
//!
//! Table 3 sets SJ1's comparisons against SJ2's (search-space restriction),
//! a gain of 4.6–8.9× in the paper. Table 4 measures the plane-sweep
//! variants: version (I) sorts and sweeps *without* restriction, version
//! (II) *with* it; join and sorting costs are reported apart and combined
//! into the paper's join-ratios and *repeat-factor* — how often a page
//! could be re-sorted on fetch before sorting stops paying off. Of the two
//! sorting regimes the table prices, the engine runs the maintained-sorted
//! one (`rsj_rtree::node`, "Entry order"): "sort trees once" is a cost the
//! writers have paid, and "in-join sorting" is what verifying that order
//! costs the join.

use std::fmt::{self, Write};

use rsj::join::sweep::sort_indices_by_xl;
use rsj::prelude::*;
use rsj::rtree::ChildRef;

use super::{fmt_count, join, page_header, row, Grid, Preset};

/// Table 3, from the grids' no-buffer rows (comparisons do not depend on
/// the buffer).
pub(crate) fn table3(out: &mut String, sj1: &Grid, sj2: &Grid) -> fmt::Result {
    writeln!(
        out,
        "### Table 3: comparisons with/without restricting the search space\n"
    )?;
    page_header(out, "| |")?;
    let (c1, c2) = (join_comparisons(&sj1[0]), join_comparisons(&sj2[0]));
    row(out, "SpatialJoin1", counts(&c1))?;
    row(out, "SpatialJoin2", counts(&c2))?;
    row(out, "performance gain", ratios(&c1, &c2))?;
    writeln!(out)
}

/// Table 4.
pub(crate) fn table4(out: &mut String, a: &Preset, sj1: &Grid, sj2: &Grid) -> fmt::Result {
    writeln!(
        out,
        "### Table 4: comparisons of spatial joins with/without sorting\n"
    )?;
    writeln!(
        out,
        "version (I) = plane sweep without restriction, version (II) = with \
         restriction (SJ3). \"sort trees once\" is the one-time cost of \
         sorting every node of both trees by xl from arrival order — the \
         maintained-sorted scenario, and the regime this engine runs: its \
         trees keep every leaf in xl order, so that cost was paid when the \
         entries were written. \"in-join sorting\" is what the join still \
         spends on its (restricted) entry sequences per node pair: it sorts \
         every one and trusts no stored order, so for a leaf sequence of n \
         entries this is the n - 1 comparisons that verify the order, plus \
         a real sort for directory nodes, which updates leave unordered.\n"
    )?;
    page_header(out, "| |")?;
    let (c1, c2) = (join_comparisons(&sj1[0]), join_comparisons(&sj2[0]));
    let run =
        |plan| -> Vec<JoinStats> { a.trees.iter().map(|(r, s)| join(r, s, plan, 0)).collect() };
    let v2 = run(JoinPlan::sj3());
    let j1 = join_comparisons(&run(JoinPlan::sweep_unrestricted()));
    let j2 = join_comparisons(&v2);
    let tree_sort: Vec<u64> = a
        .trees
        .iter()
        .map(|(r, s)| tree_sort_comparisons(r) + tree_sort_comparisons(s))
        .collect();
    row(out, "(I) join", counts(&j1))?;
    row(out, "(I) join-ratio to SJ1", ratios(&c1, &j1))?;
    row(out, "(II) join", counts(&j2))?;
    row(out, "(II) join-ratio to SJ1", ratios(&c1, &j2))?;
    row(out, "(II) join-ratio to SJ2", ratios(&c2, &j2))?;
    row(out, "sort trees once", counts(&tree_sort))?;
    row(
        out,
        "(II) in-join sorting",
        v2.iter().map(|s| fmt_count(s.sort_comparisons)),
    )?;
    // Repeat-factor: how many times each page could be sorted on fetch
    // before "sweep with sort" loses to "SJ2 without sort":
    // (SJ2_join - (II)_join) / one-time-sort-cost.
    let saving: Vec<u64> = c2
        .iter()
        .zip(&j2)
        .map(|(&c, &j)| c.saturating_sub(j))
        .collect();
    row(out, "repeat-factor to SJ2", ratios(&saving, &tree_sort))?;
    writeln!(out)
}

/// Join comparisons per page size.
fn join_comparisons(per_page: &[JoinStats]) -> Vec<u64> {
    per_page.iter().map(|s| s.join_comparisons).collect()
}

fn counts(per_page: &[u64]) -> impl Iterator<Item = String> + '_ {
    per_page.iter().map(|&c| fmt_count(c))
}

/// `num / den` per page size, to two decimals.
fn ratios<'a>(num: &'a [u64], den: &'a [u64]) -> impl Iterator<Item = String> + 'a {
    num.iter()
        .zip(den)
        .map(|(&n, &d)| format!("{:.2}", n as f64 / d.max(1) as f64))
}

/// Comparisons needed to sort every node of a tree once by `xl` — the
/// "sorting" cost of Table 4's maintained-sorted scenario. Each node's
/// entries are first put back in reference order (data id, page id: the
/// arrival order an unsorted tree would hold them in) and sorted from
/// there; sorting the nodes as stored would only count the n − 1
/// comparisons that verify an order.
fn tree_sort_comparisons(tree: &RTree) -> u64 {
    let mut cmp = CmpCounter::new();
    tree.for_each_node(|_, node| {
        let mut entries = node.entries.clone();
        entries.sort_by_key(|e| match e.child {
            ChildRef::Data(d) => d.0,
            ChildRef::Page(p) => u64::from(p.0),
        });
        let rects: Vec<Rect> = entries.iter().map(|e| e.rect).collect();
        let mut idx: Vec<usize> = (0..rects.len()).collect();
        sort_indices_by_xl(&rects, &mut idx, &mut cmp);
    });
    cmp.get()
}
