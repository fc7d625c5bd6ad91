//! Tables 3 and 4: CPU-time tuning.
//!
//! Table 3 compares the comparison counts of SJ1 and SJ2 (search-space
//! restriction), a gain of 4.6–8.9× in the paper. Table 4 measures the
//! plane-sweep variants: version (I) sorts and sweeps *without*
//! restriction, version (II) *with* restriction; the join and sorting costs
//! are reported separately and combined into the paper's join-ratios and
//! the *repeat-factor* — how often a page could be re-sorted on fetch
//! before sorting stops paying off. Of the two sorting regimes the table
//! prices, the engine runs the maintained-sorted one (`rsj_rtree::node`,
//! "Entry order"): "sort trees once" is a cost the writers have paid, and
//! "in-join sorting" is what verifying that order costs the join.

use crate::experiments::{run_on, tree_sort_comparisons};
use crate::{fmt_count, fmt_page, Workbench, PAGE_SIZES};
use rsj_core::JoinPlan;
use std::io::Write;

/// Prints Table 3. Returns `(sj1, sj2)` comparison counts per page size.
pub fn table3(w: &mut Workbench, out: &mut dyn Write) -> std::io::Result<Vec<(u64, u64)>> {
    writeln!(
        out,
        "### Table 3: comparisons with/without restricting the search space\n"
    )?;
    write!(out, "| |")?;
    for &page in &PAGE_SIZES {
        write!(out, " {} |", fmt_page(page))?;
    }
    writeln!(out)?;
    writeln!(out, "|---|{}", "---|".repeat(PAGE_SIZES.len()))?;
    let mut counts = Vec::new();
    for &page in &PAGE_SIZES {
        let c1 = run_on(w, page, JoinPlan::sj1(), 0).join_comparisons;
        let c2 = run_on(w, page, JoinPlan::sj2(), 0).join_comparisons;
        counts.push((c1, c2));
    }
    for (name, idx) in [("SpatialJoin1", 0usize), ("SpatialJoin2", 1)] {
        write!(out, "| {name} |")?;
        for &(c1, c2) in &counts {
            write!(out, " {} |", fmt_count(if idx == 0 { c1 } else { c2 }))?;
        }
        writeln!(out)?;
    }
    write!(out, "| performance gain |")?;
    for &(c1, c2) in &counts {
        write!(out, " {:.2} |", c1 as f64 / c2.max(1) as f64)?;
    }
    writeln!(out, "\n")?;
    Ok(counts)
}

/// Prints Table 4, reusing the SJ1/SJ2 counts from Table 3.
pub fn table4(
    w: &mut Workbench,
    sj_counts: &[(u64, u64)],
    out: &mut dyn Write,
) -> std::io::Result<()> {
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
    write!(out, "| |")?;
    for &page in &PAGE_SIZES {
        write!(out, " {} |", fmt_page(page))?;
    }
    writeln!(out)?;
    writeln!(out, "|---|{}", "---|".repeat(PAGE_SIZES.len()))?;

    let mut v1 = Vec::new(); // version (I)
    let mut v2 = Vec::new(); // version (II)
    let mut tree_sort = Vec::new();
    for &page in &PAGE_SIZES {
        v1.push(run_on(w, page, JoinPlan::sweep_unrestricted(), 0));
        v2.push(run_on(w, page, JoinPlan::sj3(), 0));
        let cost = tree_sort_comparisons(&w.tree_r(page)) + tree_sort_comparisons(&w.tree_s(page));
        tree_sort.push(cost);
    }

    write!(out, "| (I) join |")?;
    for s in &v1 {
        write!(out, " {} |", fmt_count(s.join_comparisons))?;
    }
    writeln!(out)?;
    write!(out, "| (I) join-ratio to SJ1 |")?;
    for (s, &(c1, _)) in v1.iter().zip(sj_counts) {
        write!(
            out,
            " {:.2} |",
            c1 as f64 / s.join_comparisons.max(1) as f64
        )?;
    }
    writeln!(out)?;
    write!(out, "| (II) join |")?;
    for s in &v2 {
        write!(out, " {} |", fmt_count(s.join_comparisons))?;
    }
    writeln!(out)?;
    write!(out, "| (II) join-ratio to SJ1 |")?;
    for (s, &(c1, _)) in v2.iter().zip(sj_counts) {
        write!(
            out,
            " {:.2} |",
            c1 as f64 / s.join_comparisons.max(1) as f64
        )?;
    }
    writeln!(out)?;
    write!(out, "| (II) join-ratio to SJ2 |")?;
    for (s, &(_, c2)) in v2.iter().zip(sj_counts) {
        write!(
            out,
            " {:.2} |",
            c2 as f64 / s.join_comparisons.max(1) as f64
        )?;
    }
    writeln!(out)?;
    write!(out, "| sort trees once |")?;
    for &c in &tree_sort {
        write!(out, " {} |", fmt_count(c))?;
    }
    writeln!(out)?;
    write!(out, "| (II) in-join sorting |")?;
    for s in &v2 {
        write!(out, " {} |", fmt_count(s.sort_comparisons))?;
    }
    writeln!(out)?;
    // Repeat-factor: how many times each page could be sorted on fetch
    // before "sweep with sort" loses to "SJ2 without sort":
    // (SJ2_join - (II)_join) / one-time-sort-cost.
    write!(out, "| repeat-factor to SJ2 |")?;
    for (s, (&(_, c2), &sort)) in v2.iter().zip(sj_counts.iter().zip(&tree_sort)) {
        let saving = c2.saturating_sub(s.join_comparisons) as f64;
        write!(out, " {:.2} |", saving / sort.max(1) as f64)?;
    }
    writeln!(out, "\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_datagen::TestId;

    #[test]
    fn cpu_tables_render_and_gain_is_positive() {
        // Needs a representative scale: on toy trees the restriction scans
        // cost more than they save, which is not the regime the paper (or
        // any real map) operates in.
        let mut w = Workbench::new(TestId::A, 0.01);
        let mut buf = Vec::new();
        let counts = table3(&mut w, &mut buf).unwrap();
        for &(c1, c2) in &counts {
            assert!(c2 < c1, "restriction must reduce comparisons: {c1} -> {c2}");
        }
        table4(&mut w, &counts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Table 3"));
        assert!(text.contains("repeat-factor"));
    }
}
