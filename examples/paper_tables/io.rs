//! Tables 1, 2, 5 and 6: the trees, and the disk accesses of SJ1 against
//! the read schedules SJ3–SJ5 over the (page × buffer) grid.

use std::fmt::{self, Write};

use rsj::prelude::*;

use super::{
    buffer_rows, fmt_count, fmt_kbyte, join, page_header, row, Grid, Preset, BUFFER_SIZES,
};

/// Table 1: node capacity M and, per tree, height, |·|dir and |·|dat per
/// page size, with |R| + |S|.
pub(crate) fn table1(out: &mut String, a: &Preset, scale: f64) -> fmt::Result {
    writeln!(out, "### Table 1: properties of R*-trees R and S")?;
    writeln!(
        out,
        "(relations: R = {} objects, S = {} objects, scale {scale})\n",
        fmt_count(a.data.r.len() as u64),
        fmt_count(a.data.s.len() as u64),
    )?;
    writeln!(
        out,
        "| page size | M | R height | |R|dir | |R|dat | S height | |S|dir | |S|dat | |R|+|S| |"
    )?;
    writeln!(out, "|---|---|---|---|---|---|---|---|---|")?;
    for (pi, (r, s)) in a.trees.iter().enumerate() {
        let (sr, ss) = (r.stats(), s.stats());
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            fmt_kbyte(r.params().page_bytes),
            r.params().max_entries,
            sr.height,
            fmt_count(sr.dir_pages as u64),
            fmt_count(sr.data_pages as u64),
            ss.height,
            fmt_count(ss.dir_pages as u64),
            fmt_count(ss.data_pages as u64),
            fmt_count(a.optimum(pi)),
        )?;
    }
    writeln!(out)
}

/// Table 2: SJ1's disk accesses over the grid, the optimum, and its
/// (buffer-independent) comparisons per page size.
pub(crate) fn table2(out: &mut String, a: &Preset, sj1: &Grid) -> fmt::Result {
    writeln!(
        out,
        "### Table 2: disk accesses and comparisons of SpatialJoin1\n"
    )?;
    access_table(out, sj1, None)?;
    optimum_row(out, a)?;
    for cells in sj1 {
        assert!(
            cells
                .iter()
                .zip(&sj1[0])
                .all(|(s, s0)| s.join_comparisons == s0.join_comparisons),
            "comparisons must not depend on buffer"
        );
    }
    row(
        out,
        "# comparisons",
        sj1[0].iter().map(|s| fmt_count(s.join_comparisons)),
    )?;
    writeln!(out)
}

/// Table 5: SJ3 (local plane-sweep order), SJ4 (+ pinning) and SJ5 (local
/// z-order + pinning) at 4 KByte pages.
pub(crate) fn table5(out: &mut String, a: &Preset) -> fmt::Result {
    let (r, s) = &a.trees[2];
    writeln!(
        out,
        "### Table 5: disk accesses of SJ3, SJ4 and SJ5 (4 KByte pages)\n"
    )?;
    writeln!(out, "| LRU buffer | SJ3 | SJ4 | SJ5 |")?;
    writeln!(out, "|---|---|---|---|")?;
    for buf in BUFFER_SIZES {
        let plans = [JoinPlan::sj3(), JoinPlan::sj4(), JoinPlan::sj5()];
        let cells = plans.map(|plan| fmt_count(join(r, s, plan, buf).io.disk_accesses));
        row(out, &fmt_kbyte(buf), cells)?;
    }
    writeln!(out)
}

/// Table 6: SJ4's disk accesses over the grid, as a share of SJ1's.
pub(crate) fn table6(out: &mut String, a: &Preset, sj1: &Grid, sj4: &Grid) -> fmt::Result {
    writeln!(
        out,
        "### Table 6: I/O-performance of SJ4 (and % of SJ1's accesses)\n"
    )?;
    access_table(out, sj4, Some(sj1))?;
    optimum_row(out, a)?;
    writeln!(out)
}

/// The disk accesses of a grid; with a `baseline`, each cell also gives
/// its percentage of the baseline's.
fn access_table(out: &mut String, grid: &Grid, baseline: Option<&Grid>) -> fmt::Result {
    page_header(out, "| LRU buffer |")?;
    buffer_rows(out, |bi, pi| {
        let n = grid[bi][pi].io.disk_accesses;
        match baseline {
            Some(b) => {
                let base = b[bi][pi].io.disk_accesses.max(1);
                format!("{} ({:.1} %)", fmt_count(n), 100.0 * n as f64 / base as f64)
            }
            None => fmt_count(n),
        }
    })
}

fn optimum_row(out: &mut String, a: &Preset) -> fmt::Result {
    row(
        out,
        "optimum",
        (0..a.trees.len()).map(|pi| fmt_count(a.optimum(pi))),
    )
}
