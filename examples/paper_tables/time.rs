//! Figures 2, 8 and 9: the grids priced by the paper's linear cost model
//! (15 ms positioning per access, 5 ms per KByte, 3.9 µs per comparison).
//! SJ1 starts I/O-bound at 1 KByte pages and turns CPU-bound as pages
//! grow; SJ4 stays I/O-bound.

use std::fmt::{self, Write};

use rsj::prelude::*;

use super::{buffer_rows, fmt_kbyte, fmt_secs, page_header, Grid, PAGE_SIZES};

/// Figure 2: estimated execution time of SJ1 and its I/O / CPU split.
pub(crate) fn figure2(out: &mut String, sj1: &Grid) -> fmt::Result {
    time_figure(
        out,
        "### Figure 2: estimated execution time of SpatialJoin1\n\n\
         Total time (positioning + transfer + comparisons):",
        "I/O share of total time (no LRU buffer):",
        sj1,
    )
}

/// Figure 8: the same for SJ4.
pub(crate) fn figure8(out: &mut String, sj4: &Grid) -> fmt::Result {
    time_figure(
        out,
        "### Figure 8: total join time of SJ4 and CPU/IO split",
        "I/O share of total (no LRU buffer):",
        sj4,
    )
}

/// Figure 9: SJ4's improvement factor over SJ1 and SJ2 in total time.
pub(crate) fn figure9(out: &mut String, sj1: &Grid, sj2: &Grid, sj4: &Grid) -> fmt::Result {
    let model = CostModel::default();
    writeln!(
        out,
        "### Figure 9: improvement factor of SJ4 in total join time\n"
    )?;
    for (name, base) in [("SJ1", sj1), ("SJ2", sj2)] {
        writeln!(out, "factor {name} / SJ4:\n")?;
        page_header(out, "| LRU buffer |")?;
        buffer_rows(out, |bi, pi| {
            let b = base[bi][pi].time(&model).total();
            let t = sj4[bi][pi].time(&model).total().max(1e-12);
            format!("{:.2}", b / t)
        })?;
        writeln!(out)?;
    }
    Ok(())
}

/// Total estimated time over the grid, then the split at no LRU buffer.
fn time_figure(out: &mut String, heading: &str, split: &str, grid: &Grid) -> fmt::Result {
    let model = CostModel::default();
    writeln!(out, "{heading}\n")?;
    page_header(out, "| LRU buffer |")?;
    buffer_rows(out, |bi, pi| fmt_secs(grid[bi][pi].time(&model).total()))?;
    writeln!(out, "\n{split}\n")?;
    writeln!(out, "| page size | I/O time | CPU time | I/O share |")?;
    writeln!(out, "|---|---|---|---|")?;
    for (stats, page) in grid[0].iter().zip(PAGE_SIZES) {
        let t = stats.time(&model);
        writeln!(
            out,
            "| {} | {} | {} | {:.0} % |",
            fmt_kbyte(page),
            fmt_secs(t.io_s),
            fmt_secs(t.cpu_s),
            100.0 * t.io_fraction()
        )?;
    }
    writeln!(out)
}
