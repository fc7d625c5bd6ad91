//! Regenerates the paper's evaluation (§4): Tables 1–8 and Figures 2, 8–10
//! as disk-access and comparison counts priced by the §4.1 cost model, then
//! three extension tables (tree quality, baselines, ID-join refinement).
//!
//! ```sh
//! cargo run --release --example paper_tables                   # scale 0.01
//! cargo run --release --example paper_tables -- --scale 1.0    # the paper's cardinalities
//! ```
//!
//! `--scale S` in (0, 1] multiplies the paper's cardinalities (131k–599k
//! objects per relation); the generators shrink the world with √S, so
//! object density and join selectivity are preserved (`rsj-datagen`).
//! Every number is deterministic: `tests/paper_tables.rs` holds the default
//! scale's transcript to `tests/golden/paper_tables.md` byte for byte.
//! Wall time is not measured here; that is the repo benchmark's job
//! (`benchmark/`).

#[path = "paper_tables/cpu.rs"]
mod cpu;
#[path = "paper_tables/extensions.rs"]
mod extensions;
#[path = "paper_tables/io.rs"]
mod io;
#[path = "paper_tables/other_tests.rs"]
mod other_tests;
#[path = "paper_tables/time.rs"]
mod time;

use std::fmt::{self, Write};

use rsj::datagen::{mbr_items, preset, PresetData, SpatialObject};
use rsj::prelude::*;

/// The scale `main` runs at without `--scale`, and the golden file's.
pub(crate) const DEFAULT_SCALE: f64 = 0.01;

/// The paper's page-size grid in bytes (Table 1 ff.).
pub(crate) const PAGE_SIZES: [usize; 4] = [1024, 2048, 4096, 8192];

/// The paper's LRU-buffer grid in bytes (Table 2 ff.).
pub(crate) const BUFFER_SIZES: [usize; 5] = [0, 8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024];

/// Join statistics over the whole grid: `grid[buffer][page]`, indexed like
/// [`BUFFER_SIZES`] and [`PAGE_SIZES`].
pub(crate) type Grid = Vec<Vec<JoinStats>>;

#[allow(dead_code)] // `tests/paper_tables.rs` loads this file as a module.
fn main() {
    let scale = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("error: {err}\nusage: paper_tables [--scale S in (0, 1]]");
        std::process::exit(2);
    });
    print!("{}", transcript(scale));
}

/// The scale the command line asks for. `--scale S` is the only argument.
pub(crate) fn parse_args(mut args: impl Iterator<Item = String>) -> Result<f64, String> {
    let mut scale = DEFAULT_SCALE;
    while let Some(arg) = args.next() {
        if arg != "--scale" {
            return Err(format!("unknown argument `{arg}`"));
        }
        let value = args.next().ok_or("missing value after --scale")?;
        scale = value
            .parse()
            .ok()
            .filter(|s| *s > 0.0 && *s <= 1.0)
            .ok_or("--scale expects a float in (0, 1]")?;
    }
    Ok(scale)
}

/// Every table and figure at `scale`, in the paper's order, as markdown.
pub(crate) fn transcript(scale: f64) -> String {
    let mut out = String::new();
    write_transcript(&mut out, scale).expect("formatting into a String cannot fail");
    out
}

fn write_transcript(out: &mut String, scale: f64) -> fmt::Result {
    writeln!(
        out,
        "# SIGMOD'93 spatial-join reproduction — experiment run"
    )?;
    writeln!(
        out,
        "scale = {scale} (paper cardinality x scale, world shrunk by sqrt(scale))\n"
    )?;
    // Test (A) carries Tables 1–6, Figures 2, 8, 9 and the extensions.
    let a = Preset::new(TestId::A, scale);
    let [sj1, sj2, sj4] = [JoinPlan::sj1(), JoinPlan::sj2(), JoinPlan::sj4()].map(|p| a.grid(p));
    io::table1(out, &a, scale)?;
    io::table2(out, &a, &sj1)?;
    time::figure2(out, &sj1)?;
    cpu::table3(out, &sj1, &sj2)?;
    cpu::table4(out, &a, &sj1, &sj2)?;
    io::table5(out, &a)?;
    io::table6(out, &a, &sj1, &sj4)?;
    other_tests::table7(out, scale)?;
    time::figure8(out, &sj4)?;
    time::figure9(out, &sj1, &sj2, &sj4)?;
    other_tests::table8_figure10(out, &a, scale)?;
    extensions::tree_quality(out, &a)?;
    extensions::baselines(out, &a)?;
    extensions::refinement(out, &a, scale)
}

/// One of the paper's tests with its R\*-trees built at every page size.
pub(crate) struct Preset {
    pub(crate) data: PresetData,
    /// `(R, S)` per entry of [`PAGE_SIZES`].
    pub(crate) trees: Vec<(RTree, RTree)>,
}

impl Preset {
    pub(crate) fn new(test: TestId, scale: f64) -> Self {
        let data = preset(test, scale);
        let trees = PAGE_SIZES
            .iter()
            .map(|&page| (rstar(&data.r, page), rstar(&data.s, page)))
            .collect();
        Preset { data, trees }
    }

    /// `plan` over every (buffer × page) cell.
    pub(crate) fn grid(&self, plan: JoinPlan) -> Grid {
        BUFFER_SIZES
            .iter()
            .map(|&buf| {
                self.trees
                    .iter()
                    .map(|(r, s)| join(r, s, plan, buf))
                    .collect()
            })
            .collect()
    }

    /// |R| + |S| at page size `pi`: every page read once, the optimum of
    /// Tables 2 and 6.
    pub(crate) fn optimum(&self, pi: usize) -> u64 {
        let (r, s) = &self.trees[pi];
        (r.stats().total_pages() + s.stats().total_pages()) as u64
    }
}

/// An R\*-tree over `objs` by dynamic insertion — the way the paper's
/// trees were built.
pub(crate) fn rstar(objs: &[SpatialObject], page_bytes: usize) -> RTree {
    inserted(&mbr_items(objs), page_bytes, InsertPolicy::RStar)
}

/// A tree over `items` by dynamic insertion under `policy`.
pub(crate) fn inserted(items: &[(Rect, u64)], page_bytes: usize, policy: InsertPolicy) -> RTree {
    let mut t = RTree::new(RTreeParams::with_policy(page_bytes, policy));
    for &(r, id) in items {
        t.insert(r, DataId(id));
    }
    t
}

/// One counting-only join under an LRU buffer of `buffer_bytes`.
pub(crate) fn join(r: &RTree, s: &RTree, plan: JoinPlan, buffer_bytes: usize) -> JoinStats {
    let cfg = JoinConfig {
        buffer_bytes,
        collect_pairs: false,
    };
    spatial_join(r, s, plan, &cfg).stats
}

/// A header row whose columns are the page sizes, after `first` (the
/// first cell, bars included), and its separator row.
pub(crate) fn page_header(out: &mut String, first: &str) -> fmt::Result {
    write!(out, "{first}")?;
    for page in PAGE_SIZES {
        write!(out, " {} |", fmt_kbyte(page))?;
    }
    writeln!(out)?;
    writeln!(out, "|---|{}", "---|".repeat(PAGE_SIZES.len()))
}

/// One row per LRU buffer size; `cell(buffer, page)` fills the columns.
pub(crate) fn buffer_rows(out: &mut String, cell: impl Fn(usize, usize) -> String) -> fmt::Result {
    for (bi, &buf) in BUFFER_SIZES.iter().enumerate() {
        row(
            out,
            &fmt_kbyte(buf),
            (0..PAGE_SIZES.len()).map(|pi| cell(bi, pi)),
        )?;
    }
    Ok(())
}

/// A table row: `label`, then `cells`.
pub(crate) fn row(
    out: &mut String,
    label: &str,
    cells: impl IntoIterator<Item = String>,
) -> fmt::Result {
    write!(out, "| {label} |")?;
    for cell in cells {
        write!(out, " {cell} |")?;
    }
    writeln!(out)
}

/// A count with thousands separators, paper style ("24,727").
pub(crate) fn fmt_count(n: u64) -> String {
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

/// Seconds at three significant digits or so. The unit is chosen after
/// rounding, so 0.9996 s prints "1.0 s", not "1000 ms".
pub(crate) fn fmt_secs(s: f64) -> String {
    if (s * 10.0).round() >= 1000.0 {
        format!("{s:.0} s")
    } else if (s * 1000.0).round() >= 1000.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.0} ms", s * 1000.0)
    }
}

/// A page or buffer size in the paper's KByte convention.
pub(crate) fn fmt_kbyte(bytes: usize) -> String {
    format!("{} KByte", bytes / 1024)
}
