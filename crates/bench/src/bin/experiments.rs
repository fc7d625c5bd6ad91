//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [--scale S] [all | table1 | table2 | figure2 | table3 | table4 |
//!              table5 | table6 | table7 | figure8 | figure9 | table8 |
//!              figure10 | extensions]
//! ```
//!
//! `--scale 1.0` reproduces the paper's cardinalities (131k–599k objects per
//! relation); the default of 0.1 runs the whole suite in well under a
//! minute on a laptop while preserving object density (the generators
//! shrink the world with √scale, see `rsj-datagen`).

use rsj_bench::experiments::{cpu, diff_height, extensions, io_sched, sj1_io, summary, table1};
use rsj_bench::Workbench;
use rsj_core::JoinPlan;
use rsj_datagen::TestId;
use std::io::Write;

const DEFAULT_SCALE: f64 = 0.1;

/// Every target besides `all`, in run order. Argument validation and the
/// usage string both read this one list.
const TARGETS: [&str; 13] = [
    "table1",
    "table2",
    "figure2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure8",
    "figure9",
    "table8",
    "figure10",
    "extensions",
];

/// The targets that do *not* run on the shared Test (A) trees.
const NOT_ON_A: [&str; 3] = ["table7", "table8", "figure10"];

fn main() {
    let mut scale = DEFAULT_SCALE;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing value after --scale"));
                scale = v
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .unwrap_or_else(|| usage("--scale expects a float in (0, 1]"));
            }
            "--help" | "-h" => usage(""),
            "all" => targets.extend(TARGETS.map(String::from)),
            known if TARGETS.contains(&known) => targets.push(arg),
            other => usage(&format!("unknown target or flag `{other}`")),
        }
    }
    if targets.is_empty() {
        targets.extend(TARGETS.map(String::from));
    }
    let want = |name: &str| targets.iter().any(|t| t == name);
    let want_any = |names: &[&str]| names.iter().any(|n| want(n));

    let out = &mut std::io::stdout();
    writeln!(
        out,
        "# SIGMOD'93 spatial-join reproduction — experiment run"
    )
    .unwrap();
    writeln!(
        out,
        "scale = {scale} (paper cardinality x scale, world shrunk by sqrt(scale))\n"
    )
    .unwrap();

    // Test (A) trees are shared by Tables 1-6, Figures 2, 8, 9 and the
    // extensions.
    let needs_a = targets.iter().any(|t| !NOT_ON_A.contains(&t.as_str()));
    let mut wa = needs_a.then(|| Workbench::new(TestId::A, scale));

    if want("table1") {
        table1::run(wa.as_mut().unwrap(), out).unwrap();
    }
    // Each grid is computed (and its table printed) when any consumer
    // wants it: Table 6 and Figures 8/9 build on Table 2's SJ1 grid.
    let sj1_grid = want_any(&["table2", "figure2", "table6", "figure8", "figure9"])
        .then(|| sj1_io::table2(wa.as_mut().unwrap(), out).unwrap());
    if want("figure2") {
        sj1_io::figure2(sj1_grid.as_ref().unwrap(), out).unwrap();
    }
    let sj_counts =
        want_any(&["table3", "table4"]).then(|| cpu::table3(wa.as_mut().unwrap(), out).unwrap());
    if want("table4") {
        cpu::table4(wa.as_mut().unwrap(), sj_counts.as_ref().unwrap(), out).unwrap();
    }
    if want("table5") {
        io_sched::table5(wa.as_mut().unwrap(), out).unwrap();
    }
    let sj4_grid = want_any(&["table6", "figure8", "figure9"])
        .then(|| io_sched::table6(wa.as_mut().unwrap(), sj1_grid.as_ref().unwrap(), out).unwrap());
    if want("table7") {
        diff_height::run(scale, out).unwrap();
    }
    if want("figure8") {
        summary::figure8(sj4_grid.as_ref().unwrap(), out).unwrap();
    }
    if want("figure9") {
        let sj2 = sj1_io::run_grid(wa.as_mut().unwrap(), JoinPlan::sj2());
        summary::figure9(
            sj1_grid.as_ref().unwrap(),
            &sj2,
            sj4_grid.as_ref().unwrap(),
            out,
        )
        .unwrap();
    }
    if want("table8") || want("figure10") {
        summary::table8_figure10(scale, out).unwrap();
    }
    if want("extensions") {
        extensions::tree_quality(wa.as_mut().unwrap(), out).unwrap();
        extensions::baselines(wa.as_mut().unwrap(), out).unwrap();
        extensions::refinement(scale, out).unwrap();
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: experiments [--scale S in (0, 1]] [all | {}]",
        TARGETS.join(" | ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
