//! Table 7 (§4.4, trees of different height) and Table 8 with Figure 10
//! (§5, SJ4 against SJ1 on the tests (A)–(E)).

use std::fmt::{self, Write};

use rsj::datagen::preset;
use rsj::prelude::*;

use super::{fmt_count, fmt_kbyte, join, page_header, row, rstar, Preset, BUFFER_SIZES};

/// Table 7: a large street tree joined with the river tree, under the three
/// directory × leaf policies — (a) per-pair window queries, (b) batched
/// window queries, (c) plane-sweep order with pinning. Heights depend on
/// the scale; the policies only matter in the mixed directory/leaf phase,
/// so when both trees come out the same height the scale is halved until
/// they differ (the table says which scale it ran at).
pub(crate) fn table7(out: &mut String, scale: f64) -> fmt::Result {
    const PAGE: usize = 2048;
    writeln!(
        out,
        "### Table 7: I/O-performance for R*-trees of different height"
    )?;
    writeln!(
        out,
        "(test (C): large street relation x rivers, 2 KByte pages)\n"
    )?;
    let mut use_scale = scale;
    let (data, r, s) = loop {
        let data = preset(TestId::C, use_scale);
        let (r, s) = (rstar(&data.r, PAGE), rstar(&data.s, PAGE));
        if r.height() != s.height() || use_scale < 1e-4 {
            break (data, r, s);
        }
        use_scale *= 0.5;
    };
    writeln!(
        out,
        "scale {use_scale}: |R| = {}, height {}; |S| = {}, height {}\n",
        fmt_count(data.r.len() as u64),
        r.height(),
        fmt_count(data.s.len() as u64),
        s.height(),
    )?;
    if r.height() == s.height() {
        writeln!(
            out,
            "WARNING: could not produce trees of different height; policies coincide.\n"
        )?;
    }
    writeln!(
        out,
        "| LRU buffer | (a) per pair | (b) batched | (c) sweep+pin |"
    )?;
    writeln!(out, "|---|---|---|---|")?;
    for buf in BUFFER_SIZES {
        let policies = [
            DiffHeightPolicy::PerPair,
            DiffHeightPolicy::Batched,
            DiffHeightPolicy::SweepPinned,
        ];
        let cells = policies.map(|diff_height| {
            let plan = JoinPlan {
                diff_height,
                ..JoinPlan::sj4()
            };
            fmt_count(join(&r, &s, plan, buf).io.disk_accesses)
        });
        row(out, &fmt_kbyte(buf), cells)?;
    }
    writeln!(out)
}

/// Table 8: the characteristics of tests (A)–(E); Figure 10: SJ4's
/// improvement factor over SJ1 in total estimated time per test, at a
/// 128 KByte buffer.
pub(crate) fn table8_figure10(out: &mut String, a: &Preset, scale: f64) -> fmt::Result {
    const BUFFER: usize = 128 * 1024;
    writeln!(
        out,
        "### Table 8: characteristics of tests (A)-(E), scale {scale}\n"
    )?;
    writeln!(
        out,
        "| test | ||R||dat | ||S||dat | intersections | paper (x scale) |"
    )?;
    writeln!(out, "|---|---|---|---|---|")?;
    let others: Vec<Preset> = TestId::ALL[1..]
        .iter()
        .map(|&t| Preset::new(t, scale))
        .collect();
    let presets: Vec<&Preset> = std::iter::once(a).chain(&others).collect();
    for p in &presets {
        let t = p.data.test;
        // Intersections are algorithm-independent; count them once at 4 KByte.
        let (r, s) = &p.trees[2];
        writeln!(
            out,
            "| {t} | {} | {} | {} | {} |",
            fmt_count(p.data.r.len() as u64),
            fmt_count(p.data.s.len() as u64),
            fmt_count(join(r, s, JoinPlan::sj4(), BUFFER).result_pairs),
            fmt_count((t.paper_intersections() as f64 * scale) as u64),
        )?;
    }
    writeln!(out)?;

    writeln!(
        out,
        "### Figure 10: improvement factor SJ4 over SJ1, 128 KByte buffer\n"
    )?;
    page_header(out, "| test |")?;
    let model = CostModel::default();
    for p in &presets {
        let factors = p.trees.iter().map(|(r, s)| {
            let t1 = join(r, s, JoinPlan::sj1(), BUFFER).time(&model).total();
            let t4 = join(r, s, JoinPlan::sj4(), BUFFER).time(&model).total();
            format!("{:.2}", t1 / t4.max(1e-12))
        });
        row(out, &p.data.test.to_string(), factors)?;
    }
    writeln!(out)
}
