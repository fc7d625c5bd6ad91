//! Extension tables beyond the paper's, all at 4 KByte pages and a
//! 128 KByte buffer:
//!
//! * **Tree quality** — join cost by insertion or loading algorithm (R\*,
//!   Guttman quadratic and linear, STR and Hilbert bulk load), next to the
//!   shape of the tree it built; §3 motivates R\*-trees with this argument
//!   but never measures it for joins.
//! * **Baselines** — SJ4 against the index nested-loop join (one window
//!   query per outer record) and the flat nested loop; §2.1's claim that
//!   classical join methods are not viable.
//! * **Refinement** — the ID-spatial-join: MBR filter plus exact-geometry
//!   refinement, with filter selectivity and the object-page I/O that
//!   refinement adds.

use std::fmt::{self, Write};

use rsj::datagen::{mbr_items, preset, SpatialObject};
use rsj::join::baseline;
use rsj::prelude::*;
use rsj::rtree::bulk::{self, BulkLayout};

use super::{fmt_count, fmt_secs, inserted, join, rstar, Preset};

const PAGE: usize = 4096;
const BUFFER: usize = 128 * 1024;

/// Join cost by tree construction method.
pub(crate) fn tree_quality(out: &mut String, a: &Preset) -> fmt::Result {
    writeln!(
        out,
        "### Extension: tree quality vs join cost (SJ4, 4 KByte pages, 128 KByte buffer)\n"
    )?;
    writeln!(
        out,
        "| construction | disk accesses | comparisons | result pairs \
         | R nodes per level, leaves first: count @ mean width × height |"
    )?;
    writeln!(out, "|---|---|---|---|---|")?;
    let items_r = mbr_items(&a.data.r);
    let items_s = mbr_items(&a.data.s);
    type Build = fn(&[(Rect, u64)]) -> RTree;
    let builds: [(&str, Build); 5] = [
        ("R*-tree", |i| inserted(i, PAGE, InsertPolicy::RStar)),
        ("Guttman quadratic", |i| {
            inserted(i, PAGE, InsertPolicy::GuttmanQuadratic)
        }),
        ("Guttman linear", |i| {
            inserted(i, PAGE, InsertPolicy::GuttmanLinear)
        }),
        ("STR bulk load", |i| packed(i, BulkLayout::Str)),
        ("Hilbert bulk load", |i| packed(i, BulkLayout::Hilbert)),
    ];
    for (name, build) in builds {
        let (r, s) = (build(&items_r), build(&items_s));
        let stats = join(&r, &s, JoinPlan::sj4(), BUFFER);
        writeln!(
            out,
            "| {name} | {} | {} | {} | {} |",
            fmt_count(stats.io.disk_accesses),
            fmt_count(stats.total_comparisons()),
            fmt_count(stats.result_pairs),
            level_shapes(&r)
        )?;
    }
    writeln!(out)
}

fn packed(items: &[(Rect, u64)], layout: BulkLayout) -> RTree {
    let data: Vec<(Rect, DataId)> = items.iter().map(|&(r, id)| (r, DataId(id))).collect();
    let params = RTreeParams::for_page_size(PAGE);
    match layout {
        BulkLayout::Str => bulk::str_load(params, &data, bulk::DEFAULT_FILL),
        BulkLayout::Hilbert => bulk::hilbert_load(params, &data, bulk::DEFAULT_FILL),
    }
    .expect("preset rectangles are finite")
}

/// Node count and mean node-MBR width × height of every level, leaves
/// first — strips or heavy overlap show here before they show as a slow
/// join.
fn level_shapes(t: &RTree) -> String {
    let mut levels = vec![(0usize, 0.0f64, 0.0f64); t.height() as usize];
    t.for_each_node(|_, node| {
        let bb = node.mbr();
        let l = &mut levels[node.level as usize];
        *l = (l.0 + 1, l.1 + bb.width(), l.2 + bb.height());
    });
    let cells: Vec<String> = levels
        .iter()
        .map(|&(n, w, h)| format!("{n} @ {:.1} × {:.1}", w / n as f64, h / n as f64))
        .collect();
    cells.join("; ")
}

/// SJ4 against the baseline join strategies.
pub(crate) fn baselines(out: &mut String, a: &Preset) -> fmt::Result {
    let model = CostModel::default();
    writeln!(
        out,
        "### Extension: baselines (4 KByte pages, 128 KByte buffer)\n"
    )?;
    writeln!(
        out,
        "| strategy | disk accesses | comparisons | est. time |"
    )?;
    writeln!(out, "|---|---|---|---|")?;
    let (r, s) = &a.trees[2];
    let sj4 = join(r, s, JoinPlan::sj4(), BUFFER);
    let (_, inl) = baseline::index_nested_loop_join(r, s, &JoinConfig::with_buffer(BUFFER));
    for (name, stats) in [("SJ4", sj4), ("index nested loop", inl)] {
        writeln!(
            out,
            "| {name} | {} | {} | {} |",
            fmt_count(stats.io.disk_accesses),
            fmt_count(stats.total_comparisons()),
            fmt_secs(stats.time(&model).total())
        )?;
    }
    // Flat nested loop: comparisons only (no index I/O model), capped so
    // large scales stay fast.
    let cap = 20_000;
    let mut items_r = mbr_items(&a.data.r);
    let mut items_s = mbr_items(&a.data.s);
    items_r.truncate(cap);
    items_s.truncate(cap);
    let (_, cmps) = baseline::nested_loop_join(&items_r, &items_s);
    writeln!(
        out,
        "| flat nested loop (first {} x {}) | n/a | {} | {} |",
        fmt_count(items_r.len() as u64),
        fmt_count(items_s.len() as u64),
        fmt_count(cmps),
        fmt_secs(model.cpu_time(cmps))
    )?;
    writeln!(out)
}

/// The two-step ID-spatial-join on tests (A) and (E): filter + refinement.
pub(crate) fn refinement(out: &mut String, a: &Preset, scale: f64) -> fmt::Result {
    writeln!(
        out,
        "### Extension: ID-spatial-join (filter + refinement)\n"
    )?;
    writeln!(
        out,
        "| test | candidates (MBR pairs) | exact pairs | selectivity | filter disk accesses | refinement heap accesses |"
    )?;
    writeln!(out, "|---|---|---|---|---|---|")?;
    let e = preset(TestId::E, scale);
    let e_trees = (rstar(&e.r, PAGE), rstar(&e.s, PAGE));
    let objects = |objs: &[SpatialObject]| {
        ObjectRelation::build(PAGE, objs.iter().map(|o| (o.id, o.geometry.clone())))
    };
    for (data, (r, s)) in [(&a.data, &a.trees[2]), (&e, &e_trees)] {
        let res = id_join(
            r,
            s,
            &objects(&data.r),
            &objects(&data.s),
            JoinPlan::sj4(),
            &JoinConfig::with_buffer(BUFFER),
        );
        writeln!(
            out,
            "| {} | {} | {} | {:.2} | {} | {} |",
            data.test,
            fmt_count(res.candidates),
            fmt_count(res.pairs.len() as u64),
            res.selectivity(),
            fmt_count(res.filter.io.disk_accesses),
            fmt_count(res.refine_io.disk_accesses)
        )?;
    }
    writeln!(out)
}
