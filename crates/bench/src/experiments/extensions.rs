//! Extension experiments beyond the paper's tables.
//!
//! * **Tree quality** — how the insertion/loading algorithm (R\*, Guttman
//!   quadratic, Guttman linear, STR and Hilbert bulk load) affects join
//!   cost, next to the shape of the tree it built (nodes per level and
//!   their mean width × height); §3 of the paper motivates R\*-trees with
//!   exactly this argument but never measures it for joins.
//! * **Baselines** — SJ4 against the index nested-loop join (one window
//!   query per outer record) and, at small scale, the flat nested loop;
//!   quantifies §2.1's claim that classical join methods are not viable.
//! * **Refinement** — the full ID-spatial-join pipeline: MBR filter +
//!   exact-geometry refinement, reporting filter selectivity and the heap
//!   I/O the refinement step adds.

use crate::experiments::{run_join, run_on};
use crate::{build_hilbert, build_str, build_with_policy, fmt_count, Workbench};
use rsj_core::{baseline, id_join, JoinConfig, JoinPlan, ObjectRelation};
use rsj_datagen::TestId;
use rsj_rtree::InsertPolicy;
use rsj_storage::CostModel;
use std::io::Write;

const PAGE: usize = 4096;
const BUFFER: usize = 128 * 1024;

/// Join cost by tree construction method (ablation).
pub fn tree_quality(w: &mut Workbench, out: &mut dyn Write) -> std::io::Result<()> {
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
    let items_r = rsj_datagen::mbr_items(&w.data.r);
    let items_s = rsj_datagen::mbr_items(&w.data.s);
    type Builder = Box<dyn Fn(&[(rsj_geom::Rect, u64)]) -> rsj_rtree::RTree>;
    let builds: Vec<(&str, Builder)> = vec![
        (
            "R*-tree",
            Box::new(|i| build_with_policy(i, PAGE, InsertPolicy::RStar)),
        ),
        (
            "Guttman quadratic",
            Box::new(|i| build_with_policy(i, PAGE, InsertPolicy::GuttmanQuadratic)),
        ),
        (
            "Guttman linear",
            Box::new(|i| build_with_policy(i, PAGE, InsertPolicy::GuttmanLinear)),
        ),
        ("STR bulk load", Box::new(|i| build_str(i, PAGE))),
        ("Hilbert bulk load", Box::new(|i| build_hilbert(i, PAGE))),
    ];
    for (name, build) in &builds {
        let r = build(&items_r);
        let s = build(&items_s);
        let stats = run_join(&r, &s, JoinPlan::sj4(), BUFFER);
        writeln!(
            out,
            "| {name} | {} | {} | {} | {} |",
            fmt_count(stats.io.disk_accesses),
            fmt_count(stats.total_comparisons()),
            fmt_count(stats.result_pairs),
            level_shapes(&r)
        )?;
    }
    writeln!(out)?;
    Ok(())
}

/// Node count and mean node-MBR width × height of every level, leaves
/// first — strips or heavy overlap show here before they show as a slow
/// join.
fn level_shapes(t: &rsj_rtree::RTree) -> String {
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

/// SJ4 vs the baseline join strategies.
pub fn baselines(w: &mut Workbench, out: &mut dyn Write) -> std::io::Result<()> {
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
    let sj4 = run_on(w, PAGE, JoinPlan::sj4(), BUFFER);
    writeln!(
        out,
        "| SJ4 | {} | {} | {} |",
        fmt_count(sj4.io.disk_accesses),
        fmt_count(sj4.total_comparisons()),
        crate::fmt_secs(sj4.time(&model).total())
    )?;
    let r = w.tree_r(PAGE);
    let s = w.tree_s(PAGE);
    let (_, inl) = baseline::index_nested_loop_join(&r, &s, &JoinConfig::with_buffer(BUFFER));
    writeln!(
        out,
        "| index nested loop | {} | {} | {} |",
        fmt_count(inl.io.disk_accesses),
        fmt_count(inl.total_comparisons()),
        crate::fmt_secs(inl.time(&model).total())
    )?;
    // Flat nested loop: comparisons only (no index I/O model); cap the size
    // so `experiments all` stays fast at large scales.
    let cap = 20_000;
    let items_r: Vec<_> = rsj_datagen::mbr_items(&w.data.r)
        .into_iter()
        .take(cap)
        .collect();
    let items_s: Vec<_> = rsj_datagen::mbr_items(&w.data.s)
        .into_iter()
        .take(cap)
        .collect();
    let (_, cmps) = baseline::nested_loop_join(&items_r, &items_s);
    writeln!(
        out,
        "| flat nested loop (first {} x {}) | n/a | {} | {} |",
        fmt_count(items_r.len() as u64),
        fmt_count(items_s.len() as u64),
        fmt_count(cmps),
        crate::fmt_secs(model.cpu_time(cmps))
    )?;
    writeln!(out)?;
    Ok(())
}

/// Buffer replacement-policy ablation: the paper's LRU vs FIFO vs Clock
/// under SJ1 (no schedule help) and SJ4 (spatially local schedule).
pub fn buffer_policies(w: &mut Workbench, out: &mut dyn Write) -> std::io::Result<()> {
    use rsj_storage::EvictionPolicy;
    writeln!(
        out,
        "### Extension: buffer replacement policy (4 KByte pages, disk accesses)\n"
    )?;
    writeln!(out, "| algorithm | buffer | LRU | FIFO | Clock |")?;
    writeln!(out, "|---|---|---|---|---|")?;
    let r = w.tree_r(PAGE);
    let s = w.tree_s(PAGE);
    for (name, plan) in [("SJ1", JoinPlan::sj1()), ("SJ4", JoinPlan::sj4())] {
        for buf in [32 * 1024usize, 128 * 1024] {
            let mut row = Vec::new();
            for policy in [
                EvictionPolicy::Lru,
                EvictionPolicy::Fifo,
                EvictionPolicy::Clock,
            ] {
                let cfg = rsj_core::JoinConfig {
                    buffer_bytes: buf,
                    collect_pairs: false,
                    eviction: policy,
                };
                row.push(
                    rsj_core::spatial_join(&r, &s, plan, &cfg)
                        .stats
                        .io
                        .disk_accesses,
                );
            }
            writeln!(
                out,
                "| {name} | {} | {} | {} | {} |",
                crate::fmt_buffer(buf),
                fmt_count(row[0]),
                fmt_count(row[1]),
                fmt_count(row[2])
            )?;
        }
    }
    writeln!(out)?;
    Ok(())
}

/// The two-step ID-spatial-join: filter + refinement.
pub fn refinement(scale: f64, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "### Extension: ID-spatial-join (filter + refinement)\n"
    )?;
    writeln!(
        out,
        "| test | candidates (MBR pairs) | exact pairs | selectivity | filter disk accesses | refinement heap accesses |"
    )?;
    writeln!(out, "|---|---|---|---|---|---|")?;
    for t in [TestId::A, TestId::E] {
        let mut w = Workbench::new(t, scale);
        let r = w.tree_r(PAGE);
        let s = w.tree_s(PAGE);
        let robj = ObjectRelation::build(PAGE, w.data.r.iter().map(|o| (o.id, o.geometry.clone())));
        let sobj = ObjectRelation::build(PAGE, w.data.s.iter().map(|o| (o.id, o.geometry.clone())));
        let res = id_join(
            &r,
            &s,
            &robj,
            &sobj,
            JoinPlan::sj4(),
            &JoinConfig::with_buffer(BUFFER),
        );
        writeln!(
            out,
            "| {t} | {} | {} | {:.2} | {} | {} |",
            fmt_count(res.candidates),
            fmt_count(res.pairs.len() as u64),
            res.selectivity(),
            fmt_count(res.filter.io.disk_accesses),
            fmt_count(res.refine_io.disk_accesses)
        )?;
    }
    writeln!(out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_render() {
        let mut w = Workbench::new(TestId::A, 0.002);
        let mut buf = Vec::new();
        tree_quality(&mut w, &mut buf).unwrap();
        baselines(&mut w, &mut buf).unwrap();
        buffer_policies(&mut w, &mut buf).unwrap();
        refinement(0.002, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("tree quality"));
        assert!(text.contains("| Hilbert bulk load |") && text.contains(" @ "));
        assert!(text.contains("index nested loop"));
        assert!(text.contains("Clock"));
        assert!(text.contains("selectivity") || text.contains("ID-spatial-join"));
    }
}
