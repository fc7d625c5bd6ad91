//! Set-up, in its own process: generate both relations from the seed,
//! bulk-build them into page files, and compute the expected output over
//! a path that shares nothing with the measured one.

use std::path::Path;
use std::time::Instant;

use rsj_core::{JoinConfig, JoinPlan};
use rsj_datagen::synthetic::{clustered_rects, uniform_rects};
use rsj_geom::Rect;
use rsj_rtree::bulk::{self, BulkConfig, BulkLayout, BulkStats};
use rsj_rtree::{DataId, RTree, RTreeParams};

use crate::check::{Expected, PairCheck};
use crate::json::Json;
use crate::spec;
use crate::stats::median;

pub const R_FILE: &str = "r.rsj";
pub const S_FILE: &str = "s.rsj";
pub const EXPECTED_FILE: &str = "expected.json";

type Items = Vec<(Rect, DataId)>;

fn generate(n: usize, seed: u64) -> (Items, Items) {
    let items = |objs: Vec<rsj_datagen::SpatialObject>| -> Items {
        objs.iter().map(|o| (o.mbr, DataId(o.id))).collect()
    };
    (
        items(clustered_rects(
            n,
            spec::CLUSTERS,
            spec::CLUSTER_SPREAD,
            spec::R_MAX_EXTENT,
            seed,
        )),
        items(uniform_rects(n, spec::S_MAX_EXTENT, seed + 1)),
    )
}

fn build(items: &Items, path: &Path) -> Result<BulkStats, String> {
    bulk::load_to_file(
        RTreeParams::for_page_size(spec::PAGE_BYTES),
        items,
        BulkLayout::Str,
        BulkConfig::default(),
        path,
    )
    .map(|(_, stats)| stats)
    .map_err(|e| format!("bulk build of {}: {e}", path.display()))
}

/// The expected output, twice over: SJ1 (no search-space restriction, no
/// sweep) over in-memory trees, cross-checked on a sample of R against a
/// brute-force scan of S that uses no tree at all.
fn oracle(dir: &Path, r_items: &Items, s_items: &Items) -> Result<PairCheck, String> {
    let open = |f: &str| RTree::open_from(dir.join(f)).map_err(|e| format!("open {f}: {e}"));
    let (r, s) = (open(R_FILE)?, open(S_FILE)?);
    let cfg = JoinConfig {
        collect_pairs: true,
        ..JoinConfig::with_buffer(spec::HANDLE_PAGES * spec::PAGE_BYTES)
    };
    let sj1 = rsj_core::spatial_join(&r, &s, JoinPlan::sj1(), &cfg);

    // Ids are 0..n in generation order, so every step-th id is a sample
    // spread over all clusters.
    let step = (r_items.len() / spec::ORACLE_SAMPLE).max(1);
    let sampled = |id: DataId| id.0.is_multiple_of(step as u64);
    let mut all = PairCheck::default();
    let mut sj1_sample = PairCheck::default();
    for &(a, b) in &sj1.pairs {
        all.add(a, b);
        if sampled(a) {
            sj1_sample.add(a, b);
        }
    }
    let mut brute = PairCheck::default();
    for (ra, a) in r_items.iter().filter(|(_, id)| sampled(*id)) {
        for (rb, b) in s_items {
            if ra.intersects(rb) {
                brute.add(*a, *b);
            }
        }
    }
    if sj1_sample != brute {
        return Err(format!(
            "oracle disagreement on the sampled R rectangles: SJ1 {sj1_sample:?}, brute force {brute:?}"
        ));
    }
    if all.count != sj1.stats.result_pairs {
        return Err("SJ1 pair list and pair count disagree".into());
    }
    Ok(all)
}

/// Runs set-up into `dir` and returns its report. `setup_s` is the
/// median of [`spec::SETUP_ROUNDS`] rounds of generate + build; the
/// oracle runs once and is reported apart, being the benchmark's own
/// checking cost and not the program's set-up.
pub fn run(dir: &Path, n: usize, seed: u64) -> Result<Json, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (mut rounds, mut gens, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..spec::SETUP_ROUNDS {
        let t0 = Instant::now();
        let (r_items, s_items) = generate(n, seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let r_stats = build(&r_items, &dir.join(R_FILE))?;
        let s_stats = build(&s_items, &dir.join(S_FILE))?;
        let total = t0.elapsed().as_secs_f64();
        rounds.push(total);
        gens.push(gen_s);
        builds.push(total - gen_s);
        last = Some((r_items, s_items, r_stats, s_stats));
    }
    let (r_items, s_items, r_stats, s_stats) = last.expect("at least one set-up round");

    let t0 = Instant::now();
    let pairs = oracle(dir, &r_items, &s_items)?;
    let oracle_s = t0.elapsed().as_secs_f64();
    let expected = Expected { n, seed, pairs };
    std::fs::write(dir.join(EXPECTED_FILE), expected.to_json().pretty())
        .map_err(|e| format!("write {EXPECTED_FILE}: {e}"))?;

    let bulk_s = median(&builds);
    Ok(Json::obj([
        ("n", Json::from(n)),
        ("seed", Json::from(seed)),
        ("setup_s", Json::Num(median(&rounds))),
        (
            "rounds_s",
            Json::Arr(rounds.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("gen_s", Json::Num(median(&gens))),
        ("bulk_s", Json::Num(bulk_s)),
        ("bulk_rects_per_s", Json::Num(2.0 * n as f64 / bulk_s)),
        ("oracle_s", Json::Num(oracle_s)),
        (
            "pages",
            Json::from(u64::from(r_stats.pages + s_stats.pages)),
        ),
        (
            "height",
            Json::from(u64::from(r_stats.height.max(s_stats.height))),
        ),
        ("pairs", Json::from(pairs.count)),
    ]))
}
