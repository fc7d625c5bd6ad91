//! The four benchmark workloads' exact counts as a golden transcript.
//!
//! The repo benchmark (`benchmark/`, its own package) times `join_mem`,
//! `join_cold`, `serve_warm` and `update_churn` over seed-1 data. This
//! suite rebuilds the same inputs from the public crates and runs each
//! workload's join shape untimed. Every count it prints must equal
//! `tests/golden/workload_counts.md` line for line: the paper's per-join
//! measures (disk accesses, comparisons, pairs), the shared cache's
//! physical counts, the file bytes per rectangle and the write-back left
//! after each flush.
//!
//! The harness and this file each spell out the workload constants; each
//! constant below names its source in the harness.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rsj_core::{JoinCursor, JoinPlan, JoinStats};
use rsj_datagen::synthetic::{clustered_rects, uniform_rects};
use rsj_geom::Rect;
use rsj_rtree::bulk::{self, BulkConfig, BulkLayout};
use rsj_rtree::{DataId, OpenCachedTree, RTree, RTreeParams};
use rsj_service::{JoinService, ServiceConfig};
use rsj_storage::completion::DelayFn;
use rsj_storage::{BufferPool, CacheConfig, NodeAccess, SharedPageCache, TempDir};

const GOLDEN: &str = include_str!("golden/workload_counts.md");

/// `run.sh --seed 1`.
const SEED: u64 = 1;
/// `spec::LARGE_N`: `join_mem`, `join_cold`, `update_churn`.
const LARGE_N: usize = 100_000;
/// `spec::SMALL_N`: `serve_warm`.
const SMALL_N: usize = 50_000;
/// `spec::CLUSTERS`.
const CLUSTERS: usize = 100;
/// `spec::CLUSTER_SPREAD`.
const CLUSTER_SPREAD: f64 = 25.0;
/// `spec::R_MAX_EXTENT`.
const R_MAX_EXTENT: f64 = 8.0;
/// `spec::S_MAX_EXTENT`.
const S_MAX_EXTENT: f64 = 4.0;
/// `spec::PAGE_BYTES`.
const PAGE_BYTES: usize = 4096;
/// `spec::HANDLE_PAGES`.
const HANDLE_PAGES: usize = 128;
/// `spec::COLD_CACHE_PAGES`.
const COLD_CACHE_PAGES: usize = 256;
/// `spec::COLD_READ_LATENCY_US`; the harness sets it through
/// `RSJ_READ_LATENCY_US`, this suite through the cache's delay hook.
const COLD_READ_LATENCY_US: u64 = 100;
/// `spec::WARMUP_JOINS`.
const WARMUP_JOINS: usize = 3;
/// `spec::CHURN_BATCH`.
const CHURN_BATCH: usize = 1000;
/// `VICTIM_STRIDE` in `benchmark/src/workloads.rs`.
const VICTIM_STRIDE: usize = 7919;
/// `update_churn` rounds, each a batch and a join: the harness's
/// per-join counts are means over its first 20 (`min_ops` in
/// `spec::WORKLOADS`).
const CHURN_ROUNDS: usize = 20;

type Items = Vec<(Rect, DataId)>;

/// `benchmark/src/setup.rs`: both relations from the seed, bulk-built
/// with STR into `dir`.
fn set_up(dir: &TempDir, n: usize) -> [PathBuf; 2] {
    let items = |objs: Vec<rsj_datagen::SpatialObject>| -> Items {
        objs.iter().map(|o| (o.mbr, DataId(o.id))).collect()
    };
    let r = items(clustered_rects(
        n,
        CLUSTERS,
        CLUSTER_SPREAD,
        R_MAX_EXTENT,
        SEED,
    ));
    let s = items(uniform_rects(n, S_MAX_EXTENT, SEED + 1));
    let paths = [dir.file("r.rsj"), dir.file("s.rsj")];
    for (items, path) in [(&r, &paths[0]), (&s, &paths[1])] {
        bulk::load_to_file(
            RTreeParams::for_page_size(PAGE_BYTES),
            items,
            BulkLayout::Str,
            BulkConfig::default(),
            path,
        )
        .expect("bulk build");
    }
    paths
}

fn file_bytes_per_rect(paths: &[PathBuf], n: usize) -> String {
    let bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    format!("{:.4}", bytes as f64 / (2 * n) as f64)
}

fn sj4<A: NodeAccess>(r: &RTree, s: &RTree, access: A) -> JoinStats {
    let mut cursor = JoinCursor::new(r, s, JoinPlan::sj4(), access);
    cursor.by_ref().for_each(drop);
    cursor.stats()
}

/// The physical counters of a shared cache, read after its reads drain.
#[derive(Clone, Copy, Default)]
struct Physical {
    reads: u64,
    evictions: u64,
    drain_hits: u64,
    writes: u64,
}

impl Physical {
    fn of(cache: &SharedPageCache) -> Self {
        cache.drain();
        Physical {
            reads: cache.physical_reads(),
            evictions: cache.evictions(),
            drain_hits: cache.drain_hits(),
            writes: cache.physical_writes(),
        }
    }

    fn since(self, before: Physical) -> Physical {
        Physical {
            reads: self.reads - before.reads,
            evictions: self.evictions - before.evictions,
            drain_hits: self.drain_hits - before.drain_hits,
            writes: self.writes - before.writes,
        }
    }
}

const JOIN_HEADER: &str = "| join | disk accesses | comparisons | pairs |\n|---|---|---|---|\n";
const CACHED_HEADER: &str =
    "| join | disk accesses | comparisons | pairs | physical reads | evictions | drain hits |\n\
     |---|---|---|---|---|---|---|\n";

fn join_row(label: &str, st: &JoinStats) -> String {
    format!(
        "| {label} | {} | {} | {} |",
        st.io.disk_accesses,
        st.total_comparisons(),
        st.result_pairs
    )
}

fn cached_row(label: &str, st: &JoinStats, p: Physical) -> String {
    format!(
        "{} {} | {} | {} |\n",
        join_row(label, st),
        p.reads,
        p.evictions,
        p.drain_hits
    )
}

/// `join_mem`: SJ4 over a private 128-page `BufferPool`, no file read.
fn join_mem(out: &mut String) {
    let dir = TempDir::new("wl-mem").unwrap();
    let paths = set_up(&dir, LARGE_N);
    let r = RTree::open_from(&paths[0]).unwrap();
    let s = RTree::open_from(&paths[1]).unwrap();
    let heights = [r.height() as usize, s.height() as usize];
    out.push_str("## join_mem\n\nSJ4 over a 128-page `BufferPool`.\n\n");
    out.push_str(JOIN_HEADER);
    let pool = BufferPool::with_capacity_pages(HANDLE_PAGES, &heights);
    out.push_str(&join_row("1", &sj4(&r, &s, pool)));
    out.push('\n');
    out.push_str(&format!(
        "\nfile_bytes_per_rect: {}\n\n",
        file_bytes_per_rect(&paths, LARGE_N)
    ));
}

/// Joins through `service`, one after the other, each row with the
/// physical counts it added to the service's cache.
fn served_joins(service: &JoinService, joins: usize, out: &mut String) {
    out.push_str(CACHED_HEADER);
    for join in 1..=joins {
        let before = Physical::of(service.cache());
        let (stats, _) = service
            .execute_streaming(JoinPlan::sj4(), |_, _| {})
            .unwrap();
        let p = Physical::of(service.cache()).since(before);
        out.push_str(&cached_row(&join.to_string(), &stats, p));
    }
}

/// `join_cold`: a service on a 256-frame cache under the 1 410-page
/// working set, 128-page handles and 100 µs modelled reads, so every join
/// reads its pages again.
fn join_cold(out: &mut String) {
    let dir = TempDir::new("wl-cold").unwrap();
    let paths = set_up(&dir, LARGE_N);
    let device: DelayFn = Arc::new(|_| Some(Duration::from_micros(COLD_READ_LATENCY_US)));
    let cfg = ServiceConfig {
        cache_pages: COLD_CACHE_PAGES,
        handle_pages: HANDLE_PAGES,
        cache: CacheConfig {
            delay: Some(device),
            ..CacheConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = JoinService::open(&paths[0], &paths[1], cfg).unwrap();
    out.push_str(
        "## join_cold\n\nA `JoinService` with a 256-frame cache, 128-page handles and \
         100 µs reads; each row's physical counts are the cache's during that join.\n\n",
    );
    served_joins(&service, 2, out);
    out.push_str(&format!(
        "\nfile_bytes_per_rect: {}\n\n",
        file_bytes_per_rect(&paths, LARGE_N)
    ));
}

/// `serve_warm`: a service whose cache holds the working set. The harness
/// runs two clients at once; one client's joins count the same.
fn serve_warm(out: &mut String) {
    let dir = TempDir::new("wl-warm").unwrap();
    let paths = set_up(&dir, SMALL_N);
    let service = JoinService::open(&paths[0], &paths[1], ServiceConfig::default()).unwrap();
    out.push_str(
        "## serve_warm\n\nA `JoinService` whose cache and handles hold the working set; \
         the first join reads it, the next reads nothing.\n\n",
    );
    served_joins(&service, 2, out);
    out.push_str(&format!(
        "\nfile_bytes_per_rect: {}\n\n",
        file_bytes_per_rect(&paths, SMALL_N)
    ));
}

/// `update_churn`: R open for updates on a 256-frame cache, S beside it;
/// each round deletes 1 000 rectangles at stride 7 919, re-inserts them,
/// flushes, and joins on the same cache (`Churn` in
/// `benchmark/src/workloads.rs`).
fn update_churn(out: &mut String) {
    let dir = TempDir::new("wl-churn").unwrap();
    let paths = set_up(&dir, LARGE_N);
    let s = RTree::open_from(&paths[1]).unwrap();
    let r_height = RTree::open_from(&paths[0]).unwrap().height();
    let cache = SharedPageCache::open(
        &paths,
        COLD_CACHE_PAGES,
        &[r_height as usize, s.height() as usize],
        CacheConfig::default(),
    )
    .unwrap();
    let mut open = OpenCachedTree::open_cached(&cache, 0, HANDLE_PAGES).unwrap();
    let mut rects = open.tree().data_entries();
    rects.sort_by_key(|&(_, id)| id);
    let n = rects.len();
    let join = |open: &OpenCachedTree| sj4(open.tree(), &s, cache.handle(HANDLE_PAGES));

    out.push_str(&format!(
        "## update_churn\n\n\
         R open for updates on a 256-frame cache with a 128-page update handle, S beside it. \
         Three warm-up joins, then {CHURN_ROUNDS} rounds: delete 1 000 rectangles at stride \
         7 919, re-insert them, flush, join with a 128-page handle.\n\n"
    ));
    out.push_str(CACHED_HEADER);
    for w in 1..=WARMUP_JOINS {
        let before = Physical::of(&cache);
        let stats = join(&open);
        let p = Physical::of(&cache).since(before);
        out.push_str(&cached_row(&format!("warm-up {w}"), &stats, p));
    }

    out.push_str(
        "\nEach round's join, then the whole round's physical counts (its updates, flush and \
         join), and the write-back still pending after its flush. The join reads its own \
         misses only, fewer than its disk accesses, since 256 frames keep some of its pages \
         from the updates; the harness's `storage.physical_reads_per_join` divides a whole \
         phase's reads by its joins, so it also counts each batch's update reads.\n\n\
         | round | disk accesses | comparisons | pairs | join physical reads | \
         physical reads | evictions | drain hits | physical writes | pending after flush |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    let (mut accesses, mut comparisons, mut total) = (0, 0, Physical::default());
    for round in 0..CHURN_ROUNDS {
        let start = Physical::of(&cache);
        let victims: Items = (round * CHURN_BATCH..(round + 1) * CHURN_BATCH)
            .map(|k| rects[k * VICTIM_STRIDE % n])
            .collect();
        for (rect, id) in &victims {
            assert!(open.delete(rect, *id).unwrap(), "delete of {id:?}");
        }
        for &(rect, id) in &victims {
            open.insert(rect, id).unwrap();
        }
        open.flush().unwrap();
        let pending = cache.pending_write_back();
        let before_join = Physical::of(&cache);
        let stats = join(&open);
        let end = Physical::of(&cache);
        let whole = end.since(start);
        out.push_str(&format!(
            "{} {} | {} | {} | {} | {} | {} |\n",
            join_row(&(round + 1).to_string(), &stats),
            end.since(before_join).reads,
            whole.reads,
            whole.evictions,
            whole.drain_hits,
            whole.writes,
            pending
        ));
        accesses += stats.io.disk_accesses;
        comparisons += stats.total_comparisons();
        total = Physical {
            reads: total.reads + whole.reads,
            evictions: total.evictions + whole.evictions,
            drain_hits: total.drain_hits + whole.drain_hits,
            writes: total.writes + whole.writes,
        };
    }
    let rounds = CHURN_ROUNDS as f64;
    out.push_str(&format!(
        "\nPer join over the {CHURN_ROUNDS} rounds (the harness's `disk_accesses_per_join` and \
         `comparisons_per_join`): {:.2} disk accesses, {:.1} comparisons.\n\
         Over the {CHURN_ROUNDS} rounds: {} physical reads, {} evictions, {} drain hits, \
         {} physical writes.\n\n\
         file_bytes_per_rect after round {CHURN_ROUNDS}: {}\n",
        accesses as f64 / rounds,
        comparisons as f64 / rounds,
        total.reads,
        total.evictions,
        total.drain_hits,
        total.writes,
        file_bytes_per_rect(&paths, LARGE_N)
    ));
}

fn transcript() -> String {
    let mut out = String::from(
        "# Exact counts of the four benchmark workloads, seed 1\n\n\
         Checked by `cargo test --test workload_counts`, which fails when a count moves.\n\n",
    );
    join_mem(&mut out);
    join_cold(&mut out);
    serve_warm(&mut out);
    update_churn(&mut out);
    out
}

#[test]
fn workload_counts_match_golden_file() {
    let got = transcript();
    if got == GOLDEN {
        return;
    }
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (GOLDEN.split('\n').collect(), got.split('\n').collect());
    let line = (0..want_lines.len().max(got_lines.len()))
        .find(|&i| want_lines.get(i) != got_lines.get(i))
        .expect("the transcripts differ, so some line does");
    let show = |l: Option<&&str>| l.map_or("<end of file>".to_string(), |l| format!("{l:?}"));
    println!("{got}");
    panic!(
        "the workload counts differ from tests/golden/workload_counts.md at line {}:\n  \
         golden: {}\n  now:    {}\n\
         If the change in counts is intended, replace the file with the transcript \
         printed above (`cargo test --test workload_counts -- --nocapture` shows it)",
        line + 1,
        show(want_lines.get(line)),
        show(got_lines.get(line)),
    );
}
