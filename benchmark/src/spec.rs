//! The benchmark's fixed vocabulary: workloads, sizes, and the two
//! metric tables. `BENCHMARK.json` at the repo root states the same
//! lists for the acceptance driver; `--quick` and a unit test check the
//! two against each other.

/// Rectangles per relation on the large data set (`join_mem`,
/// `join_cold`, `update_churn`): 2 × 705 pages of 4 KiB, height 3.
pub const LARGE_N: usize = 100_000;
/// Rectangles per relation on the small data set (`serve_warm`).
pub const SMALL_N: usize = 50_000;
/// `--quick` divides both sizes by this.
pub const QUICK_DIVISOR: usize = 10;

/// Parent points of the clustered relation R. Fixed rather than scaled
/// with n: with n/5000 parents the comparisons per join moved ±20 %
/// from seed to seed, with 100 they stay within ±4 %.
pub const CLUSTERS: usize = 100;
pub const CLUSTER_SPREAD: f64 = 25.0;
pub const R_MAX_EXTENT: f64 = 8.0;
pub const S_MAX_EXTENT: f64 = 4.0;
/// R rectangles brute-forced against all of S by the set-up oracle.
pub const ORACLE_SAMPLE: usize = 1000;

pub const PAGE_BYTES: usize = 4096;
/// The paper-style per-query buffer budget every workload charges
/// against (`BufferPool` capacity, cache handle capacity).
pub const HANDLE_PAGES: usize = 128;
/// Shared frame pool of the storage-bound workloads: well under the
/// 1 410-page working set.
pub const COLD_CACHE_PAGES: usize = 256;
/// Modelled device latency per page read on `join_cold`, through the
/// program's own `RSJ_READ_LATENCY_US`.
pub const COLD_READ_LATENCY_US: u64 = 100;

pub const WARMUP_JOINS: usize = 3;
pub const SERVE_CLIENTS: usize = 2;
/// Deletes (and re-inserts) per `update_churn` cycle.
pub const CHURN_BATCH: usize = 1000;
/// Data + bulk-build rounds per set-up; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 7;
/// The measured phase of an end-to-end run is cut into this many
/// segments, with [`OPENS_PER_SEGMENT`] timed opens after each;
/// `open_ms` is the median of those and the workload's own first open.
pub const SEGMENTS: usize = 5;
pub const OPENS_PER_SEGMENT: usize = 3;
/// Timed `RTree::open_from` calls of the layer probes.
pub const OPEN_ROUNDS: usize = 7;
/// Ladder repetitions per rung; each rung reports their median.
pub const LADDER_REPS: usize = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub small_data: bool,
    /// Operations that always run, however slow the machine: the
    /// per-join counts are means over exactly this prefix, so they
    /// repeat exactly for a seed while the timed loop runs to its
    /// deadline.
    pub min_ops: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "join_mem",
        why: "CPU-bound SJ4 over a 128-page BufferPool, no file read: kernel and cursor work shows here, storage-read work must not",
        small_data: false,
        min_ops: 20,
    },
    Workload {
        name: "join_cold",
        why: "storage-bound: a 256-page cache under a 1410-page working set with 100 us modelled reads, so every join re-reads its pages",
        small_data: false,
        min_ops: 20,
    },
    Workload {
        name: "serve_warm",
        why: "two closed-loop clients on a JoinService whose cache holds the working set: hits only, latch and per-query cost under concurrency",
        small_data: true,
        min_ops: 40,
    },
    Workload {
        name: "update_churn",
        why: "delete and re-insert 1000 rectangles, flush, then join on the same cache: the write-back path beside reads as the tree drifts",
        small_data: false,
        min_ops: 20,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A count that repeats exactly for one seed: `compare` holds it to
    /// no change at all when both sides ran the same seeds.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn counted(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact: true,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [Metric; 9] = [
    timed("setup_s", "s", Better::Lower, 0.25),
    timed("open_ms", "ms", Better::Lower, 0.25),
    timed("join_p50_ms", "ms", Better::Lower, 0.25),
    timed("join_p90_ms", "ms", Better::Lower, 0.25),
    timed("joins_per_s", "1/s", Better::Higher, 0.25),
    counted("disk_accesses_per_join", "count", 0.05),
    counted("comparisons_per_join", "count", 0.15),
    counted("file_bytes_per_rect", "B", 0.05),
    timed("peak_rss_mb", "MB", Better::Lower, 0.10),
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Single-layer numbers from the traced run. The prefix is the crate
/// (or, for `trace.`, the benchmark's own wrapper).
pub const PER_LAYER: [LayerMetric; 49] = [
    // Layer ladder: the same SJ4 join at each rung.
    lower("core.sweep_kernel_ms", "ms"),
    lower("core.cursor_raw_ms", "ms"),
    lower("core.cursor_counted_ms", "ms"),
    lower("storage.pool_ms", "ms"),
    lower("storage.file_blocking_ms", "ms"),
    lower("storage.completion_ms", "ms"),
    lower("storage.shared_cache_ms", "ms"),
    lower("service.execute_unrecorded_ms", "ms"),
    lower("service.execute_ms", "ms"),
    lower("telemetry.overhead_frac", "ratio"),
    // Boundary wrapper around the workload's own joins.
    lower("storage.access_calls", "count"),
    lower("storage.access_busy_ms", "ms"),
    lower("storage.wait_ms", "ms"),
    lower("storage.hint_calls", "count"),
    lower("storage.pin_calls", "count"),
    lower("storage.miss_ratio", "ratio"),
    lower("core.self_ms", "ms"),
    lower("core.parks", "count"),
    lower("core.pairs_per_join", "count"),
    // Public counters read around the calls.
    higher("storage.cache_hit_ratio", "ratio"),
    lower("storage.evictions", "count"),
    higher("storage.adoptions", "count"),
    higher("storage.staged_hit_ratio", "ratio"),
    lower("storage.completion_lag_us_mean", "us"),
    lower("storage.completion_lag_us_max", "us"),
    lower("storage.physical_reads_per_join", "count"),
    lower("storage.page_writes_per_op", "count"),
    lower("storage.physical_writes_per_op", "count"),
    lower("storage.pending_write_back_after_flush", "count"),
    lower("service.queue_us_p50", "us"),
    lower("service.plan_us_p50", "us"),
    lower("service.io_us_p50", "us"),
    lower("service.join_us_p50", "us"),
    lower("service.emit_us_p50", "us"),
    lower("service.overloaded", "count"),
    lower("join_p99_ms", "ms"),
    // Timed calls.
    higher("rtree.bulk_rects_per_s", "1/s"),
    lower("rtree.open_ms", "ms"),
    lower("rtree.insert_us_p50", "us"),
    lower("rtree.delete_us_p50", "us"),
    lower("rtree.flush_ms_p50", "ms"),
    higher("rtree.update_ops_per_s", "1/s"),
    lower("rtree.height", "count"),
    lower("rtree.pages", "count"),
    lower("datagen.gen_s", "s"),
    lower("telemetry.record_ns", "ns"),
    lower("telemetry.render_text_us", "us"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the acceptance driver reads; these
    /// tables are what the program emits. They must say the same thing.
    #[test]
    fn benchmark_json_states_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        crate::validate_against_benchmark_json(&doc).unwrap();
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
