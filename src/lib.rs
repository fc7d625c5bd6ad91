//! # rsj — R-tree Spatial Joins
//!
//! A faithful, from-scratch Rust reproduction of
//!
//! > Thomas Brinkhoff, Hans-Peter Kriegel, Bernhard Seeger:
//! > *Efficient Processing of Spatial Joins Using R-trees.*
//! > SIGMOD 1993, pp. 237–246.
//!
//! This facade crate re-exports the full stack:
//!
//! * [`geom`] — rectangles with counted comparisons, space-filling curves,
//!   exact polyline/polygon geometry;
//! * [`storage`] — the in-memory page arena, LRU buffer with pinning, path
//!   buffers, the paper's cost model, and the
//!   pluggable [`storage::NodeAccess`] boundary with its two
//!   implementors (beside `&mut A`): the in-memory
//!   [`storage::BufferPool`] oracle and the one file stack
//!   [`storage::FileAccess`] over one [`storage::PageFile`] per store
//!   (endian-stable binary page format, typed
//!   [`storage::StorageError`]s). Its read strategy — all three read on
//!   demand only — names it: blocking [`storage::FileNodeAccess`] and
//!   completion-queue [`storage::CompletionFileAccess`], one private stack
//!   per worker, and [`storage::SharedCacheFileAccess`], a worker's
//!   handle onto the shared [`storage::SharedPageCache`], whose frames
//!   are a ledger (residency, single-flight, the dirty mark) with the
//!   read pin as their only pin. Trees saved with
//!   [`rtree::RTree::save_to`] reopen cold via [`rtree::RTree::open_from`]
//!   and join with honest cold/warm buffer behavior — and stay
//!   **updatable in place**:
//!   [`rtree::OpenCachedTree`] runs incremental inserts and deletes
//!   against the open file through the one write path, a shared-cache
//!   update handle (dirty pages written once each at flush, persistent
//!   free-list reuse), provably equivalent to in-memory updates page for
//!   page;
//! * [`rtree`] — the R\*-tree (plus Guttman baselines and bulk loading);
//! * [`join`] — the spatial-join algorithms SJ1–SJ5, different-height
//!   policies, baselines, the parallel (shared-nothing, optionally over
//!   one warm page cache) and multi-way joins, and the ID-/object-join
//!   refinement step. The engine underneath is the **streaming executor**
//!   [`join::exec::JoinCursor`], which yields result pairs incrementally
//!   through `Iterator` and allocates nothing per node pair (its scratch
//!   arena recycles every frame buffer). It is generic over the meter —
//!   [`geom::CmpCounter`] counts the paper's comparisons, [`geom::NoOp`]
//!   ([`join::RawJoinCursor::raw`]) compiles them out of the hot path —
//!   and over the page accountant; [`join::JoinCursor::into_result`]
//!   materializes any cursor, [`join::spatial_join`] is the counted
//!   wrapper over a [`join::JoinConfig`] buffer pool, and
//!   [`join::parallel_spatial_join`] / [`join::multiway_join`] build one
//!   accountant per worker / stage from a factory;
//! * [`datagen`] — deterministic synthetic stand-ins for the paper's
//!   TIGER/Line and region datasets;
//! * [`telemetry`] — a dependency-free metrics kit: atomic counters and
//!   gauges, log-linear latency histograms (p50/p90/p99 within 1/32
//!   relative error, no per-sample allocation), a labeled
//!   [`telemetry::Registry`] with snapshot/delta semantics and text
//!   exposition, and the [`telemetry::Recorder`] switch that compiles
//!   recording out entirely;
//! * [`service`] — the long-lived [`service::JoinService`]: every
//!   query a cursor over one warm [`storage::SharedPageCache`], bounded
//!   admission with typed [`service::Overloaded`] rejection, and
//!   per-query queue/plan/io/join/emit spans feeding the registry.
//!
//! ## Quickstart
//!
//! ```
//! use rsj::prelude::*;
//!
//! // Two relations of rectangles (here: generated test data at tiny scale).
//! let data = rsj::datagen::preset(TestId::A, 0.005);
//!
//! // Index both with R*-trees on 1-KByte pages (M = 51, like the paper).
//! let mut r = RTree::new(RTreeParams::for_page_size(1024));
//! for o in &data.r {
//!     r.insert(o.mbr, DataId(o.id));
//! }
//! let mut s = RTree::new(RTreeParams::for_page_size(1024));
//! for o in &data.s {
//!     s.insert(o.mbr, DataId(o.id));
//! }
//!
//! // Join them with SJ4 (plane sweep + pinning) and a 128-KByte buffer.
//! let result = spatial_join(&r, &s, JoinPlan::sj4(), &JoinConfig::default());
//! println!(
//!     "{} intersecting pairs, {} disk accesses, {} comparisons",
//!     result.stats.result_pairs,
//!     result.stats.io.disk_accesses,
//!     result.stats.total_comparisons(),
//! );
//! # assert!(result.stats.result_pairs > 0);
//!
//! // Or stream the same join: pairs arrive incrementally, nothing is
//! // materialized, and any NodeAccess backend can do the accounting.
//! use rsj::storage::BufferPool;
//! let pool = BufferPool::new(128 * 1024, 1024, &[r.height() as usize, s.height() as usize]);
//! let mut cursor = JoinCursor::new(&r, &s, JoinPlan::sj4(), pool);
//! let first = cursor.next().expect("this join has results");
//! let streamed: u64 = 1 + cursor.by_ref().count() as u64;
//! assert_eq!(streamed, result.stats.result_pairs);
//! assert_eq!(cursor.stats().io.disk_accesses, result.stats.io.disk_accesses);
//!
//! // Or persist the trees and join them again from disk: same pairs and
//! // the same disk-access counts, but every buffer miss is now a real
//! // page read from the backing files.
//! let dir = rsj::storage::TempDir::new("quickstart").unwrap();
//! let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
//! r.save_to(&rp).unwrap();
//! s.save_to(&sp).unwrap();
//! let (r2, s2) = (RTree::open_from(&rp).unwrap(), RTree::open_from(&sp).unwrap());
//! let access = FileNodeAccess::with_capacity_pages(
//!     vec![PageFile::open(&rp).unwrap(), PageFile::open(&sp).unwrap()],
//!     128 * 1024 / r2.params().page_bytes,
//!     &[r2.height() as usize, s2.height() as usize],
//!     EvictionPolicy::Lru,
//! ).unwrap();
//! let (from_disk, access) = JoinCursor::new(&r2, &s2, JoinPlan::sj4(), access).into_result(true);
//! assert_eq!(from_disk.stats.result_pairs, result.stats.result_pairs);
//! assert_eq!(from_disk.stats.io.disk_accesses, result.stats.io.disk_accesses);
//! assert_eq!(
//!     access.file(0).reads() + access.file(1).reads(),
//!     from_disk.stats.io.disk_accesses,
//! );
//! ```

pub use rsj_core as join;
pub use rsj_datagen as datagen;
pub use rsj_geom as geom;
pub use rsj_rtree as rtree;
pub use rsj_service as service;
pub use rsj_storage as storage;
pub use rsj_telemetry as telemetry;

/// The names most programs need.
pub mod prelude {
    pub use rsj_core::{
        id_join, multiway_join, object_join, parallel_spatial_join, spatial_join, DiffHeightPolicy,
        JoinConfig, JoinCursor, JoinPlan, JoinPredicate, JoinResult, JoinStats, MultiwayResult,
        ObjectRelation, RawJoinCursor,
    };
    pub use rsj_datagen::TestId;
    pub use rsj_geom::{CmpCounter, Geometry, Meter, NoOp, Point, Rect};
    pub use rsj_rtree::{DataId, InsertPolicy, OpenCachedTree, RTree, RTreeParams};
    pub use rsj_storage::{
        CacheConfig, CostModel, EvictionPolicy, FileNodeAccess, NodeAccessMut, PageFile,
        PageSource, SharedPageCache, StorageError,
    };

    pub use rsj_service::{JoinService, Overloaded, ServiceConfig, ServiceError, SpanReport};
    pub use rsj_telemetry::{Histogram, Registry};
}
