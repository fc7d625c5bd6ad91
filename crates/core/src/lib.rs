//! Spatial join algorithms SJ1–SJ5 from *Brinkhoff, Kriegel & Seeger:
//! Efficient Processing of Spatial Joins Using R-trees* (SIGMOD 1993).
//!
//! The crate computes the **MBR-spatial-join** of two R\*-trees — all pairs
//! of data entries whose rectangles intersect — by synchronized top-down
//! traversal, and reproduces every optimization the paper develops:
//!
//! | algorithm | §   | technique |
//! |-----------|-----|-----------|
//! | SJ1       | 4.1 | straightforward recursive traversal, nested-loop pair test |
//! | SJ2       | 4.2 | + *search-space restriction* to the intersection of the node MBRs |
//! | (I)/(II)  | 4.2 | *plane-sweep* pair enumeration (`SortedIntersectionTest`), with/without restriction |
//! | SJ3       | 4.3 | + pairs processed in *local plane-sweep order* (read schedule) |
//! | SJ4       | 4.3 | + *pinning* of the page with maximal degree |
//! | SJ5       | 4.3 | z-order read schedule (+ pinning) |
//!
//! All algorithms share one engine — the streaming [`exec::JoinCursor`],
//! an explicit-work-stack executor that yields result pairs through
//! `Iterator` — parameterized by a [`JoinPlan`], so each technique can be
//! toggled independently — exactly what the paper's ablation tables
//! (3, 4, 5) measure. Costs are accounted the paper's way: floating-point
//! comparisons through a [`rsj_geom::Meter`] ([`rsj_geom::CmpCounter`]
//! counts, [`rsj_geom::NoOp`] compiles the count out) and disk accesses
//! through the pluggable [`rsj_storage::NodeAccess`] boundary (path
//! buffers + LRU buffer, §4.1): the in-memory [`rsj_storage::BufferPool`],
//! the [`rsj_storage::FileAccess`] stack over real page files, or handles
//! onto the [`rsj_storage::SharedPageCache`] for concurrent workers.
//!
//! There is one driver per join shape, generic over the meter and the
//! access; nothing else starts a join:
//!
//! | shape | driver |
//! |-------|--------|
//! | two-way, counted, over [`JoinConfig::buffer_pool`] | [`spatial_join`] |
//! | two-way cursor, counted / raw / any meter | [`JoinCursor::new`] / [`RawJoinCursor::raw`] / [`JoinCursor::metered`] |
//! | cursor over explicit root tasks (the parallel worker unit) | [`JoinCursor::with_tasks`] |
//! | parallel, one access per worker from a factory | [`parallel_spatial_join`] |
//! | k-way, one access per stage from a factory | [`multiway_join`] |
//!
//! [`JoinCursor::into_result`] runs any cursor out into the materialized
//! [`JoinResult`] and hands its accountant back.
//!
//! A join uses the cores no other join is using. While fewer cursors are
//! live in the process than there are cores and none of its reads is in
//! flight, a cursor hands the leaf pairs of each bottom directory frame to a process-wide pool of helper
//! threads (one per core but one, started on first use), which run the
//! restriction, sort check, plane sweep and predicate ahead of it. Every
//! count is still the cursor's: a helper runs the same leaf-pair function
//! with its own meters and never touches the page-access accountant, and
//! the cursor adds its tallies and queues its pairs at the step where it
//! would have computed them itself. So result order, [`JoinStats`] after
//! every pair and the buffer's `access`/`pin` sequence do not depend on
//! whether, or which, helpers ran. There is no switch: when as many joins
//! run at once as there are cores (a service's clients,
//! [`parallel_spatial_join`]'s workers), none of them publishes.
//!
//! Trees of different height are handled per §4.4 with the three policies
//! (a) window query per pair, (b) batched multi-window queries, (c) sweep
//! order with pinning ([`DiffHeightPolicy`]).
//!
//! Beyond the MBR join (the *filter step*), [`refine`] implements the
//! ID-spatial-join and object-spatial-join of §2.1: candidates are checked
//! against exact geometry. The object pages are an accounting model — an
//! in-memory first-fit packing whose page reads are charged through a
//! [`BufferPool`](rsj_storage::BufferPool), never a page file.
//! [`baseline`] provides the naive nested-loop join and an index
//! nested-loop join for comparison. [`multiway`] generalizes to k
//! relations (streaming the leading binary join off a cursor) and
//! [`parallel`] to multiple shared-nothing workers (optionally sharing
//! physical frames through one warm page cache).
//!
//! ```
//! use rsj_core::{spatial_join, JoinConfig, JoinPlan};
//! use rsj_rtree::{DataId, RTree, RTreeParams};
//! use rsj_geom::Rect;
//!
//! let params = RTreeParams::for_page_size(1024);
//! let (mut r, mut s) = (RTree::new(params), RTree::new(params));
//! for i in 0..300u64 {
//!     let (x, y) = ((i % 20) as f64 * 2.0, (i / 20) as f64 * 2.0);
//!     r.insert(Rect::from_corners(x, y, x + 1.5, y + 1.5), DataId(i));
//!     s.insert(Rect::from_corners(x + 1.0, y + 1.0, x + 2.5, y + 2.5), DataId(i));
//! }
//! let sj1 = spatial_join(&r, &s, JoinPlan::sj1(), &JoinConfig::default());
//! let sj4 = spatial_join(&r, &s, JoinPlan::sj4(), &JoinConfig::default());
//! // Same answer, fewer comparisons and disk accesses.
//! assert_eq!(sj1.stats.result_pairs, sj4.stats.result_pairs);
//! assert!(sj4.stats.join_comparisons < sj1.stats.join_comparisons);
//! assert!(sj4.stats.io.disk_accesses <= sj1.stats.io.disk_accesses);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod exec;
pub mod join;
pub mod multiway;
pub mod parallel;
pub mod plan;
pub mod refine;
pub mod stats;
pub mod sweep;

pub use exec::{JoinCursor, RawJoinCursor};
pub use join::{spatial_join, JoinResult};
pub use multiway::{multiway_join, MultiwayResult};
pub use parallel::parallel_spatial_join;
pub use plan::{DiffHeightPolicy, Enumerate, JoinConfig, JoinPlan, JoinPredicate, Schedule};
pub use refine::{id_join, object_join, ObjectRelation, RefineResult};
pub use stats::{JoinStats, TimeSplit};
