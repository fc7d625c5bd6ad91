//! A paged R\*-tree, plus Guttman R-tree baselines and bulk loading.
//!
//! This crate implements the spatial access method underlying the SIGMOD'93
//! spatial-join study:
//!
//! * the **R\*-tree** of Beckmann, Kriegel, Schneider & Seeger (SIGMOD'90),
//!   with the three ingredients §3.2 of the join paper recapitulates —
//!   overlap-minimizing *ChooseSubtree*, *forced reinsertion*, and the
//!   margin-driven topological *split*;
//! * the original **Guttman R-tree** insertion (linear and quadratic splits)
//!   as a tree-quality baseline;
//! * **STR** and **Hilbert** bulk loading (extensions; handy for building
//!   large experimental trees quickly and for ablating tree quality);
//! * window / point / containment queries with counted comparisons and
//!   pluggable page-access hooks so the join crate can charge a shared
//!   [`rsj_storage::BufferPool`];
//! * the **batched multi-window query** that policy (b) of §4.4 (joining
//!   trees of different height) relies on: all qualifying query windows
//!   descend a subtree in one pass, touching every required page once;
//! * tree statistics (Table 1) and a structural invariant validator used
//!   heavily by the test suite.
//!
//! Nodes live on simulated pages (`PageStore<Node>`), one node per page
//! (§3.1). Node capacity is derived from the page size exactly like the
//! paper's Table 1: a 20-byte entry (four 4-byte coordinates plus a 4-byte
//! reference) gives M = ⌊page/20⌋ = 51, 102, 204, 409 for pages of 1, 2, 4
//! and 8 KBytes.
//!
//! ```
//! use rsj_rtree::{DataId, RTree, RTreeParams};
//! use rsj_geom::Rect;
//!
//! let mut tree = RTree::new(RTreeParams::for_page_size(1024)); // M = 51
//! for i in 0..200u64 {
//!     let x = (i % 20) as f64;
//!     let y = (i / 20) as f64;
//!     tree.insert(Rect::from_corners(x, y, x + 0.8, y + 0.8), DataId(i));
//! }
//! tree.validate().unwrap();
//! let hits = tree.window_query(&Rect::from_corners(0.0, 0.0, 3.0, 3.0));
//! assert_eq!(hits.len(), 16); // 4 x 4 block of cells
//! ```

pub mod bulk;
pub mod delete;
pub mod insert;
pub mod knn;
pub mod node;
pub mod open_tree;
pub mod params;
pub mod persist;
pub mod query;
pub mod split;
pub mod stats;
pub mod tree;
pub mod validate;

pub use knn::Neighbor;
pub use node::{ChildRef, DataId, Entry, Node};
pub use open_tree::{OpenCachedTree, OpenFileTree, OpenTree};
pub use params::{InsertPolicy, RTreeParams};
pub use stats::TreeStats;
pub use tree::RTree;
