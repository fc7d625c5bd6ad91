//! Bulk loading: STR and Hilbert packing, in memory or streamed to disk.
//!
//! Not part of the 1993 paper (an extension): bulk loading builds a
//! well-clustered tree in O(n log n) without going through one-at-a-time
//! insertion, which matters when the experiment harness builds trees over
//! hundreds of thousands of rectangles for many (page size × policy)
//! combinations. It also serves as a *tree quality* ablation point: the
//! benchmark suite compares join cost over R\*-inserted, Guttman-inserted,
//! and bulk-loaded trees.
//!
//! * **STR** (Sort-Tile-Recursive, Leutenegger et al. 1997): with `cap`
//!   entries to a packed node, n rectangles fill P = ⌈n / cap⌉ leaves.
//!   Sort by centre x, cut S = ⌈√P⌉ vertical slabs of ⌈P / S⌉ · cap
//!   entries each — a whole number of leaves, so no leaf straddles two
//!   slabs — sort each slab by centre y, pack runs of `cap`. The leaves
//!   come out as a near-square S × ⌈P / S⌉ grid of tiles.
//! * **Hilbert packing** (Kamel & Faloutsos 1993): sort by the Hilbert value
//!   of the centre, pack consecutive runs.
//!
//! There is one build path — order the data entries once, then run them
//! through one level-streaming packer that emits every finished node
//! exactly once, bottom-up, root last — and two sinks a finished node can
//! go to:
//!
//! * [`str_load`] / [`hilbert_load`] — the in-memory loaders: each node is
//!   allocated in a [`PageStore`] and the result is an [`RTree`].
//! * [`load_to_file`] — the **streaming** loader: each node is encoded
//!   through a [`rsj_storage::BulkPageWriter`], so peak resident *node*
//!   memory is one forming node per level — O(M × height) entries —
//!   regardless of input size. The header is written only on success, so
//!   a build that dies mid-stream reads back as a typed [`StorageError`],
//!   never a half tree. Files open through the ordinary
//!   [`RTree::open_from`] and serve every file backend unchanged.
//!
//! Every directory level keeps the order the packing below induces, and
//! page ids are handed out in emission order by either sink, so for one
//! input the loaders build the same tree, node for node and id for id.
//! The data order decides only which entries share a node: each cut group
//! is then laid out by `xl` with the stable rule of [`crate::node`]
//! ("Entry order") before it becomes a page, leaves and directory nodes
//! alike, so a bulk-built tree hands the plane sweep sequences that are
//! already sorted.
//!
//! The ordering pass is parallel for every loader: chunked per-worker
//! stable sorts merged by key (and, for STR, the per-slab y-sorts fan out
//! across workers). Parallel order output is bit-identical to the
//! sequential order — sorts are stable and the sort key is a strictly
//! monotone `u64` image of the coordinate — so worker count never changes
//! the tree.
//!
//! Input rectangles must be well formed ([`Rect::is_well_formed`], the
//! check an open applies to every stored rectangle): a NaN or infinite
//! coordinate or inverted corners are reported up front as
//! [`BulkError::MalformedRect`] with the offending index, instead of
//! panicking mid-sort or writing a file that no open accepts.

use std::path::Path;
use std::sync::Arc;

use crate::node::{f64_key, xl_order, DataId, Entry, Node};
use crate::params::RTreeParams;
use crate::persist;
use crate::tree::RTree;
use rsj_geom::{hilbert, Rect};
use rsj_storage::codec::{self, DiskNode};
use rsj_storage::{cores, BulkPageWriter, PageFile, PageId, PageStore, StorageError};

/// Default fraction of M that packed nodes are filled to. Partial fill
/// leaves room for later dynamic inserts; 0.7 is in line with the storage
/// utilization that dynamic R\*-insertion reaches.
pub const DEFAULT_FILL: f64 = 0.7;

/// Inputs below this size are sorted sequentially even when workers are
/// available — thread spawn and merge overhead dominate under it.
const PAR_SORT_MIN: usize = 8 * 1024;

/// How a bulk build orders the data entries before packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkLayout {
    /// Sort-Tile-Recursive tiling.
    Str,
    /// Hilbert-curve order of rectangle centres.
    Hilbert,
}

/// Why a bulk build refused or failed.
#[derive(Debug)]
pub enum BulkError {
    /// `items[index]` has a NaN or infinite coordinate or inverted
    /// corners. Detected up front: non-finite values have no total order,
    /// so they would otherwise scramble the sort passes, and an open
    /// refuses a tree that stores any malformed rectangle.
    MalformedRect {
        /// Index into the caller's item slice.
        index: usize,
    },
    /// The streaming write path failed.
    Storage(StorageError),
}

impl std::fmt::Display for BulkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BulkError::MalformedRect { index } => {
                write!(
                    f,
                    "rectangle at index {index} has a non-finite coordinate or inverted corners"
                )
            }
            BulkError::Storage(e) => write!(f, "bulk build I/O failed: {e}"),
        }
    }
}

impl std::error::Error for BulkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BulkError::Storage(e) => Some(e),
            BulkError::MalformedRect { .. } => None,
        }
    }
}

impl From<StorageError> for BulkError {
    fn from(e: StorageError) -> Self {
        BulkError::Storage(e)
    }
}

/// Knobs of a streaming bulk build.
#[derive(Debug, Clone, Copy)]
pub struct BulkConfig {
    /// Target node fill as a fraction of M (clamped to keep every node
    /// between `m` and `M` entries).
    pub fill: f64,
    /// Sort workers; `0` picks the available parallelism.
    pub workers: usize,
}

impl Default for BulkConfig {
    fn default() -> Self {
        BulkConfig {
            fill: DEFAULT_FILL,
            workers: 0,
        }
    }
}

/// What a streaming build did — the bench's build-throughput and
/// memory-contract numbers come from here.
#[derive(Debug, Clone, Copy)]
pub struct BulkStats {
    /// Pages emitted (== the produced file's page count).
    pub pages: u32,
    /// Height of the built tree.
    pub height: u32,
    /// Peak entries resident in the packer across all level buffers — the
    /// streaming memory contract bounds this by `M × height`.
    pub peak_resident_entries: usize,
    /// Vertical slabs the STR order pass cut (0 for the Hilbert layout,
    /// which cuts none).
    pub slabs: usize,
    /// Leaves per full slab — the last slab holds what is left. The leaf
    /// level is a `slabs × nodes_per_slab` grid of tiles, so the two being
    /// close is what makes the tiles near-square.
    pub nodes_per_slab: usize,
}

/// Builds an R-tree over `items` with the STR algorithm.
///
/// `fill` is the target node fill as a fraction of M; it is clamped so that
/// every node ends up with between `m` and `M` entries.
///
/// # Errors
/// [`BulkError::MalformedRect`] if any rectangle has a NaN or infinite
/// coordinate or inverted corners.
pub fn str_load(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    fill: f64,
) -> Result<RTree, BulkError> {
    load(params, items, BulkLayout::Str, fill)
}

/// Builds an R-tree over `items` by Hilbert-sorting centres and packing.
///
/// # Errors
/// [`BulkError::MalformedRect`] if any rectangle has a NaN or infinite
/// coordinate or inverted corners.
pub fn hilbert_load(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    fill: f64,
) -> Result<RTree, BulkError> {
    load(params, items, BulkLayout::Hilbert, fill)
}

/// The in-memory loaders: the packer's nodes go into a [`PageStore`].
fn load(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    layout: BulkLayout,
    fill: f64,
) -> Result<RTree, BulkError> {
    validate_items(items)?;
    let cfg = BulkConfig {
        fill,
        ..Default::default()
    };
    let mut store = PageStore::new(params.page_bytes);
    let (root, _) = build_into(params, items, layout, cfg, |level, group, order| {
        let entries = order.iter().map(|&(_, at)| group[at as usize]).collect();
        Ok(store.alloc(Arc::new(Node { level, entries })))
    })?;
    Ok(RTree {
        store,
        root,
        params,
        len: items.len(),
    })
}

/// Streams a bulk build straight into a page file at `path`: order pass,
/// then bottom-up level-streaming packing through a [`BulkPageWriter`] —
/// the whole tree is never resident (see [`BulkStats::peak_resident_entries`]).
/// The produced file opens through [`RTree::open_from`].
pub fn load_to_file(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    layout: BulkLayout,
    cfg: BulkConfig,
    path: impl AsRef<Path>,
) -> Result<(PageFile, BulkStats), BulkError> {
    validate_items(items)?;
    let slot = codec::slot_bytes_for(params.max_entries);
    let mut writer = BulkPageWriter::create_file(path, params.page_bytes, slot)?;
    let (root, stats) = build_into(params, items, layout, cfg, file_sink(&mut writer))?;
    let file = writer.finish(persist::encode_meta_parts(root, items.len(), &params))?;
    Ok((file, stats))
}

/// Rejects malformed rectangles before any ordering pass runs.
fn validate_items(items: &[(Rect, DataId)]) -> Result<(), BulkError> {
    match items.iter().position(|(r, _)| !r.is_well_formed()) {
        Some(index) => Err(BulkError::MalformedRect { index }),
        None => Ok(()),
    }
}

/// Packed-node capacity for a fill factor, clamped to `[max(m,1), M]`.
fn node_cap(params: &RTreeParams, fill: f64) -> usize {
    ((params.max_entries as f64 * fill).round() as usize)
        .clamp(params.min_entries.max(1), params.max_entries)
}

/// Sort workers to use for `n` items when the caller did not pin a count.
fn auto_workers(n: usize) -> usize {
    if n < PAR_SORT_MIN {
        return 1;
    }
    cores().min(8)
}

/// Size of the next group cut from an ordered run of `remaining` entries:
/// a full `node_cap` while at least `node_cap + m` remain (the leftover
/// can always still form a legal node), otherwise an even two-way split of
/// an overfull tail, otherwise everything. Shared by [`StreamPacker`],
/// its level plan and the STR slab cut, so all three agree on where a
/// node ends.
fn cut_size(remaining: usize, node_cap: usize, m: usize, max: usize) -> usize {
    if remaining >= node_cap + m {
        node_cap
    } else if remaining > max {
        remaining / 2
    } else {
        remaining
    }
}

/// MBR of a group by folding — no intermediate rect vector.
fn mbr_of_entries(entries: &[Entry]) -> Rect {
    let mut out = Rect::empty();
    for e in entries {
        out.expand(&e.rect);
    }
    out
}

// ---------------------------------------------------------------------------
// Ordering passes (sequential and parallel — bit-identical output).
// ---------------------------------------------------------------------------

/// Stable sort of `entries` by a `u64` key: sequential for one worker or
/// small inputs, otherwise chunked per-worker stable sorts merged by key
/// (ties resolve to the earlier chunk, preserving stability — the merged
/// order is bit-identical to the sequential stable sort).
fn sort_entries_by_key(entries: &mut [Entry], key: impl Fn(&Entry) -> u64 + Sync, workers: usize) {
    let n = entries.len();
    if workers <= 1 || n < PAR_SORT_MIN {
        entries.sort_by_cached_key(&key);
        return;
    }
    let chunk = n.div_ceil(workers);
    let chunks: Vec<Vec<(u64, Entry)>> = std::thread::scope(|s| {
        let key = &key;
        let handles: Vec<_> = entries
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    let mut v: Vec<(u64, Entry)> = c.iter().map(|e| (key(e), *e)).collect();
                    v.sort_by_key(|p| p.0); // stable within the chunk
                    v
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sort worker panicked"))
            .collect()
    });
    let mut pos = vec![0usize; chunks.len()];
    for slot in entries.iter_mut() {
        let mut best = usize::MAX;
        for (ci, c) in chunks.iter().enumerate() {
            if pos[ci] < c.len() && (best == usize::MAX || c[pos[ci]].0 < chunks[best][pos[best]].0)
            {
                best = ci;
            }
        }
        *slot = chunks[best][pos[best]].1;
        pos[best] += 1;
    }
}

/// Orders entries with Sort-Tile-Recursive tiling for packing `node_cap`
/// to a node: P = ⌈n / node_cap⌉ nodes tile as S = ⌈√P⌉ x-sorted slabs of
/// ⌈P / S⌉ nodes, each slab then sorted by y. A slab is a whole number of
/// nodes under [`cut_size`]: a last slab too short to hold a legal node
/// joins the one before it, exactly as `cut_size` folds a short tail into
/// the last node. The x-sort runs as one (possibly parallel) keyed sort;
/// the per-slab y-sorts are independent and fan out across the workers.
/// Returns `(slabs, nodes_per_slab)` for [`BulkStats`].
fn str_order(
    entries: &mut [Entry],
    params: &RTreeParams,
    node_cap: usize,
    workers: usize,
) -> (usize, usize) {
    let n = entries.len();
    let y_key = |e: &Entry| f64_key(e.rect.center().y);
    if n <= params.max_entries {
        // Everything fits the root: one tile.
        entries.sort_by_cached_key(y_key);
        return (1, 1);
    }
    let nodes = n.div_ceil(node_cap);
    let nodes_per_slab = nodes.div_ceil((nodes as f64).sqrt().ceil() as usize);
    let slab_len = nodes_per_slab * node_cap;
    sort_entries_by_key(entries, |e| f64_key(e.rect.center().x), workers);
    let mut slabs: Vec<&mut [Entry]> = Vec::new();
    let mut rest = entries;
    while !rest.is_empty() {
        let take = if rest.len() >= slab_len + params.min_entries {
            slab_len
        } else {
            rest.len()
        };
        let (slab, tail) = rest.split_at_mut(take);
        slabs.push(slab);
        rest = tail;
    }
    if workers <= 1 || n < PAR_SORT_MIN {
        for slab in &mut slabs {
            slab.sort_by_cached_key(y_key);
        }
    } else {
        let per = slabs.len().div_ceil(workers);
        std::thread::scope(|s| {
            for group in slabs.chunks_mut(per) {
                s.spawn(move || {
                    for slab in group.iter_mut() {
                        slab.sort_by_cached_key(y_key);
                    }
                });
            }
        });
    }
    (slabs.len(), nodes_per_slab)
}

/// Orders entries by the Hilbert index of their centre.
fn hilbert_order(entries: &mut [Entry], workers: usize) {
    let frame = mbr_of_entries(entries);
    sort_entries_by_key(
        entries,
        |e| hilbert::hilbert_center(&e.rect, &frame, 16),
        workers,
    );
}

// ---------------------------------------------------------------------------
// The level-streaming packer.
// ---------------------------------------------------------------------------

/// Where the packer's finished nodes go: called with a node's level, its
/// entries and their [`xl_order`], a sink returns the page the node became.
/// Either sink hands out consecutive [`PageId`]s (`0, 1, 2, …`) in emission
/// order, which is what lets a parent entry point at an already-emitted
/// child.
trait NodeSink: FnMut(u32, &[Entry], &[(u64, u32)]) -> Result<PageId, StorageError> {}

impl<F: FnMut(u32, &[Entry], &[(u64, u32)]) -> Result<PageId, StorageError>> NodeSink for F {}

/// The file sink: each node is encoded into one reused on-disk node (entry
/// vec included) and appended through the writer. (The in-memory sink is
/// `PageStore::alloc`, in [`load`].)
fn file_sink(writer: &mut BulkPageWriter) -> impl NodeSink + '_ {
    let mut scratch = DiskNode {
        level: 0,
        entries: Vec::new(),
    };
    move |level, group, order| {
        // Sorted as it is encoded: only the keys move.
        scratch.level = level;
        scratch.entries.clear();
        scratch.entries.extend(
            order
                .iter()
                .map(|&(_, at)| persist::disk_entry(&group[at as usize])),
        );
        writer.emit(&scratch)
    }
}

/// Per-level forming buffer of the streaming packer.
struct LevelBuf {
    /// The group currently forming (never exceeds one node's entries).
    buf: Vec<Entry>,
    /// Entries this level has yet to emit (total per the level plan minus
    /// groups already cut) — what [`cut_size`] cuts the next group from.
    remaining: usize,
}

/// Streams ordered data entries into finished nodes, bottom-up: each level
/// holds only its one forming group; a completed group is emitted to the
/// sink immediately and its directory entry cascades upward. The
/// per-level totals are precomputed from the input count alone
/// ([`level_counts`]), so cut boundaries — including the root decision —
/// depend on nothing but the ordered input.
struct StreamPacker<S> {
    sink: S,
    cap: usize,
    m: usize,
    max: usize,
    levels: Vec<LevelBuf>,
    /// Reused `xl` order of the node being emitted.
    order: Vec<(u64, u32)>,
    resident: usize,
    peak: usize,
}

/// Entry totals per level for `n` data entries: level 0 holds `n`; each
/// further level holds one entry per group the level below cuts; the first
/// level with at most `max` entries is the root. (`n = 0` still yields one
/// empty root leaf.)
fn level_counts(n: usize, cap: usize, m: usize, max: usize) -> Vec<usize> {
    let mut counts = vec![n];
    let mut total = n;
    while total > max {
        let mut groups = 0usize;
        let mut rem = total;
        while rem > 0 {
            rem -= cut_size(rem, cap, m, max);
            groups += 1;
        }
        counts.push(groups);
        total = groups;
    }
    counts
}

impl<S: NodeSink> StreamPacker<S> {
    /// A packer for `n` data entries, `cap` to a node.
    fn new(sink: S, params: &RTreeParams, cap: usize, n: usize) -> Self {
        let (m, max) = (params.min_entries, params.max_entries);
        let levels = level_counts(n, cap, m, max)
            .into_iter()
            .map(|remaining| LevelBuf {
                buf: Vec::new(),
                remaining,
            })
            .collect();
        StreamPacker {
            sink,
            cap,
            m,
            max,
            levels,
            order: Vec::new(),
            resident: 0,
            peak: 0,
        }
    }

    /// Hands the whole forming buffer of `level` to the sink as one node,
    /// laid out by `xl`, and leaves the buffer empty.
    fn emit_node(&mut self, level: usize) -> Result<PageId, StorageError> {
        let root = level == self.levels.len() - 1;
        let lb = &mut self.levels[level];
        let len = lb.buf.len();
        // Real invariant, not a debug assertion: an illegal group here
        // would silently persist as a malformed node and only surface as a
        // validator error much later (or in somebody else's reopened
        // file).
        assert!(
            len <= self.max && (root || len >= self.m),
            "bulk packer cut an illegal group: a level-{level} node of {len} entries \
             outside [{}, {}] (node_cap {})",
            self.m,
            self.max,
            self.cap,
        );
        xl_order(&lb.buf, &mut self.order);
        let page = (self.sink)(level as u32, &lb.buf, &self.order);
        lb.remaining -= len;
        self.resident -= len;
        lb.buf.clear();
        page
    }

    /// Emits the forming buffer of `level` ([`Self::emit_node`]) and
    /// returns the parent directory entry.
    fn emit_group(&mut self, level: usize) -> Result<Entry, StorageError> {
        let bb = mbr_of_entries(&self.levels[level].buf);
        Ok(Entry::dir(bb, self.emit_node(level)?))
    }

    /// Pushes one entry at `level`, cascading completed groups upward.
    /// The root level only accumulates — [`Self::finish`] emits it last.
    fn push(&mut self, mut level: usize, mut e: Entry) -> Result<(), StorageError> {
        loop {
            let top = level == self.levels.len() - 1;
            let lb = &mut self.levels[level];
            lb.buf.push(e);
            self.resident += 1;
            self.peak = self.peak.max(self.resident);
            if top || lb.buf.len() < cut_size(lb.remaining, self.cap, self.m, self.max) {
                return Ok(());
            }
            e = self.emit_group(level)?;
            level += 1;
        }
    }

    /// Drains every level bottom-up and emits the root as the final page.
    fn finish(mut self) -> Result<(PageId, BulkStats), StorageError> {
        let top = self.levels.len() - 1;
        for level in 0..top {
            while !self.levels[level].buf.is_empty() {
                // At drain time every entry this level will ever see is
                // buffered, so the cut can be smaller than the buffer:
                // split the forming group per the tail rule and cascade.
                let cut = cut_size(self.levels[level].remaining, self.cap, self.m, self.max);
                let tail = self.levels[level].buf.split_off(cut);
                let parent = self.emit_group(level)?;
                self.levels[level].buf = tail;
                self.push(level + 1, parent)?;
            }
        }
        // The root is whatever the top level accumulated (for a root leaf:
        // all data entries) — emitted last, so root id == page count - 1.
        let root = self.emit_node(top)?;
        Ok((
            root,
            BulkStats {
                pages: root.0 + 1,
                height: self.levels.len() as u32,
                peak_resident_entries: self.peak,
                slabs: 0,
                nodes_per_slab: 0,
            },
        ))
    }
}

/// Shared driver of every loader: order, plan, stream-pack into `sink`.
fn build_into(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    layout: BulkLayout,
    cfg: BulkConfig,
    sink: impl NodeSink,
) -> Result<(PageId, BulkStats), BulkError> {
    let workers = if cfg.workers == 0 {
        auto_workers(items.len())
    } else {
        cfg.workers
    };
    let cap = node_cap(&params, cfg.fill);
    let mut entries: Vec<Entry> = items.iter().map(|&(r, id)| Entry::data(r, id)).collect();
    let (slabs, nodes_per_slab) = match layout {
        BulkLayout::Str => str_order(&mut entries, &params, cap, workers),
        BulkLayout::Hilbert => {
            hilbert_order(&mut entries, workers);
            (0, 0)
        }
    };
    let mut packer = StreamPacker::new(sink, &params, cap, entries.len());
    for e in entries {
        packer.push(0, e)?;
    }
    let (root, stats) = packer.finish()?;
    Ok((
        root,
        BulkStats {
            slabs,
            nodes_per_slab,
            ..stats
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::InsertPolicy;
    use rsj_storage::{PageSource, TempDir};

    fn items(n: u64) -> Vec<(Rect, DataId)> {
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 1000) as f64;
                let y = ((i * 40503) % 1000) as f64;
                (Rect::from_corners(x, y, x + 3.0, y + 3.0), DataId(i))
            })
            .collect()
    }

    fn params() -> RTreeParams {
        RTreeParams::explicit(320, 16, 6, InsertPolicy::RStar)
    }

    fn sorted_ids(t: &RTree) -> Vec<u64> {
        let mut ids: Vec<u64> = t.data_entries().iter().map(|(_, d)| d.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn str_load_is_valid_and_complete() {
        let data = items(1000);
        let t = str_load(params(), &data, DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        assert_eq!(t.len(), 1000);
        assert_eq!(sorted_ids(&t), (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn hilbert_load_is_valid_and_complete() {
        let data = items(1000);
        let t = hilbert_load(params(), &data, DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let t = str_load(params(), &[], DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        assert!(t.is_empty());
        let one = items(1);
        let t = str_load(params(), &one, DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn non_finite_rect_is_a_typed_error_not_a_panic() {
        // Regression: a single NaN used to blow up inside the sort
        // comparator ("no NaN"), and inverted corners used to build a tree
        // that the validator refuses; now both are reported with their
        // index before any ordering runs, by all three loaders.
        for bad in [
            Rect {
                xl: f64::NAN,
                yl: 0.0,
                xu: 1.0,
                yu: 1.0,
            },
            Rect {
                xl: 0.0,
                yl: 0.0,
                xu: f64::INFINITY,
                yu: 1.0,
            },
            Rect {
                xl: 5.0,
                yl: 0.0,
                xu: 4.0,
                yu: 1.0,
            },
        ] {
            let mut data = items(100);
            data[37].0 = bad;
            let dir = TempDir::new("rtree-bulk").unwrap();
            for layout in [BulkLayout::Str, BulkLayout::Hilbert] {
                let res = match layout {
                    BulkLayout::Str => str_load(params(), &data, DEFAULT_FILL),
                    BulkLayout::Hilbert => hilbert_load(params(), &data, DEFAULT_FILL),
                };
                match res {
                    Err(BulkError::MalformedRect { index }) => assert_eq!(index, 37),
                    other => panic!("expected MalformedRect, got {other:?}"),
                }
                let cfg = BulkConfig::default();
                match load_to_file(params(), &data, layout, cfg, dir.file("bad.rsj")) {
                    Err(BulkError::MalformedRect { index }) => assert_eq!(index, 37),
                    other => panic!("expected MalformedRect, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn boundary_sizes_produce_legal_fills() {
        // Sizes around multiples of the node capacity stress the tail
        // rebalancing.
        for n in [15u64, 16, 17, 31, 32, 33, 95, 96, 97, 256, 257] {
            let data = items(n);
            let t = str_load(params(), &data, DEFAULT_FILL).unwrap();
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            let h = hilbert_load(params(), &data, DEFAULT_FILL).unwrap();
            h.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn pack_group_boundaries_hold_at_m_and_m_plus_min() {
        // The exact tail-rebalancing boundaries: n = M, M+1, M+m-1, M+m —
        // where the cut rule switches between "one root node", "even
        // two-way split" and "full group plus legal tail". Checked for
        // both layouts at full and default fill.
        let p = params();
        let (m, max) = (p.min_entries as u64, p.max_entries as u64);
        for n in [max, max + 1, max + m - 1, max + m] {
            for fill in [DEFAULT_FILL, 1.0] {
                for layout in [BulkLayout::Str, BulkLayout::Hilbert] {
                    let data = items(n);
                    let t = match layout {
                        BulkLayout::Str => str_load(p, &data, fill),
                        BulkLayout::Hilbert => hilbert_load(p, &data, fill),
                    }
                    .unwrap();
                    t.validate()
                        .unwrap_or_else(|e| panic!("n={n} fill={fill}: {e}"));
                    assert_eq!(t.len() as u64, n);
                    assert_eq!(sorted_ids(&t), (0..n).collect::<Vec<_>>());
                    t.for_each_node(|id, node| {
                        if id != t.root() {
                            assert!(
                                node.len() as u64 >= m,
                                "n={n} fill={fill}: node {id} under min fill"
                            );
                        }
                        assert!(node.len() as u64 <= max);
                    });
                }
            }
        }
    }

    #[test]
    fn parallel_order_is_bit_identical_to_sequential() {
        let data = items(20_000);
        let base: Vec<Entry> = data.iter().map(|&(r, id)| Entry::data(r, id)).collect();
        for workers in [2usize, 3, 8] {
            let mut seq = base.clone();
            let mut par = base.clone();
            let cap = node_cap(&params(), DEFAULT_FILL);
            let tiling = str_order(&mut seq, &params(), cap, 1);
            assert_eq!(str_order(&mut par, &params(), cap, workers), tiling);
            assert_eq!(seq, par, "STR order diverged at {workers} workers");
            let mut seq = base.clone();
            let mut par = base.clone();
            hilbert_order(&mut seq, 1);
            hilbert_order(&mut par, workers);
            assert_eq!(seq, par, "Hilbert order diverged at {workers} workers");
        }
    }

    /// `n` rectangles of side 2 spread evenly over a 1000 × 1000 world (the
    /// R2 low-discrepancy sequence — `items` repeats its 1000 lattice
    /// points).
    fn uniform_items(n: u64) -> Vec<(Rect, DataId)> {
        let at = |i: u64, step: f64| (i as f64 * step).fract() * 998.0;
        (0..n)
            .map(|i| {
                let (x, y) = (at(i, 0.754_877_666_246_693), at(i, 0.569_840_290_998_053));
                (Rect::from_corners(x, y, x + 2.0, y + 2.0), DataId(i))
            })
            .collect()
    }

    #[test]
    fn str_leaves_are_near_square_tiles() {
        // Regression: slabs were cut per √n entries, not per √P pages, so
        // every leaf was a full-height strip (aspect ~1/100 here) and no
        // test noticed.
        let p = RTreeParams::for_page_size(4096);
        let data = uniform_items(20_000);
        let t = str_load(p, &data, DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        let (mut aspects, mut width_sum) = (Vec::new(), 0.0);
        t.for_each_node(|_, node| {
            if node.is_leaf() {
                let bb = node.mbr();
                aspects.push(bb.width() / bb.height());
                width_sum += bb.width();
            }
        });
        let leaves = aspects.len();
        assert_eq!(leaves, data.len().div_ceil(node_cap(&p, DEFAULT_FILL)));
        aspects.sort_by(f64::total_cmp);
        let median = aspects[leaves / 2];
        assert!(
            (1.0 / 3.0..=3.0).contains(&median),
            "median leaf aspect {median}"
        );
        let mean_width = width_sum / leaves as f64;
        let tile = 1000.0 / (leaves as f64).sqrt();
        assert!(
            mean_width <= 3.0 * tile,
            "mean leaf width {mean_width} vs tile side {tile}"
        );
    }

    #[test]
    fn str_slabs_are_whole_nodes_at_the_edges() {
        let p = params();
        let (m, max) = (p.min_entries, p.max_entries);
        let x = |e: &Entry| f64_key(e.rect.center().x);
        let y = |e: &Entry| f64_key(e.rect.center().y);
        for fill in [0.5, DEFAULT_FILL, 1.0] {
            let cap = node_cap(&p, fill);
            // One leaf, one entry over, P = S², S² − 1, S² + 1 for S = 3
            // and 4, and every ragged tail in between.
            let mut sizes = vec![1, cap - 1, cap, cap + 1, max, max + 1];
            sizes.extend(7 * cap..=17 * cap + 1);
            for n in sizes {
                let tag = format!("n={n} fill={fill}");
                let data = uniform_items(n as u64);
                let mut entries: Vec<Entry> =
                    data.iter().map(|&(r, id)| Entry::data(r, id)).collect();
                let (slab_count, nodes_per_slab) = str_order(&mut entries, &p, cap, 1);

                // The leaf boundaries the packers will cut (up to `max`
                // entries are a root leaf).
                let mut node_ends = Vec::new();
                let mut rem = n;
                while rem > 0 {
                    rem -= if n > max {
                        cut_size(rem, cap, m, max)
                    } else {
                        n
                    };
                    node_ends.push(n - rem);
                }
                let slab_len = if n > max {
                    let pages = n.div_ceil(cap);
                    let s = (1..).find(|s| s * s >= pages).unwrap();
                    assert_eq!(nodes_per_slab, pages.div_ceil(s), "{tag}");
                    assert!(slab_count == s || slab_count == s - 1, "{tag}");
                    nodes_per_slab * cap
                } else {
                    assert_eq!((slab_count, nodes_per_slab), (1, 1), "{tag}");
                    n
                };

                // The order really is that tiling: slabs ascend in x, each
                // is sorted by y, and each ends where a node ends.
                let mut slabs: Vec<&[Entry]> = entries.chunks(slab_len).collect();
                if slabs.len() == slab_count + 1 {
                    let short = slabs.pop().unwrap();
                    assert!(short.len() < m, "{tag}: a legal last slab was folded");
                    let start = entries.len() - short.len() - slab_len;
                    *slabs.last_mut().unwrap() = &entries[start..];
                }
                assert_eq!(slabs.len(), slab_count, "{tag}");
                let mut end = 0;
                for (i, slab) in slabs.iter().enumerate() {
                    end += slab.len();
                    assert!(node_ends.contains(&end), "{tag}: slab {i} splits a node");
                    assert!(slab.windows(2).all(|w| y(&w[0]) <= y(&w[1])), "{tag}");
                    if let Some(next) = slabs.get(i + 1) {
                        let hi = slab.iter().map(x).max().unwrap();
                        assert!(hi <= next.iter().map(x).min().unwrap(), "{tag}");
                    }
                }

                let t = str_load(p, &data, fill).unwrap();
                t.validate().unwrap_or_else(|e| panic!("{tag}: {e}"));
                let mut leaves = 0;
                t.for_each_node(|id, node| {
                    leaves += usize::from(node.is_leaf());
                    assert!(node.len() <= max && (id == t.root() || node.len() >= m));
                });
                assert_eq!(leaves, node_ends.len(), "{tag}");
            }
        }
    }

    #[test]
    fn full_fill_packs_tighter_than_partial() {
        let data = items(2000);
        let tight = str_load(params(), &data, 1.0).unwrap();
        let loose = str_load(params(), &data, 0.6).unwrap();
        assert!(tight.stats().data_pages < loose.stats().data_pages);
    }

    #[test]
    fn bulk_loaded_tree_answers_queries_correctly() {
        let data = items(800);
        let t = str_load(params(), &data, DEFAULT_FILL).unwrap();
        let w = Rect::from_corners(100.0, 100.0, 400.0, 420.0);
        let mut got = t.window_query(&w);
        got.sort();
        let mut want: Vec<DataId> = data
            .iter()
            .filter(|(r, _)| r.intersects(&w))
            .map(|&(_, id)| id)
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn str_tree_has_low_directory_overlap() {
        // Loose sanity check on tree quality: sibling leaves of an STR tree
        // over uniform data overlap very little.
        let data = items(3000);
        let t = str_load(params(), &data, DEFAULT_FILL).unwrap();
        let root = t.node(t.root());
        assert!(!root.is_leaf());
        let mut overlap = 0.0;
        let mut area = 0.0;
        for (i, a) in root.entries.iter().enumerate() {
            area += a.rect.area();
            for b in &root.entries[i + 1..] {
                overlap += a.rect.overlap_area(&b.rect);
            }
        }
        assert!(overlap < area * 0.5, "overlap {overlap} vs area {area}");
    }

    #[test]
    fn streamed_file_round_trips_and_respects_memory_contract() {
        let dir = TempDir::new("rtree-bulk").unwrap();
        for (layout, name) in [(BulkLayout::Str, "str"), (BulkLayout::Hilbert, "hil")] {
            for n in [0u64, 1, 16, 17, 300, 5000] {
                let data = items(n);
                let path = dir.file(&format!("{name}-{n}.rsj"));
                let (file, stats) =
                    load_to_file(params(), &data, layout, BulkConfig::default(), &path).unwrap();
                assert_eq!(file.page_count(), stats.pages);
                drop(file);
                let t = RTree::open_from(&path).unwrap();
                t.validate().unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
                assert_eq!(t.len() as u64, n);
                assert_eq!(sorted_ids(&t), (0..n).collect::<Vec<_>>());
                assert_eq!(t.height(), stats.height, "{name} n={n}");
                // Bottom-up emission: the root is the last page.
                assert_eq!(t.root(), PageId(stats.pages - 1), "{name} n={n}");
                // The streaming memory contract: one forming node per
                // level, never a whole level.
                assert!(
                    stats.peak_resident_entries <= params().max_entries * stats.height as usize,
                    "{name} n={n}: peak {} above M x height",
                    stats.peak_resident_entries
                );
            }
        }
    }

    #[test]
    fn streamed_hilbert_build_matches_in_memory_groups() {
        // Hilbert packing never reorders upper levels, so the streaming
        // packer must cut the exact same groups as the in-memory loader —
        // same page count, height, and per-level node sizes.
        let data = items(4000);
        let mem = hilbert_load(params(), &data, DEFAULT_FILL).unwrap();
        let dir = TempDir::new("rtree-bulk").unwrap();
        let path = dir.file("h.rsj");
        let (layout, cfg) = (BulkLayout::Hilbert, BulkConfig::default());
        let (_, stats) = load_to_file(params(), &data, layout, cfg, &path).unwrap();
        let streamed = RTree::open_from(&path).unwrap();
        assert_eq!(streamed.height(), mem.height());
        assert_eq!(stats.pages as usize, mem.allocated_pages());
        let sizes = |t: &RTree| {
            let mut v: Vec<(u32, usize)> = Vec::new();
            t.for_each_node(|_, n| v.push((n.level, n.len())));
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&streamed), sizes(&mem));
    }

    #[test]
    fn level_counts_match_in_memory_packing() {
        let p = params();
        for fill in [0.5, DEFAULT_FILL, 1.0] {
            let cap = node_cap(&p, fill);
            for n in [1usize, 16, 17, 22, 100, 1000, 12345] {
                let counts = level_counts(n, cap, p.min_entries, p.max_entries);
                let data = items(n as u64);
                let t = str_load(p, &data, fill).unwrap();
                assert_eq!(
                    counts.len() as u32,
                    t.height(),
                    "n={n} fill={fill}: plan height"
                );
                assert_eq!(counts[0], n);
                assert!(*counts.last().unwrap() <= p.max_entries);
            }
        }
    }
}
