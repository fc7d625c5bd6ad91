//! Tree persistence: `save_to` / `open_from` over [`rsj_storage::PageFile`].
//!
//! A saved tree is one page file in the [`rsj_storage::codec`] format.
//! Every allocated page of the in-memory store is written to the slot of
//! the same index — including pages unreachable after merges — so
//! [`PageId`]s survive the round trip unchanged and a reopened tree
//! traverses (and therefore charges buffers) exactly like the original.
//!
//! The header's 40-byte metadata blob carries the tree-level state the
//! page payloads cannot: root page, entry count, and the structural
//! [`RTreeParams`]:
//!
//! ```text
//! meta: root u32 | len u64 | max_entries u32 | min_entries u32 |
//!       reinsert_count u32 | policy u8 | zero padding
//! ```
//!
//! The physical slot size is derived from the tree's actual node fill
//! (never below the params' capacity M), so any node the insertion
//! algorithms can produce fits its slot.
//!
//! ## Opening
//!
//! Every open path — [`RTree::open_from`], the `OpenTree` opens and the
//! join service — ends in one function,
//! [`RTree::load`], and `load` has one read path:
//! [`PageSource::scan`], which hands it every page of the file in id
//! order on the calling thread. Page order is what the assembly depends
//! on — page `i` is the `i`-th allocation of the store, the free-set
//! checks and the decode see pages in file order, the first failing page
//! in file order is the error returned, and [`RTree::validate`] runs once
//! everything is in — so none of it can tell, and none of it had to
//! change, when the scan overlaps the *reads* behind that order.
//! [`rsj_storage::scan`] does so only when the open would otherwise sit
//! waiting for the device (it measures; there is nothing to configure),
//! up to [`rsj_storage::QUEUE_DEPTH`] reads at once into a bounded ring;
//! each page is still read once and still pays the handle's modelled
//! latency once, and the trees of a service are scanned one after the
//! other, so an open never has more reads in flight than a join does.
//! `tests/open_scan.rs` holds a slow and a fast handle against each
//! other: same pages, same free list, same `JoinStats`, same errors.

use std::collections::HashMap;
use std::path::Path;

use crate::node::{sort_by_xl, ChildRef, DataId, Entry, Node};
use crate::params::{InsertPolicy, RTreeParams};
use crate::tree::RTree;
use rsj_geom::Rect;
use rsj_storage::codec::{
    self, DiskEntry, DiskNode, DiskPage, EntryFormat, StorageError, META_BYTES,
};
use rsj_storage::{PageFile, PageId, PageSource, PageStore};

const POLICY_RSTAR: u8 = 0;
const POLICY_GUTTMAN_QUADRATIC: u8 = 1;
const POLICY_GUTTMAN_LINEAR: u8 = 2;

pub(crate) fn encode_meta(tree: &RTree) -> [u8; META_BYTES] {
    encode_meta_parts(tree.root(), tree.len(), tree.params())
}

/// [`encode_meta`] from bare parts — for writers (the streaming bulk
/// build) that know root, length and params without holding an [`RTree`].
pub(crate) fn encode_meta_parts(root: PageId, len: usize, p: &RTreeParams) -> [u8; META_BYTES] {
    let mut meta = [0u8; META_BYTES];
    meta[0..4].copy_from_slice(&root.0.to_le_bytes());
    meta[4..12].copy_from_slice(&(len as u64).to_le_bytes());
    meta[12..16].copy_from_slice(&(p.max_entries as u32).to_le_bytes());
    meta[16..20].copy_from_slice(&(p.min_entries as u32).to_le_bytes());
    meta[20..24].copy_from_slice(&(p.reinsert_count as u32).to_le_bytes());
    meta[24] = match p.policy {
        InsertPolicy::RStar => POLICY_RSTAR,
        InsertPolicy::GuttmanQuadratic => POLICY_GUTTMAN_QUADRATIC,
        InsertPolicy::GuttmanLinear => POLICY_GUTTMAN_LINEAR,
    };
    meta
}

fn decode_meta(
    meta: &[u8; META_BYTES],
    page_bytes: usize,
    page_count: u32,
) -> Result<(PageId, usize, RTreeParams), StorageError> {
    let root = u32::from_le_bytes(meta[0..4].try_into().expect("slice of 4"));
    if root >= page_count {
        return Err(StorageError::Corrupt(format!(
            "root page {root} out of range of a {page_count}-page file"
        )));
    }
    let len = u64::from_le_bytes(meta[4..12].try_into().expect("slice of 8")) as usize;
    let max_entries = u32::from_le_bytes(meta[12..16].try_into().expect("slice of 4")) as usize;
    let min_entries = u32::from_le_bytes(meta[16..20].try_into().expect("slice of 4")) as usize;
    let reinsert_count = u32::from_le_bytes(meta[20..24].try_into().expect("slice of 4")) as usize;
    if max_entries == 0 || min_entries > max_entries {
        return Err(StorageError::Corrupt(format!(
            "impossible node capacities m={min_entries}, M={max_entries}"
        )));
    }
    let policy = match meta[24] {
        POLICY_RSTAR => InsertPolicy::RStar,
        POLICY_GUTTMAN_QUADRATIC => InsertPolicy::GuttmanQuadratic,
        POLICY_GUTTMAN_LINEAR => InsertPolicy::GuttmanLinear,
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown insertion policy tag {other}"
            )))
        }
    };
    Ok((
        PageId(root),
        len,
        RTreeParams {
            page_bytes,
            max_entries,
            min_entries,
            reinsert_count,
            policy,
        },
    ))
}

pub(crate) fn to_disk(node: &Node) -> DiskNode {
    DiskNode {
        level: node.level,
        entries: node.entries.iter().map(disk_entry).collect(),
    }
}

/// One in-memory entry in its on-disk shape (shared with the streaming
/// bulk packer, which refills a reused [`DiskNode`] instead of building
/// fresh ones).
pub(crate) fn disk_entry(e: &Entry) -> DiskEntry {
    DiskEntry {
        rect: [e.rect.xl, e.rect.yl, e.rect.xu, e.rect.yu],
        child: match e.child {
            ChildRef::Page(p) => u64::from(p.0),
            ChildRef::Data(d) => d.0,
        },
    }
}

fn from_disk(disk: DiskNode, page_count: u32) -> Result<Node, StorageError> {
    let is_leaf = disk.level == 0;
    let mut entries = Vec::with_capacity(disk.entries.len());
    let (mut ordered, mut last_xl) = (true, f64::NEG_INFINITY);
    for e in disk.entries {
        let child = if is_leaf {
            ChildRef::Data(DataId(e.child))
        } else {
            ChildRef::Page(codec::child_page(&e, page_count)?)
        };
        ordered &= last_xl <= e.rect[0];
        last_xl = e.rect[0];
        entries.push(Entry {
            rect: Rect {
                xl: e.rect[0],
                yl: e.rect[1],
                xu: e.rect[2],
                yu: e.rect[3],
            },
            child,
        });
    }
    // Normalise, never trust: a leaf an older build or a foreign writer
    // left unordered is put in `xl` order here, so every in-memory tree
    // satisfies the invariant of `crate::node` whatever wrote its pages.
    if is_leaf && !ordered {
        sort_by_xl(&mut entries);
    }
    Ok(Node {
        level: disk.level,
        entries,
    })
}

impl RTree {
    /// Physical slot size for this tree: the params' capacity, but never
    /// below the fattest node actually present (defensive: a saved tree
    /// should satisfy len <= M everywhere, but the format does not depend
    /// on it).
    fn slot_bytes(&self, format: EntryFormat) -> usize {
        let mut capacity = self.params().max_entries;
        for id in 0..self.page_store().len() {
            capacity = capacity.max(self.node(PageId(id as u32)).len());
        }
        codec::slot_bytes_for_fmt(capacity, format)
    }

    /// Marker chain `page → next` for this tree's free list: the last
    /// freed page is the head, each marker links to the one freed before
    /// it.
    fn free_chain(&self) -> HashMap<PageId, Option<PageId>> {
        let free = self.page_store().free_pages();
        free.iter()
            .enumerate()
            .map(|(i, &id)| (id, if i == 0 { None } else { Some(free[i - 1]) }))
            .collect()
    }

    /// Writes the tree to `path` in the [`rsj_storage::codec`] page-file
    /// format: one slot per allocated page (ids preserved — free slots
    /// become chain markers), tree metadata in the header. Returns the
    /// closed-over [`PageFile`] so callers can immediately hand it to a
    /// [`rsj_storage::FileNodeAccess`] or reopen it for updates.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<PageFile, StorageError> {
        self.save_to_with_format(path, EntryFormat::F64)
    }

    /// [`RTree::save_to`] with an explicit on-disk entry format.
    /// [`EntryFormat::F32`] stores the paper's literal 20-byte entries —
    /// half the bytes, Table 1's page capacities on disk — at the cost of
    /// outward-rounded coordinates: a tree reopened from an F32 file may
    /// report spurious *candidate* intersections near rectangle borders
    /// but never misses one (MBRs only grow).
    pub fn save_to_with_format(
        &self,
        path: impl AsRef<Path>,
        format: EntryFormat,
    ) -> Result<PageFile, StorageError> {
        let slot = self.slot_bytes(format);
        let mut file = PageFile::create_with_format(path, self.params().page_bytes, slot, format)?;
        // One slot per allocated page, appended in id order — a free-chain
        // marker for a free page, the encoded node otherwise — then free
        // list, tree metadata, flush.
        let chain = self.free_chain();
        let mut buf = Vec::with_capacity(slot);
        for id in 0..self.page_store().len() {
            let id = PageId(id as u32);
            match chain.get(&id) {
                Some(&next) => codec::encode_free_page(next, slot, &mut buf)?,
                None => codec::encode_node_fmt(&to_disk(self.node(id)), slot, format, &mut buf)?,
            }
            file.append_page(&buf)?;
        }
        file.set_free_list(self.page_store().free_pages())?;
        file.set_meta(encode_meta(self));
        file.flush()?;
        Ok(file)
    }

    /// Reopens a tree saved with [`RTree::save_to`]: decodes every page
    /// (one ordered scan — module docs, "Opening")
    /// into a fresh in-memory store, so queries and joins run unchanged
    /// — while a [`rsj_storage::FileNodeAccess`] over the same file makes
    /// the buffer misses real. Page ids, root, parameters, entry count
    /// and the free list are restored exactly.
    pub fn open_from(path: impl AsRef<Path>) -> Result<RTree, StorageError> {
        let mut file = PageFile::open(path)?;
        Self::load(&mut file)
    }

    /// Builds a tree from every page of an already-open page file — the
    /// one assembly path behind every open. The pages
    /// arrive through [`PageSource::scan`]: in id order, on this thread,
    /// whether or not the reads behind them were overlapped (module docs,
    /// "Opening"). The file's (already chain-validated) free list is
    /// reconstructed into the store, so later updates allocate exactly
    /// like the tree that was saved.
    pub fn load(file: &mut impl PageSource) -> Result<RTree, StorageError> {
        let (page_count, format) = (file.page_count(), file.entry_format());
        if page_count == 0 {
            return Err(StorageError::Corrupt("page file holds no pages".into()));
        }
        let (root, len, params) = decode_meta(file.meta(), file.page_bytes(), page_count)?;
        let free = file.free_pages().to_vec();
        let free_set: std::collections::HashSet<PageId> = free.iter().copied().collect();
        let mut store: PageStore<Node> = PageStore::new(params.page_bytes);
        file.scan(|id, bytes| {
            match codec::decode_page_fmt(bytes, format)? {
                DiskPage::Node(disk) => {
                    if free_set.contains(&id) {
                        return Err(StorageError::Corrupt(format!(
                            "free chain claims live page {id}"
                        )));
                    }
                    store.alloc(from_disk(disk, page_count)?);
                }
                DiskPage::Free { .. } => {
                    // The chain itself was validated by the file layer; here
                    // we only reject markers the chain does not account for
                    // (a free page no allocation could ever reach again).
                    if !free_set.contains(&id) {
                        return Err(StorageError::Corrupt(format!(
                            "page {id} is a free marker but not on the free chain"
                        )));
                    }
                    store.alloc(Node::leaf()); // placeholder, unreachable
                }
            }
            Ok(())
        })?;
        store.restore_free_list(free);
        store.reset_io(); // loading is not join I/O
        let tree = RTree {
            store,
            root,
            params,
            len,
        };
        if free_set.contains(&tree.root) {
            return Err(StorageError::Corrupt(format!(
                "root page {} is on the free chain",
                tree.root
            )));
        }
        // A decodable file can still be structurally broken (reference
        // cycles, unbalanced levels, lying entry counts); the invariant
        // checker is cycle-safe, so corruption surfaces here as a typed
        // error instead of hanging the first traversal.
        tree.validate()
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::InsertPolicy;
    use rsj_storage::TempDir;

    fn build(n: u64) -> RTree {
        let mut t = RTree::new(RTreeParams::explicit(256, 8, 3, InsertPolicy::RStar));
        for i in 0..n {
            let x = (i % 25) as f64 * 3.0;
            let y = (i / 25) as f64 * 3.0;
            t.insert(Rect::from_corners(x, y, x + 2.0, y + 2.0), DataId(i));
        }
        t
    }

    fn sorted_entries(t: &RTree) -> Vec<(u64, [u64; 4])> {
        let mut v: Vec<(u64, [u64; 4])> = t
            .data_entries()
            .into_iter()
            .map(|(r, id)| {
                (
                    id.0,
                    [
                        r.xl.to_bits(),
                        r.yl.to_bits(),
                        r.xu.to_bits(),
                        r.yu.to_bits(),
                    ],
                )
            })
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn save_then_open_round_trips_everything() {
        let dir = TempDir::new("rtree-persist").unwrap();
        let tree = build(400);
        let path = dir.file("t.rsj");
        let file = tree.save_to(&path).unwrap();
        assert_eq!(file.page_count() as usize, tree.allocated_pages());

        let back = RTree::open_from(&path).unwrap();
        back.validate().unwrap();
        assert_eq!(back.len(), tree.len());
        assert_eq!(back.root(), tree.root());
        assert_eq!(back.params(), tree.params());
        assert_eq!(back.height(), tree.height());
        assert_eq!(sorted_entries(&back), sorted_entries(&tree));
        // Page-by-page identity, not just logical equality: traversals
        // must charge the same page ids.
        for id in 0..tree.page_store().len() {
            let p = PageId(id as u32);
            assert_eq!(back.node(p), tree.node(p), "page {p}");
        }
    }

    #[test]
    fn empty_tree_round_trips() {
        let dir = TempDir::new("rtree-persist").unwrap();
        let tree = build(0);
        let path = dir.file("empty.rsj");
        tree.save_to(&path).unwrap();
        let back = RTree::open_from(&path).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.height(), 1);
        assert_eq!(back.mbr(), Rect::empty());
    }

    #[test]
    fn corrupt_root_reference_is_rejected() {
        let dir = TempDir::new("rtree-persist").unwrap();
        let tree = build(50);
        let path = dir.file("t.rsj");
        let mut file = tree.save_to(&path).unwrap();
        let mut meta = *file.meta();
        meta[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        file.set_meta(meta);
        file.flush().unwrap();
        drop(file);
        assert!(matches!(
            RTree::open_from(&path).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn reference_cycle_is_rejected_not_hung() {
        // A decodable file whose directory entry points back at its own
        // page: child_page's range check passes, so only the structural
        // validation in `load` stands between this and an infinite
        // traversal.
        let dir = TempDir::new("rtree-persist").unwrap();
        let tree = build(200);
        let path = dir.file("t.rsj");
        tree.save_to(&path).unwrap();
        assert!(!tree.node(tree.root()).is_leaf(), "fixture needs depth");
        // Find the on-disk offset of the root's first entry's child ref
        // and point it at the root itself.
        let file = rsj_storage::PageFile::open(&path).unwrap();
        let (slot, root) = (file.slot_bytes() as u64, tree.root().0 as u64);
        drop(file);
        let child_off = rsj_storage::codec::HEADER_BYTES as u64
            + root * slot
            + rsj_storage::codec::SLOT_HEADER_BYTES as u64
            + 32; // past the 4 rect coordinates of entry 0
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(child_off)).unwrap();
        f.write_all(&root.to_le_bytes()).unwrap();
        drop(f);
        assert!(matches!(
            RTree::open_from(&path).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = TempDir::new("rtree-persist").unwrap();
        let tree = build(200);
        let path = dir.file("t.rsj");
        tree.save_to(&path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 1).unwrap();
        drop(f);
        assert!(matches!(
            RTree::open_from(&path).unwrap_err(),
            StorageError::Truncated { .. }
        ));
    }

    #[test]
    fn free_list_round_trips_through_save_and_open() {
        let dir = TempDir::new("rtree-persist").unwrap();
        let mut tree = build(400);
        // Delete enough to dissolve nodes: the free list becomes
        // non-trivial.
        for i in 0..300u64 {
            let x = (i % 25) as f64 * 3.0;
            let y = (i / 25) as f64 * 3.0;
            assert!(tree.delete(&Rect::from_corners(x, y, x + 2.0, y + 2.0), DataId(i)));
        }
        assert!(tree.free_page_count() > 0, "fixture needs free pages");
        let path = dir.file("t.rsj");
        let file = tree.save_to(&path).unwrap();
        assert_eq!(file.free_pages(), tree.page_store().free_pages());
        drop(file);
        let back = RTree::open_from(&path).unwrap();
        back.validate().unwrap();
        assert_eq!(
            back.page_store().free_pages(),
            tree.page_store().free_pages(),
            "free list (and its order) survives the round trip"
        );
        // The restored allocator continues exactly where the original
        // would: both reuse the same page for the next split-free alloc.
        let mut a = tree.clone();
        let mut b = back.clone();
        for i in 0..50u64 {
            let r = Rect::from_corners(i as f64, 90.0, i as f64 + 1.0, 91.0);
            a.insert(r, DataId(9000 + i));
            b.insert(r, DataId(9000 + i));
        }
        assert_eq!(a.allocated_pages(), b.allocated_pages());
        for id in 0..a.allocated_pages() {
            let p = PageId(id as u32);
            assert_eq!(a.node(p), b.node(p), "page {p}");
        }
    }

    #[test]
    fn f32_format_round_trips_validly_with_bounded_outward_drift() {
        let dir = TempDir::new("rtree-persist").unwrap();
        let tree = build(400);
        let p64 = dir.file("t64.rsj");
        let p32 = dir.file("t32.rsj");
        tree.save_to(&p64).unwrap();
        tree.save_to_with_format(&p32, EntryFormat::F32).unwrap();
        // The compressed file is substantially smaller (20- vs 40-byte
        // entries; headers amortize).
        let (b64, b32) = (
            std::fs::metadata(&p64).unwrap().len(),
            std::fs::metadata(&p32).unwrap().len(),
        );
        assert!(
            b32 * 3 < b64 * 2,
            "f32 file must be well below 2/3 of the f64 file: {b32} vs {b64}"
        );

        let back = RTree::open_from(&p32).unwrap();
        // Structural invariants (exact parent MBRs included) survive the
        // directed rounding — monotone rounding commutes with min/max.
        back.validate().unwrap();
        assert_eq!(back.len(), tree.len());
        assert_eq!(back.root(), tree.root());
        // Every data rectangle drifted outward only, and only within one
        // f32 ULP of its coordinate magnitude.
        let originals: std::collections::HashMap<u64, Rect> = tree
            .data_entries()
            .into_iter()
            .map(|(r, id)| (id.0, r))
            .collect();
        for (r32, id) in back.data_entries() {
            let r64 = originals[&id.0];
            assert!(r32.xl <= r64.xl && r32.yl <= r64.yl, "{id}: outward");
            assert!(r32.xu >= r64.xu && r32.yu >= r64.yu, "{id}: outward");
            for (a, b) in [
                (r32.xl, r64.xl),
                (r32.yl, r64.yl),
                (r32.xu, r64.xu),
                (r32.yu, r64.yu),
            ] {
                let ulp = (b as f32).abs().max(1e-30) as f64 * f64::from(f32::EPSILON);
                assert!(
                    (a - b).abs() <= 2.0 * ulp,
                    "{id}: drift {} beyond 2 ULP ({ulp})",
                    (a - b).abs()
                );
            }
        }
        // The drifted tree still finds everything the original does: MBRs
        // only grew, so containment-style recall cannot regress.
        let probe = Rect::from_corners(10.0, 10.0, 40.0, 40.0);
        let want: std::collections::HashSet<u64> =
            tree.window_query(&probe).into_iter().map(|d| d.0).collect();
        let got: std::collections::HashSet<u64> =
            back.window_query(&probe).into_iter().map(|d| d.0).collect();
        assert!(got.is_superset(&want), "f32 recall must not regress");
    }

    #[test]
    fn policies_round_trip() {
        let dir = TempDir::new("rtree-persist").unwrap();
        for policy in [
            InsertPolicy::RStar,
            InsertPolicy::GuttmanQuadratic,
            InsertPolicy::GuttmanLinear,
        ] {
            let mut t = RTree::new(RTreeParams::explicit(256, 8, 3, policy));
            for i in 0..60u64 {
                let x = (i % 10) as f64;
                t.insert(
                    Rect::from_corners(x, i as f64, x + 1.0, i as f64 + 1.0),
                    DataId(i),
                );
            }
            let path = dir.file("p.rsj");
            t.save_to(&path).unwrap();
            let back = RTree::open_from(&path).unwrap();
            assert_eq!(back.params().policy, policy);
            assert_eq!(sorted_entries(&back), sorted_entries(&t));
        }
    }
}
