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
//! Every open path — [`RTree::open_from`], [`RTree::open_all`], the
//! `OpenCachedTree` opens and the join service — ends in one function,
//! [`RTree::load_all`] ([`RTree::load`] is its one-file case), and it has
//! one read path: a page scan over all the files it opens
//! ([`rsj_storage::scan`]). One claim counter runs over the first file's
//! pages, then the next's; the readers start at one per core and add up
//! to [`rsj_storage::QUEUE_DEPTH`] once their first reads are slow by the
//! completion queue's own rule, the one a cached join routes its misses
//! by — it measures, there is nothing to configure — and hand each page
//! to the decode on the reader that read it. The decode does all per-page work while the slot's bytes are in
//! that core's cache: the free-set cross-checks, one `Vec` of [`Entry`]s
//! built straight from the bytes ([`codec::NodeView`]), the leaf
//! normalisation, and the page's summary for the structural walk (its
//! MBR, whether its leaf entries are sound). What depends on page order
//! stays in page order and on the opening thread: page `i` becomes the
//! `i`-th allocation of its store, behind its `Arc`, and the one
//! structural walk ([`crate::validate`]) runs over each tree's summaries
//! once everything is in. Each page is still read once and pays the
//! handle's modelled latency once, and the two trees of a service share
//! one reader pool, so an open never has more reads in flight than a
//! join does. The error is the one opening the files one after the other
//! gives: a file's header, then its pages in order, then its structure,
//! the first file before the second. `tests/open_scan.rs` holds a slow
//! and a fast handle against each other, and a pair against two single
//! opens: same pages, same free list, same `JoinStats`, same errors.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use crate::node::{sort_by_xl, ChildRef, DataId, Entry, Node};
use crate::params::{InsertPolicy, RTreeParams};
use crate::tree::RTree;
use crate::validate::PageSummary;
use rsj_geom::Rect;
use rsj_storage::codec::{self, DiskEntry, DiskNode, DiskPage, NodeView, StorageError, META_BYTES};
use rsj_storage::scan::scan_sources;
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
    // The ranges `RTreeParams`'s constructors guarantee, and the split
    // and forced-reinsert code relies on.
    if min_entries < 2 || min_entries > max_entries / 2 {
        return Err(StorageError::Corrupt(format!(
            "impossible node capacities m={min_entries}, M={max_entries}"
        )));
    }
    if reinsert_count < 1 || reinsert_count > max_entries - min_entries {
        return Err(StorageError::Corrupt(format!(
            "impossible reinsert count p={reinsert_count} for m={min_entries}, M={max_entries}"
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

/// Builds a node straight from its slot's bytes: one allocation, the
/// entries read once.
fn node_from_view(view: NodeView<'_>, page_count: u32) -> Result<Node, StorageError> {
    let is_leaf = view.level() == 0;
    let view_entries = view.entries();
    let mut entries = Vec::with_capacity(view_entries.len());
    let (mut ordered, mut last_xl) = (true, f64::NEG_INFINITY);
    for e in view_entries {
        let child = if is_leaf {
            ChildRef::Data(DataId(e.child))
        } else {
            ChildRef::Page(codec::child_page(&e, page_count)?)
        };
        ordered &= last_xl <= e.rect[0];
        last_xl = e.rect[0];
        let [xl, yl, xu, yu] = e.rect;
        entries.push(Entry {
            rect: Rect { xl, yl, xu, yu },
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
        level: view.level(),
        entries,
    })
}

impl RTree {
    /// Physical slot size for this tree: the params' capacity, but never
    /// below the fattest node actually present (defensive: a saved tree
    /// should satisfy len <= M everywhere, but the format does not depend
    /// on it).
    fn slot_bytes(&self) -> usize {
        let mut capacity = self.params().max_entries;
        for id in 0..self.page_store().len() {
            capacity = capacity.max(self.node(PageId(id as u32)).len());
        }
        codec::slot_bytes_for(capacity)
    }

    /// The one slot encoder of every tree writer ([`RTree::save_to`] and
    /// `OpenCachedTree::flush`): `encode(page, buf)` fills `buf` with
    /// page's `slot`-byte image — its free-chain marker if the page is on
    /// the free list (linking to the page freed before it; the last freed
    /// is the chain head), its encoded node otherwise.
    pub(crate) fn slot_encoder(
        &self,
        slot: usize,
    ) -> impl Fn(PageId, &mut Vec<u8>) -> Result<(), StorageError> + '_ {
        let free = self.page_store().free_pages();
        let chain: HashMap<PageId, Option<PageId>> = free
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i.checked_sub(1).map(|j| free[j])))
            .collect();
        move |id, buf| match chain.get(&id) {
            Some(&next) => codec::encode_free_page(next, slot, buf),
            None => codec::encode_node(&to_disk(self.node(id)), slot, buf),
        }
    }

    /// Writes the tree to `path` in the [`rsj_storage::codec`] page-file
    /// format: one slot per allocated page (ids preserved — free slots
    /// become chain markers), tree metadata in the header. Returns the
    /// closed-over [`PageFile`] so callers can immediately hand it to a
    /// [`rsj_storage::FileNodeAccess`] or reopen it for updates.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<PageFile, StorageError> {
        let slot = self.slot_bytes();
        let mut file = PageFile::create(path, self.params().page_bytes, slot)?;
        // One slot per allocated page, appended in id order — a free-chain
        // marker for a free page, the encoded node otherwise — then free
        // list, tree metadata, flush.
        let encode = self.slot_encoder(slot);
        let mut buf = Vec::with_capacity(slot);
        for id in 0..self.page_store().len() {
            encode(PageId(id as u32), &mut buf)?;
            file.append_page(&buf)?;
        }
        file.set_free_list(self.page_store().free_pages())?;
        file.set_meta(encode_meta(self));
        file.flush()?;
        Ok(file)
    }

    /// Reopens a tree saved with [`RTree::save_to`]: decodes every page
    /// (one scan — module docs, "Opening")
    /// into a fresh in-memory store, so queries and joins run unchanged
    /// — while a [`rsj_storage::FileNodeAccess`] over the same file makes
    /// the buffer misses real. Page ids, root, parameters, entry count
    /// and the free list are restored exactly.
    pub fn open_from(path: impl AsRef<Path>) -> Result<RTree, StorageError> {
        let mut file = PageFile::open(path)?;
        Self::load(&mut file)
    }

    /// Reopens the trees saved at `paths`, as [`RTree::open_from`] does
    /// each, through one page scan over all their files (module docs,
    /// "Opening") — how a join service opens its pair. The trees, and the
    /// error when a file is unsound, are those of opening the files one
    /// after the other: the first file's failure wins.
    pub fn open_all<const N: usize>(paths: [&Path; N]) -> Result<[RTree; N], StorageError> {
        let mut files = Vec::with_capacity(N);
        let mut unopened = None;
        for path in paths {
            match PageFile::open(path) {
                Ok(file) => files.push(file),
                Err(err) => {
                    unopened = Some(err);
                    break;
                }
            }
        }
        let mut sources: Vec<&mut dyn PageSource> = files
            .iter_mut()
            .map(|file| file as &mut dyn PageSource)
            .collect();
        let trees = load_files(&mut sources)?;
        match unopened {
            Some(err) => Err(err),
            None => Ok(one_per_file(trees)),
        }
    }

    /// Builds a tree from every page of an already-open page file — the
    /// one assembly path behind every open, [`RTree::load_all`] of one
    /// file.
    pub fn load(file: &mut impl PageSource) -> Result<RTree, StorageError> {
        let [tree] = Self::load_all([file])?;
        Ok(tree)
    }

    /// Builds one tree from every page of each already-open page file,
    /// through one page scan over them all (module docs, "Opening"). Each
    /// page is decoded, and summarised for the structural walk, on the
    /// reader that read it; each tree's nodes land in its store in id
    /// order and one walk over its summaries checks its structure. Each
    /// file's (already chain-validated) free list is reconstructed into
    /// its store, so later updates allocate exactly like the tree that
    /// was saved. The error is the one loading the files one after the
    /// other would give: the first file's failure wins.
    pub fn load_all<const N: usize>(
        mut files: [&mut dyn PageSource; N],
    ) -> Result<[RTree; N], StorageError> {
        load_files(&mut files).map(one_per_file)
    }
}

/// `trees`, one per file of an open that loaded every file.
fn one_per_file<const N: usize>(trees: Vec<RTree>) -> [RTree; N] {
    trees
        .try_into()
        .unwrap_or_else(|_| unreachable!("a load that succeeds builds one tree per file"))
}

/// [`RTree::load_all`] over a slice: one tree per file, or the first
/// file's error — in a file, header before pages before structure. The
/// files before one whose header fails are still scanned and assembled,
/// since their errors come first.
fn load_files(files: &mut [&mut dyn PageSource]) -> Result<Vec<RTree>, StorageError> {
    let mut layouts = Vec::with_capacity(files.len());
    let mut unreadable = None;
    for file in files.iter() {
        match Layout::of(&**file) {
            Ok(layout) => layouts.push(layout),
            Err(err) => {
                unreadable = Some(err);
                break;
            }
        }
    }
    let scanned = scan_sources(&mut files[..layouts.len()], |f, id, bytes| {
        layouts[f].decode(id, bytes)
    });
    let mut trees = Vec::with_capacity(layouts.len());
    for (layout, pages) in layouts.into_iter().zip(scanned) {
        trees.push(layout.assemble(pages?)?);
    }
    match unreadable {
        Some(err) => Err(err),
        None => Ok(trees),
    }
}

/// What a tree file's header and free list say, checked before its pages
/// are read.
struct Layout {
    page_count: u32,
    root: PageId,
    len: usize,
    params: RTreeParams,
    /// The free list, oldest release first.
    free: Vec<PageId>,
    free_set: HashSet<PageId>,
}

impl Layout {
    fn of(file: &dyn PageSource) -> Result<Self, StorageError> {
        let page_count = file.page_count();
        if page_count == 0 {
            return Err(StorageError::Corrupt("page file holds no pages".into()));
        }
        let (root, len, params) = decode_meta(file.meta(), file.page_bytes(), page_count)?;
        let free = file.free_pages().to_vec();
        let free_set = free.iter().copied().collect();
        Ok(Layout {
            page_count,
            root,
            len,
            params,
            free,
            free_set,
        })
    }

    /// A page's node and its summary for the structural walk — all the
    /// per-page work of an open, on the reader that read the page.
    fn decode(&self, id: PageId, bytes: &[u8]) -> Result<(Node, PageSummary), StorageError> {
        let free = self.free_set.contains(&id);
        let node = match codec::view_page(bytes)? {
            DiskPage::Node(_) if free => {
                return Err(StorageError::Corrupt(format!(
                    "free chain claims live page {id}"
                )))
            }
            DiskPage::Node(view) => node_from_view(view, self.page_count)?,
            // The chain itself was validated by the file layer; here
            // we only reject markers the chain does not account for
            // (a free page no allocation could ever reach again).
            DiskPage::Free { .. } if !free => {
                return Err(StorageError::Corrupt(format!(
                    "page {id} is a free marker but not on the free chain"
                )))
            }
            DiskPage::Free { .. } => Node::leaf(), // placeholder, unreachable
        };
        let summary = PageSummary::of(&node, free);
        Ok((node, summary))
    }

    /// The tree of the decoded `pages`, in id order, once its structure
    /// checks out.
    fn assemble(self, pages: Vec<(Node, PageSummary)>) -> Result<RTree, StorageError> {
        let mut store = PageStore::new(self.params.page_bytes);
        let mut summaries = Vec::with_capacity(pages.len());
        // Each node goes behind its `Arc` here, not on the readers: with the
        // small `Arc` blocks among the readers' entry buffers, 40 000 R*
        // updates of a 100 000-entry tree left about 1.5 MB more resident.
        for (node, summary) in pages {
            store.alloc(Arc::new(node));
            summaries.push(summary);
        }
        store.restore_free_list(self.free);
        let tree = RTree {
            store,
            root: self.root,
            params: self.params,
            len: self.len,
        };
        // A decodable file can still be structurally broken (reference
        // cycles, unbalanced levels, lying entry counts, a free page
        // still referenced); the walk is cycle-safe, so corruption
        // surfaces here as a typed error instead of hanging the first
        // traversal.
        tree.check_structure(&summaries)
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

    /// 400 rectangles in, 300 deleted: a tree whose file carries a free
    /// chain.
    fn churned() -> RTree {
        let mut tree = build(400);
        for i in 0..300u64 {
            let x = (i % 25) as f64 * 3.0;
            let y = (i / 25) as f64 * 3.0;
            assert!(tree.delete(&Rect::from_corners(x, y, x + 2.0, y + 2.0), DataId(i)));
        }
        assert!(tree.free_page_count() > 0, "fixture needs free pages");
        tree
    }

    #[test]
    fn parameters_no_constructor_produces_are_refused() {
        let dir = TempDir::new("rtree-persist").unwrap();
        let path = dir.file("t.rsj");
        let tree = build(50);
        tree.save_to(&path).unwrap();
        let p = *tree.params();
        let (m, big_m) = (p.min_entries as u32, p.max_entries as u32);
        // (m, M, reinsert count), each outside `RTreeParams`'s ranges.
        for (m, big_m, reinsert) in [
            (0, big_m, 1),
            (1, big_m, 1),
            (big_m / 2 + 1, big_m, 1),
            (m, 0, 1),
            (m, big_m, 0),
            (m, big_m, big_m - m + 1),
        ] {
            let mut file = PageFile::open_rw(&path).unwrap();
            let mut meta = encode_meta(&tree);
            meta[12..16].copy_from_slice(&big_m.to_le_bytes());
            meta[16..20].copy_from_slice(&m.to_le_bytes());
            meta[20..24].copy_from_slice(&reinsert.to_le_bytes());
            file.set_meta(meta);
            file.flush().unwrap();
            drop(file);
            match RTree::open_from(&path) {
                Err(StorageError::Corrupt(msg)) => assert!(msg.contains("impossible"), "{msg}"),
                other => panic!("m={m}, M={big_m}, p={reinsert}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_free_page_behind_a_directory_entry_is_refused() {
        // One more level-1 entry, rect `Rect::empty()`, pointing at a page
        // on the free chain: the empty placeholder behind it has the MBR
        // its entry claims and the level a leaf needs. With m = 0 in the
        // meta it also has a legal fill, so the file would open and the
        // first split would index out of bounds.
        let dir = TempDir::new("rtree-persist").unwrap();
        for min_entries in [0, 3] {
            let mut tree = churned();
            let free = *tree.page_store().free_pages().last().unwrap();
            let max = tree.params().max_entries;
            let parent = (0..tree.allocated_pages() as u32)
                .map(PageId)
                .find(|&p| {
                    let node = tree.node(p);
                    node.level == 1
                        && node.len() < max
                        && !tree.page_store().free_pages().contains(&p)
                })
                .expect("a level-1 node with room");
            tree.node_mut(parent).entries.push(Entry {
                rect: Rect::empty(),
                child: ChildRef::Page(free),
            });
            tree.params.min_entries = min_entries;
            let path = dir.file("t.rsj");
            tree.save_to(&path).unwrap();
            let msg = match RTree::open_from(&path) {
                Err(StorageError::Corrupt(msg)) => msg,
                Err(e) => panic!("m={min_entries}: {e}"),
                Ok(mut opened) => {
                    for i in 0..400u64 {
                        let x = i as f64;
                        opened.insert(Rect::from_corners(x, 100.0, x + 1.0, 101.0), DataId(i));
                    }
                    panic!(
                        "m={min_entries}: a tree no constructor produces opened and took inserts"
                    )
                }
            };
            let want = if min_entries == 0 {
                "m=0"
            } else {
                "on the free chain"
            };
            assert!(msg.contains(want), "m={min_entries}: {msg}");
        }
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
        // Deletions dissolved nodes: the free list is non-trivial.
        let tree = churned();
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
