//! The leaf-order invariant, seen from the join: every writer keeps a
//! leaf's entries ordered by `xl` (`rsj_rtree::node`, "Entry order"), so
//! the plane sweep's sorts find nothing to move. Stated as exact counts,
//! which hold on any machine:
//!
//! * over STR-loaded trees SJ3/SJ4 charge `sort_comparisons` = Σ(len − 1)
//!   over the sequences they sort — the cost of *verifying* an order —
//!   with every count equal to the recursive oracle's;
//! * the same holds for the leaf sequences after delete + re-insert churn
//!   through [`OpenCachedTree`], a flush and a cold re-open (directory
//!   nodes are not maintained under updates and pay a real sort);
//! * a page file whose leaves an older or foreign writer left unordered
//!   opens normalised: validator-clean, ordered, joining to the same pairs.

mod common;

use common::sorted_ids;
use rsj::datagen::synthetic::{clustered_rects, uniform_rects};
use rsj::datagen::SpatialObject;
use rsj::prelude::*;
use rsj::rtree::{bulk, Entry, Node};
use rsj_core::exec::recursive_spatial_join;
use rsj_core::sweep::sort_indices_by_xl;
use rsj_storage::codec::{self, DiskPage};
use rsj_storage::{PageId, TempDir};

const PAGE: usize = 1024;

fn str_tree(objs: &[SpatialObject]) -> RTree {
    let items: Vec<(Rect, DataId)> = objs.iter().map(|o| (o.mbr, DataId(o.id))).collect();
    bulk::str_load(RTreeParams::for_page_size(PAGE), &items, bulk::DEFAULT_FILL).unwrap()
}

fn fixture() -> (Vec<SpatialObject>, RTree, RTree) {
    let r = clustered_rects(6000, 20, 40.0, 8.0, 3);
    let s = uniform_rects(6000, 6.0, 4);
    let (rt, st) = (str_tree(&r), str_tree(&s));
    assert!(rt.height() >= 3 && rt.height() == st.height());
    (r, rt, st)
}

/// What the plane-sweep plans pay to sort, split by node kind: for every
/// node pair a restricting sweep join visits, the two restricted entry
/// sequences cost `minimal` = Σ(len − 1) when they come ordered and
/// `counted` as they actually are.
#[derive(Debug, Default)]
struct SortCost {
    leaf_minimal: u64,
    leaf_counted: u64,
    dir_minimal: u64,
    dir_counted: u64,
}

fn sort_cost(r: &RTree, s: &RTree) -> SortCost {
    let mut cost = SortCost::default();
    let space = r.mbr().intersection(&s.mbr()).expect("trees overlap");
    let mut stack = vec![(r.root(), s.root(), space)];
    while let Some((rp, sp, space)) = stack.pop() {
        let (rn, sn) = (r.node(rp), s.node(sp));
        let within = |n: &Node| -> Vec<Entry> {
            let hit = |e: &&Entry| e.rect.intersects(&space);
            n.entries.iter().filter(hit).copied().collect()
        };
        let (re, se) = (within(rn), within(sn));
        for seq in [&re, &se] {
            let rects: Vec<Rect> = seq.iter().map(|e| e.rect).collect();
            let mut index: Vec<usize> = (0..rects.len()).collect();
            let mut cmp = CmpCounter::new();
            sort_indices_by_xl(&rects, &mut index, &mut cmp);
            let minimal = rects.len().saturating_sub(1) as u64;
            if rn.is_leaf() {
                cost.leaf_minimal += minimal;
                cost.leaf_counted += cmp.get();
            } else {
                cost.dir_minimal += minimal;
                cost.dir_counted += cmp.get();
            }
        }
        if rn.is_leaf() {
            continue;
        }
        for a in &re {
            for b in &se {
                if let Some(sub) = a.rect.intersection(&b.rect) {
                    stack.push((RTree::child_page(a), RTree::child_page(b), sub));
                }
            }
        }
    }
    cost
}

/// Cursor ≡ recursive oracle on every count and on the pair multiset,
/// for the three sweep plans. Returns the `[SJ3, SJ4, SJ5]` stats.
fn assert_oracle_parity(r: &RTree, s: &RTree, tag: &str) -> [JoinStats; 3] {
    let cfg = JoinConfig::with_buffer(16 * PAGE);
    [JoinPlan::sj3(), JoinPlan::sj4(), JoinPlan::sj5()].map(|plan| {
        let got = spatial_join(r, s, plan, &cfg);
        let want = recursive_spatial_join(r, s, plan, &cfg);
        assert_eq!(got.stats, want.stats, "{tag}: {}", plan.name());
        assert_eq!(sorted_ids(&got.pairs), sorted_ids(&want.pairs), "{tag}");
        got.stats
    })
}

#[test]
fn sweep_sorts_over_bulk_loaded_trees_move_nothing() {
    let (_, r, s) = fixture();
    let cost = sort_cost(&r, &s);
    assert!(cost.leaf_minimal > 5_000, "fixture too small: {cost:?}");
    // Both loaders order directory nodes too, so nothing is out of place.
    assert_eq!(cost.leaf_counted, cost.leaf_minimal);
    assert_eq!(cost.dir_counted, cost.dir_minimal);
    // SJ3 and SJ4 sort nothing but entry sequences; SJ5 charges its
    // z-order sorts to the same counter, so it can only sit above.
    let [sj3, sj4, sj5] = assert_oracle_parity(&r, &s, "bulk");
    assert_eq!(sj4.sort_comparisons, cost.leaf_minimal + cost.dir_minimal);
    assert_eq!(sj3.sort_comparisons, sj4.sort_comparisons);
    assert!(sj5.sort_comparisons > sj4.sort_comparisons);
}

#[test]
fn leaf_order_survives_cached_updates_and_reopen() {
    let (objs, r, s) = fixture();
    let dir = TempDir::new("leaf-order-churn").unwrap();
    let (r_path, s_path) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r.save_to(&r_path).unwrap();
    s.save_to(&s_path).unwrap();
    let heights = [r.height() as usize, s.height() as usize];
    let cache = SharedPageCache::open(
        &[r_path.clone(), s_path],
        64,
        &heights,
        CacheConfig {
            workers: 1,
            shards: 1,
            delay: None,
        },
    )
    .unwrap();
    let mut open = OpenCachedTree::open_cached(&cache, 0, 16).unwrap();
    // Batches of deletes, then the same rectangles back under new ids:
    // enough to dissolve and split leaves on the way.
    for (round, batch) in objs.chunks(300).step_by(4).enumerate() {
        for o in batch {
            assert!(open.delete(&o.mbr, DataId(o.id)).unwrap());
        }
        for o in batch {
            let id = DataId(1_000_000 * (round as u64 + 1) + o.id);
            open.insert(o.mbr, id).unwrap();
        }
        open.flush().unwrap();
    }
    open.tree().validate().unwrap();
    let reopened = RTree::open_from(&r_path).unwrap();
    reopened.validate().unwrap();
    for (t, tag) in [(open.tree(), "live"), (&reopened, "reopened")] {
        let cost = sort_cost(t, &s);
        assert_eq!(cost.leaf_counted, cost.leaf_minimal, "{tag}");
        assert!(
            cost.dir_counted > cost.dir_minimal,
            "{tag}: the churn should have split a node (else this test shows nothing \
             about directory order)"
        );
        let [_, sj4, _] = assert_oracle_parity(t, &s, tag);
        assert_eq!(
            sj4.sort_comparisons,
            cost.leaf_minimal + cost.dir_counted,
            "{tag}"
        );
    }
}

#[test]
fn unordered_leaves_on_disk_are_normalised_at_open() {
    let (_, r, s) = fixture();
    let dir = TempDir::new("leaf-order-foreign").unwrap();
    let path = dir.file("r.rsj");
    r.save_to(&path).unwrap();
    // A foreign writer: every leaf rewritten back to front through the
    // codec, nothing else touched.
    let mut file = PageFile::open_rw(&path).unwrap();
    let (slot, mut buf, mut leaves) = (file.slot_bytes(), Vec::new(), 0);
    for id in (0..file.page_count()).map(PageId) {
        file.read_page_into(id, &mut buf).unwrap();
        if let DiskPage::Node(mut node) = codec::decode_page(&buf).unwrap() {
            if node.level == 0 && node.entries.len() > 1 {
                node.entries.reverse();
                codec::encode_node(&node, slot, &mut buf).unwrap();
                file.write_page(id, &buf).unwrap();
                leaves += 1;
            }
        }
    }
    file.flush().unwrap();
    drop(file);
    assert!(leaves > 50);

    let opened = RTree::open_from(&path).unwrap();
    opened.validate().unwrap();
    let cost = sort_cost(&opened, &s);
    assert_eq!(cost.leaf_counted, cost.leaf_minimal);
    let cfg = JoinConfig::default();
    let want = sorted_ids(&spatial_join(&r, &s, JoinPlan::sj4(), &cfg).pairs);
    assert!(!want.is_empty());
    for (plan, name) in common::plans() {
        let got = spatial_join(&opened, &s, plan, &cfg);
        assert_eq!(sorted_ids(&got.pairs), want, "{name}");
    }
}
