//! Bulk-built-file conformance: trees produced by the *streaming* bulk
//! loaders (`load_to_file` / `load_to_sharded` — pages emitted bottom-up
//! through `BulkPageWriter`, never a whole tree in RAM) must be
//! indistinguishable from their in-memory `str_load`/`hilbert_load`
//! counterparts once opened:
//!
//! * `RTree::open_from` / `open_sharded_from` loads are validator-clean
//!   and hold the identical tree: the same node sequence, level by level
//!   (one ordering pass, one cut rule, no per-loader directory pass);
//! * STR leaves are near-square tiles of the world, not strips, whichever
//!   loader built them;
//! * a lattice whose `xl` values are all shared (node layout decided by
//!   the tie rule alone) builds the same pages in every loader and joins
//!   to the brute-force pair set;
//! * SJ1–SJ5 over presets A and B produce pair multisets bit-identical to
//!   the in-memory join over the same items, through **every** file
//!   backend: the four [`rsj_storage::FileAccess`] instantiations — page
//!   source {plain, sharded} × read strategy {blocking, queued} — and the
//!   latched shared page cache;
//! * on the skewed scenario at 4-KByte pages, a cold SJ2 over the streamed
//!   STR files finds the pairs of, and charges no more disk accesses than,
//!   the same relations inserted one at a time and saved.

mod common;

use common::{plans, Files, CAP_PAGES, PAGE, SHARDS};
use rsj::prelude::*;
use rsj::rtree::bulk::{self, BulkConfig, BulkLayout};
use rsj_storage::{BufferPool, CacheConfig, NodeAccess, SharedPageCache, TempDir};

fn run<A: NodeAccess>(r: &RTree, s: &RTree, plan: JoinPlan, access: A) -> Vec<(u64, u64)> {
    common::run(r, s, plan, access).0
}

struct Fixture {
    layout: BulkLayout,
    /// The in-memory bulk-loaded trees — the join oracle.
    r_mem: RTree,
    s_mem: RTree,
    /// The streamed files, plain and sharded, reopened cold.
    files: Files,
}

fn items(objs: &[rsj::datagen::SpatialObject]) -> Vec<(Rect, DataId)> {
    objs.iter().map(|o| (o.mbr, DataId(o.id))).collect()
}

impl Fixture {
    fn new(test: TestId, scale: f64, layout: BulkLayout) -> Fixture {
        let data = rsj::datagen::preset(test, scale);
        Fixture::from_items([items(&data.r), items(&data.s)], layout, PAGE)
    }

    fn from_items(
        items: [Vec<(Rect, DataId)>; 2],
        layout: BulkLayout,
        page_bytes: usize,
    ) -> Fixture {
        let params = RTreeParams::for_page_size(page_bytes);
        let mem = |it: &[(rsj_geom::Rect, DataId)]| match layout {
            BulkLayout::Str => bulk::str_load(params, it, bulk::DEFAULT_FILL).unwrap(),
            BulkLayout::Hilbert => bulk::hilbert_load(params, it, bulk::DEFAULT_FILL).unwrap(),
        };
        let (r_mem, s_mem) = (mem(&items[0]), mem(&items[1]));

        let cfg = BulkConfig::default();
        let files = Files::create("bulk-conformance", |path, rel, sharded| {
            let it = &items[rel];
            if sharded {
                bulk::load_to_sharded(params, it, layout, cfg, path, SHARDS).unwrap();
            } else {
                bulk::load_to_file(params, it, layout, cfg, path).unwrap();
            }
        });
        Fixture {
            layout,
            r_mem,
            s_mem,
            files,
        }
    }
}

/// One node's `(rect, data id)` entries; the id is `None` on directory nodes.
type NodeEntries = Vec<(Rect, Option<DataId>)>;

/// The tree as node sequences — root level first, each level left to
/// right — of `(rect, data id)` entries. Child page ids are left out: they
/// follow the loader's emission order, not the tree's shape.
fn node_sequence(t: &RTree) -> Vec<Vec<NodeEntries>> {
    let mut levels = Vec::new();
    let mut frontier = vec![t.root()];
    while !frontier.is_empty() {
        let entries = |&id| t.node(id).entries.iter();
        levels.push(
            frontier
                .iter()
                .map(|id| entries(id).map(|e| (e.rect, e.child.data())).collect())
                .collect(),
        );
        frontier = frontier
            .iter()
            .flat_map(|id| entries(id).filter_map(|e| e.child.page()))
            .collect();
    }
    levels
}

/// Equal node sequences, reporting only the first node that differs.
fn assert_same_nodes(got: &RTree, want: &RTree, tag: &str) {
    let (got, want) = (node_sequence(got), node_sequence(want));
    assert_eq!(got.len(), want.len(), "{tag}: height");
    for (depth, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.len(), w.len(), "{tag}: nodes at depth {depth}");
        for (i, (g, w)) in g.iter().zip(w).enumerate() {
            assert_eq!(g, w, "{tag}: node {i} at depth {depth}");
        }
    }
}

#[test]
fn streamed_files_load_validator_clean_with_identical_entries() {
    for (test, layout) in [
        (TestId::A, BulkLayout::Str),
        (TestId::A, BulkLayout::Hilbert),
        (TestId::B, BulkLayout::Str),
        (TestId::B, BulkLayout::Hilbert),
    ] {
        let fx = Fixture::new(test, 0.003, layout);
        let tag = format!("{test:?}/{:?}", fx.layout);
        let [r_file, s_file] = &fx.files.plain_trees;
        for (t, name) in [(r_file, "R"), (s_file, "S")] {
            t.validate().unwrap_or_else(|e| panic!("{tag}/{name}: {e}"));
        }
        assert_same_nodes(r_file, &fx.r_mem, &format!("{tag}: R"));
        assert_same_nodes(s_file, &fx.s_mem, &format!("{tag}: S"));
        // The sharded twin carries the same tree.
        let r_back = &fx.files.sharded_trees[0];
        r_back.validate().unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_same_nodes(r_back, &fx.r_mem, &format!("{tag}: sharded R"));
    }
}

/// A lattice of equal squares: every `xl` value is shared by a whole
/// column, so node layout is decided by the tie rule alone.
fn lattice(side: usize, offset: f64) -> Vec<(Rect, DataId)> {
    (0..side * side)
        .map(|i| {
            let (x, y) = ((i % side) as f64 * 10.0 + offset, (i / side) as f64 * 10.0);
            (
                Rect::from_corners(x, y, x + 12.0, y + 12.0),
                DataId(i as u64),
            )
        })
        .collect()
}

#[test]
fn duplicate_xl_values_build_identically_and_join_to_brute_force() {
    let items = [lattice(40, 0.0), lattice(36, 5.0)];
    let (mut want, _) = rsj_core::baseline::nested_loop_join(
        &items[0]
            .iter()
            .map(|&(r, id)| (r, id.0))
            .collect::<Vec<_>>(),
        &items[1]
            .iter()
            .map(|&(r, id)| (r, id.0))
            .collect::<Vec<_>>(),
    );
    want.sort_unstable();
    for layout in [BulkLayout::Str, BulkLayout::Hilbert] {
        let fx = Fixture::from_items(items.clone(), layout, PAGE);
        let tag = format!("lattice/{layout:?}");
        // The tie rule is stable in both loaders: same pages either way.
        for (rel, mem) in [&fx.r_mem, &fx.s_mem].into_iter().enumerate() {
            mem.validate().unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_same_nodes(&fx.files.plain_trees[rel], mem, &format!("{tag}: {rel}"));
            let sharded = &fx.files.sharded_trees[rel];
            assert_same_nodes(sharded, mem, &format!("{tag}: sharded {rel}"));
        }
        let heights = fx.files.heights();
        for (plan, name) in plans() {
            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &heights);
            assert_eq!(run(&fx.r_mem, &fx.s_mem, plan, pool), want, "{tag}/{name}");
        }
    }
}

#[test]
fn str_leaves_are_near_square_tiles_in_every_build() {
    // Uniform data at the benchmark's page size: P leaves should tile the
    // world roughly √P × √P. (Slabs cut per √n entries instead of per √P
    // pages once made every leaf a full-height strip — aspect ~1/100 —
    // and nothing but the join's comparison count showed it.)
    let items: Vec<(Rect, DataId)> = rsj::datagen::synthetic::uniform_rects(20_000, 4.0, 7)
        .iter()
        .map(|o| (o.mbr, DataId(o.id)))
        .collect();
    let params = RTreeParams::for_page_size(4096);
    let dir = TempDir::new("bulk-shape").unwrap();
    let (path, base) = (dir.file("u.rsj"), dir.file("u.sharded.rsj"));
    let cfg = BulkConfig::default();
    let (_, stats) = bulk::load_to_file(params, &items, BulkLayout::Str, cfg, &path).unwrap();
    bulk::load_to_sharded(params, &items, BulkLayout::Str, cfg, &base, SHARDS).unwrap();
    assert!(
        stats.slabs.abs_diff(stats.nodes_per_slab) <= 1,
        "{stats:?}: the leaf grid should be near-square"
    );
    for (tree, name) in [
        (
            bulk::str_load(params, &items, bulk::DEFAULT_FILL).unwrap(),
            "memory",
        ),
        (RTree::open_from(&path).unwrap(), "file"),
        (RTree::open_sharded_from(&base).unwrap(), "sharded"),
    ] {
        let mut mbrs = Vec::new();
        tree.for_each_node(|_, node| {
            if node.is_leaf() {
                mbrs.push(node.mbr());
            }
        });
        let mut aspects: Vec<f64> = mbrs.iter().map(|r| r.width() / r.height()).collect();
        aspects.sort_by(f64::total_cmp);
        let median = aspects[aspects.len() / 2];
        assert!(
            (1.0 / 3.0..=3.0).contains(&median),
            "{name}: median leaf aspect {median}"
        );
        let mean_width = mbrs.iter().map(Rect::width).sum::<f64>() / mbrs.len() as f64;
        let tile = rsj::datagen::WORLD.width() / (mbrs.len() as f64).sqrt();
        assert!(
            mean_width <= 3.0 * tile,
            "{name}: mean leaf width {mean_width} vs tile side {tile}"
        );
    }
}

#[test]
fn bulk_files_join_identically_across_all_backends() {
    for (test, layout) in [
        (TestId::A, BulkLayout::Str),
        (TestId::A, BulkLayout::Hilbert),
        (TestId::B, BulkLayout::Str),
        (TestId::B, BulkLayout::Hilbert),
    ] {
        let fx = Fixture::new(test, 0.003, layout);
        let heights = fx.files.heights();
        let cache = SharedPageCache::open(
            &fx.files.plain,
            CAP_PAGES,
            &heights,
            CacheConfig {
                workers: 1,
                ..CacheConfig::default()
            },
        )
        .unwrap();
        for (plan, name) in plans() {
            let tag = format!("{test:?}/{:?}/{name}", fx.layout);

            // Oracle: the in-memory bulk tree through the BufferPool.
            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &heights);
            let want = run(&fx.r_mem, &fx.s_mem, plan, pool);
            assert!(!want.is_empty(), "{tag}: fixture must join");

            // The four file stacks, each over the streamed layout it reads.
            fx.files
                .for_each_stack(CAP_PAGES, None, |label, [r, s], access| {
                    assert_eq!(run(r, s, plan, access), want, "{tag}: {label}");
                });

            // Latched shared page cache.
            cache.clear();
            let [r_file, s_file] = &fx.files.plain_trees;
            assert_eq!(
                run(r_file, s_file, plan, cache.handle(CAP_PAGES)),
                want,
                "{tag}: shared cache"
            );
        }
    }

    // One more input and one more build to agree with: the skewed
    // scenario at the paper's 4-KByte pages, streamed STR files against
    // the same relations inserted one at a time and saved. The pages
    // differ, the pairs may not — and under a 128-KByte buffer the packed
    // layout must not cost a cold SJ2 more disk accesses than the grown
    // one (327 against 511; both counts are deterministic). The bound
    // belongs to this regime: 1-KByte pages behind a 16-page buffer read
    // 2 107 against 1 534.
    const SKEWED_PAGE: usize = 4096;
    let sc = rsj::datagen::scenario(rsj::datagen::Scenario::SkewedClusters, 0.02);
    let bulk_built =
        Fixture::from_items([items(&sc.r), items(&sc.s)], BulkLayout::Str, SKEWED_PAGE).files;
    let (r, s) = (
        common::build_tree(&sc.r, SKEWED_PAGE),
        common::build_tree(&sc.s, SKEWED_PAGE),
    );
    let insert_built = Files::save("insert-built", &r, &s);
    let cap_pages = 128 * 1024 / SKEWED_PAGE;
    let (bulk_pairs, bulk_io) = bulk_built.cold_sj2(cap_pages);
    let (insert_pairs, insert_io) = insert_built.cold_sj2(cap_pages);
    let (bulk_disk, insert_disk) = (bulk_io.disk_accesses, insert_io.disk_accesses);
    assert!(!bulk_pairs.is_empty(), "skewed: fixture must join");
    assert_eq!(bulk_pairs, insert_pairs, "skewed: bulk- vs insert-built");
    assert!(
        bulk_disk <= insert_disk,
        "skewed: cold SJ2 charges {bulk_disk} disk accesses over the bulk-built files, \
         {insert_disk} over the insert-built ones"
    );
}
