//! Nothing announces reads ahead of demand. `NodeAccess::wants_hints`,
//! `will_access` and `hint` survive only as inert defaults that the repo
//! benchmark's access wrapper overrides; no driver in the workspace may
//! call them. A recorder whose three methods panic is driven through every
//! entry point that runs a `JoinCursor` — the whole-tree and task-list
//! constructors, the parallel join and stage 0 of the multi-way join —
//! for SJ1–SJ5, and must account exactly like the `BufferPool` it wraps.

mod common;

use common::{build_tree, plans, sorted_ids};
use rsj::prelude::*;
use rsj_core::exec::JoinCursor;
use rsj_core::{multiway_join, parallel_spatial_join};
use rsj_storage::{BufferPool, IoStats, NodeAccess, PageId, PageRef};

const CAP_PAGES: usize = 16;

/// A [`BufferPool`] that fails the test if anything calls a hint method.
struct NoHints(BufferPool);

impl NodeAccess for NoHints {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        self.0.access(store, page, depth)
    }

    fn pin(&mut self, store: u8, page: PageId) {
        self.0.pin(store, page);
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        self.0.unpin(store, page);
    }

    fn io_stats(&self) -> IoStats {
        self.0.stats()
    }

    fn wants_hints(&self) -> bool {
        panic!("wants_hints called")
    }

    fn will_access(&mut self, _: u8, _: PageId, _: usize) {
        panic!("will_access called")
    }

    fn hint(&mut self, _: &[PageRef]) {
        panic!("hint called")
    }
}

/// Preset-A trees with directory roots, so every frame kind is reached.
fn trees() -> (RTree, RTree) {
    let data = rsj::datagen::preset(TestId::A, 0.003);
    let (r, s) = (build_tree(&data.r, 1024), build_tree(&data.s, 1024));
    assert!(r.height() > 1 && s.height() > 1, "fixture needs depth");
    (r, s)
}

fn pool(r: &RTree, s: &RTree, cap_pages: usize) -> BufferPool {
    BufferPool::with_capacity_pages(cap_pages, &[r.height() as usize, s.height() as usize])
}

/// The root-entry task list, as the parallel join builds it.
fn root_tasks(r: &RTree, s: &RTree, plan: JoinPlan) -> Vec<(PageId, PageId, Rect)> {
    let (rn, sn) = (r.node(r.root()), s.node(s.root()));
    let mut tasks = Vec::new();
    for er in &rn.entries {
        for es in &sn.entries {
            if let Some(rect) = plan.search_space(&er.rect, &es.rect) {
                tasks.push((RTree::child_page(er), RTree::child_page(es), rect));
            }
        }
    }
    assert!(!tasks.is_empty(), "fixture roots must overlap");
    tasks
}

/// Pairs and `IoStats` of a cursor run to exhaustion.
fn drain<A: NodeAccess>(mut cursor: JoinCursor<'_, A>) -> (Vec<(u64, u64)>, IoStats) {
    let pairs: Vec<_> = cursor.by_ref().collect();
    (sorted_ids(&pairs), cursor.stats().io)
}

#[test]
fn cursors_never_call_the_hint_methods() {
    let (r, s) = trees();
    for (plan, name) in plans() {
        let want = drain(JoinCursor::new(&r, &s, plan, pool(&r, &s, CAP_PAGES)));
        let access = NoHints(pool(&r, &s, CAP_PAGES));
        let got = drain(JoinCursor::new(&r, &s, plan, access));
        assert!(!want.0.is_empty(), "{name}: fixture must join");
        assert_eq!(got, want, "{name}: whole-tree cursor");

        let tasks = root_tasks(&r, &s, plan);
        let access = pool(&r, &s, CAP_PAGES);
        let want = drain(JoinCursor::with_tasks(&r, &s, plan, access, tasks.clone()));
        let access = NoHints(pool(&r, &s, CAP_PAGES));
        let got = drain(JoinCursor::with_tasks(&r, &s, plan, access, tasks));
        assert_eq!(got, want, "{name}: task-list cursor");
    }
}

#[test]
fn parallel_and_multiway_drivers_never_call_the_hint_methods() {
    let (r, s) = trees();
    for (plan, name) in plans() {
        let workers = 2;
        let want = parallel_spatial_join::<CmpCounter, _>(&r, &s, plan, true, workers, |_, _| {
            pool(&r, &s, CAP_PAGES / workers)
        });
        let got = parallel_spatial_join::<CmpCounter, _>(&r, &s, plan, true, workers, |_, _| {
            NoHints(pool(&r, &s, CAP_PAGES / workers))
        });
        assert_eq!(sorted_ids(&got.pairs), sorted_ids(&want.pairs), "{name}");
        assert_eq!(got.stats, want.stats, "{name}: parallel");

        // Stage 0 is the cursor over R and S; stage 1 probes S again.
        let cfg = JoinConfig::with_buffer(CAP_PAGES * 1024);
        let want = multiway_join::<CmpCounter, _>(&[&r, &s, &s], plan, |_, t| cfg.buffer_pool(t));
        let got = multiway_join::<CmpCounter, _>(&[&r, &s, &s], plan, |stage, _| {
            let heights: &[usize] = if stage == 0 {
                &[r.height() as usize, s.height() as usize]
            } else {
                &[s.height() as usize]
            };
            NoHints(BufferPool::with_capacity_pages(CAP_PAGES, heights))
        });
        assert_eq!(got.tuples.len(), want.tuples.len(), "{name}: multiway");
        assert_eq!(got.io, want.io, "{name}: multiway I/O");
    }
}
