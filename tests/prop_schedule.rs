//! Property tests for read-schedule hints: every page the executor hints
//! to its backend must subsequently be *demanded* through a real access —
//! hints are a prefix-accurate subset of the true access sequence, never
//! phantom reads. A backend that trusts a hint to prefetch must never
//! fetch a page the join would not have read anyway.

mod common;

use common::build_tree;
use proptest::prelude::*;
use proptest::TestCaseError;
use rsj::prelude::*;
use rsj_core::exec::JoinCursor;
use rsj_storage::{BufferPool, IoStats, NodeAccess, PageId, PageRef};
use std::collections::HashMap;

/// A hint-aware accountant that records both channels: the demand stream
/// (every `access`) and, for each hinted page, the demand-stream position
/// at which the hint arrived. Accounting is delegated to a [`BufferPool`].
struct HintRecorder {
    inner: BufferPool,
    demands: Vec<(u8, PageId)>,
    /// `(store, page, demand position at hint time)`.
    hints: Vec<(u8, PageId, usize)>,
}

impl HintRecorder {
    fn new(cap_pages: usize, heights: &[usize]) -> Self {
        HintRecorder {
            inner: BufferPool::with_capacity_pages(cap_pages, heights),
            demands: Vec::new(),
            hints: Vec::new(),
        }
    }
}

impl NodeAccess for HintRecorder {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        self.demands.push((store, page));
        self.inner.access(store, page, depth)
    }

    fn pin(&mut self, store: u8, page: PageId) {
        self.inner.pin(store, page);
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        self.inner.unpin(store, page);
    }

    fn io_stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn wants_hints(&self) -> bool {
        true
    }

    fn hint(&mut self, upcoming: &[PageRef]) {
        let at = self.demands.len();
        for r in upcoming {
            self.hints.push((r.store, r.page, at));
        }
    }
}

/// Every hinted page must be demanded at or after the point the hint was
/// given (prefix-accurate subset, no phantom reads).
fn check_hints_are_prefix_accurate(rec: &HintRecorder) -> Result<(), TestCaseError> {
    // Index demand positions per page for O(log n) lookups.
    let mut positions: HashMap<(u8, u32), Vec<usize>> = HashMap::new();
    for (i, &(store, page)) in rec.demands.iter().enumerate() {
        positions.entry((store, page.0)).or_default().push(i);
    }
    for &(store, page, at) in &rec.hints {
        let demanded_after = positions
            .get(&(store, page.0))
            .is_some_and(|ps| *ps.last().expect("non-empty") >= at);
        prop_assert!(
            demanded_after,
            "hinted page (store {store}, {page}) at demand position {at} was never demanded afterwards"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// SJ1–SJ5 on presets A/B, across buffer sizes: hints ⊆ later demands.
    #[test]
    fn hinted_pages_are_eventually_demanded(
        which in 0usize..2,
        scale in 0.001..0.004f64,
        buf_pages in 0usize..32,
    ) {
        let test = if which == 0 { TestId::A } else { TestId::B };
        let data = rsj::datagen::preset(test, scale);
        let r = build_tree(&data.r, 1024);
        let s = build_tree(&data.s, 1024);
        let heights = [r.height() as usize, s.height() as usize];

        for plan in [
            JoinPlan::sj1(),
            JoinPlan::sj2(),
            JoinPlan::sj3(),
            JoinPlan::sj4(),
            JoinPlan::sj5(),
        ] {
            let rec = HintRecorder::new(buf_pages, &heights);
            let (res, rec) = rsj_core::spatial_join_with_access(&r, &s, plan, false, rec);
            check_hints_are_prefix_accurate(&rec)?;
            // The recorder must not disturb accounting: same I/O as a
            // plain pool of the same capacity.
            let plain = BufferPool::with_capacity_pages(buf_pages, &heights);
            let (want, _) = rsj_core::spatial_join_with_access(&r, &s, plan, false, plain);
            prop_assert_eq!(
                res.stats.io, want.stats.io,
                "{:?} {}: hints changed the accounting", test, plan.name()
            );
        }
    }

    /// The same property through the task-list constructor (the parallel
    /// worker unit), where the whole task list is hinted up front.
    #[test]
    fn task_cursor_hints_are_eventually_demanded(
        scale in 0.002..0.004f64,
        buf_pages in 0usize..16,
    ) {
        let data = rsj::datagen::preset(TestId::A, scale);
        let r = build_tree(&data.r, 1024);
        let s = build_tree(&data.s, 1024);
        let plan = JoinPlan::sj4();
        let rn = r.node(r.root());
        let sn = s.node(s.root());
        prop_assume!(!rn.is_leaf() && !sn.is_leaf());
        let mut tasks = Vec::new();
        for er in &rn.entries {
            for es in &sn.entries {
                if let Some(rect) = plan.search_space(&er.rect, &es.rect) {
                    tasks.push((RTree::child_page(er), RTree::child_page(es), rect));
                }
            }
        }
        prop_assume!(!tasks.is_empty());
        let heights = [r.height() as usize, s.height() as usize];
        let rec = HintRecorder::new(buf_pages, &heights);
        let mut cursor = JoinCursor::with_tasks(&r, &s, plan, rec, tasks);
        for _ in &mut cursor {}
        let rec = cursor.into_access();
        prop_assert!(!rec.hints.is_empty(), "task lists must be hinted");
        check_hints_are_prefix_accurate(&rec)?;
    }
}

/// Deterministic smoke: a multi-level fixture must actually emit hints
/// (the property above would hold vacuously on hint-free runs).
#[test]
fn schedules_are_announced_on_a_multilevel_fixture() {
    let data = rsj::datagen::preset(TestId::A, 0.003);
    let r = build_tree(&data.r, 1024);
    let s = build_tree(&data.s, 1024);
    assert!(r.height() > 1 && s.height() > 1, "fixture needs depth");
    let heights = [r.height() as usize, s.height() as usize];
    for plan in [JoinPlan::sj3(), JoinPlan::sj4(), JoinPlan::sj5()] {
        let rec = HintRecorder::new(16, &heights);
        let (_, rec) = rsj_core::spatial_join_with_access(&r, &s, plan, false, rec);
        assert!(
            !rec.hints.is_empty(),
            "{}: no schedule was announced",
            plan.name()
        );
        // `schedule_is_exact` documents the hint accuracy: SJ3's pair
        // order is the descent order; SJ4/SJ5 reorder via pinning and
        // re-announce each drain tail instead.
        assert_eq!(plan.schedule_is_exact(), plan.name() == "SJ3");
    }
}
