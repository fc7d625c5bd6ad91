//! Read schedules: the §4.3 page-access order as a first-class artifact.
//!
//! The paper's SJ3–SJ5 win because the join decides the order in which
//! child pages will be visited *before* descending — sweep order, pinned
//! max-degree drains, or local z-order. Left implicit inside the cursor's
//! state machine, that decision could be neither announced to a backend
//! nor tested on its own; this module makes it explicit, in two halves:
//!
//! * **Ordering** — [`order_dir_pairs`] applies the plan's read schedule
//!   to the qualifying directory pairs of one node pair (today: the local
//!   z-order sort of SJ5/`zorder-nopin`; sweep order falls out of the
//!   plane-sweep enumeration itself). Comparator invocations are charged
//!   to the sort meter exactly as the recursive oracle charges them, so
//!   counted mode stays bit-identical.
//! * **Materialization** — [`ReadSchedule`] collects the upcoming
//!   `(store, page, depth)` accesses implied by the ordered pairs and
//!   hands them to the backend through [`NodeAccess::hint`]. This is the
//!   planner→pager channel: accounting backends ignore it (and the
//!   cursor skips building it when [`NodeAccess::wants_hints`] is false),
//!   while the queued read strategy of [`rsj_storage::FileAccess`]
//!   overlaps the reads with the computation that happens between hint
//!   and demand.
//!
//! The executor's contract: every page pushed into a schedule that is
//! announced will subsequently be demanded through
//! [`NodeAccess::access`] (hints are a prefix-accurate subset of the true
//! access sequence, never phantom reads), provided the join runs to
//! completion. The property suite in `tests/prop_schedule.rs` enforces
//! this across plans, presets and buffer sizes.

use std::collections::VecDeque;

use crate::exec::{TAG_R, TAG_S};
use crate::plan::JoinPlan;
use rsj_geom::{zorder, Meter, Rect};
use rsj_rtree::{Node, RTree};
use rsj_storage::{NodeAccess, PageId, PageRef, Ticket};

/// A scheduled directory pair: entry indices plus the intersection of the
/// two entry rectangles (the restricted search space passed down).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirPair {
    pub ir: usize,
    pub js: usize,
    pub rect: Rect,
}

/// The materialized tail of a read schedule: the page accesses the
/// executor will make next, in order. Reused across frames (owned by the
/// cursor's scratch arena) — steady state allocates nothing.
#[derive(Debug, Default)]
pub struct ReadSchedule {
    refs: Vec<PageRef>,
}

impl ReadSchedule {
    /// Empties the schedule for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.refs.clear();
    }

    /// Appends one upcoming access.
    #[inline]
    pub fn push(&mut self, store: u8, page: PageId, depth: usize) {
        self.refs.push(PageRef::new(store, page, depth));
    }

    /// Number of scheduled accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True if nothing is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Hands the schedule to the backend as one hint batch (no-op when
    /// empty).
    #[inline]
    pub fn announce<A: NodeAccess>(&self, access: &mut A) {
        if !self.refs.is_empty() {
            access.hint(&self.refs);
        }
    }
}

/// The emission gate of a completion-driven join
/// ([`NodeAccess::completion_driven`]): result pairs produced while their
/// source pages were still in flight may not surface through the iterator
/// until those reads complete.
///
/// The cursor's deterministic machine runs (and charges) in schedule
/// order regardless of completion order; after each step that may have
/// produced results, [`TicketGate::capture`] records a *barrier* — the
/// backend's latest demand-miss ticket — covering every result emitted
/// from that step onward. A result is releasable once its binding
/// barriers are **settled** ([`NodeAccess::is_settled`]: every submission
/// up to the barrier has completed), which also covers misses that
/// adopted older hint submissions: settledness is a frontier predicate,
/// so one barrier at the running-max ticket subsumes every smaller one.
/// Satisfied barriers are dropped permanently — tickets never
/// un-complete — keeping the front check O(1) amortized.
#[derive(Debug, Default)]
pub(crate) struct TicketGate {
    /// `(first result sequence covered, barrier ticket)`; both columns
    /// are non-decreasing.
    barriers: VecDeque<(u64, Ticket)>,
    /// Running max of captured tickets (barriers only ever tighten).
    max_ticket: Ticket,
}

impl TicketGate {
    /// Records that results from sequence `before_seq` onward depend on
    /// every read submitted up to `t` (the backend's latest miss ticket
    /// after a machine step). Tickets at or below an existing barrier add
    /// nothing — settling that barrier settles them too.
    #[inline]
    pub fn capture(&mut self, before_seq: u64, t: Ticket) {
        if t > self.max_ticket {
            self.max_ticket = t;
            self.barriers.push_back((before_seq, t));
        }
    }

    /// The barrier blocking the result at sequence `seq`, if any, popping
    /// barriers `access` reports settled. `None` means the result may be
    /// emitted.
    pub fn blocking<A: NodeAccess>(&mut self, seq: u64, access: &A) -> Option<Ticket> {
        while let Some(&(first_seq, t)) = self.barriers.front() {
            if first_seq > seq {
                return None;
            }
            if access.is_settled(t) {
                self.barriers.pop_front();
            } else {
                return Some(t);
            }
        }
        None
    }
}

/// Scratch for the z-order scheduling sort, recycled across frames.
#[derive(Debug, Default)]
pub(crate) struct OrderScratch {
    /// Z-order keys of directory-pair intersection rectangles.
    zkeys: Vec<u64>,
    /// Sort permutation over the pair list.
    zperm: Vec<usize>,
    /// Permutation-apply scratch.
    ztmp: Vec<DirPair>,
}

/// Reorders `pairs` per the plan's §4.3 read schedule. For the
/// enumeration/sweep schedules this is the identity (the pairs already
/// arrive in enumeration order); for the z-order schedules the pairs are
/// sorted by the z-value of their intersection centre within `zframe`,
/// with comparator invocations charged like a sort — exactly as the
/// recursive oracle does it, so counted mode stays bit-identical.
pub(crate) fn order_dir_pairs<M: Meter>(
    plan: &JoinPlan,
    zframe: &Rect,
    pairs: &mut Vec<DirPair>,
    scratch: &mut OrderScratch,
    sort_cmp: &mut M,
) {
    if !plan.zorders() {
        return;
    }
    scratch.zkeys.clear();
    scratch
        .zkeys
        .extend(pairs.iter().map(|p| zorder::z_center(&p.rect, zframe, 16)));
    scratch.zperm.clear();
    scratch.zperm.extend(0..pairs.len());
    let keys = &scratch.zkeys;
    if M::COUNTING {
        scratch.zperm.sort_by(|&x, &y| {
            sort_cmp.bump();
            keys[x].cmp(&keys[y])
        });
    } else {
        scratch.zperm.sort_unstable_by_key(|&x| keys[x]);
    }
    scratch.ztmp.clear();
    scratch.ztmp.extend(scratch.zperm.iter().map(|&k| pairs[k]));
    std::mem::swap(pairs, &mut scratch.ztmp);
}

/// Pushes the child pages of directory pairs in schedule order: for each
/// pair, the R-side child then the S-side child, at the children's depth
/// — the access sequence [`descend`](crate::exec::JoinCursor) will
/// produce. `rn`/`sn` are the parent nodes the pair indices point into.
pub(crate) fn push_dir_children<'p>(
    out: &mut ReadSchedule,
    rn: &Node,
    sn: &Node,
    r_child_depth: usize,
    s_child_depth: usize,
    pairs: impl IntoIterator<Item = &'p DirPair>,
) {
    for p in pairs {
        out.push(TAG_R, RTree::child_page(&rn.entries[p.ir]), r_child_depth);
        out.push(TAG_S, RTree::child_page(&sn.entries[p.js]), s_child_depth);
    }
}

/// Pushes the subtree roots a mixed directory × leaf frame will query:
/// the directory child of each pair's entry, in pair order, with
/// consecutive repeats collapsed (a run of pairs on one entry descends
/// that child once per query, which the path buffer makes one access).
pub(crate) fn push_mixed_roots(
    out: &mut ReadSchedule,
    dir_tag: u8,
    dir_node: &Node,
    dir_child_depth: usize,
    pairs: &[(usize, usize)],
) {
    let mut last = usize::MAX;
    for &(id, _) in pairs {
        if id != last {
            out.push(
                dir_tag,
                RTree::child_page(&dir_node.entries[id]),
                dir_child_depth,
            );
            last = id;
        }
    }
}

/// Pushes the page pairs of an explicit task list (the parallel worker
/// unit): each task charges its R page then its S page when it starts.
pub(crate) fn push_tasks<'t>(
    out: &mut ReadSchedule,
    r: &RTree,
    s: &RTree,
    tasks: impl IntoIterator<Item = &'t (PageId, PageId, Rect)>,
) {
    for &(rp, sp, _) in tasks {
        out.push(TAG_R, rp, r.depth_of_level(r.node(rp).level));
        out.push(TAG_S, sp, s.depth_of_level(s.node(sp).level));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_geom::CmpCounter;

    fn pair(ir: usize, js: usize, x: f64, y: f64) -> DirPair {
        DirPair {
            ir,
            js,
            rect: Rect::from_corners(x, y, x + 1.0, y + 1.0),
        }
    }

    #[test]
    fn enumeration_schedules_leave_order_untouched() {
        let mut pairs = vec![pair(0, 1, 5.0, 5.0), pair(1, 0, 0.0, 0.0)];
        let mut scratch = OrderScratch::default();
        let mut cmp = CmpCounter::new();
        let frame = Rect::from_corners(0.0, 0.0, 10.0, 10.0);
        for plan in [
            JoinPlan::sj1(),
            JoinPlan::sj2(),
            JoinPlan::sj3(),
            JoinPlan::sj4(),
        ] {
            order_dir_pairs(&plan, &frame, &mut pairs, &mut scratch, &mut cmp);
            assert_eq!((pairs[0].ir, pairs[1].ir), (0, 1), "{}", plan.name());
        }
        assert_eq!(cmp.get(), 0, "no sort charged without a z-order plan");
    }

    #[test]
    fn zorder_schedule_sorts_and_charges_the_sort() {
        // Far-apart centres: the pair nearer the frame origin must come
        // first under local z-order.
        let mut pairs = vec![pair(0, 1, 9.0, 9.0), pair(1, 0, 0.0, 0.0)];
        let mut scratch = OrderScratch::default();
        let mut cmp = CmpCounter::new();
        let frame = Rect::from_corners(0.0, 0.0, 10.0, 10.0);
        order_dir_pairs(&JoinPlan::sj5(), &frame, &mut pairs, &mut scratch, &mut cmp);
        assert_eq!((pairs[0].ir, pairs[1].ir), (1, 0));
        assert!(cmp.get() > 0, "counted mode charges the schedule sort");
    }

    #[test]
    fn schedule_collects_and_announces() {
        use rsj_storage::NodeAccess;
        struct Recorder(Vec<PageRef>, u32);
        impl NodeAccess for Recorder {
            fn access(&mut self, _: u8, _: PageId, _: usize) -> bool {
                false
            }
            fn pin(&mut self, _: u8, _: PageId) {}
            fn unpin(&mut self, _: u8, _: PageId) {}
            fn io_stats(&self) -> rsj_storage::IoStats {
                rsj_storage::IoStats::default()
            }
            fn wants_hints(&self) -> bool {
                true
            }
            fn hint(&mut self, upcoming: &[PageRef]) {
                self.0.extend_from_slice(upcoming);
                self.1 += 1;
            }
        }
        let mut sched = ReadSchedule::default();
        let mut rec = Recorder(Vec::new(), 0);
        sched.announce(&mut rec);
        assert_eq!(rec.1, 0, "empty schedules are not announced");
        sched.push(TAG_R, PageId(3), 1);
        sched.push(TAG_S, PageId(4), 2);
        assert_eq!(sched.len(), 2);
        sched.announce(&mut rec);
        assert_eq!(rec.1, 1, "one batch per announce");
        assert_eq!(
            rec.0,
            vec![
                PageRef::new(TAG_R, PageId(3), 1),
                PageRef::new(TAG_S, PageId(4), 2)
            ]
        );
        sched.clear();
        assert!(sched.is_empty());
    }
}
