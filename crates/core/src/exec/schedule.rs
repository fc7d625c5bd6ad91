//! Read schedules: the §4.3 page-access order, and the emission gate
//! that lets the cursor run ahead of the reads that order causes.
//!
//! The paper's SJ3–SJ5 win because the join decides the order in which
//! child pages will be visited *before* descending — sweep order, pinned
//! max-degree drains, or local z-order. `order_dir_pairs` applies the
//! plan's read schedule to the qualifying directory pairs of one node pair
//! (the local z-order sort of SJ5/`zorder-nopin`; sweep order falls out of
//! the plane-sweep enumeration itself, and the pinned drains are the
//! cursor's own states). Comparator invocations are charged to the sort
//! meter exactly as the recursive oracle charges them, so counted mode
//! stays bit-identical.
//!
//! The order is not announced to the backend: every read is a demand miss.
//! Over a completion-driven backend the cursor overlaps those misses by
//! running ahead of its gated results (`TicketGate`), which on the repo
//! benchmark's `join_cold` data was never slower than also submitting the
//! schedule's pages ahead of demand.

use std::collections::VecDeque;

use crate::plan::JoinPlan;
use rsj_geom::{zorder, Meter, Rect};
use rsj_storage::{NodeAccess, Ticket};

/// A scheduled directory pair: entry indices plus the intersection of the
/// two entry rectangles (the restricted search space passed down).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirPair {
    pub ir: usize,
    pub js: usize,
    pub rect: Rect,
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
/// up to the barrier has completed). Settledness is a frontier predicate,
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
}
