//! Read schedules: the §4.3 page-access order, and the emission gate
//! that lets the cursor run ahead of the reads that order causes.
//!
//! The paper's SJ3–SJ5 win because the join decides the order in which
//! child pages will be visited *before* descending — sweep order, pinned
//! max-degree drains, or local z-order. `order_dir_pairs` applies the
//! plan's read schedule to the qualifying directory pairs of one node pair
//! (the local z-order sort of SJ5/`zorder-nopin`; sweep order falls out of
//! the plane-sweep enumeration itself). Comparator invocations are charged
//! to the sort meter exactly as the recursive oracle charges them, so
//! counted mode stays bit-identical. `drain_schedule` then turns a frame's
//! ordered pairs into its whole descent order with the pins in place: each
//! pair, and under pinning the page of larger remaining degree pinned and
//! its pairs drained right after it (§4.3; the §4.4 sweep-pinned policy is
//! the same rule with one side that can pin). The cursor's frames walk that
//! list, and a leaf batch is published in its order.
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

/// The emission gate of every join: result pairs produced while their
/// source pages were still in flight may not surface through the iterator
/// until those reads complete. Over a synchronous backend no read is ever
/// in flight (every ticket is [`Ticket::NONE`]), so no barrier is recorded.
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

/// Which entry of a pair may be pinned after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pins {
    /// Neither: the pairs run in their order.
    Neither,
    /// The first entry only: the directory side of a §4.4 sweep-pinned
    /// frame.
    First,
    /// Either entry, whichever has the larger remaining degree (the first
    /// on a tie): SJ4/SJ5's directory frames.
    Both,
}

/// A pinned page: the child of a pair's first or second entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    First(usize),
    Second(usize),
}

impl Side {
    /// Whether the pair with entries `key` shares this side's entry.
    #[inline]
    fn holds(self, (a, b): (usize, usize)) -> bool {
        match self {
            Side::First(e) => a == e,
            Side::Second(e) => b == e,
        }
    }
}

/// One entry of a frame's drain schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Descend into (or window-query) the frame's pair at this index.
    Pair(usize),
    /// Pin this page; the pairs that share it follow.
    Pin(Side),
    /// Unpin it: its drain is dry.
    Unpin(Side),
}

impl Step {
    /// The index of the pair this step visits, if it visits one.
    #[inline]
    pub(crate) fn pair(self) -> Option<usize> {
        match self {
            Step::Pair(i) => Some(i),
            Step::Pin(_) | Step::Unpin(_) => None,
        }
    }
}

/// The working set of [`drain_schedule`], recycled across frames: the
/// per-side remaining-degree tables and which pairs are scheduled.
#[derive(Debug, Default)]
pub(crate) struct DrainScratch {
    first: Vec<u32>,
    second: Vec<u32>,
    done: Vec<bool>,
}

impl DrainScratch {
    /// Schedules pair `l`, whose entries are `(a, b)`.
    #[inline]
    fn take(&mut self, l: usize, (a, b): (usize, usize), out: &mut Vec<Step>) {
        self.done[l] = true;
        self.first[a] -= 1;
        self.second[b] -= 1;
        out.push(Step::Pair(l));
    }

    /// The pairs not yet scheduled that share `side`'s entry.
    #[inline]
    fn degree(&self, side: Side) -> u32 {
        match side {
            Side::First(e) => self.first[e],
            Side::Second(e) => self.second[e],
        }
    }
}

/// A frame's whole §4.3 schedule, into `out`: each of `pairs` (already in
/// the plan's order; `key` gives a pair's two entry indices) in descent
/// order, with the pin marks in place. After a pair, the entry of the side
/// `pins` allows with the larger degree — its pairs not yet scheduled — is
/// pinned if that degree is above 0, its pairs follow in order until the
/// degree reaches 0, and the unpin closes the drain. The recursive oracle
/// asks the same questions as it goes (`schedule_pairs`, and `join_mixed`
/// for [`Pins::First`]); the answers depend only on the pairs, so asking
/// them up front changes no page touched nor its order.
pub(crate) fn drain_schedule<P>(
    pairs: &[P],
    key: impl Fn(&P) -> (usize, usize),
    pins: Pins,
    scratch: &mut DrainScratch,
    out: &mut Vec<Step>,
) {
    out.clear();
    if pins == Pins::Neither {
        out.extend((0..pairs.len()).map(Step::Pair));
        return;
    }
    scratch.first.clear();
    scratch.second.clear();
    for p in pairs {
        let (a, b) = key(p);
        for (deg, e) in [(&mut scratch.first, a), (&mut scratch.second, b)] {
            if deg.len() <= e {
                deg.resize(e + 1, 0);
            }
            deg[e] += 1;
        }
    }
    scratch.done.clear();
    scratch.done.resize(pairs.len(), false);
    for k in 0..pairs.len() {
        if scratch.done[k] {
            continue;
        }
        let (a, b) = key(&pairs[k]);
        scratch.take(k, (a, b), out);
        let second = if pins == Pins::Both {
            scratch.second[b]
        } else {
            0
        };
        let side = match (scratch.first[a], second) {
            (0, 0) => continue,
            (first, second) if first >= second => Side::First(a),
            _ => Side::Second(b),
        };
        out.push(Step::Pin(side));
        let mut l = k;
        while scratch.degree(side) > 0 {
            l += 1;
            let entries = key(&pairs[l]);
            if !scratch.done[l] && side.holds(entries) {
                scratch.take(l, entries, out);
            }
        }
        out.push(Step::Unpin(side));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// The recursive oracle's rule, transcribed with each buffer call
    /// written down as the step it is: `schedule_pairs` with its
    /// `count_remaining` scans and `drain_pairs` for [`Pins::Both`], the
    /// sweep-pinned arm of `join_mixed` for [`Pins::First`].
    fn oracle(pairs: &[(usize, usize)], pins: Pins) -> Vec<Step> {
        let mut out = Vec::new();
        let mut done = vec![false; pairs.len()];
        let remaining = |done: &[bool], after: usize, pred: &dyn Fn(&(usize, usize)) -> bool| {
            pairs
                .iter()
                .zip(done.iter())
                .skip(after + 1)
                .filter(|(p, &d)| !d && pred(p))
                .count()
        };
        for k in 0..pairs.len() {
            if done[k] {
                continue;
            }
            out.push(Step::Pair(k));
            done[k] = true;
            let (ir, js) = pairs[k];
            let side = match pins {
                Pins::Neither => continue,
                Pins::Both => {
                    let deg_r = remaining(&done, k, &|p| p.0 == ir);
                    let deg_s = remaining(&done, k, &|p| p.1 == js);
                    if deg_r == 0 && deg_s == 0 {
                        continue;
                    }
                    if deg_r >= deg_s {
                        Side::First(ir)
                    } else {
                        Side::Second(js)
                    }
                }
                Pins::First => {
                    if remaining(&done, k, &|p| p.0 == ir) == 0 {
                        continue;
                    }
                    Side::First(ir)
                }
            };
            out.push(Step::Pin(side));
            for l in (k + 1)..pairs.len() {
                let drains = match side {
                    Side::First(_) => pairs[l].0 == ir,
                    Side::Second(_) => pairs[l].1 == js,
                };
                if !done[l] && drains {
                    out.push(Step::Pair(l));
                    done[l] = true;
                }
            }
            out.push(Step::Unpin(side));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn drain_schedule_is_the_oracles_rule(
            // Few entries per side, so degrees tie often.
            pairs in prop::collection::vec((0..4usize, 0..4usize), 0..40),
            pins in prop_oneof![Just(Pins::Both), Just(Pins::First), Just(Pins::Neither)],
        ) {
            let mut scratch = DrainScratch::default();
            let mut got = vec![Step::Pair(usize::MAX)];
            drain_schedule(&pairs, |&p| p, pins, &mut scratch, &mut got);
            prop_assert_eq!(&got, &oracle(&pairs, pins), "{:?} {:?}", pins, pairs);
            // Every pair exactly once, and the scratch is reusable.
            let mut seen: Vec<usize> = got.iter().filter_map(|s| s.pair()).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..pairs.len()).collect::<Vec<_>>());
            let again = got.clone();
            drain_schedule(&pairs, |&p| p, pins, &mut scratch, &mut got);
            prop_assert_eq!(got, again);
        }
    }
}
