//! The streaming join executor.
//!
//! [`JoinCursor`] runs the SJ1–SJ5 synchronized traversal as an
//! explicit-work-stack state machine and yields `(DataId, DataId)` result
//! pairs incrementally through [`Iterator`], never materializing the whole
//! result. Consumers that only count never allocate the result; consumers
//! that stream (refinement, pipelined multi-way stages, network sinks) see
//! the first pair after a single root-to-leaf descent.
//!
//! The cursor is generic over two pluggable layers:
//!
//! * [`NodeAccess`] — the page-access boundary: in-memory joins plug in
//!   a private [`rsj_storage::BufferPool`], file-backed ones an
//!   [`rsj_storage::FileAccess`] stack — private, or a
//!   [`rsj_storage::SharedCacheFileAccess`] handle onto shared frames —
//!   and `&mut A` works for reusing one accountant across many cursors.
//! * [`Meter`] — the comparison-accounting boundary: [`CmpCounter`]
//!   (the default; [`JoinCursor::new`]) keeps the paper's CPU accounting
//!   bit-identical to the recursive oracle; the zero-sized [`NoOp`] meter
//!   ([`JoinCursor::raw`]) compiles the accounting out entirely — the
//!   production "raw" mode, same result-pair multiset with no metering
//!   overhead. [`JoinCursor::metered`] and [`JoinCursor::with_tasks`]
//!   take the meter as a type argument.
//!
//! **Leaf pairs on the idle cores.** Most of a CPU-bound join is its
//! leaf/leaf work. When the cursor installs a directory frame whose pairs
//! all point at two leaves, none of its reads is in flight, and fewer
//! cursors are live in the process than there are cores, it publishes the
//! frame's leaf pairs — the two leaves' `Arc<Node>`s
//! ([`RTree::node_shared`]) and the search space — to a process-wide pool
//! of helper threads, in the frame's schedule order, which is the order it
//! will descend into them. A helper runs a pair through `leaf_pair`, the
//! same function the cursor runs inline, into its own scratch and meters.
//! The cursor takes the result when its machine reaches the pair, and runs
//! the pair itself if no helper has. Mixed-height frames, the leaf tasks of
//! [`JoinCursor::with_tasks`] and all directory work stay on the cursor's
//! thread.
//!
//! **Zero allocation in steady state.** All per-node-pair buffers —
//! effective rectangles, restriction index lists, sweep output, z-order
//! keys, window-query hit lists and the vectors owned by suspended frames
//! — live in an `ExecScratch` arena owned by the cursor. Completed
//! frames return their vectors to the arena's pools, so after warm-up the
//! hot path performs no heap allocation (the paper's plane sweep needs
//! "no auxiliary data structure"; the executor now matches it). The leaf
//! batch is the same: one per cursor, reused for each leaf frame, and a
//! helper's result vectors go back to it once the cursor has taken them.
//!
//! **Accounting parity.** With the counting meter, the state machine
//! replays the recursive driver's exact sequence of buffer operations —
//! the order of `access`/`pin`/`unpin` calls is observable through the
//! LRU, so each frame suspends and resumes precisely where the recursion
//! would. For every sequential plan the cursor reports bit-identical
//! `disk_accesses`, `join_comparisons` and `sort_comparisons` to
//! [`crate::exec::recursive_spatial_join`]; the differential tests in
//! [`crate::exec`] enforce this. A directory frame, and a per-pair or
//! sweep-pinned mixed frame, computes its whole §4.3 schedule when it is
//! installed (`schedule::drain_schedule`: each pair in descent order,
//! with the pin and unpin of each drain in place) and the machine takes
//! one entry per step. The recursion decides the same pins as it goes, but
//! the decisions depend only on the frame's pairs, so deciding them up
//! front — like the sort-and-group batched-window construction (grouping
//! without hashing) — never changes which pages are touched in which
//! order. Helpers cannot move a count either: they never
//! touch the page-access accountant, and the cursor adds a helper's
//! tallies to its meters and its pairs to the result queue at the very
//! step at which it would have computed them, so the pair order,
//! [`JoinCursor::stats`] after every step and every `access`/`pin` call are
//! those of a cursor without helpers.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::exec::ahead::Ahead;
use crate::exec::schedule::{
    self, DirPair, DrainScratch, OrderScratch, Pins, Side, Step, TicketGate,
};
use crate::exec::{TAG_R, TAG_S};
use crate::join::JoinResult;
use crate::plan::{DiffHeightPolicy, Enumerate, JoinPlan, JoinPredicate};
use crate::stats::JoinStats;
use crate::sweep::{
    eff_rect, restrict_keyed, sort_keyed_by_xl, sorted_intersection_test_keyed, KeyedRect,
};
use rsj_geom::{CmpCounter, Meter, NoOp, Rect};
use rsj_rtree::{DataId, Entry, Node, RTree};
use rsj_storage::{IoStats, NodeAccess, PageId, QUEUE_DEPTH};

/// Suspended directory/directory node pair: its pairs and the §4.3
/// schedule ([`schedule::drain_schedule`]) the machine walks, one entry
/// per step.
#[derive(Debug)]
struct DirFrame {
    rp: PageId,
    sp: PageId,
    pairs: Vec<DirPair>,
    schedule: Vec<Step>,
    /// The next entry of `schedule`.
    at: usize,
    /// The leaf-batch slot of the next pair descended into, when the pairs
    /// are published (slot `i` is the `i`-th pair of the schedule).
    slot: Option<usize>,
}

/// Resume point of a mixed directory × leaf frame (§4.4 policies).
#[derive(Debug)]
enum MixedState {
    /// Policies (a) and (c): one window query per pair, in the order of
    /// the frame's schedule — the pairs' own order under policy (a), with
    /// the directory child of larger degree pinned and drained under the
    /// sweep-pinned policy (c).
    Windows { schedule: Vec<Step>, at: usize },
    /// Policy (b): one batched traversal per directory entry, in
    /// first-occurrence order. `windows` holds the `(leaf index, window)`
    /// batches back to back; `runs[i] = (dir entry, start, end)` delimits
    /// the batch of the `i`-th directory entry.
    Batched {
        windows: Vec<(usize, Rect)>,
        runs: Vec<(usize, u32, u32)>,
        i: usize,
    },
}

/// Suspended directory × leaf node pair.
#[derive(Debug)]
struct MixedFrame {
    dir_tag: u8,
    dir_page: PageId,
    leaf_tag: u8,
    leaf_page: PageId,
    /// `(dir entry index, leaf entry index)`, sweep-ordered under
    /// plane-sweep enumeration.
    pairs: Vec<(usize, usize)>,
    state: MixedState,
}

/// One unit of suspended work on the explicit stack.
#[derive(Debug)]
enum Frame {
    /// A node pair whose pages have been charged but not yet classified;
    /// `slot` is its place in the published leaf batch, if it has one.
    Visit {
        rp: PageId,
        sp: PageId,
        rect: Rect,
        slot: Option<usize>,
    },
    Dir(DirFrame),
    Mixed(MixedFrame),
}

/// Reusable buffers for everything the executor would otherwise allocate
/// per node pair: the scratch arena of the hot path.
///
/// The `*_pool` fields recycle the vectors owned by suspended frames;
/// the rest are flat scratch space reused within one `visit` call. After
/// the deepest traversal level has been reached once, the cursor performs
/// no further heap allocation.
#[derive(Debug, Default)]
struct ExecScratch {
    /// Working set and output of the pair enumeration.
    enumeration: PairScratch,
    /// Working set of a frame's drain schedule.
    drain: DrainScratch,
    /// Scratch of the §4.3 pair-ordering step (z-order keys and
    /// permutation), owned by [`schedule::order_dir_pairs`].
    order: OrderScratch,
    /// First-occurrence rank per directory entry (batched grouping).
    first_seen: Vec<u32>,
    /// Sorted copy of the mixed pairs during batched grouping.
    group: Vec<(usize, usize)>,
    /// Window-query hit list.
    hits: Vec<(Rect, DataId)>,
    /// Multi-window-query hit list.
    multi_hits: Vec<(usize, Rect, DataId)>,
    /// Recycled `DirFrame::pairs` vectors.
    dir_pool: Vec<Vec<DirPair>>,
    /// Recycled schedules (directory and mixed frames).
    schedule_pool: Vec<Vec<Step>>,
    /// Recycled `MixedFrame::pairs` vectors.
    pair_pool: Vec<Vec<(usize, usize)>>,
    /// Recycled batched-window vectors.
    win_pool: Vec<Vec<(usize, Rect)>>,
    /// Recycled batched-run vectors.
    run_pool: Vec<Vec<(usize, u32, u32)>>,
}

impl ExecScratch {
    #[inline]
    fn take_dir(&mut self) -> Vec<DirPair> {
        let mut v = self.dir_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// A recycled schedule; [`schedule::drain_schedule`] clears it.
    #[inline]
    fn take_schedule(&mut self) -> Vec<Step> {
        self.schedule_pool.pop().unwrap_or_default()
    }

    #[inline]
    fn take_pairs(&mut self) -> Vec<(usize, usize)> {
        let mut v = self.pair_pool.pop().unwrap_or_default();
        v.clear();
        v
    }
}

/// What one pair enumeration works in: the keyed rectangles of both sides
/// and the qualifying pairs it finds. The cursor owns one, and so does each
/// leaf-pair helper thread.
#[derive(Debug, Default)]
pub(crate) struct PairScratch {
    keyed: KeyedScratch,
    /// Enumeration output: qualifying `(i, j)` pairs in schedule order.
    raw: Vec<(usize, usize)>,
}

/// The keyed working set of one pair enumeration: both sides' restricted
/// rectangles and what the keyed sort needs to order them.
#[derive(Debug, Default)]
struct KeyedScratch {
    /// Effective (ε-expanded) rectangles of the first side tagged with
    /// entry indices, restriction-filtered; the sweep sorts and scans this
    /// contiguously.
    akeyed: Vec<KeyedRect>,
    /// The second side's, likewise.
    bkeyed: Vec<KeyedRect>,
    /// Sort permutation scratch (counted sort of an unordered sequence).
    perm: Vec<usize>,
    /// Packed-key scratch (raw sort of an unordered sequence).
    packed: Vec<u128>,
    /// Permutation-apply scratch.
    ktmp: Vec<KeyedRect>,
}

/// Enumerates qualifying `(index into a, index into b)` pairs into `out` —
/// identical logic and counting to the recursive driver, but working on
/// contiguous keyed scratch arrays instead of allocating rect and index
/// vectors per node pair. Each side is its entries and the ε expansion
/// their rectangles carry.
fn enumerate_pairs<M: Meter>(
    plan: &JoinPlan,
    (a_entries, a_eps): (&[Entry], f64),
    (b_entries, b_eps): (&[Entry], f64),
    rect: &Rect,
    keyed: &mut KeyedScratch,
    (cmp, sort_cmp): (&mut M, &mut M),
    out: &mut Vec<(usize, usize)>,
) {
    let KeyedScratch {
        akeyed,
        bkeyed,
        perm,
        packed,
        ktmp,
    } = keyed;
    let space = plan.restrict_space.then_some(rect);
    restrict_keyed(a_entries, a_eps, space, cmp, akeyed);
    restrict_keyed(b_entries, b_eps, space, cmp, bkeyed);
    out.clear();
    match plan.enumerate {
        Enumerate::NestedLoop => {
            // SpatialJoin1: outer loop over S (here: `b`), inner over R.
            if M::COUNTING {
                for &(brect, j) in bkeyed.iter() {
                    for &(arect, i) in akeyed.iter() {
                        if arect.intersects_counted(&brect, cmp) {
                            out.push((i as usize, j as usize));
                        }
                    }
                }
            } else if plan.restrict_space {
                // Restriction survivors all overlap the shared search
                // space, so the short-circuit exits are coin flips — a
                // branchless test over the contiguous scratch beats the
                // mispredictions.
                for &(brect, j) in bkeyed.iter() {
                    for &(arect, i) in akeyed.iter() {
                        let hit = (arect.xl <= brect.xu)
                            & (brect.xl <= arect.xu)
                            & (arect.yl <= brect.yu)
                            & (brect.yl <= arect.yu);
                        if hit {
                            out.push((i as usize, j as usize));
                        }
                    }
                }
            } else {
                // Unrestricted scans are dominated by far-apart pairs that
                // fail the first x comparison predictably — keep the
                // short-circuit branch structure (spelled out so the
                // optimizer doesn't flatten it into straight-line code).
                for &(brect, j) in bkeyed.iter() {
                    for &(arect, i) in akeyed.iter() {
                        if arect.xl > brect.xu || brect.xl > arect.xu {
                            continue;
                        }
                        if (arect.yl <= brect.yu) & (brect.yl <= arect.yu) {
                            out.push((i as usize, j as usize));
                        }
                    }
                }
            }
        }
        Enumerate::PlaneSweep => {
            sort_keyed_by_xl(akeyed, perm, packed, ktmp, sort_cmp);
            sort_keyed_by_xl(bkeyed, perm, packed, ktmp, sort_cmp);
            sorted_intersection_test_keyed(akeyed, bkeyed, cmp, out);
        }
    }
}

/// Final data-pair test beyond MBR intersection (see the recursion's
/// twin for the predicate-by-predicate rationale).
#[inline]
fn predicate_holds<M: Meter>(
    predicate: JoinPredicate,
    r_rect: &Rect,
    s_rect: &Rect,
    cmp: &mut M,
) -> bool {
    use JoinPredicate::*;
    match predicate {
        Intersects | WithinDistance(_) => true,
        Contains => r_rect.contains_counted(s_rect, cmp),
        Within => s_rect.contains_counted(r_rect, cmp),
    }
}

/// The leaf/leaf body of the join, whichever thread runs it: enumerates
/// the qualifying entry pairs of the leaves `rn` × `sn` within the search
/// space `rect`, applies the predicate and appends the `(Id(r), Id(s))`
/// pairs to `out` in emission order, charging both meters.
pub(crate) fn leaf_pair<M: Meter>(
    plan: &JoinPlan,
    eps: f64,
    (rn, sn): (&Node, &Node),
    rect: &Rect,
    scratch: &mut PairScratch,
    (cmp, sort_cmp): (&mut M, &mut M),
    out: &mut impl Extend<(DataId, DataId)>,
) {
    #[cfg(test)]
    crate::exec::ahead::tests::trip_poison(rn);
    let PairScratch { keyed, raw } = scratch;
    let meters = (&mut *cmp, sort_cmp);
    enumerate_pairs(
        plan,
        (&rn.entries, eps),
        (&sn.entries, 0.0),
        rect,
        keyed,
        meters,
        raw,
    );
    let id = |e: &Entry| e.child.data().expect("leaf entry");
    if plan.predicate.decided_by_mbr_intersection() {
        out.extend(
            raw.iter()
                .map(|&(ir, js)| (id(&rn.entries[ir]), id(&sn.entries[js]))),
        );
    } else {
        for &(ir, js) in raw.iter() {
            let (r, s) = (&rn.entries[ir], &sn.entries[js]);
            if predicate_holds(plan.predicate, &r.rect, &s.rect, cmp) {
                out.extend([(id(r), id(s))]);
            }
        }
    }
}

/// A streaming MBR-spatial-join: yields `(Id(r), Id(s))` pairs one at a
/// time while charging all I/O to a caller-supplied [`NodeAccess`].
///
/// Construct with [`JoinCursor::new`] for a whole-tree counted join,
/// [`JoinCursor::raw`] for the meter-free raw mode,
/// [`JoinCursor::metered`] for any other meter, or
/// [`JoinCursor::with_tasks`] for an explicit task list (the parallel
/// worker unit); iterate, then read [`JoinCursor::stats`] — or run it
/// out with [`JoinCursor::into_result`].
#[derive(Debug)]
pub struct JoinCursor<'t, A: NodeAccess, M: Meter = CmpCounter> {
    r: &'t RTree,
    s: &'t RTree,
    plan: JoinPlan,
    /// Virtual expansion of R-side rectangles (distance joins), else 0.
    eps: f64,
    zframe: Rect,
    access: A,
    cmp: M,
    sort_cmp: M,
    /// Pairs yielded through `Iterator::next` so far.
    emitted: u64,
    page_bytes: usize,
    tasks: VecDeque<(PageId, PageId, Rect)>,
    /// Whether starting a task charges its two page accesses (true for
    /// explicit task lists; the whole-tree constructor charges the roots
    /// itself, before the empty/disjoint check, like the recursion).
    charge_tasks: bool,
    /// The accountant's tallies at cursor construction: [`JoinCursor::stats`]
    /// reports the delta, so a borrowed accountant reused across cursors
    /// (e.g. a bench's long-lived `&mut FileNodeAccess`) is not double-counted.
    io_baseline: IoStats,
    /// Emission gate: a result waits for the reads it depends on (see
    /// [`TicketGate`]; over a synchronous backend it never waits).
    gate: TicketGate,
    /// Machine steps taken while the front result was ticket-gated —
    /// the run-ahead budget spent since the last emission or park.
    run_ahead: u32,
    /// Times the cursor exhausted its run-ahead budget and blocked on a
    /// ticket ([`NodeAccess::await_settled`]) — cumulative over the
    /// cursor's life. Telemetry only: deliberately *not* part of
    /// [`JoinStats`], which is compared bit-identically across backends
    /// while parks vary with completion timing.
    parks: u64,
    /// Wall time inside the two blocking calls ([`JoinCursor::blocked`]).
    blocked: Duration,
    stack: Vec<Frame>,
    pending: VecDeque<(DataId, DataId)>,
    scratch: ExecScratch,
    /// The leaf batch this cursor publishes to the helper threads.
    ahead: Ahead<M>,
}

/// Completion-driven run-ahead caps: while the head result pair waits on
/// an in-flight read, the cursor keeps stepping the machine — submitting
/// further reads so the queue's lanes stay busy — until it has buffered
/// `RUN_AHEAD_STEPS` more steps or [`QUEUE_DEPTH`] reads are outstanding,
/// and only then parks on the blocking ticket. The caps bound both the
/// pending-pair backlog and the submission burst a slow read can cause.
/// The in-flight cap is the queue's own constant: a read submitted beyond
/// what the queue serves at once only waits in its table.
const RUN_AHEAD_STEPS: u32 = 32;

/// A [`JoinCursor`] running with the zero-cost [`NoOp`] meter: the raw
/// production mode. Same result-pair multiset, no comparison accounting.
pub type RawJoinCursor<'t, A> = JoinCursor<'t, A, NoOp>;

impl<'t, A: NodeAccess> JoinCursor<'t, A> {
    /// Cursor over the full join of `r` and `s` under `plan`, charging all
    /// page accesses to `access` and metering comparisons with a
    /// [`CmpCounter`] — the reproduction-faithful counted mode. Both root
    /// pages are charged immediately (the recursion hands SpatialJoin1
    /// both root nodes), even when a tree is empty or the root MBRs are
    /// disjoint.
    pub fn new(r: &'t RTree, s: &'t RTree, plan: JoinPlan, access: A) -> Self {
        Self::metered(r, s, plan, access)
    }
}

impl<'t, A: NodeAccess> RawJoinCursor<'t, A> {
    /// [`JoinCursor::new`] with the [`NoOp`] meter: comparison accounting
    /// compiles out entirely. `stats()` reports zero comparisons; I/O is
    /// still charged through `access` (pinning changes what the buffer
    /// does, not just what it reports).
    pub fn raw(r: &'t RTree, s: &'t RTree, plan: JoinPlan, access: A) -> Self {
        Self::metered(r, s, plan, access)
    }
}

impl<'t, A: NodeAccess, M: Meter> JoinCursor<'t, A, M> {
    /// Whole-tree cursor with an explicit meter type (see
    /// [`JoinCursor::new`] / [`JoinCursor::raw`] for the common cases).
    pub fn metered(r: &'t RTree, s: &'t RTree, plan: JoinPlan, access: A) -> Self {
        let mut cursor = Self::empty(r, s, plan, access, false);
        cursor.charge(TAG_R, r.root());
        cursor.charge(TAG_S, s.root());
        cursor.capture_gate();
        if !r.is_empty() && !s.is_empty() {
            if let Some(rect) = plan.search_space(&r.mbr(), &s.mbr()) {
                cursor.tasks.push_back((r.root(), s.root(), rect));
            }
        }
        cursor
    }

    /// Cursor over an explicit list of `(R page, S page, search space)`
    /// tasks — the worker unit of the parallel join. Each task's two pages
    /// are charged when the task starts; root accesses are the caller's
    /// business. `JoinCursor::<_>::with_tasks` counts comparisons;
    /// `JoinCursor::<_, NoOp>::with_tasks` is the raw mode.
    pub fn with_tasks(
        r: &'t RTree,
        s: &'t RTree,
        plan: JoinPlan,
        access: A,
        tasks: impl IntoIterator<Item = (PageId, PageId, Rect)>,
    ) -> Self {
        let mut cursor = Self::empty(r, s, plan, access, true);
        cursor.tasks.extend(tasks);
        cursor
    }

    fn empty(r: &'t RTree, s: &'t RTree, plan: JoinPlan, access: A, charge_tasks: bool) -> Self {
        assert_eq!(
            r.params().page_bytes,
            s.params().page_bytes,
            "joined trees must share a page size"
        );
        let eps = plan.predicate.epsilon();
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "distance-join epsilon must be finite and >= 0"
        );
        let io_baseline = access.io_stats();
        JoinCursor {
            r,
            s,
            plan,
            eps,
            zframe: r.mbr().union(&s.mbr()),
            access,
            cmp: M::default(),
            sort_cmp: M::default(),
            emitted: 0,
            page_bytes: r.params().page_bytes,
            tasks: VecDeque::new(),
            charge_tasks,
            io_baseline,
            gate: TicketGate::default(),
            run_ahead: 0,
            parks: 0,
            blocked: Duration::ZERO,
            stack: Vec::new(),
            pending: VecDeque::new(),
            scratch: ExecScratch::default(),
            ahead: Ahead::default(),
        }
    }

    /// Statistics accumulated *by this cursor* so far: I/O is reported
    /// relative to the accountant's tallies at construction, so reusing
    /// one accountant across several cursors never double-counts.
    /// `result_pairs` counts pairs already yielded through the iterator.
    /// Totals are final once the iterator is exhausted; a cursor dropped
    /// mid-stream reports the partial work actually performed. A raw
    /// ([`NoOp`]-metered) cursor reports zero comparisons.
    pub fn stats(&self) -> JoinStats {
        JoinStats {
            join_comparisons: self.cmp.get(),
            sort_comparisons: self.sort_cmp.get(),
            io: self.access.io_stats() - self.io_baseline,
            result_pairs: self.emitted,
            page_bytes: self.page_bytes,
        }
    }

    /// Times this cursor exhausted its run-ahead budget and blocked on
    /// an in-flight read's ticket. Always 0 for blocking backends; for
    /// completion-driven ones it is the telemetry view of how often the
    /// lanes failed to stay ahead of the machine. Not part of
    /// [`JoinStats`] — parks depend on completion timing, which the
    /// bit-identical cross-backend accounting deliberately excludes.
    #[inline]
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// Wall time this cursor has spent blocked on reads: inside its parks
    /// ([`NodeAccess::await_settled`], see [`JoinCursor::parks`]) and inside
    /// the final [`NodeAccess::drain_completions`] — the only two places a
    /// join ever waits, so a wait is timed where it happens and no wrapper
    /// around the backend is needed to learn it. Zero for blocking
    /// backends, whose reads finish inside `access()`; telemetry only, not
    /// part of [`JoinStats`].
    #[inline]
    pub fn blocked(&self) -> Duration {
        self.blocked
    }

    /// Consumes the cursor, returning the page-access accountant.
    pub fn into_access(self) -> A {
        self.access
    }

    /// Runs the cursor to exhaustion and materializes the join: the
    /// result pairs (only when `collect_pairs`; `stats.result_pairs`
    /// counts them either way) and the final [`JoinCursor::stats`],
    /// handed back with the page-access accountant so its
    /// backend-specific state (file read counters, a warm LRU for a
    /// re-run) stays inspectable.
    pub fn into_result(mut self, collect_pairs: bool) -> (JoinResult, A) {
        let mut pairs = Vec::new();
        if collect_pairs {
            pairs.extend(&mut self);
        } else {
            for _ in &mut self {}
        }
        let stats = self.stats();
        (JoinResult { stats, pairs }, self.access)
    }

    /// Publishes leaf batches to the helpers always, or never, whatever
    /// the live-cursor rule says.
    #[cfg(test)]
    pub(crate) fn force_ahead(mut self, on: bool) -> Self {
        self.ahead.force(on);
        self
    }

    #[cfg(test)]
    pub(crate) fn ahead(&self) -> &Ahead<M> {
        &self.ahead
    }

    #[inline]
    fn tree(&self, tag: u8) -> &'t RTree {
        if tag == TAG_R {
            self.r
        } else {
            self.s
        }
    }

    /// Charges one page access for `tag`/`page` at its path-buffer depth.
    #[inline]
    fn charge(&mut self, tag: u8, page: PageId) {
        let tree = self.tree(tag);
        let depth = tree.depth_of_level(tree.node(page).level);
        self.access.access(tag, page, depth);
    }

    /// Records an emission barrier at the backend's latest miss ticket,
    /// covering every result not yet pushed. Called after the
    /// constructor-time root charges; [`JoinCursor::step_gated`] does the
    /// same after each machine step.
    #[inline]
    fn capture_gate(&mut self) {
        let before = self.emitted + self.pending.len() as u64;
        self.gate.capture(before, self.access.last_miss_ticket());
    }

    /// [`JoinCursor::step`] plus barrier capture: results produced by
    /// this step (and later ones) wait on every read submitted up to it,
    /// so `before` is sampled ahead of the step.
    #[inline]
    fn step_gated(&mut self) -> bool {
        let before = self.emitted + self.pending.len() as u64;
        let advanced = self.step();
        if advanced {
            self.gate.capture(before, self.access.last_miss_ticket());
        }
        advanced
    }

    #[inline]
    fn emit(&mut self, rid: DataId, sid: DataId) {
        self.pending.push_back((rid, sid));
    }

    /// Runs the enumeration for the node pair `(a, b)` into the scratch's
    /// `raw`. Each side is its entries and their ε expansion (the R side
    /// carries it, whichever side of a mixed pair that is).
    #[inline]
    fn enumerate_into_scratch(&mut self, a: (&[Entry], f64), b: (&[Entry], f64), rect: &Rect) {
        let PairScratch { keyed, raw } = &mut self.scratch.enumeration;
        let meters = (&mut self.cmp, &mut self.sort_cmp);
        enumerate_pairs(&self.plan, a, b, rect, keyed, meters, raw);
    }

    /// Advances the machine by one unit of work. Returns `false` when all
    /// tasks are exhausted.
    #[inline]
    fn step(&mut self) -> bool {
        let Some(frame) = self.stack.pop() else {
            let Some((rp, sp, rect)) = self.tasks.pop_front() else {
                return false;
            };
            if self.charge_tasks {
                self.charge(TAG_R, rp);
                self.charge(TAG_S, sp);
            }
            let slot = None;
            self.stack.push(Frame::Visit { rp, sp, rect, slot });
            return true;
        };
        match frame {
            Frame::Visit { rp, sp, rect, slot } => self.visit(rp, sp, rect, slot),
            Frame::Dir(f) => self.step_dir(f),
            Frame::Mixed(f) => self.step_mixed(f),
        }
        true
    }

    /// Classifies a charged node pair, runs the pair enumeration, and
    /// either drains it on the spot (leaf/leaf) or installs the matching
    /// resumable frame.
    fn visit(&mut self, rp: PageId, sp: PageId, rect: Rect, slot: Option<usize>) {
        let rn = self.r.node(rp);
        let sn = self.s.node(sp);
        match (rn.is_leaf(), sn.is_leaf()) {
            (true, true) => {
                // Drain the whole leaf pair into `pending` in one step — no
                // suspended frame, no per-pair pop/re-push cycle. A helper
                // may have computed it already; what it found lands here,
                // at this step, exactly as the inline run would.
                let scratch = &mut self.scratch.enumeration;
                let meters = (&mut self.cmp, &mut self.sort_cmp);
                if slot.is_some_and(|at| self.ahead.apply(at, scratch, meters, &mut self.pending)) {
                    return;
                }
                let meters = (&mut self.cmp, &mut self.sort_cmp);
                leaf_pair(
                    &self.plan,
                    self.eps,
                    (rn, sn),
                    &rect,
                    scratch,
                    meters,
                    &mut self.pending,
                );
            }
            (false, false) => {
                self.enumerate_into_scratch((&rn.entries, self.eps), (&sn.entries, 0.0), &rect);
                let eps = self.eps;
                let mut pairs = self.scratch.take_dir();
                pairs.extend(self.scratch.enumeration.raw.iter().map(|&(ir, js)| {
                    DirPair {
                        ir,
                        js,
                        rect: eff_rect(&rn.entries[ir], eps)
                            .intersection(&sn.entries[js].rect)
                            .expect("qualifying pair must intersect"),
                    }
                }));
                // The §4.3 read schedule is decided here, before any
                // descent — ordering lives in the schedule module.
                schedule::order_dir_pairs(
                    &self.plan,
                    &self.zframe,
                    &mut pairs,
                    &mut self.scratch.order,
                    &mut self.sort_cmp,
                );
                let pins = if self.plan.pins() {
                    Pins::Both
                } else {
                    Pins::Neither
                };
                let mut schedule = self.scratch.take_schedule();
                let drain = &mut self.scratch.drain;
                schedule::drain_schedule(&pairs, |p| (p.ir, p.js), pins, drain, &mut schedule);
                // A frame whose pairs all point at two leaves hands its
                // leaf work to the helpers, in schedule order — unless
                // reads of this cursor are in flight: the queue's workers
                // need the cores to finish them, and the join waits on
                // those reads, not on its kernels.
                let ahead = rn.level == 1
                    && sn.level == 1
                    && pairs.len() > 1
                    && self.access.in_flight() == 0
                    && self.ahead.wanted();
                if ahead {
                    let (r, s) = (self.r, self.s);
                    let leaves = schedule.iter().filter_map(|step| step.pair()).map(|i| {
                        let p = &pairs[i];
                        let cr = RTree::child_page(&rn.entries[p.ir]);
                        let cs = RTree::child_page(&sn.entries[p.js]);
                        (r.node_shared(cr), s.node_shared(cs), p.rect)
                    });
                    self.ahead.publish(&self.plan, eps, pairs.len(), leaves);
                }
                self.stack.push(Frame::Dir(DirFrame {
                    rp,
                    sp,
                    pairs,
                    schedule,
                    at: 0,
                    slot: ahead.then_some(0),
                }));
            }
            // Different heights: the shorter tree bottomed out (§4.4).
            (false, true) => self.visit_mixed(TAG_R, rp, TAG_S, sp, rect),
            (true, false) => self.visit_mixed(TAG_S, sp, TAG_R, rp, rect),
        }
    }

    fn visit_mixed(
        &mut self,
        dir_tag: u8,
        dir_page: PageId,
        leaf_tag: u8,
        leaf_page: PageId,
        rect: Rect,
    ) {
        let dir_node = self.tree(dir_tag).node(dir_page);
        let leaf_node = self.tree(leaf_tag).node(leaf_page);
        // R-side rectangles carry the distance-join expansion, whichever
        // side of the mixed pair they are on.
        let dir_eps = if dir_tag == TAG_R { self.eps } else { 0.0 };
        let leaf_eps = if leaf_tag == TAG_R { self.eps } else { 0.0 };
        self.enumerate_into_scratch(
            (&dir_node.entries, dir_eps),
            (&leaf_node.entries, leaf_eps),
            &rect,
        );
        let mut pairs = self.scratch.take_pairs();
        pairs.extend_from_slice(&self.scratch.enumeration.raw);
        let pins = match self.plan.diff_height {
            DiffHeightPolicy::PerPair => Some(Pins::Neither),
            DiffHeightPolicy::SweepPinned => Some(Pins::First),
            DiffHeightPolicy::Batched => None,
        };
        let state = if let Some(pins) = pins {
            let mut schedule = self.scratch.take_schedule();
            let drain = &mut self.scratch.drain;
            schedule::drain_schedule(&pairs, |&p| p, pins, drain, &mut schedule);
            MixedState::Windows { schedule, at: 0 }
        } else {
            // Group the leaf windows per directory entry, preserving
            // first-occurrence order: rank each directory entry by
            // first appearance, stable-sort a scratch copy of the
            // pairs by that rank, and cut the sorted run into batches —
            // grouping by key without hashing.
            let scratch = &mut self.scratch;
            scratch.first_seen.clear();
            scratch.first_seen.resize(dir_node.entries.len(), u32::MAX);
            let mut rank = 0u32;
            for &(id, _) in &pairs {
                if scratch.first_seen[id] == u32::MAX {
                    scratch.first_seen[id] = rank;
                    rank += 1;
                }
            }
            scratch.group.clear();
            scratch.group.extend_from_slice(&pairs);
            let first_seen = &scratch.first_seen;
            scratch.group.sort_by_key(|&(id, _)| first_seen[id]);
            let mut windows = scratch.win_pool.pop().unwrap_or_default();
            windows.clear();
            let mut runs = scratch.run_pool.pop().unwrap_or_default();
            runs.clear();
            for &(id, il) in &scratch.group {
                let w = leaf_node.entries[il].rect.expanded(self.eps);
                match runs.last_mut() {
                    Some(&mut (last, _, ref mut end)) if last == id => *end += 1,
                    _ => {
                        let at = windows.len() as u32;
                        runs.push((id, at, at + 1));
                    }
                }
                windows.push((il, w));
            }
            MixedState::Batched {
                windows,
                runs,
                i: 0,
            }
        };
        self.stack.push(Frame::Mixed(MixedFrame {
            dir_tag,
            dir_page,
            leaf_tag,
            leaf_page,
            pairs,
            state,
        }));
    }

    /// Charges the two child pages of a directory frame's pair and pushes
    /// the child visit (the recursion's `process_dir_pair`). The parent
    /// frame must already be back on the stack.
    #[inline]
    fn descend(&mut self, rp: PageId, sp: PageId, pair: DirPair, slot: Option<usize>) {
        let cr = RTree::child_page(&self.r.node(rp).entries[pair.ir]);
        let cs = RTree::child_page(&self.s.node(sp).entries[pair.js]);
        self.charge(TAG_R, cr);
        self.charge(TAG_S, cs);
        self.stack.push(Frame::Visit {
            rp: cr,
            sp: cs,
            rect: pair.rect,
            slot,
        });
    }

    /// Runs a schedule's pin or unpin step over the node pair `nodes`
    /// (store tag and page): [`Side::First`] names an entry of `nodes[0]`,
    /// [`Side::Second`] one of `nodes[1]`, and the child page of that entry
    /// is pinned or unpinned.
    fn pin_step(&mut self, step: Step, nodes: [(u8, PageId); 2]) {
        let (pin, side) = match step {
            Step::Pin(side) => (true, side),
            Step::Unpin(side) => (false, side),
            Step::Pair(_) => unreachable!("a pair step pins nothing"),
        };
        let ((tag, node), e) = match side {
            Side::First(e) => (nodes[0], e),
            Side::Second(e) => (nodes[1], e),
        };
        let page = RTree::child_page(&self.tree(tag).node(node).entries[e]);
        if pin {
            self.access.pin(tag, page);
        } else {
            self.access.unpin(tag, page);
        }
    }

    fn step_dir(&mut self, mut f: DirFrame) {
        let Some(&step) = f.schedule.get(f.at) else {
            // Frame complete: it stays popped, its buffers go back.
            self.scratch.dir_pool.push(f.pairs);
            self.scratch.schedule_pool.push(f.schedule);
            return;
        };
        f.at += 1;
        let (rp, sp) = (f.rp, f.sp);
        match step {
            Step::Pair(i) => {
                let (pair, slot) = (f.pairs[i], f.slot);
                f.slot = slot.map(|at| at + 1);
                self.stack.push(Frame::Dir(f));
                self.descend(rp, sp, pair, slot);
            }
            Step::Pin(_) | Step::Unpin(_) => {
                self.stack.push(Frame::Dir(f));
                self.pin_step(step, [(TAG_R, rp), (TAG_S, sp)]);
            }
        }
    }

    fn step_mixed(&mut self, mut f: MixedFrame) {
        let (dt, dp, lt, lp) = (f.dir_tag, f.dir_page, f.leaf_tag, f.leaf_page);
        match f.state {
            MixedState::Windows { schedule, at } => {
                let Some(&step) = schedule.get(at) else {
                    self.scratch.schedule_pool.push(schedule);
                    self.scratch.pair_pool.push(f.pairs);
                    return; // frame complete
                };
                let pair = step.pair().map(|i| f.pairs[i]);
                f.state = MixedState::Windows {
                    schedule,
                    at: at + 1,
                };
                self.stack.push(Frame::Mixed(f));
                match pair {
                    Some((id, il)) => self.window_query_pair(dt, dp, lt, lp, id, il),
                    None => self.pin_step(step, [(dt, dp), (lt, lp)]),
                }
            }
            MixedState::Batched { windows, runs, i } => {
                let Some(&(id, start, end)) = runs.get(i) else {
                    self.scratch.win_pool.push(windows);
                    self.scratch.run_pool.push(runs);
                    self.scratch.pair_pool.push(f.pairs);
                    return; // frame complete
                };
                self.multi_window_query(dt, dp, lt, lp, id, &windows[start as usize..end as usize]);
                f.state = MixedState::Batched {
                    windows,
                    runs,
                    i: i + 1,
                };
                self.stack.push(Frame::Mixed(f));
            }
        }
    }

    /// Policy (a)/(c) unit: one window query with the leaf entry's rect
    /// into the subtree of the directory entry. Hits are emitted through
    /// the pending queue; I/O and comparisons are charged eagerly, so the
    /// buffer sees the same sequence as in the recursion.
    fn window_query_pair(
        &mut self,
        dir_tag: u8,
        dir_page: PageId,
        leaf_tag: u8,
        leaf_page: PageId,
        id: usize,
        il: usize,
    ) {
        let dir_tree = self.tree(dir_tag);
        let dir_node = dir_tree.node(dir_page);
        let leaf_entry = &self.tree(leaf_tag).node(leaf_page).entries[il];
        let leaf_id = leaf_entry.child.data().expect("leaf entry");
        let child = RTree::child_page(&dir_node.entries[id]);
        // The ε expansion commutes across sides, so the query window
        // absorbs it regardless of which tree is the directory side.
        let window = leaf_entry.rect.expanded(self.eps);
        let leaf_rect = leaf_entry.rect;
        let mut hits = std::mem::take(&mut self.scratch.hits);
        hits.clear();
        dir_tree.window_query_charged(
            child,
            &window,
            &mut self.cmp,
            dir_tag,
            &mut self.access,
            &mut hits,
        );
        self.pending.reserve(hits.len());
        for &(hit_rect, did) in &hits {
            let (r_rect, s_rect) = if dir_tag == TAG_R {
                (hit_rect, leaf_rect)
            } else {
                (leaf_rect, hit_rect)
            };
            if !predicate_holds(self.plan.predicate, &r_rect, &s_rect, &mut self.cmp) {
                continue;
            }
            if dir_tag == TAG_R {
                self.emit(did, leaf_id);
            } else {
                self.emit(leaf_id, did);
            }
        }
        self.scratch.hits = hits;
    }

    /// Policy (b) unit: all qualifying leaf windows of one directory entry
    /// in a single traversal.
    fn multi_window_query(
        &mut self,
        dir_tag: u8,
        dir_page: PageId,
        leaf_tag: u8,
        leaf_page: PageId,
        id: usize,
        windows: &[(usize, Rect)],
    ) {
        let dir_tree = self.tree(dir_tag);
        let leaf_node = self.tree(leaf_tag).node(leaf_page);
        let child = RTree::child_page(&dir_tree.node(dir_page).entries[id]);
        let mut hits = std::mem::take(&mut self.scratch.multi_hits);
        hits.clear();
        dir_tree.multi_window_query_charged(
            child,
            windows,
            &mut self.cmp,
            dir_tag,
            &mut self.access,
            &mut hits,
        );
        self.pending.reserve(hits.len());
        for &(il, hit_rect, did) in &hits {
            let leaf_rect = leaf_node.entries[il].rect;
            let (r_rect, s_rect) = if dir_tag == TAG_R {
                (hit_rect, leaf_rect)
            } else {
                (leaf_rect, hit_rect)
            };
            if !predicate_holds(self.plan.predicate, &r_rect, &s_rect, &mut self.cmp) {
                continue;
            }
            let leaf_id = leaf_node.entries[il].child.data().expect("leaf entry");
            if dir_tag == TAG_R {
                self.emit(did, leaf_id);
            } else {
                self.emit(leaf_id, did);
            }
        }
        self.scratch.multi_hits = hits;
    }
}

impl<A: NodeAccess, M: Meter> Iterator for JoinCursor<'_, A, M> {
    type Item = (DataId, DataId);

    /// The machine steps (and charges) in the exact deterministic schedule
    /// order, but a result pair only surfaces once every read it
    /// transitively depends on has completed. While the head pair's
    /// barrier is unsettled the cursor *runs ahead* — stepping other
    /// frames, which submits further reads and keeps the queue's lanes
    /// busy — up to the run-ahead caps, and only then parks on the
    /// blocking ticket ([`NodeAccess::await_settled`], a blocking wait,
    /// never a poll loop). Over a synchronous backend every ticket is
    /// [`rsj_storage::Ticket::NONE`], so no barrier is ever recorded and
    /// each pair surfaces as soon as its step produced it.
    fn next(&mut self) -> Option<(DataId, DataId)> {
        loop {
            if !self.pending.is_empty() {
                match self.gate.blocking(self.emitted, &self.access) {
                    None => {
                        let pair = self.pending.pop_front().expect("non-empty");
                        self.emitted += 1;
                        self.run_ahead = 0;
                        return Some(pair);
                    }
                    Some(ticket) => {
                        if self.run_ahead < RUN_AHEAD_STEPS
                            && self.access.in_flight() < QUEUE_DEPTH
                            && self.step_gated()
                        {
                            self.run_ahead += 1;
                            continue;
                        }
                        let parked = Instant::now();
                        self.access.await_settled(ticket);
                        self.blocked += parked.elapsed();
                        self.run_ahead = 0;
                        self.parks += 1;
                        continue;
                    }
                }
            }
            if !self.step_gated() {
                // Machine exhausted. A backend that ever submitted a read
                // settles every outstanding one (the honesty point: lane
                // reads now cover all charges), which unblocks any
                // still-gated buffered pairs. A synchronous one has no
                // ticket and nothing to wait for.
                if !self.access.last_miss_ticket().is_none() {
                    let draining = Instant::now();
                    self.access.drain_completions();
                    self.blocked += draining.elapsed();
                }
                if self.pending.is_empty() {
                    return None;
                }
            }
        }
    }
}
