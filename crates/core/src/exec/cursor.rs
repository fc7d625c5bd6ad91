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
//!   [`rsj_storage::FileAccess`] stack or a
//!   [`rsj_storage::SharedCacheFileAccess`] handle, and `&mut A` works
//!   for reusing one accountant across many cursors.
//! * [`Meter`] — the comparison-accounting boundary: [`CmpCounter`]
//!   (constructors [`JoinCursor::new`]/[`JoinCursor::with_tasks`]) keeps
//!   the paper's CPU accounting bit-identical to the recursive oracle;
//!   the zero-sized [`NoOp`] meter ([`JoinCursor::raw`]) compiles the
//!   accounting out entirely — the production "raw" mode, same
//!   result-pair multiset with no metering overhead.
//!
//! **Zero allocation in steady state.** All per-node-pair buffers —
//! effective rectangles, restriction index lists, sweep output, z-order
//! keys, window-query hit lists and the vectors owned by suspended frames
//! — live in an `ExecScratch` arena owned by the cursor. Completed
//! frames return their vectors to the arena's pools, so after warm-up the
//! hot path performs no heap allocation (the paper's plane sweep needs
//! "no auxiliary data structure"; the executor now matches it).
//!
//! **Accounting parity.** With the counting meter, the state machine
//! replays the recursive driver's exact sequence of buffer operations —
//! the order of `access`/`pin`/`unpin` calls is observable through the
//! LRU, so each frame suspends and resumes precisely where the recursion
//! would. For every sequential plan the cursor reports bit-identical
//! `disk_accesses`, `join_comparisons` and `sort_comparisons` to
//! [`crate::exec::recursive_spatial_join`]; the differential tests in
//! [`crate::exec`] enforce this. The per-side remaining-degree tables
//! (O(1) where the recursion rescans the pair list) and the sort-and-group
//! batched-window construction (grouping without hashing) only answer the
//! recursion's questions faster: they never change which pages are
//! touched in which order.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::exec::schedule::{self, DirPair, OrderScratch, TicketGate};
use crate::exec::{TAG_R, TAG_S};
use crate::plan::{DiffHeightPolicy, Enumerate, JoinPlan};
use crate::stats::JoinStats;
use crate::sweep::{
    eff_rect, restrict_keyed, sort_keyed_by_xl, sorted_intersection_test_keyed, KeyedRect,
};
use rsj_geom::{CmpCounter, Meter, NoOp, Rect};
use rsj_rtree::{DataId, Entry, RTree};
use rsj_storage::{IoStats, NodeAccess, PageId, QUEUE_DEPTH};

/// Which side of a directory pair is pinned during a drain.
#[derive(Debug, Clone, Copy)]
enum PinSide {
    /// Pin the R-side child; drain pairs with the same `ir`.
    R(usize),
    /// Pin the S-side child; drain pairs with the same `js`.
    S(usize),
}

/// Resume point of a directory/directory frame.
#[derive(Debug, Clone, Copy)]
enum DirState {
    /// Find the next unprocessed pair and descend into it.
    NextOuter,
    /// The subtree of pair `k` finished; decide on pinning.
    AfterOuter,
    /// Draining the pairs selected by the pinned side, from index `l`.
    Drain {
        side: PinSide,
        page: PageId,
        l: usize,
    },
}

/// Suspended directory/directory node pair (the `schedule_pairs` loop of
/// the recursion, unrolled into a resumable state).
///
/// `rem_r`/`rem_s` are the per-side remaining-degree tables: `rem_r[ir]`
/// counts the not-yet-processed pairs whose R entry is `ir` (likewise
/// `rem_s[js]`). Because the outer cursor `k` only ever moves forward past
/// completed pairs, every unprocessed pair lies at an index `> k`, so
/// these tables answer the §4.3 degree question ("number of intersections
/// […] not processed until now") in O(1) instead of two rescans of the
/// pair list per pair. Empty when the plan does not pin.
#[derive(Debug)]
struct DirFrame {
    rp: PageId,
    sp: PageId,
    pairs: Vec<DirPair>,
    done: Vec<bool>,
    rem_r: Vec<u32>,
    rem_s: Vec<u32>,
    k: usize,
    state: DirState,
}

impl DirFrame {
    /// Marks pair `idx` processed, maintaining the degree tables.
    #[inline]
    fn mark_done(&mut self, idx: usize) {
        self.done[idx] = true;
        if !self.rem_r.is_empty() {
            let p = self.pairs[idx];
            self.rem_r[p.ir] -= 1;
            self.rem_s[p.js] -= 1;
        }
    }
}

/// Resume point of a mixed directory × leaf frame (§4.4 policies).
#[derive(Debug)]
enum MixedState {
    /// Policy (a): one window query per pair, in order.
    PerPair { i: usize },
    /// Policy (b): one batched traversal per directory entry, in
    /// first-occurrence order. `windows` holds the `(leaf index, window)`
    /// batches back to back; `runs[i] = (dir entry, start, end)` delimits
    /// the batch of the `i`-th directory entry.
    Batched {
        windows: Vec<(usize, Rect)>,
        runs: Vec<(usize, u32, u32)>,
        i: usize,
    },
    /// Policy (c): sweep order with pinning — the outer loop.
    SweepOuter { done: Vec<bool>, k: usize },
    /// Policy (c): draining window queries of the pinned child `id`.
    SweepDrain {
        done: Vec<bool>,
        k: usize,
        id: usize,
        page: PageId,
        l: usize,
    },
}

/// Suspended directory × leaf node pair.
///
/// `rem[id]` counts the not-yet-processed pairs of directory entry `id`
/// (the sweep-pinned policy's degree table); empty for the other policies.
#[derive(Debug)]
struct MixedFrame {
    dir_tag: u8,
    dir_page: PageId,
    leaf_tag: u8,
    leaf_page: PageId,
    /// `(dir entry index, leaf entry index)`, sweep-ordered under
    /// plane-sweep enumeration.
    pairs: Vec<(usize, usize)>,
    rem: Vec<u32>,
    state: MixedState,
}

/// One unit of suspended work on the explicit stack.
#[derive(Debug)]
enum Frame {
    /// A node pair whose pages have been charged but not yet classified.
    Visit {
        rp: PageId,
        sp: PageId,
        rect: Rect,
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
    /// Working set of the pair enumeration.
    keyed: KeyedScratch,
    /// Enumeration output: qualifying `(i, j)` pairs in schedule order.
    raw: Vec<(usize, usize)>,
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
    /// Recycled `done` bitmaps (directory and mixed frames).
    done_pool: Vec<Vec<bool>>,
    /// Recycled remaining-degree tables.
    rem_pool: Vec<Vec<u32>>,
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

    #[inline]
    fn take_done(&mut self) -> Vec<bool> {
        let mut v = self.done_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    #[inline]
    fn take_rem(&mut self) -> Vec<u32> {
        let mut v = self.rem_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    #[inline]
    fn take_pairs(&mut self) -> Vec<(usize, usize)> {
        let mut v = self.pair_pool.pop().unwrap_or_default();
        v.clear();
        v
    }
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

/// A streaming MBR-spatial-join: yields `(Id(r), Id(s))` pairs one at a
/// time while charging all I/O to a caller-supplied [`NodeAccess`].
///
/// Construct with [`JoinCursor::new`] for a whole-tree counted join,
/// [`JoinCursor::with_tasks`] for an explicit task list (the parallel
/// worker unit), or [`JoinCursor::raw`] for the meter-free raw mode;
/// iterate, then read [`JoinCursor::stats`].
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
    /// Whether the backend services misses through a completion queue
    /// ([`NodeAccess::completion_driven`] at construction). When false
    /// the iterator skips the ticket-gating machinery entirely.
    completion: bool,
    /// Emission gate of completion-driven mode (see [`TicketGate`]).
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

    /// Counted cursor over an explicit list of `(R page, S page, search
    /// space)` tasks — the worker unit of the parallel join. Each task's
    /// two pages are charged when the task starts; root accesses are the
    /// caller's business.
    pub fn with_tasks(
        r: &'t RTree,
        s: &'t RTree,
        plan: JoinPlan,
        access: A,
        tasks: impl IntoIterator<Item = (PageId, PageId, Rect)>,
    ) -> Self {
        Self::metered_with_tasks(r, s, plan, access, tasks)
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

    /// Task-list cursor with an explicit meter type (see
    /// [`JoinCursor::with_tasks`]; pass [`NoOp`] for raw mode).
    pub fn metered_with_tasks(
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
        let completion = access.completion_driven();
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
            completion,
            gate: TicketGate::default(),
            run_ahead: 0,
            parks: 0,
            blocked: Duration::ZERO,
            stack: Vec::new(),
            pending: VecDeque::new(),
            scratch: ExecScratch::default(),
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
    /// covering every result not yet pushed (completion-driven mode
    /// only). Called after each machine step and after constructor-time
    /// root charges.
    #[inline]
    fn capture_gate(&mut self) {
        if self.completion {
            let before = self.emitted + self.pending.len() as u64;
            self.gate.capture(before, self.access.last_miss_ticket());
        }
    }

    /// [`JoinCursor::step`] plus barrier capture: results produced by
    /// this step (and later ones) wait on every read submitted up to it,
    /// so `before` is sampled ahead of the step.
    #[inline]
    fn step_gated(&mut self) -> bool {
        let before = self.emitted + self.pending.len() as u64;
        let advanced = self.step();
        if advanced && self.completion {
            self.gate.capture(before, self.access.last_miss_ticket());
        }
        advanced
    }

    #[inline]
    fn emit(&mut self, rid: DataId, sid: DataId) {
        self.pending.push_back((rid, sid));
    }

    /// Final data-pair test beyond MBR intersection (see the recursion's
    /// twin for the predicate-by-predicate rationale).
    #[inline]
    fn leaf_predicate_holds(&mut self, r_rect: &Rect, s_rect: &Rect) -> bool {
        use crate::plan::JoinPredicate::*;
        match self.plan.predicate {
            Intersects | WithinDistance(_) => true,
            Contains => r_rect.contains_counted(s_rect, &mut self.cmp),
            Within => s_rect.contains_counted(r_rect, &mut self.cmp),
        }
    }

    /// Runs the enumeration for the node pair `(a, b)` into `scratch.raw`.
    /// Each side is its entries and their ε expansion (the R side carries
    /// it, whichever side of a mixed pair that is).
    #[inline]
    fn enumerate_into_scratch(&mut self, a: (&[Entry], f64), b: (&[Entry], f64), rect: &Rect) {
        let ExecScratch { keyed, raw, .. } = &mut self.scratch;
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
            self.stack.push(Frame::Visit { rp, sp, rect });
            return true;
        };
        match frame {
            Frame::Visit { rp, sp, rect } => self.visit(rp, sp, rect),
            Frame::Dir(f) => self.step_dir(f),
            Frame::Mixed(f) => self.step_mixed(f),
        }
        true
    }

    /// Classifies a charged node pair, runs the pair enumeration, and
    /// either drains it on the spot (leaf/leaf) or installs the matching
    /// resumable frame.
    fn visit(&mut self, rp: PageId, sp: PageId, rect: Rect) {
        let rn = self.r.node(rp);
        let sn = self.s.node(sp);
        match (rn.is_leaf(), sn.is_leaf()) {
            (true, true) => {
                self.enumerate_into_scratch((&rn.entries, self.eps), (&sn.entries, 0.0), &rect);
                // Drain the whole leaf frame into `pending` in one step —
                // no suspended frame, no per-pair pop/re-push cycle.
                let id = |e: &Entry| e.child.data().expect("leaf entry");
                if self.plan.predicate.decided_by_mbr_intersection() {
                    let ids =
                        |&(ir, js): &(usize, usize)| (id(&rn.entries[ir]), id(&sn.entries[js]));
                    self.pending.extend(self.scratch.raw.iter().map(ids));
                } else {
                    self.pending.reserve(self.scratch.raw.len());
                    for idx in 0..self.scratch.raw.len() {
                        let (ir, js) = self.scratch.raw[idx];
                        let (r, s) = (&rn.entries[ir], &sn.entries[js]);
                        if self.leaf_predicate_holds(&r.rect, &s.rect) {
                            self.emit(id(r), id(s));
                        }
                    }
                }
            }
            (false, false) => {
                self.enumerate_into_scratch((&rn.entries, self.eps), (&sn.entries, 0.0), &rect);
                let eps = self.eps;
                let mut pairs = self.scratch.take_dir();
                pairs.extend(self.scratch.raw.iter().map(|&(ir, js)| {
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
                let mut done = self.scratch.take_done();
                done.resize(pairs.len(), false);
                let (mut rem_r, mut rem_s) = (self.scratch.take_rem(), self.scratch.take_rem());
                if self.plan.pins() {
                    rem_r.resize(rn.entries.len(), 0);
                    rem_s.resize(sn.entries.len(), 0);
                    for p in &pairs {
                        rem_r[p.ir] += 1;
                        rem_s[p.js] += 1;
                    }
                }
                self.stack.push(Frame::Dir(DirFrame {
                    rp,
                    sp,
                    pairs,
                    done,
                    rem_r,
                    rem_s,
                    k: 0,
                    state: DirState::NextOuter,
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
        pairs.extend_from_slice(&self.scratch.raw);
        let mut rem = self.scratch.take_rem();
        let state = match self.plan.diff_height {
            DiffHeightPolicy::PerPair => MixedState::PerPair { i: 0 },
            DiffHeightPolicy::Batched => {
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
            }
            DiffHeightPolicy::SweepPinned => {
                rem.resize(dir_node.entries.len(), 0);
                for &(id, _) in &pairs {
                    rem[id] += 1;
                }
                let mut done = self.scratch.take_done();
                done.resize(pairs.len(), false);
                MixedState::SweepOuter { done, k: 0 }
            }
        };
        self.stack.push(Frame::Mixed(MixedFrame {
            dir_tag,
            dir_page,
            leaf_tag,
            leaf_page,
            pairs,
            rem,
            state,
        }));
    }

    /// Charges the two child pages of a directory pair and pushes the
    /// child visit (the recursion's `process_dir_pair`). The parent frame
    /// must already be back on the stack.
    #[inline]
    fn descend(&mut self, rp: PageId, sp: PageId, pair: DirPair) {
        let cr = RTree::child_page(&self.r.node(rp).entries[pair.ir]);
        let cs = RTree::child_page(&self.s.node(sp).entries[pair.js]);
        self.charge(TAG_R, cr);
        self.charge(TAG_S, cs);
        self.stack.push(Frame::Visit {
            rp: cr,
            sp: cs,
            rect: pair.rect,
        });
    }

    /// Returns a completed directory frame's buffers to the arena.
    fn recycle_dir(&mut self, f: DirFrame) {
        self.scratch.dir_pool.push(f.pairs);
        self.scratch.done_pool.push(f.done);
        self.scratch.rem_pool.push(f.rem_r);
        self.scratch.rem_pool.push(f.rem_s);
    }

    fn step_dir(&mut self, mut f: DirFrame) {
        match f.state {
            DirState::NextOuter => {
                while f.k < f.pairs.len() && f.done[f.k] {
                    f.k += 1;
                }
                if f.k == f.pairs.len() {
                    self.recycle_dir(f);
                    return; // frame complete — stays popped
                }
                let pair = f.pairs[f.k];
                let (rp, sp) = (f.rp, f.sp);
                f.state = DirState::AfterOuter;
                self.stack.push(Frame::Dir(f));
                self.descend(rp, sp, pair);
            }
            DirState::AfterOuter => {
                f.mark_done(f.k);
                if !self.plan.pins() {
                    f.k += 1;
                    f.state = DirState::NextOuter;
                    self.stack.push(Frame::Dir(f));
                    return;
                }
                // Degree of both pages among the unprocessed pairs (§4.3),
                // read off the incrementally-maintained tables.
                let DirPair { ir, js, .. } = f.pairs[f.k];
                let deg_r = f.rem_r[ir];
                let deg_s = f.rem_s[js];
                if deg_r == 0 && deg_s == 0 {
                    f.k += 1;
                    f.state = DirState::NextOuter;
                    self.stack.push(Frame::Dir(f));
                    return;
                }
                let (side, page) = if deg_r >= deg_s {
                    (
                        PinSide::R(ir),
                        RTree::child_page(&self.r.node(f.rp).entries[ir]),
                    )
                } else {
                    (
                        PinSide::S(js),
                        RTree::child_page(&self.s.node(f.sp).entries[js]),
                    )
                };
                let tag = match side {
                    PinSide::R(_) => TAG_R,
                    PinSide::S(_) => TAG_S,
                };
                self.access.pin(tag, page);
                f.state = DirState::Drain {
                    side,
                    page,
                    l: f.k + 1,
                };
                self.stack.push(Frame::Dir(f));
            }
            DirState::Drain { side, page, mut l } => {
                // The degree table tells us when the drain is dry without
                // scanning the tail of the pair list.
                let (rem, tag) = match side {
                    PinSide::R(ir) => (f.rem_r[ir], TAG_R),
                    PinSide::S(js) => (f.rem_s[js], TAG_S),
                };
                if rem == 0 {
                    self.access.unpin(tag, page);
                    f.k += 1;
                    f.state = DirState::NextOuter;
                    self.stack.push(Frame::Dir(f));
                    return;
                }
                let matches = |p: &DirPair| match side {
                    PinSide::R(ir) => p.ir == ir,
                    PinSide::S(js) => p.js == js,
                };
                while f.done[l] || !matches(&f.pairs[l]) {
                    l += 1;
                }
                f.mark_done(l);
                let pair = f.pairs[l];
                let (rp, sp) = (f.rp, f.sp);
                f.state = DirState::Drain {
                    side,
                    page,
                    l: l + 1,
                };
                self.stack.push(Frame::Dir(f));
                self.descend(rp, sp, pair);
            }
        }
    }

    /// Returns a completed mixed frame's shared buffers to the arena.
    fn recycle_mixed(&mut self, pairs: Vec<(usize, usize)>, rem: Vec<u32>) {
        self.scratch.pair_pool.push(pairs);
        self.scratch.rem_pool.push(rem);
    }

    fn step_mixed(&mut self, mut f: MixedFrame) {
        match f.state {
            MixedState::PerPair { i } => {
                let Some(&(id, il)) = f.pairs.get(i) else {
                    self.recycle_mixed(f.pairs, f.rem);
                    return; // frame complete
                };
                f.state = MixedState::PerPair { i: i + 1 };
                let (dt, dp, lt, lp) = (f.dir_tag, f.dir_page, f.leaf_tag, f.leaf_page);
                self.stack.push(Frame::Mixed(f));
                self.window_query_pair(dt, dp, lt, lp, id, il);
            }
            MixedState::Batched { windows, runs, i } => {
                let Some(&(id, start, end)) = runs.get(i) else {
                    self.scratch.win_pool.push(windows);
                    self.scratch.run_pool.push(runs);
                    self.recycle_mixed(f.pairs, f.rem);
                    return; // frame complete
                };
                let (dt, dp, lt, lp) = (f.dir_tag, f.dir_page, f.leaf_tag, f.leaf_page);
                self.multi_window_query(dt, dp, lt, lp, id, &windows[start as usize..end as usize]);
                f.state = MixedState::Batched {
                    windows,
                    runs,
                    i: i + 1,
                };
                self.stack.push(Frame::Mixed(f));
            }
            MixedState::SweepOuter { mut done, mut k } => {
                while k < f.pairs.len() && done[k] {
                    k += 1;
                }
                if k == f.pairs.len() {
                    self.scratch.done_pool.push(done);
                    self.recycle_mixed(f.pairs, f.rem);
                    return; // frame complete
                }
                let (id, il) = f.pairs[k];
                done[k] = true;
                f.rem[id] -= 1;
                let deg = f.rem[id];
                let (dt, dp, lt, lp) = (f.dir_tag, f.dir_page, f.leaf_tag, f.leaf_page);
                // The window query of pair k runs first either way (the
                // recursion queries, then pins for the drain).
                if deg == 0 {
                    f.state = MixedState::SweepOuter { done, k: k + 1 };
                    self.stack.push(Frame::Mixed(f));
                    self.window_query_pair(dt, dp, lt, lp, id, il);
                } else {
                    let page = RTree::child_page(&self.tree(dt).node(dp).entries[id]);
                    f.state = MixedState::SweepDrain {
                        done,
                        k,
                        id,
                        page,
                        l: k + 1,
                    };
                    self.stack.push(Frame::Mixed(f));
                    self.window_query_pair(dt, dp, lt, lp, id, il);
                    self.access.pin(dt, page);
                }
            }
            MixedState::SweepDrain {
                mut done,
                k,
                id,
                page,
                mut l,
            } => {
                if f.rem[id] == 0 {
                    self.access.unpin(f.dir_tag, page);
                    f.state = MixedState::SweepOuter { done, k: k + 1 };
                    self.stack.push(Frame::Mixed(f));
                    return;
                }
                while done[l] || f.pairs[l].0 != id {
                    l += 1;
                }
                let (_, il) = f.pairs[l];
                done[l] = true;
                f.rem[id] -= 1;
                let (dt, dp, lt, lp) = (f.dir_tag, f.dir_page, f.leaf_tag, f.leaf_page);
                f.state = MixedState::SweepDrain {
                    done,
                    k,
                    id,
                    page,
                    l: l + 1,
                };
                self.stack.push(Frame::Mixed(f));
                self.window_query_pair(dt, dp, lt, lp, id, il);
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
            if !self.leaf_predicate_holds(&r_rect, &s_rect) {
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
            if !self.leaf_predicate_holds(&r_rect, &s_rect) {
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

impl<A: NodeAccess, M: Meter> JoinCursor<'_, A, M> {
    /// Completion-driven `next`: the machine steps (and charges) in the
    /// exact deterministic schedule order, but a result pair only
    /// surfaces once every read it transitively depends on has
    /// completed. While the head pair's barrier is unsettled the cursor
    /// *runs ahead* — stepping other frames, which submits further reads
    /// and keeps the queue's lanes busy — up to the run-ahead caps, and
    /// only then parks on the blocking ticket ([`NodeAccess::await_settled`],
    /// a blocking wait, never a poll loop).
    fn next_completion(&mut self) -> Option<(DataId, DataId)> {
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
                // Machine exhausted. Settle every outstanding read (the
                // honesty point: lane reads now cover all charges), which
                // unblocks any still-gated buffered pairs.
                let draining = Instant::now();
                self.access.drain_completions();
                self.blocked += draining.elapsed();
                if self.pending.is_empty() {
                    return None;
                }
            }
        }
    }
}

impl<A: NodeAccess, M: Meter> Iterator for JoinCursor<'_, A, M> {
    type Item = (DataId, DataId);

    #[inline]
    fn next(&mut self) -> Option<(DataId, DataId)> {
        if self.completion {
            return self.next_completion();
        }
        loop {
            if let Some(pair) = self.pending.pop_front() {
                self.emitted += 1;
                return Some(pair);
            }
            if !self.step() {
                return None;
            }
        }
    }
}
