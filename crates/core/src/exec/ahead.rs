//! Leaf pairs computed ahead of the cursor on the process's idle cores.
//!
//! Most of a CPU-bound join is leaf/leaf work: the restriction, the sort
//! check, the plane sweep, the predicate and the map to `DataId`s (§4.2).
//! When a [`JoinCursor`](super::JoinCursor) installs a directory frame
//! whose pairs all point at two leaves, it publishes them as its *leaf
//! batch*: one slot per pair, holding the two leaves' [`Arc<Node>`]s and
//! the pair's search space, in the frame's schedule order — slot `i` is
//! the `i`-th pair the cursor will reach. A process-wide pool of helper
//! threads — one per core but one, started on first use — claims open
//! slots front to back and runs each through [`leaf_pair`], the one
//! leaf-pair function, into the helper's own scratch and meters.
//!
//! The cursor still *applies* every slot itself, at the step where its
//! machine reaches the pair: it adds the slot's tallies to its meters and
//! appends its pairs to the pending queue. A slot no one has claimed it
//! runs inline; while a helper still runs its slot it runs the next open
//! one. So the pair order, `stats()` after every step and every
//! `access`/`pin` call are those of a cursor without helpers: a helper
//! changes which core runs a leaf pair, never what the run computes or
//! when the cursor makes it visible.
//!
//! Results wait for the cursor in at most [`WINDOW`] slots. When the
//! window is full a helper stops claiming until the cursor applies one,
//! and a cursor that finds its slot still running runs the slot itself
//! rather than wait: the cursor never blocks on a helper, and a helper
//! that falls behind (a busy machine can stop it for a time slice) costs
//! one duplicated leaf pair, whose late result is dropped.
//!
//! * A cursor publishes only while fewer cursors are live in the process
//!   than there are cores: concurrent joins (a service's clients, the
//!   parallel join's workers) already use the cores, and a helper would
//!   only compete with them. Nor does it publish while reads of its own
//!   are in flight (the cursor's check): a completion queue's workers
//!   need the cores to finish them, and a join waiting on reads gains
//!   nothing from faster kernels — on `join_cold` (100 µs modelled
//!   reads) helpers lengthened `join_p90_ms` by about a tenth.
//! * A dropped cursor abandons its batch. Between slots a helper holds it
//!   through a [`Weak`] only, so the batch and its leaves are freed once
//!   the slot in hand finishes, and no further slot of it runs.
//! * A helper that panics marks its slot failed, and the cursor re-runs
//!   the slot inline: the panic surfaces on the caller's thread.
//! * The batch is reused for the cursor's next leaf frame, and a result
//!   vector goes back to it once applied, so a running join allocates
//!   nothing here after warm-up.

use std::collections::VecDeque;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use rsj_geom::{Meter, Rect};
use rsj_rtree::{DataId, Node};
use rsj_storage::cores;

use crate::exec::cursor::{leaf_pair, PairScratch};
use crate::plan::JoinPlan;

/// A result pair, `(Id(r), Id(s))`.
type Pair = (DataId, DataId);

/// Result vectors a batch keeps: one per waiting result, one for a
/// helper's run and one for the cursor's.
const VECTORS: usize = WINDOW + 2;

/// The pairs a new result vector has room for.
const VECTOR_PAIRS: usize = 256;

/// Slots whose results may wait for the cursor at once. Claims follow the
/// cursor's own order, so the window only bounds how far the helpers run
/// ahead of it: the waiting results stay small next to the trees.
const WINDOW: usize = 8;

/// Cursors alive in the process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// One live cursor's count in [`LIVE`], returned when it drops.
#[derive(Debug)]
struct Live;

impl Live {
    fn enter() -> Self {
        LIVE.fetch_add(1, Relaxed);
        Live
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Relaxed);
    }
}

/// What one run of [`leaf_pair`] leaves for the cursor: the pairs in
/// emission order and the two tallies.
struct Output<M> {
    pairs: Vec<Pair>,
    cmp: M,
    sort_cmp: M,
}

/// Where a slot is between its publication and the cursor's step.
enum State<M> {
    /// No one has claimed it.
    Open,
    /// A thread is running it.
    Running,
    /// Run, waiting for the cursor to apply it.
    Done(Output<M>),
    /// Its helper panicked; the cursor runs it again.
    Failed,
    /// The cursor took it.
    Applied,
}

/// One leaf pair of the batch.
struct Slot<M> {
    leaves: (Arc<Node>, Arc<Node>),
    rect: Rect,
    state: State<M>,
}

/// A leaf pair claimed for running, with everything the run reads.
struct Job<M> {
    /// The batch's publication the slot belongs to.
    generation: u64,
    at: usize,
    plan: JoinPlan,
    eps: f64,
    leaves: (Arc<Node>, Arc<Node>),
    rect: Rect,
    out: Output<M>,
}

impl<M: Meter> Job<M> {
    fn run(mut self, scratch: &mut PairScratch) -> (u64, usize, Output<M>) {
        let Output {
            pairs,
            cmp,
            sort_cmp,
        } = &mut self.out;
        let leaves = (&*self.leaves.0, &*self.leaves.1);
        let meters = (cmp, sort_cmp);
        leaf_pair(
            &self.plan, self.eps, leaves, &self.rect, scratch, meters, pairs,
        );
        (self.generation, self.at, self.out)
    }
}

/// A batch's slots and what claiming them needs, under one lock.
struct Slots<M> {
    /// Publications so far: a run settles only into its own.
    generation: u64,
    plan: JoinPlan,
    eps: f64,
    /// Slot `i` is the `i`-th pair the cursor reaches; slots are claimed
    /// in that order.
    list: Vec<Slot<M>>,
    /// No slot before `front` is open.
    front: usize,
    /// Slots [`State::Done`]: results waiting for the cursor.
    ready: usize,
    /// A helper stopped claiming at a full window; the cursor posts the
    /// batch again when it applies a slot.
    stalled: bool,
    /// Result vectors, cleared, for the next runs: the cursor's thread
    /// makes them, so a helper's growth of one stays in the cursor's heap
    /// instead of a heap of the helper's own.
    spare: Vec<Vec<Pair>>,
}

impl<M: Meter> Slots<M> {
    /// Claims the front open slot, unless none is open or the window is
    /// full.
    fn claim_front(&mut self) -> Option<Job<M>> {
        while self
            .list
            .get(self.front)
            .is_some_and(|slot| !matches!(slot.state, State::Open))
        {
            self.front += 1;
        }
        if self.ready >= WINDOW {
            return None;
        }
        let at = self.front;
        let slot = self.list.get_mut(at)?;
        slot.state = State::Running;
        self.front += 1;
        Some(Job {
            generation: self.generation,
            at,
            plan: self.plan,
            eps: self.eps,
            leaves: slot.leaves.clone(),
            rect: slot.rect,
            out: Output {
                pairs: self.spare.pop().unwrap_or_default(),
                cmp: M::default(),
                sort_cmp: M::default(),
            },
        })
    }

    /// Files a run of slot `at` of publication `generation`: its output,
    /// or `None` if it panicked. A run the cursor no longer waits for —
    /// it ran the slot itself, or moved on to a later batch — leaves only
    /// its vector.
    fn settle(&mut self, generation: u64, at: usize, out: Option<Output<M>>) {
        let slot = (generation == self.generation).then(|| &mut self.list[at]);
        if let Some(slot) = slot.filter(|slot| matches!(slot.state, State::Running)) {
            slot.state = match out {
                Some(out) => {
                    self.ready += 1;
                    State::Done(out)
                }
                None => State::Failed,
            };
        } else if let Some(mut out) = out {
            out.pairs.clear();
            self.spare.push(out.pairs);
        }
    }
}

/// One cursor's leaf batch, shared with the helpers.
struct Batch<M> {
    slots: Mutex<Slots<M>>,
}

impl<M: Meter> Batch<M> {
    /// No leaf pair runs under the lock, and every update made under it
    /// leaves the slots consistent, so a lock a panic poisoned is sound.
    fn lock(&self) -> MutexGuard<'_, Slots<M>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A batch of any meter type, as the pool's helpers see it.
trait Work: Send + Sync {
    /// Claims the front open slot and runs it; false when none is open.
    fn run_front(&self, scratch: &mut PairScratch) -> bool;
}

impl<M: Meter> Work for Batch<M> {
    fn run_front(&self, scratch: &mut PairScratch) -> bool {
        let job = {
            let mut slots = self.lock();
            let job = slots.claim_front();
            slots.stalled = job.is_none() && slots.front < slots.list.len();
            job
        };
        let Some(job) = job else {
            return false;
        };
        let (generation, at) = (job.generation, job.at);
        let run = panic::catch_unwind(AssertUnwindSafe(|| job.run(scratch)));
        if run.is_err() {
            *scratch = PairScratch::default();
            #[cfg(test)]
            tests::HELPER_PANICS.fetch_add(1, Relaxed);
        }
        let out = run.ok().map(|(_, _, out)| out);
        #[cfg(test)]
        if out.is_some() {
            tests::HELPER_RUNS.fetch_add(1, Relaxed);
        }
        self.lock().settle(generation, at, out);
        true
    }
}

/// The process's helper threads and the batches posted to them.
struct Pool {
    /// Batches with open slots, once per helper asked to work on them.
    posted: Mutex<VecDeque<Weak<dyn Work>>>,
    wake: Condvar,
    /// Helper threads running.
    helpers: AtomicUsize,
}

/// The pool, started on first use with one helper per core but one.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    let mut first = false;
    let pool = POOL.get_or_init(|| {
        first = true;
        Pool {
            posted: Mutex::default(),
            wake: Condvar::new(),
            helpers: AtomicUsize::new(0),
        }
    });
    if first {
        for _ in 0..cores().saturating_sub(1).max(1) {
            pool.helpers.fetch_add(1, Relaxed);
            let helper = std::thread::Builder::new().name("rsj-leaf-helper".into());
            if helper.spawn(|| pool.serve()).is_err() {
                // A helper that cannot start leaves its share to the cursors.
                pool.helpers.fetch_sub(1, Relaxed);
            }
        }
    }
    pool
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Weak<dyn Work>>> {
        self.posted.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Asks up to one helper per open slot to work on `batch`.
    fn post(&self, batch: Weak<dyn Work>, open: usize) {
        let helpers = self.helpers.load(Relaxed).min(open);
        if helpers == 0 {
            return;
        }
        self.lock().extend(std::iter::repeat_n(batch, helpers));
        if helpers == 1 {
            self.wake.notify_one();
        } else {
            self.wake.notify_all();
        }
    }

    /// One helper: takes a posted batch and runs its open slots, front to
    /// back, until none is left or its cursor dropped it. Helpers run for
    /// the life of the process; the panics of the leaf pairs they run are
    /// caught and handed to the cursors, and a helper that dies anyway
    /// leaves the count, so no more work is posted for it.
    fn serve(&self) {
        struct Leave<'a>(&'a AtomicUsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Relaxed);
            }
        }
        let _leave = Leave(&self.helpers);
        let mut scratch = PairScratch::default();
        loop {
            let batch = {
                let mut posted = self.lock();
                loop {
                    match posted.pop_front() {
                        Some(batch) => break batch,
                        None => {
                            posted = self
                                .wake
                                .wait(posted)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            while batch
                .upgrade()
                .is_some_and(|batch| batch.run_front(&mut scratch))
            {}
        }
    }
}

/// A cursor's side of the helper pool: its live count and its leaf batch,
/// made at its first publication.
pub(crate) struct Ahead<M> {
    batch: Option<Arc<Batch<M>>>,
    /// Publish, or not, whatever the live count says.
    #[cfg(test)]
    forced: Option<bool>,
    _live: Live,
}

impl<M> Default for Ahead<M> {
    fn default() -> Self {
        Ahead {
            batch: None,
            #[cfg(test)]
            forced: None,
            _live: Live::enter(),
        }
    }
}

impl<M> std::fmt::Debug for Ahead<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ahead")
            .field("published", &self.batch.is_some())
            .finish_non_exhaustive()
    }
}

impl<M: Meter> Ahead<M> {
    /// Whether to publish the next leaf frame: while fewer cursors are
    /// live than there are cores.
    pub(crate) fn wanted(&self) -> bool {
        #[cfg(test)]
        if let Some(on) = self.forced {
            return on;
        }
        LIVE.load(Relaxed) < cores()
    }

    /// Publishes a leaf frame's `len` pairs — both leaves and the search
    /// space, in the order the cursor will reach them — as the batch: slot
    /// `i` is the `i`-th. Every slot of the previous batch has been applied.
    pub(crate) fn publish(
        &mut self,
        plan: &JoinPlan,
        eps: f64,
        len: usize,
        pairs: impl Iterator<Item = (Arc<Node>, Arc<Node>, Rect)>,
    ) {
        let batch = self.batch.get_or_insert_with(|| {
            Arc::new(Batch {
                slots: Mutex::new(Slots {
                    generation: 0,
                    plan: *plan,
                    eps,
                    list: Vec::new(),
                    front: 0,
                    ready: 0,
                    stalled: false,
                    spare: Vec::new(),
                }),
            })
        });
        let open = {
            let mut slots = batch.lock();
            debug_assert!(slots
                .list
                .iter()
                .all(|slot| matches!(slot.state, State::Applied)));
            debug_assert_eq!(slots.ready, 0);
            slots.generation += 1;
            slots.plan = *plan;
            slots.eps = eps;
            slots.front = 0;
            slots.stalled = false;
            let missing = VECTORS.saturating_sub(slots.spare.len());
            let fresh = std::iter::repeat_with(|| Vec::with_capacity(VECTOR_PAIRS));
            slots.spare.extend(fresh.take(missing));
            slots.list.clear();
            // The pairs come filtered out of the frame's schedule, which
            // cannot tell the list their number: one allocation for a new
            // cursor's list, not a series of doublings.
            slots.list.reserve(len);
            slots.list.extend(pairs.map(|(r, s, rect)| Slot {
                leaves: (r, s),
                rect,
                state: State::Open,
            }));
            debug_assert_eq!(slots.list.len(), len);
            len
        };
        pool().post(Self::work(batch), open);
    }

    fn work(batch: &Arc<Batch<M>>) -> Weak<dyn Work> {
        Arc::downgrade(batch) as Weak<Batch<M>>
    }

    /// The cursor reaching slot `at`: adds its tallies to the meters and
    /// appends its pairs to `pending`. Returns `false` when the slot is
    /// the cursor's to run inline instead: no one claimed it, its helper
    /// panicked, or its helper is still running it and the cursor has
    /// nothing else to run (no open slot, or a full window) — that
    /// helper's result is dropped. While a helper still runs the slot, the
    /// cursor runs the front open slot into the batch.
    pub(crate) fn apply(
        &self,
        at: usize,
        scratch: &mut PairScratch,
        (cmp, sort_cmp): (&mut M, &mut M),
        pending: &mut VecDeque<Pair>,
    ) -> bool {
        let batch = self
            .batch
            .as_ref()
            .expect("a slot belongs to a published batch");
        let mut slots = batch.lock();
        loop {
            match mem::replace(&mut slots.list[at].state, State::Applied) {
                State::Open | State::Failed => return false,
                State::Done(mut out) => {
                    slots.ready -= 1;
                    cmp.add(out.cmp.get());
                    sort_cmp.add(out.sort_cmp.get());
                    pending.extend(out.pairs.drain(..));
                    slots.spare.push(out.pairs);
                    let resume = mem::take(&mut slots.stalled);
                    drop(slots);
                    if resume {
                        pool().post(Self::work(batch), 1);
                    }
                    return true;
                }
                State::Running => {
                    let Some(job) = slots.claim_front() else {
                        return false;
                    };
                    slots.list[at].state = State::Running;
                    drop(slots);
                    let (generation, ran, out) = job.run(scratch);
                    slots = batch.lock();
                    slots.settle(generation, ran, Some(out));
                }
                State::Applied => unreachable!("slot {at} applied twice"),
            }
        }
    }

    /// Publishes always, or never, whatever the live count says.
    #[cfg(test)]
    pub(crate) fn force(&mut self, on: bool) {
        self.forced = Some(on);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::exec::tests::{all_plans, build_tree, grid_items};
    use crate::exec::JoinCursor;
    use rsj_geom::{CmpCounter, NoOp};
    use rsj_rtree::RTree;
    use rsj_storage::{BufferPool, PageId};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// The address of a leaf whose leaf pairs panic (0: none).
    static POISON: AtomicUsize = AtomicUsize::new(0);
    /// Leaf pairs a helper ran to the end.
    pub(crate) static HELPER_RUNS: AtomicUsize = AtomicUsize::new(0);
    /// Leaf pairs whose helper panicked.
    pub(crate) static HELPER_PANICS: AtomicUsize = AtomicUsize::new(0);

    /// Called by [`leaf_pair`] on its R leaf.
    pub(crate) fn trip_poison(rn: &Node) {
        let poison = POISON.load(Relaxed);
        assert!(
            poison == 0 || poison != std::ptr::from_ref(rn) as usize,
            "poisoned leaf pair"
        );
    }

    /// Same height, and a tall R over a short S.
    fn fixtures() -> [(RTree, RTree); 2] {
        [
            (
                build_tree(&grid_items(400, 0.0, 6.0, 4.5), 200),
                build_tree(&grid_items(380, 2.0, 6.2, 4.5), 200),
            ),
            (
                build_tree(&grid_items(900, 0.0, 3.0, 2.5), 200),
                build_tree(&grid_items(60, 10.0, 14.0, 6.0), 200),
            ),
        ]
    }

    fn pool(r: &RTree, s: &RTree, pages: usize) -> BufferPool {
        BufferPool::with_capacity_pages(pages, &[r.height() as usize, s.height() as usize])
    }

    /// Runs a cursor that publishes every leaf batch and one that never
    /// does in lockstep: every `next()` and the `stats()` after it agree.
    fn lockstep<M: Meter>(r: &RTree, s: &RTree, plan: JoinPlan, pages: usize) {
        let cursor =
            |on| JoinCursor::<_, M>::metered(r, s, plan, pool(r, s, pages)).force_ahead(on);
        let (mut inline, mut helped) = (cursor(false), cursor(true));
        loop {
            let pair = inline.next();
            assert_eq!(helped.next(), pair, "{plan:?}");
            assert_eq!(helped.stats(), inline.stats(), "{plan:?}");
            if pair.is_none() {
                break;
            }
        }
    }

    #[test]
    fn helper_path_matches_the_inline_cursor_pair_by_pair() {
        let runs = HELPER_RUNS.load(Relaxed);
        for (r, s) in &fixtures() {
            assert_ne!(r.height(), 1);
            for plan in all_plans() {
                for pages in [0, 8] {
                    lockstep::<CmpCounter>(r, s, plan, pages);
                    lockstep::<NoOp>(r, s, plan, pages);
                }
            }
        }
        assert!(
            HELPER_RUNS.load(Relaxed) > runs,
            "no helper ran a leaf pair"
        );
    }

    /// Waits until `done` holds, for at most ten seconds.
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(start.elapsed() < Duration::from_secs(10), "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn leaves(t: &RTree) -> Vec<PageId> {
        let mut out = Vec::new();
        t.for_each_node(|p, n| {
            if n.is_leaf() {
                out.push(p);
            }
        });
        out
    }

    #[test]
    fn a_dropped_cursor_abandons_its_batch() {
        let r = build_tree(&grid_items(900, 0.0, 3.0, 2.5), 200);
        let s = build_tree(&grid_items(900, 1.0, 3.0, 2.5), 200);
        let mut cursor =
            JoinCursor::new(&r, &s, JoinPlan::sj4(), pool(&r, &s, 8)).force_ahead(true);
        for _ in 0..5 {
            cursor.next().expect("the join has more than five pairs");
        }
        let batch = cursor.ahead().batch.as_ref().expect("a published batch");
        {
            let slots = batch.lock();
            let unreached = |slot: &Slot<_>| !matches!(slot.state, State::Applied);
            assert!(slots.list.iter().any(unreached), "mid-batch");
        }
        let batch = Arc::downgrade(batch);
        drop(cursor);
        eventually("a helper still holds the batch", || {
            batch.strong_count() == 0
        });
        for (t, pages) in [(&r, leaves(&r)), (&s, leaves(&s))] {
            for p in pages {
                // The tree's handle and the one just taken.
                assert_eq!(Arc::strong_count(&t.node_shared(p)), 2, "leaf {p}");
            }
        }
    }

    #[test]
    fn a_helper_panic_surfaces_on_the_cursor_thread() {
        let r = Arc::new(build_tree(&grid_items(900, 0.0, 3.0, 2.5), 200));
        let s = Arc::new(build_tree(&grid_items(900, 1.0, 3.0, 2.5), 200));
        // The last leaf of R joins late in the run: a helper is likely
        // to reach it first.
        let poisoned = *leaves(&r).iter().max().unwrap();
        POISON.store(std::ptr::from_ref(r.node(poisoned)) as usize, Relaxed);
        let panics = HELPER_PANICS.load(Relaxed);
        let mut attempts = 0;
        while HELPER_PANICS.load(Relaxed) == panics {
            attempts += 1;
            assert!(attempts <= 200, "no helper ran the poisoned leaf pair");
            let (tx, rx) = mpsc::channel();
            let (r, s) = (Arc::clone(&r), Arc::clone(&s));
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let cursor = JoinCursor::new(&r, &s, JoinPlan::sj4(), pool(&r, &s, 8));
                    cursor.force_ahead(true).count()
                }));
                let message = |panic: Box<dyn std::any::Any + Send>| {
                    let text = panic.downcast_ref::<&str>().map(|m| m.to_string());
                    text.or_else(|| panic.downcast_ref::<String>().cloned())
                };
                tx.send(run.map_err(message)).unwrap();
            });
            let run = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the cursor deadlocked");
            let message = run.expect_err("the poisoned join must panic");
            assert!(message.is_some_and(|m| m.contains("poisoned leaf pair")));
        }
        POISON.store(0, Relaxed);
        // The helper survived its panic and serves the next join.
        let runs = HELPER_RUNS.load(Relaxed);
        eventually("no helper ran after the panic", || {
            let cursor = JoinCursor::new(&r, &s, JoinPlan::sj4(), pool(&r, &s, 8));
            cursor.force_ahead(true).count();
            HELPER_RUNS.load(Relaxed) > runs
        });
    }
}
