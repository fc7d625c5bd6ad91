//! The submission/completion queue.
//!
//! This is the io_uring-shaped core of the overlap story: demand misses
//! and read-schedule hints become *submissions* — `submit(lane, page)` →
//! [`Ticket`] — serviced by per-lane worker threads over real
//! [`PageFile`] handles, and the executor checks tickets
//! ([`CompletionQueue::is_complete`]) or parks on them
//! ([`CompletionQueue::await_ticket`]) instead of blocking inside
//! `access()`. A *lane* is one physical file (one per plain page file, one
//! per shard file of a sharded one), so submissions to different files
//! proceed in parallel while each lane stays FIFO — except that a demand
//! miss adopting a still-queued submission promotes it to the front of its
//! lane ([`crate::inflight::InflightTables`]). The queue is the engine of
//! the file-access stack's queued read strategy ([`crate::stack::Queued`])
//! and of [`crate::SharedPageCache`].
//!
//! ## Accounting invariants
//!
//! The owning backends charge [`IoStats`](crate::IoStats) *synchronously*
//! in `access()` through the shared [`crate::pool::hierarchy_access`]
//! chokepoint — identical, in order and in value, to
//! [`crate::BufferPool`]. Only the *physical read* is asynchronous. Every
//! submission is consumed by exactly one charged miss (hints beyond the
//! pipeline window are dropped at submission time, never
//! read-then-discarded), so once [`CompletionQueue::drain`] returns, the
//! lane read counters sum to exactly the reads the charges promised.
//!
//! A failed worker read completes its ticket (so no waiter hangs) and
//! poisons the queue; the next wait/drain panics, preserving the blocking
//! strategy's "storage broke mid-join" contract.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::access::Ticket;
use crate::codec::StorageError;
use crate::file::PageFile;
use crate::inflight::{InflightTables, Phase};
use crate::lru::BufKey;
use crate::page::PageId;

/// Test hook: per-page extra latency applied by the worker *before* the
/// physical read — lets the adversarial-order suites force completions
/// into any order (reversed, starved, random) without touching the files.
pub type DelayFn = Arc<dyn Fn(BufKey) -> Option<Duration> + Send + Sync>;

/// Configuration of a [`CompletionQueue`] and its owning backends.
#[derive(Clone)]
pub struct CompletionConfig {
    /// Worker threads per submission lane (minimum 1).
    pub workers_per_lane: usize,
    /// Maximum unconsumed submissions across the queue; *hints* beyond
    /// this are dropped at submission (demand always submits).
    pub window: usize,
    /// Optional per-page completion delay (tests only).
    pub delay: Option<DelayFn>,
}

impl Default for CompletionConfig {
    fn default() -> Self {
        CompletionConfig {
            workers_per_lane: 2,
            window: 32,
            delay: None,
        }
    }
}

impl fmt::Debug for CompletionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionConfig")
            .field("workers_per_lane", &self.workers_per_lane)
            .field("window", &self.window)
            .field("delay", &self.delay.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// Shared state between submitters, waiters and lane workers.
struct CqShared {
    state: Mutex<InflightTables>,
    /// Workers sleep here for submissions.
    wakeup: Condvar,
    /// Waiters ([`CompletionQueue::await_ticket`], drain, reset) sleep
    /// here for completions.
    complete: Condvar,
    /// Mirror of the completion frontier for the lock-free poll fast
    /// path: every ticket below this is complete.
    done_floor: AtomicU64,
    /// Mirror of `InflightTables::outstanding`.
    outstanding: AtomicUsize,
    /// Completed pages whose reads succeeded, per lane.
    reads: Vec<AtomicU64>,
    /// Total `is_complete` calls — the busy-spin budget tests meter.
    polls: AtomicU64,
    /// Summed submit→complete latency in nanoseconds (queue wait
    /// included), over `lag_samples` completions.
    lag_nanos: AtomicU64,
    lag_samples: AtomicU64,
    /// Worst single submit→complete latency seen, in nanoseconds.
    lag_max_nanos: AtomicU64,
    /// Sticky read-failure flag; surfaced as a panic at the next wait.
    failed: AtomicBool,
    delay: Option<DelayFn>,
}

/// Owns the worker threads; dropped exactly once, when the last
/// [`CompletionQueue`] clone goes away.
struct QueueCore {
    shared: Arc<CqShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for QueueCore {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.wakeup.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A cloneable handle to one submission/completion queue. Clones share
/// the lanes, tickets and workers — shard-parallel join workers each hold
/// one and submit on their own lanes; the workers shut down when the last
/// clone drops.
#[derive(Clone)]
pub struct CompletionQueue {
    core: Arc<QueueCore>,
}

impl fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("lanes", &self.lane_count())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl CompletionQueue {
    /// Opens one queue over `lane_paths`: lane `i` reads the page file at
    /// `lane_paths[i]`, with `workers_per_lane` dedicated threads each
    /// holding its own read-only [`PageFile`] handle (true per-file read
    /// parallelism; handles inherit [`crate::file::READ_LATENCY_ENV`]).
    pub fn open(
        lane_paths: &[PathBuf],
        workers_per_lane: usize,
        delay: Option<DelayFn>,
    ) -> Result<Self, StorageError> {
        let per_lane = workers_per_lane.max(1);
        // Open every handle before spawning anything, so a bad path is a
        // constructor error, not a dead worker.
        let mut handles = Vec::with_capacity(lane_paths.len() * per_lane);
        for (lane, path) in lane_paths.iter().enumerate() {
            for _ in 0..per_lane {
                handles.push((lane, PageFile::open(path)?));
            }
        }
        let shared = Arc::new(CqShared {
            state: Mutex::new(InflightTables::new(lane_paths.len())),
            wakeup: Condvar::new(),
            complete: Condvar::new(),
            done_floor: AtomicU64::new(1),
            outstanding: AtomicUsize::new(0),
            reads: (0..lane_paths.len()).map(|_| AtomicU64::new(0)).collect(),
            polls: AtomicU64::new(0),
            lag_nanos: AtomicU64::new(0),
            lag_samples: AtomicU64::new(0),
            lag_max_nanos: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            delay,
        });
        let workers = handles
            .into_iter()
            .map(|(lane, file)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, lane, file))
            })
            .collect();
        Ok(CompletionQueue {
            core: Arc::new(QueueCore { shared, workers }),
        })
    }

    #[inline]
    fn shared(&self) -> &CqShared {
        &self.core.shared
    }

    /// Number of submission lanes.
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.shared().reads.len()
    }

    /// Submits a read-ahead hint for `key` (slot `local` of `lane`'s
    /// file), unless the key is already submitted or the pipeline already
    /// holds `window` unconsumed submissions. Returns whether a
    /// submission was made.
    pub fn submit_hint(&self, lane: usize, key: BufKey, local: PageId, window: usize) -> bool {
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        if st.is_submitted(key) || st.pipeline_len() >= window {
            return false;
        }
        st.submit(lane, key, local);
        sh.outstanding.store(st.outstanding, Ordering::Relaxed);
        drop(st);
        // All lane workers share one wakeup condvar but each claims only
        // its own lane: notify_one could wake a wrong-lane worker, which
        // would re-sleep and strand the job (a lost wakeup = a ticket
        // that never completes = a parked cursor that never resumes).
        sh.wakeup.notify_all();
        true
    }

    /// A demand miss for `key`: adopts the existing submission if one is
    /// unconsumed (promoting it past queued read-ahead on its lane), or
    /// submits a fresh read. Returns the ticket the caller's frame parks
    /// on, and whether the adopted read was already started or staged by
    /// a hint (`true` = the hint paid; `false` = demand pays).
    pub fn adopt_or_submit(&self, lane: usize, key: BufKey, local: PageId) -> (Ticket, bool) {
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        if let Some(entry) = st.consume(key) {
            (Ticket(entry.ticket), entry.phase != Phase::Queued)
        } else {
            // A demand submission is already charged to its caller, so it
            // must not be adoptable by a later re-miss of the same key
            // (see [`InflightTables::submit_demand`]).
            let ticket = st.submit_demand(lane, key, local);
            sh.outstanding.store(st.outstanding, Ordering::Relaxed);
            drop(st);
            // notify_all for the same lost-wakeup reason as `submit_hint`.
            sh.wakeup.notify_all();
            (Ticket(ticket), false)
        }
    }

    /// Polls a ticket. Lock-free when the completion frontier has already
    /// passed it; every call is counted (see
    /// [`CompletionQueue::poll_count`]).
    pub fn is_complete(&self, ticket: Ticket) -> bool {
        if ticket.is_none() {
            return true;
        }
        let sh = self.shared();
        sh.polls.fetch_add(1, Ordering::Relaxed);
        if ticket.0 < sh.done_floor.load(Ordering::Acquire) {
            return true;
        }
        sh.state.lock().unwrap().is_done(ticket.0)
    }

    /// Blocks until `ticket` completes. Panics if any read failed — the
    /// "storage broke mid-join" contract of the blocking backends.
    pub fn await_ticket(&self, ticket: Ticket) {
        if ticket.is_none() {
            return;
        }
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        while !st.is_done(ticket.0) {
            st = sh.complete.wait(st).unwrap();
        }
        drop(st);
        self.check_failed();
    }

    /// Whether every submission up to **and including** `ticket` has
    /// completed — the emission-gate predicate
    /// ([`crate::NodeAccess::is_settled`]).
    /// Completions arrive out of submission order, so this is strictly
    /// stronger than [`CompletionQueue::is_complete`]; it is lock-free
    /// whenever it returns `true` (the frontier mirror suffices) and
    /// counted like any other poll.
    pub fn is_settled(&self, ticket: Ticket) -> bool {
        if ticket.is_none() {
            return true;
        }
        let sh = self.shared();
        sh.polls.fetch_add(1, Ordering::Relaxed);
        if ticket.0 < sh.done_floor.load(Ordering::Acquire) {
            return true;
        }
        ticket.0 < sh.state.lock().unwrap().done_floor()
    }

    /// Blocks until [`CompletionQueue::is_settled`] holds for `ticket`.
    /// Panics if any read failed (the mid-join contract).
    pub fn await_settled(&self, ticket: Ticket) {
        if ticket.is_none() {
            return;
        }
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        while ticket.0 >= st.done_floor() {
            st = sh.complete.wait(st).unwrap();
        }
        drop(st);
        self.check_failed();
    }

    /// Blocks until every submission has completed — the honesty point at
    /// which lane reads equal the charges that promised them.
    pub fn drain(&self) {
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        while st.outstanding > 0 {
            st = sh.complete.wait(st).unwrap();
        }
        drop(st);
        self.check_failed();
    }

    /// Submissions not yet completed (queued + being read).
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.shared().outstanding.load(Ordering::Relaxed)
    }

    /// Unconsumed submissions (the window the hint bound applies to).
    pub fn pipeline_len(&self) -> usize {
        self.shared().state.lock().unwrap().pipeline_len()
    }

    /// Completed-but-unconsumed submissions (staged pages).
    pub fn staged_len(&self) -> usize {
        self.shared().state.lock().unwrap().staged_len()
    }

    /// Successful reads performed on `lane` so far.
    #[inline]
    pub fn lane_reads(&self, lane: usize) -> u64 {
        self.shared().reads[lane].load(Ordering::Relaxed)
    }

    /// Successful reads across all lanes.
    pub fn total_reads(&self) -> u64 {
        self.shared()
            .reads
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .sum()
    }

    /// Total `is_complete` calls so far (busy-spin metering).
    #[inline]
    pub fn poll_count(&self) -> u64 {
        self.shared().polls.load(Ordering::Relaxed)
    }

    /// Submissions currently queued on `lane` — waiting for a worker,
    /// not yet being read (one term of [`CompletionQueue::in_flight`]).
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.shared().state.lock().unwrap().lane_depth(lane)
    }

    /// Submit→complete latency accounting across all completions so
    /// far: queue wait plus read service time, per completed job.
    pub fn completion_lag(&self) -> CompletionLag {
        let sh = self.shared();
        CompletionLag {
            total_nanos: sh.lag_nanos.load(Ordering::Relaxed),
            samples: sh.lag_samples.load(Ordering::Relaxed),
            max_nanos: sh.lag_max_nanos.load(Ordering::Relaxed),
        }
    }

    /// Abandons queued submissions, waits out in-progress reads, forgets
    /// staged completions and zeroes the read/poll counters — a cold
    /// queue for the next measurement. Ticket numbering continues
    /// (completed stays completed).
    pub fn reset(&self) {
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        st.abandon_queued();
        sh.done_floor.store(st.done_floor(), Ordering::Release);
        while st.outstanding > 0 {
            st = sh.complete.wait(st).unwrap();
        }
        st.clear_consumed();
        sh.done_floor.store(st.done_floor(), Ordering::Release);
        sh.outstanding.store(0, Ordering::Relaxed);
        drop(st);
        self.check_failed();
        for r in &sh.reads {
            r.store(0, Ordering::Relaxed);
        }
        sh.polls.store(0, Ordering::Relaxed);
        sh.lag_nanos.store(0, Ordering::Relaxed);
        sh.lag_samples.store(0, Ordering::Relaxed);
        sh.lag_max_nanos.store(0, Ordering::Relaxed);
    }

    fn check_failed(&self) {
        if self.shared().failed.load(Ordering::Relaxed) {
            panic!("completion-queue page read failed mid-join");
        }
    }
}

/// Submit→complete latency totals of a [`CompletionQueue`] (queue wait
/// plus read service time, accumulated per completed job).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompletionLag {
    /// Summed lag over all completions, nanoseconds.
    pub total_nanos: u64,
    /// Completions accumulated into `total_nanos`.
    pub samples: u64,
    /// Worst single completion lag, nanoseconds.
    pub max_nanos: u64,
}

impl CompletionLag {
    /// Mean submit→complete latency in nanoseconds (0 with no samples).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.samples).unwrap_or(0)
    }
}

/// One lane worker: claim the lane's oldest submission, read it with this
/// worker's own file handle (injected latency and the test delay hook
/// apply here), complete the ticket, repeat until shutdown.
fn worker_loop(shared: Arc<CqShared>, lane: usize, mut file: PageFile) {
    let mut buf = Vec::new();
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.claim(lane) {
                    break job;
                }
                st = shared.wakeup.wait(st).unwrap();
            }
        };
        if let Some(delay) = &shared.delay {
            if let Some(d) = delay(job.key) {
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
            }
        }
        // A demand read can land on a page a concurrent updater appended
        // through its own rw handle: the slot bytes hit the disk on
        // append, but this worker's header (cached at open) — and the
        // on-disk header, until the updater flushes — still carry the old
        // page count. Retry once against the physical file length before
        // declaring the read failed.
        let read = file
            .read_page_into(job.local, &mut buf)
            .or_else(|_| file.read_slot_fresh(job.local, &mut buf));
        match read {
            Ok(()) => {
                shared.reads[lane].fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.failed.store(true, Ordering::Relaxed);
            }
        }
        let lag = job.submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        shared.lag_nanos.fetch_add(lag, Ordering::Relaxed);
        shared.lag_samples.fetch_add(1, Ordering::Relaxed);
        shared.lag_max_nanos.fetch_max(lag, Ordering::Relaxed);
        let mut st = shared.state.lock().unwrap();
        st.complete(&job);
        shared.done_floor.store(st.done_floor(), Ordering::Release);
        shared.outstanding.store(st.outstanding, Ordering::Relaxed);
        drop(st);
        shared.complete.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::EvictionPolicy;
    use crate::pool::IoStats;
    use crate::temp::demo::demo_file;
    use crate::temp::TempDir;
    use crate::{CompletionFileAccess, NodeAccess};

    fn completion_access(dir: &TempDir, pages: u32, cfg: CompletionConfig) -> CompletionFileAccess {
        let f = demo_file(dir, "t.rsj", pages);
        CompletionFileAccess::with_capacity_pages(vec![f], 2, &[2], EvictionPolicy::Lru, cfg)
            .unwrap()
    }

    #[test]
    fn hints_stage_reads_that_demand_adopts() {
        let dir = TempDir::new("cq").unwrap();
        let mut acc = completion_access(&dir, 4, CompletionConfig::default());
        acc.will_access(0, PageId(3), 1);
        // Wait for the hint's read to stage.
        for _ in 0..500 {
            if acc.queue().staged_len() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(acc.queue().staged_len(), 1);
        assert!(acc.access(0, PageId(3), 1), "still a charged miss");
        assert_eq!(acc.staged_hits(), 1);
        assert_eq!(acc.demand_reads(), 0);
        assert!(
            acc.is_complete(acc.last_miss_ticket()),
            "adopted ticket was already complete"
        );
    }

    #[test]
    fn await_ticket_blocks_until_a_delayed_completion() {
        let dir = TempDir::new("cq").unwrap();
        let cfg = CompletionConfig {
            delay: Some(Arc::new(|_| Some(Duration::from_millis(20)))),
            ..CompletionConfig::default()
        };
        let mut acc = completion_access(&dir, 4, cfg);
        assert!(acc.access(0, PageId(2), 1));
        let t = acc.last_miss_ticket();
        acc.await_ticket(t);
        assert!(acc.is_complete(t));
        assert_eq!(acc.queue().total_reads(), 1);
    }

    #[test]
    fn hint_window_bounds_the_pipeline() {
        let dir = TempDir::new("cq").unwrap();
        let cfg = CompletionConfig {
            window: 2,
            // Hold completions so the pipeline cannot drain under us.
            delay: Some(Arc::new(|_| Some(Duration::from_millis(50)))),
            ..CompletionConfig::default()
        };
        let mut acc = completion_access(&dir, 8, cfg);
        for p in 0..8 {
            acc.will_access(0, PageId(p), 1);
        }
        assert!(acc.queue().pipeline_len() <= 2);
        acc.drain_completions();
        assert!(
            acc.queue().total_reads() <= 2,
            "over-window hints were never read"
        );
    }

    #[test]
    fn reset_restores_a_cold_backend() {
        let dir = TempDir::new("cq").unwrap();
        let mut acc = completion_access(&dir, 4, CompletionConfig::default());
        acc.will_access(0, PageId(3), 1);
        acc.access(0, PageId(1), 1);
        acc.reset();
        assert_eq!(acc.stats(), IoStats::default());
        assert_eq!(acc.queue().total_reads(), 0);
        assert_eq!(acc.queue().staged_len(), 0);
        assert_eq!((acc.staged_hits(), acc.demand_reads()), (0, 0));
        assert_eq!(acc.queue().poll_count(), 0);
        assert!(acc.access(0, PageId(1), 1), "cold again after reset");
        assert_eq!(acc.demand_reads(), 1);
    }

    #[test]
    fn drop_with_pending_submissions_does_not_hang() {
        let dir = TempDir::new("cq").unwrap();
        let cfg = CompletionConfig {
            delay: Some(Arc::new(|_| Some(Duration::from_millis(5)))),
            ..CompletionConfig::default()
        };
        let mut acc = completion_access(&dir, 8, cfg);
        for p in 0..8 {
            acc.will_access(0, PageId(p), 1);
        }
        drop(acc); // joins workers without draining the queue
    }

    #[test]
    fn out_of_order_completions_fold_into_the_poll_fast_path() {
        let dir = TempDir::new("cq").unwrap();
        // First submitted page completes last.
        let cfg = CompletionConfig {
            workers_per_lane: 2,
            delay: Some(Arc::new(|key: BufKey| {
                (key.page == PageId(0)).then(|| Duration::from_millis(30))
            })),
            ..CompletionConfig::default()
        };
        let mut acc = completion_access(&dir, 4, cfg);
        assert!(acc.access(0, PageId(0), 1));
        let slow = acc.last_miss_ticket();
        assert!(acc.access(0, PageId(1), 1));
        let fast = acc.last_miss_ticket();
        assert!(slow < fast);
        acc.await_ticket(fast);
        assert!(acc.is_complete(fast), "later ticket completed first");
        acc.await_ticket(slow);
        assert!(acc.is_complete(slow));
        assert_eq!(acc.queue().total_reads(), 2);
    }
}
